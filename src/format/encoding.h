// Lightweight columnar compression for the GPU caching region.
//
// The paper (§3.4) names lightweight compression (FastLanes-class [18]) as
// the lever against GPU memory capacity limits; Sirius' buffer manager
// stores cached columns encoded and decodes on scan. Codecs:
//   - kForBitpack : frame-of-reference + bit packing (ints, decimals, dates)
//   - kDict       : dictionary + bit-packed codes (low-cardinality strings)
//   - kPlain      : verbatim (doubles, high-cardinality strings, bools)
// Codec choice is automatic per column.
//
// Packed values form one dense little-endian bit stream: value i occupies
// bits [i*w, (i+1)*w), with no padding between values. Dictionary codes
// number the distinct strings in first-appearance order. This is not
// FastLanes' transposed layout. Encode packs through one 64-bit accumulator.
// Decode works in blocks: eight w-bit values fill exactly w bytes, so a
// table indexed by w picks a kernel that unpacks a whole block with
// constant byte offsets and shifts, without a branch, every load inside the
// block. Width 0 is a fill. The values of a last, partial block go through
// BitpackRead, which never loads past the stream's last byte. A dictionary
// column unpacks its codes once; it then computes every row's offset, so
// the chars buffer is allocated once at its final size, and copies each
// row's string.

#pragma once

#include <cstdint>

#include "common/result.h"
#include "format/column.h"

namespace sirius::format {

enum class Codec : uint8_t { kPlain, kForBitpack, kDict };

const char* CodecName(Codec c);

/// \brief A compressed column: payload buffers + enough metadata to decode.
class EncodedColumn {
 public:
  const DataType& type() const { return type_; }
  size_t length() const { return length_; }
  Codec codec() const { return codec_; }

  /// Total compressed footprint (payload + aux + validity), bytes.
  uint64_t CompressedBytes() const {
    if (passthrough_ != nullptr) return passthrough_->MemoryUsage();
    return data_.size() + aux_.size() + chars_.size() + validity_.size();
  }

  /// The uncompressed footprint of the source column, bytes.
  uint64_t PlainBytes() const { return plain_bytes_; }

  double CompressionRatio() const {
    uint64_t c = CompressedBytes();
    return c == 0 ? 1.0 : static_cast<double>(plain_bytes_) / static_cast<double>(c);
  }

  // Representation is exposed for the codec implementation and tests; treat
  // as read-only outside encoding.cc.
  DataType type_;
  size_t length_ = 0;
  Codec codec_ = Codec::kPlain;
  uint64_t plain_bytes_ = 0;

  mem::Buffer data_;   ///< packed values / codes / plain payload
  mem::Buffer aux_;    ///< dict offsets (int64) for kDict; offsets for plain strings
  mem::Buffer chars_;  ///< dict/plain string characters
  mem::Buffer validity_;
  size_t null_count_ = 0;

  // kForBitpack / kDict parameters.
  int64_t frame_of_reference_ = 0;
  int bit_width_ = 0;
  size_t dict_size_ = 0;
  /// Uncompressed passthrough for nested types.
  ColumnPtr passthrough_;
};

/// Compresses a column, picking the best applicable codec.
Result<EncodedColumn> Encode(const ColumnPtr& column);

/// Exact inverse of Encode (round-trips values, nulls, types).
Result<ColumnPtr> Decode(const EncodedColumn& encoded);

/// \name Bit-packing primitives (exposed for tests).
/// @{
/// Bits needed to represent `value` (0 -> 0 bits).
int BitsFor(uint64_t value);
/// Packs `values[i]` (each < 2^bit_width) into a dense bit stream. Writes
/// exactly BytesForBits(n * bit_width) bytes of `out`.
void BitpackInto(const uint64_t* values, size_t n, int bit_width, uint8_t* out);
/// Reads the i-th `bit_width`-wide value from a dense bit stream, touching
/// only the bytes that hold it.
uint64_t BitpackRead(const uint8_t* packed, size_t i, int bit_width);
/// Reads the first `n` values of a stream into `out`, loading none of the
/// stream past its BytesForBits(n * bit_width) bytes.
void BitpackUnpack(const uint8_t* packed, size_t n, int bit_width,
                   uint64_t* out);
/// @}

}  // namespace sirius::format
