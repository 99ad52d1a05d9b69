#include "format/encoding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitutil.h"

namespace sirius::format {

// Words are stored and loaded with memcpy, so the stream's bit order is the
// host's byte order.
static_assert(std::endian::native == std::endian::little,
              "the packed layout is a little-endian bit stream");

const char* CodecName(Codec c) {
  switch (c) {
    case Codec::kPlain:
      return "plain";
    case Codec::kForBitpack:
      return "for-bitpack";
    case Codec::kDict:
      return "dict";
  }
  return "?";
}

int BitsFor(uint64_t value) { return static_cast<int>(std::bit_width(value)); }

namespace {

uint64_t WidthMask(int bit_width) {
  return bit_width == 64 ? ~uint64_t{0} : (uint64_t{1} << bit_width) - 1;
}

/// Packs get(0), ..., get(n-1) (each < 2^bit_width) into `out` through one
/// 64-bit accumulator: each full word is stored with one 8-byte write, the
/// last partial word with only the bytes it occupies.
template <typename Get>
void PackWords(size_t n, int bit_width, uint8_t* out, Get get) {
  if (bit_width == 0) return;
  uint64_t acc = 0;
  int filled = 0;  // bits of acc in use; below 64 between values
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = get(i);
    acc |= v << filled;
    filled += bit_width;
    if (filled >= 64) {
      std::memcpy(out, &acc, sizeof(acc));
      out += sizeof(acc);
      filled -= 64;
      // The top `filled` bits of v did not fit in the stored word.
      acc = filled == 0 ? 0 : v >> (bit_width - filled);
    }
  }
  if (filled > 0) std::memcpy(out, &acc, bit::BytesForBits(filled));
}

/// Value J (0..7) of the block of eight W-bit values that starts at
/// `block`, which holds exactly W bytes. Every load stays inside the block:
/// below 8 bits the block's W bytes form one word; wider values take the
/// 8-byte window at their first byte, or the block's last 8 bytes when that
/// window would cross the block's end, plus the window's next byte when a
/// value of more than 56 bits straddles it. Offsets and shifts are
/// constants.
template <int W, int J>
uint64_t BlockValue(const uint8_t* block) {
  constexpr uint64_t kMask = W == 64 ? ~uint64_t{0} : (uint64_t{1} << W) - 1;
  constexpr size_t kBit = static_cast<size_t>(J) * W;
  constexpr size_t kByte = kBit / 8;
  uint64_t word = 0;
  if constexpr (W < 8) {
    for (int k = 0; k < W; ++k) word |= uint64_t{block[k]} << (8 * k);
    return (word >> kBit) & kMask;
  } else if constexpr (kByte + 8 > W) {
    std::memcpy(&word, block + W - 8, sizeof(word));
    return (word >> (kBit - 8 * (W - 8))) & kMask;
  } else {
    constexpr size_t kShift = kBit % 8;
    std::memcpy(&word, block + kByte, sizeof(word));
    uint64_t v = word >> kShift;
    if constexpr (kShift + W > 64) {
      v |= uint64_t{block[kByte + 8]} << (64 - kShift);
    }
    return v & kMask;
  }
}

/// out[i] = base + value i (wrapping) for the 8 * `blocks` values of a W-bit
/// stream. Width 0 reads nothing: it fills `out` with base.
template <typename T, int W>
void UnpackBlocks(const uint8_t* packed, size_t blocks, uint64_t base, T* out) {
  for (size_t b = 0; b < blocks; ++b, packed += W, out += 8) {
    [&]<int... J>(std::integer_sequence<int, J...>) {
      // All loads before any store: `out` may alias the bytes.
      const uint64_t v[] = {BlockValue<W, J>(packed)...};
      ((out[J] = static_cast<T>(base + v[J])), ...);
    }(std::make_integer_sequence<int, 8>{});
  }
}

template <typename T>
using UnpackFn = void (*)(const uint8_t*, size_t, uint64_t, T*);

template <typename T, int... W>
constexpr std::array<UnpackFn<T>, sizeof...(W)> UnpackTable(
    std::integer_sequence<int, W...>) {
  return {&UnpackBlocks<T, W>...};
}

/// out[i] = base + value i (wrapping) for the first n values of a
/// bit_width-wide stream: whole blocks through the width's kernel, the last
/// partial block through BitpackRead, so no load passes the stream's
/// BytesForBits(n * bit_width) bytes.
template <typename T>
void Unpack(const uint8_t* packed, size_t n, int bit_width, uint64_t base,
            T* out) {
  static constexpr auto kKernels =
      UnpackTable<T>(std::make_integer_sequence<int, 65>{});
  SIRIUS_CHECK(bit_width >= 0 && bit_width <= 64);
  kKernels[static_cast<size_t>(bit_width)](packed, n / 8, base, out);
  for (size_t i = n / 8 * 8; i < n; ++i) {
    out[i] = static_cast<T>(base + BitpackRead(packed, i, bit_width));
  }
}

}  // namespace

void BitpackInto(const uint64_t* values, size_t n, int bit_width, uint8_t* out) {
  PackWords(n, bit_width, out, [values](size_t i) { return values[i]; });
}

uint64_t BitpackRead(const uint8_t* packed, size_t i, int bit_width) {
  if (bit_width == 0) return 0;
  const size_t bit = i * static_cast<size_t>(bit_width);
  const uint8_t* p = packed + (bit >> 3);
  const unsigned shift = bit & 7;
  const size_t bytes =
      bit::BytesForBits(shift + static_cast<size_t>(bit_width));
  uint64_t word = 0;
  std::memcpy(&word, p, std::min(bytes, sizeof(word)));
  uint64_t v = word >> shift;
  if (bytes > sizeof(word)) v |= uint64_t{p[8]} << (64 - shift);
  return v & WidthMask(bit_width);
}

void BitpackUnpack(const uint8_t* packed, size_t n, int bit_width,
                   uint64_t* out) {
  Unpack(packed, n, bit_width, 0, out);
}

namespace {

mem::Buffer CopyBuffer(const void* src, size_t bytes) {
  mem::Buffer b = mem::Buffer::Allocate(bytes).ValueOrDie();
  if (bytes > 0) std::memcpy(b.data(), src, bytes);
  return b;
}

mem::Buffer CopyValidity(const Column& col) {
  if (!col.has_nulls()) return {};
  return CopyBuffer(col.validity(), bit::BytesForBits(col.length()));
}

/// A copy of an encoded validity bitmap (empty stays empty).
mem::Buffer CopyValidity(const EncodedColumn& e) {
  if (e.validity_.empty()) return {};
  return CopyBuffer(e.validity_.data(), e.validity_.size());
}

/// Packed buffer for n values at bit_width, zero-initialized.
mem::Buffer PackedBuffer(size_t n, int bit_width) {
  size_t bytes = bit::BytesForBits(n * static_cast<size_t>(bit_width));
  return mem::Buffer::AllocateZeroed(std::max<size_t>(1, bytes)).ValueOrDie();
}

/// Gathers the integer values of a fixed-width column as int64 (nulls -> 0).
void ValuesAsInt64(const Column& col, std::vector<int64_t>* out) {
  const size_t n = col.length();
  out->resize(n);
  switch (col.type().byte_width()) {
    case 8:
      if (n > 0) std::memcpy(out->data(), col.data<int64_t>(), n * 8);
      break;
    case 4: {
      const int32_t* src = col.data<int32_t>();
      for (size_t i = 0; i < n; ++i) (*out)[i] = src[i];
      break;
    }
    default: {
      const uint8_t* src = col.data<uint8_t>();
      for (size_t i = 0; i < n; ++i) (*out)[i] = src[i];
    }
  }
  // Normalize null slots so they cannot blow up the value range.
  if (col.has_nulls()) {
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) (*out)[i] = 0;
    }
  }
}

Result<EncodedColumn> EncodeForBitpack(const ColumnPtr& col) {
  EncodedColumn e;
  e.type_ = col->type();
  e.length_ = col->length();
  e.plain_bytes_ = col->MemoryUsage();
  e.validity_ = CopyValidity(*col);
  e.null_count_ = col->null_count();

  std::vector<int64_t> values;
  ValuesAsInt64(*col, &values);
  int64_t min = 0, max = 0;
  if (!values.empty()) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    min = *lo;
    max = *hi;
  }
  // Deltas are taken in unsigned arithmetic: max - min can exceed INT64_MAX.
  const uint64_t base = static_cast<uint64_t>(min);
  e.codec_ = Codec::kForBitpack;
  e.frame_of_reference_ = min;
  e.bit_width_ = BitsFor(static_cast<uint64_t>(max) - base);
  e.data_ = PackedBuffer(values.size(), e.bit_width_);
  PackWords(values.size(), e.bit_width_, e.data_.data(), [&](size_t i) {
    return static_cast<uint64_t>(values[i]) - base;
  });
  return e;
}

Result<EncodedColumn> EncodePlain(const ColumnPtr& col) {
  EncodedColumn e;
  e.type_ = col->type();
  e.length_ = col->length();
  e.plain_bytes_ = col->MemoryUsage();
  e.codec_ = Codec::kPlain;
  e.validity_ = CopyValidity(*col);
  e.null_count_ = col->null_count();
  if (col->type().is_string()) {
    e.aux_ = CopyBuffer(col->offsets(), (col->length() + 1) * sizeof(int64_t));
    e.chars_ = CopyBuffer(col->chars(), col->chars_size());
  } else {
    e.data_ = CopyBuffer(col->data<uint8_t>(),
                         col->length() * col->type().byte_width());
  }
  return e;
}

/// `by_code[c]` is the string with code c; `codes[i]` is row i's code (0
/// for null rows).
Result<EncodedColumn> EncodeDict(const ColumnPtr& col,
                                 const std::vector<std::string_view>& by_code,
                                 const std::vector<uint64_t>& codes) {
  EncodedColumn e;
  e.type_ = col->type();
  e.length_ = col->length();
  e.plain_bytes_ = col->MemoryUsage();
  e.codec_ = Codec::kDict;
  e.validity_ = CopyValidity(*col);
  e.null_count_ = col->null_count();
  e.dict_size_ = by_code.size();
  e.bit_width_ =
      std::max(1, BitsFor(by_code.empty() ? 0 : by_code.size() - 1));

  // Dictionary payload (offsets + chars), in code order.
  std::vector<int64_t> offsets(by_code.size() + 1, 0);
  std::string chars;
  for (size_t c = 0; c < by_code.size(); ++c) {
    chars.append(by_code[c].data(), by_code[c].size());
    offsets[c + 1] = static_cast<int64_t>(chars.size());
  }
  e.aux_ = CopyBuffer(offsets.data(), offsets.size() * sizeof(int64_t));
  e.chars_ = CopyBuffer(chars.data(), chars.size());

  // Codes, bit-packed.
  e.data_ = PackedBuffer(col->length(), e.bit_width_);
  BitpackInto(codes.data(), codes.size(), e.bit_width_, e.data_.data());
  return e;
}

/// Dictionary-encodes when the distinct count is low enough to pay off.
/// One pass numbers the distinct values in first-appearance order and
/// records each row's code.
Result<EncodedColumn> EncodeString(const ColumnPtr& col) {
  const size_t n = col->length();
  const size_t max_distinct = n / 2 + 1;
  std::unordered_map<std::string_view, uint64_t> code_of;
  // Room for one past the most a dictionary may hold: the map never
  // rehashes, not even on the insert that rejects the dictionary.
  code_of.reserve(max_distinct + 1);
  std::vector<std::string_view> by_code;
  std::vector<uint64_t> codes(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (col->IsNull(i)) continue;
    const auto [it, inserted] =
        code_of.try_emplace(col->StringAt(i), by_code.size());
    if (inserted) {
      by_code.push_back(it->first);
      if (by_code.size() > max_distinct) {
        return EncodePlain(col);  // high cardinality: not worth it
      }
    }
    codes[i] = it->second;
  }
  return EncodeDict(col, by_code, codes);
}

template <typename T>
void DecodeFor(const EncodedColumn& e, T* out) {
  // Unsigned addition wraps exactly like the encoder's subtraction.
  Unpack(e.data_.data(), e.length_, e.bit_width_,
         static_cast<uint64_t>(e.frame_of_reference_), out);
}

/// Dictionary strings up to this long are copied as one fixed-size block.
constexpr size_t kDictCopyBytes = 32;

Result<ColumnPtr> DecodeDict(const EncodedColumn& e) {
  const size_t n = e.length_;
  const int64_t* dict_offsets = e.aux_.data_as<int64_t>();
  const uint8_t* validity = e.validity_.empty() ? nullptr : e.validity_.data();
  auto is_valid = [validity](size_t i) {
    return validity == nullptr || bit::GetBit(validity, i);
  };

  // The codes are unpacked once; the offsets pass and the copy pass read
  // them.
  const auto codes = std::make_unique_for_overwrite<uint64_t[]>(n);
  Unpack(e.data_.data(), n, e.bit_width_, 0, codes.get());

  // Offsets first, so the chars buffer is allocated once at its final size.
  mem::Buffer offsets_buf =
      mem::Buffer::Allocate((n + 1) * sizeof(int64_t)).ValueOrDie();
  int64_t* offsets = offsets_buf.data_as<int64_t>();
  offsets[0] = 0;
  int64_t end = 0;
  for (size_t i = 0; i < n; ++i) {
    if (is_valid(i)) {
      const uint64_t code = codes[i];
      if (code >= e.dict_size_) {
        return Status::Internal("Decode: dictionary code out of range");
      }
      end += dict_offsets[code + 1] - dict_offsets[code];
    }
    offsets[i + 1] = end;
  }

  // When no dictionary string is longer than kDictCopyBytes, a row copies
  // that fixed block (from a copy of the dictionary padded by as much)
  // while the output has room for it. Rows are written in order, so the
  // next row overwrites the excess; only the last rows copy exactly.
  int64_t longest = 0;
  for (size_t c = 0; c < e.dict_size_; ++c) {
    longest = std::max(longest, dict_offsets[c + 1] - dict_offsets[c]);
  }
  const char* dict_chars = e.chars_.data_as<char>();
  std::vector<char> padded;
  int64_t fixed_end = -1;  // rows starting at or before this copy a block
  if (longest <= static_cast<int64_t>(kDictCopyBytes)) {
    padded.resize(e.chars_.size() + kDictCopyBytes);
    if (!e.chars_.empty()) {
      std::memcpy(padded.data(), e.chars_.data(), e.chars_.size());
    }
    dict_chars = padded.data();
    fixed_end = end - static_cast<int64_t>(kDictCopyBytes);
  }
  mem::Buffer chars =
      mem::Buffer::Allocate(static_cast<size_t>(end)).ValueOrDie();
  uint8_t* out = chars.data();
  for (size_t i = 0; i < n; ++i) {
    if (!is_valid(i)) continue;
    const char* src = dict_chars + dict_offsets[codes[i]];
    if (offsets[i] <= fixed_end) {
      std::memcpy(out + offsets[i], src, kDictCopyBytes);
    } else if (offsets[i + 1] > offsets[i]) {
      const auto len = static_cast<size_t>(offsets[i + 1] - offsets[i]);
      std::memcpy(out + offsets[i], src, len);
    }
  }
  return Column::MakeString(std::move(offsets_buf), std::move(chars), n,
                            CopyValidity(e), e.null_count_);
}

}  // namespace

Result<EncodedColumn> Encode(const ColumnPtr& column) {
  if (column == nullptr) return Status::Invalid("Encode: null column");
  switch (column->type().id) {
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDecimal64:
    case TypeId::kDate32:
    case TypeId::kBool:
      return EncodeForBitpack(column);
    case TypeId::kFloat64:
      return EncodePlain(column);
    case TypeId::kList: {
      // Nested types pass through uncompressed (future work, like the
      // paper's own compression roadmap).
      EncodedColumn e;
      e.type_ = column->type();
      e.length_ = column->length();
      e.plain_bytes_ = column->MemoryUsage();
      e.codec_ = Codec::kPlain;
      e.passthrough_ = column;
      return e;
    }
    case TypeId::kString:
      return EncodeString(column);
  }
  return Status::Internal("Encode: unhandled type");
}

Result<ColumnPtr> Decode(const EncodedColumn& e) {
  const size_t n = e.length_;
  if (e.passthrough_ != nullptr) return e.passthrough_;
  switch (e.codec_) {
    case Codec::kPlain: {
      if (e.type_.is_string()) {
        mem::Buffer off = CopyBuffer(e.aux_.data(), e.aux_.size());
        mem::Buffer chars = CopyBuffer(e.chars_.data(), e.chars_.size());
        return Column::MakeString(std::move(off), std::move(chars), n,
                                  CopyValidity(e), e.null_count_);
      }
      mem::Buffer data = CopyBuffer(e.data_.data(), e.data_.size());
      return Column::MakeFixed(e.type_, std::move(data), n, CopyValidity(e),
                               e.null_count_);
    }
    case Codec::kForBitpack: {
      const int width = e.type_.byte_width();
      mem::Buffer data =
          mem::Buffer::Allocate(std::max<size_t>(1, n * width)).ValueOrDie();
      switch (width) {
        case 8:
          DecodeFor(e, data.data_as<int64_t>());
          break;
        case 4:
          DecodeFor(e, data.data_as<int32_t>());
          break;
        default:
          DecodeFor(e, data.data_as<uint8_t>());
      }
      return Column::MakeFixed(e.type_, std::move(data), n, CopyValidity(e),
                               e.null_count_);
    }
    case Codec::kDict:
      return DecodeDict(e);
  }
  return Status::Internal("Decode: unhandled codec");
}

}  // namespace sirius::format
