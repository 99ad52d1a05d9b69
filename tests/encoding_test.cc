// Tests for the lightweight compression codecs (FOR-bitpack, dictionary)
// used by the Sirius caching region (§3.4).

#include <gtest/gtest.h>

#include <random>

#include "format/builder.h"
#include "format/encoding.h"
#include "ssb/dbgen.h"
#include "tpch/dbgen.h"

namespace sirius::format {
namespace {

void ExpectRoundTrip(const ColumnPtr& col, Codec expected_codec) {
  auto encoded = Encode(col).ValueOrDie();
  EXPECT_EQ(encoded.codec(), expected_codec) << CodecName(encoded.codec());
  auto decoded = Decode(encoded).ValueOrDie();
  EXPECT_TRUE(decoded->Equals(*col));
}

TEST(BitpackTest, BitsFor) {
  EXPECT_EQ(BitsFor(0), 0);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
  EXPECT_EQ(BitsFor(UINT64_MAX), 64);
}

TEST(BitpackTest, PackUnpackWidths) {
  // Packed buffers are exactly as long as the bit stream, so a read or write
  // past its last byte is a heap overflow under ASan. Widths 57-64 straddle
  // a 64-bit word at some bit offsets.
  for (int width = 0; width <= 64; ++width) {
    for (size_t n : {0, 1, 7, 8, 63, 64, 65, 257}) {
      std::mt19937_64 rng(static_cast<uint64_t>(width) * 1000 + n);
      std::vector<uint64_t> values(n);
      const uint64_t mask =
          width == 64 ? UINT64_MAX : ((uint64_t{1} << width) - 1);
      for (auto& v : values) v = rng() & mask;
      const size_t bytes = (n * static_cast<size_t>(width) + 7) / 8;
      std::vector<uint8_t> packed(bytes, 0);
      BitpackInto(values.data(), n, width, packed.data());
      std::vector<uint64_t> unpacked(n, ~uint64_t{0});
      BitpackUnpack(packed.data(), bytes, n, width, unpacked.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(BitpackRead(packed.data(), i, width), values[i])
            << "width " << width << " n " << n << " index " << i;
        ASSERT_EQ(unpacked[i], values[i])
            << "width " << width << " n " << n << " index " << i;
      }
    }
  }
}

TEST(EncodingTest, IntForBitpackRoundTrip) {
  ExpectRoundTrip(Column::FromInt64({100, 101, 105, 100, 199}),
                  Codec::kForBitpack);
  ExpectRoundTrip(Column::FromInt64({-5, 0, 5}), Codec::kForBitpack);
  ExpectRoundTrip(Column::FromInt64({7, 7, 7, 7}), Codec::kForBitpack);  // 0 bits
  ExpectRoundTrip(Column::FromInt64({}), Codec::kForBitpack);
  ExpectRoundTrip(Column::FromInt32({1, 2, 1 << 20}), Codec::kForBitpack);
  ExpectRoundTrip(Column::FromDate({8035, 9298, 10000}), Codec::kForBitpack);
  ExpectRoundTrip(Column::FromDecimal({199, 5000, 1}, 2), Codec::kForBitpack);
  ExpectRoundTrip(Column::FromBool({true, false, true}), Codec::kForBitpack);
}

TEST(EncodingTest, NullsSurvive) {
  ExpectRoundTrip(Column::FromInt64({1, 0, 3}, {true, false, true}),
                  Codec::kForBitpack);
  // A null slot's physical value must not widen the bit range.
  format::ColumnBuilder b(Int64());
  b.AppendInt(10);
  b.AppendNull();
  b.AppendInt(12);
  auto col = b.Finish();
  auto encoded = Encode(col).ValueOrDie();
  EXPECT_LE(encoded.CompressedBytes(), 64u);
  EXPECT_TRUE(Decode(encoded).ValueOrDie()->Equals(*col));
}

TEST(EncodingTest, NarrowRangeCompressesHard) {
  std::vector<int64_t> v(10000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = 1000000 + static_cast<int64_t>(i % 7);
  auto col = Column::FromInt64(v);
  auto encoded = Encode(col).ValueOrDie();
  // 3 bits/value vs 64: ratio > 15x.
  EXPECT_GT(encoded.CompressionRatio(), 15.0);
  EXPECT_TRUE(Decode(encoded).ValueOrDie()->Equals(*col));
}

TEST(EncodingTest, DictForLowCardinalityStrings) {
  std::vector<std::string> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 2 == 0 ? "AIR" : "TRUCK");
  auto col = Column::FromStrings(v);
  auto encoded = Encode(col).ValueOrDie();
  EXPECT_EQ(encoded.codec(), Codec::kDict);
  EXPECT_GT(encoded.CompressionRatio(), 10.0);
  EXPECT_TRUE(Decode(encoded).ValueOrDie()->Equals(*col));
}

TEST(EncodingTest, DictWithNulls) {
  ExpectRoundTrip(Column::FromStrings({"a", "b", "a", "x", "a", "b"},
                                      {true, false, true, true, false, true}),
                  Codec::kDict);
}

TEST(EncodingTest, DictDecodeEveryStringLength) {
  // A dictionary whose longest string fits Decode's fixed-size block copy,
  // and one whose longest does not; empty strings and nulls in between and
  // at the end.
  for (const std::vector<size_t>& lengths :
       {std::vector<size_t>{0, 1, 7, 16, 17, 31, 32},
        std::vector<size_t>{0, 1, 7, 16, 17, 31, 32, 33, 40}}) {
    std::vector<std::string> v;
    std::vector<bool> valid;
    for (size_t i = 0; i < 200; ++i) {
      const size_t k = i % lengths.size();
      v.push_back(std::string(lengths[k], static_cast<char>('a' + k)));
      valid.push_back(i % 11 != 5 && i != 199);
    }
    ExpectRoundTrip(Column::FromStrings(v, valid), Codec::kDict);
  }
}

TEST(EncodingTest, HighCardinalityStringsStayPlain) {
  std::vector<std::string> v;
  for (int i = 0; i < 200; ++i) v.push_back("unique_value_" + std::to_string(i));
  ExpectRoundTrip(Column::FromStrings(v), Codec::kPlain);
}

TEST(EncodingTest, DoublesStayPlain) {
  ExpectRoundTrip(Column::FromDouble({1.5, 2.5, -3.25}), Codec::kPlain);
}

TEST(EncodingTest, EmptyStringColumn) {
  ExpectRoundTrip(Column::FromStrings({}), Codec::kDict);
}

TEST(EncodingTest, TpchColumnsCompress) {
  // The whole-table ratio on TPC-H should be in lightweight-compression
  // territory (the §3.4 / FastLanes premise).
  auto lineitem = tpch::GenerateTable("lineitem", 0.002).ValueOrDie();
  uint64_t plain = 0, compressed = 0;
  for (size_t c = 0; c < lineitem->num_columns(); ++c) {
    auto e = Encode(lineitem->column(c)).ValueOrDie();
    plain += e.PlainBytes();
    compressed += e.CompressedBytes();
    auto decoded = Decode(e).ValueOrDie();
    EXPECT_TRUE(decoded->Equals(*lineitem->column(c)))
        << lineitem->schema().field(c).name;
  }
  double ratio = static_cast<double>(plain) / static_cast<double>(compressed);
  EXPECT_GT(ratio, 2.0) << "whole-lineitem ratio " << ratio;
}

TEST(EncodingTest, RandomizedRoundTripSweep) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    format::ColumnBuilder b(Int64());
    size_t n = rng() % 500;
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 7 == 0) {
        b.AppendNull();
      } else {
        b.AppendInt(static_cast<int64_t>(rng()) >> (rng() % 40));
      }
    }
    auto col = b.Finish();
    auto decoded = Decode(Encode(col).ValueOrDie()).ValueOrDie();
    EXPECT_TRUE(decoded->Equals(*col)) << "trial " << trial;
  }
}

TEST(EncodingTest, ForBitpackEveryWidthAndLength) {
  // Decode reads whole words up to the last one that fits in the packed
  // buffer, then finishes the tail value by value; cover every width at
  // lengths on both sides of a word.
  for (int width = 0; width <= 64; ++width) {
    for (size_t n : {2, 7, 8, 63, 64, 65, 257}) {
      std::mt19937_64 rng(static_cast<uint64_t>(width) * 1000 + n);
      const uint64_t span =
          width == 64 ? UINT64_MAX : ((uint64_t{1} << width) - 1);
      // Values in [lo, lo + span]; the first and last pin the exact width.
      const int64_t lo = width == 64 ? INT64_MIN : -7;
      auto at = [&](uint64_t delta) {
        return static_cast<int64_t>(static_cast<uint64_t>(lo) + delta);
      };
      std::vector<int64_t> v(n);
      for (auto& x : v) x = at(rng() & span);
      v.front() = at(0);
      v.back() = at(span);
      auto col = Column::FromInt64(v);
      auto encoded = Encode(col).ValueOrDie();
      ASSERT_EQ(encoded.bit_width_, width) << "n " << n;
      EXPECT_TRUE(Decode(encoded).ValueOrDie()->Equals(*col))
          << "width " << width << " n " << n;
    }
  }
}

TEST(EncodingTest, DictCodeOutOfRangeIsAnError) {
  auto encoded = Encode(Column::FromStrings({"a", "b", "a", "b"})).ValueOrDie();
  ASSERT_EQ(encoded.codec(), Codec::kDict);
  encoded.dict_size_ = 1;  // code 1 now points past the dictionary
  EXPECT_FALSE(Decode(encoded).ok());
}

void HashBytes(const void* data, size_t n, uint64_t* h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) *h = (*h ^ p[i]) * 0x100000001b3ULL;
}

void HashBuffer(const mem::Buffer& b, uint64_t* h) {
  const uint64_t size = b.size();
  HashBytes(&size, sizeof(size), h);
  HashBytes(b.data(), b.size(), h);
}

/// FNV-1a over the encoded form of every column of `t`: codec parameters,
/// CompressedBytes, then each buffer's size and bytes. Returns the number of
/// columns hashed.
size_t HashEncodedTable(const TablePtr& t, uint64_t* h) {
  for (size_t c = 0; c < t->num_columns(); ++c) {
    const EncodedColumn e = Encode(t->column(c)).ValueOrDie();
    const int64_t meta[] = {static_cast<int64_t>(e.codec()),
                            static_cast<int64_t>(e.length()),
                            e.bit_width_,
                            e.frame_of_reference_,
                            static_cast<int64_t>(e.dict_size_),
                            static_cast<int64_t>(e.null_count_),
                            static_cast<int64_t>(e.CompressedBytes())};
    HashBytes(meta, sizeof(meta), h);
    HashBuffer(e.data_, h);
    HashBuffer(e.aux_, h);
    HashBuffer(e.chars_, h);
    HashBuffer(e.validity_, h);
  }
  return t->num_columns();
}

// Golden bytes: the caching region's encoded layout (dense little-endian
// bit stream, dictionary codes in first-appearance order) and its
// CompressedBytes, which feed cache accounting and the cluster's compressed
// fills. A codec rewrite must keep this value; a deliberate layout change
// re-snapshots every bench that charges compressed bytes in the same change.
TEST(EncodingTest, EncodedLayoutGolden) {
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t columns = 0;
  for (const std::string& name : tpch::TableNames()) {
    columns +=
        HashEncodedTable(tpch::GenerateTable(name, 0.01).ValueOrDie(), &h);
  }
  ssb::SsbOptions ssb;
  ssb.sf = 0.01;
  ssb.skew = 1.0;
  ssb.string_heavy = true;
  for (const std::string& name : ssb::TableNames()) {
    columns += HashEncodedTable(ssb::GenerateTable(name, ssb).ValueOrDie(), &h);
  }
  EXPECT_EQ(columns, 112u);
  EXPECT_EQ(h, UINT64_C(16149949951559956765));
}

}  // namespace
}  // namespace sirius::format
