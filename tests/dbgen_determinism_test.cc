// Deterministic-generation regression: both workload-family generators
// (tpch::dbgen and ssb::dbgen) must produce byte-identical tables for the
// same options — twice in-process (no hidden global state) and through
// fresh engine instances (no per-instance iteration-order drift). Golden
// checksums pin the exact bytes so platform or library drift (hash maps,
// std::sort stability, float formatting) fails loudly here instead of
// skewing every downstream differential and bench.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "host/database.h"
#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using format::Column;
using format::Table;
using format::TablePtr;
using format::TypeId;

void HashBytes(const void* data, size_t n, uint64_t* h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) *h = (*h ^ p[i]) * 0x100000001b3ULL;
}

/// FNV-1a over every cell (type id, null flag, then the value bytes for
/// fixed-width types or the exact characters for strings), row-major.
uint64_t TableChecksum(const Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = *t.column(c);
    const auto type = static_cast<int64_t>(col.type().id);
    HashBytes(&type, sizeof(type), &h);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const unsigned char null = col.IsNull(r) ? 1 : 0;
      HashBytes(&null, 1, &h);
      if (null != 0) continue;
      switch (col.type().id) {
        case TypeId::kString: {
          const std::string_view s = col.StringAt(r);
          const uint64_t len = s.size();
          HashBytes(&len, sizeof(len), &h);
          HashBytes(s.data(), s.size(), &h);
          break;
        }
        case TypeId::kFloat64: {
          const double v = col.data<double>()[r];
          HashBytes(&v, sizeof(v), &h);
          break;
        }
        case TypeId::kInt32:
        case TypeId::kDate32: {
          const int32_t v = col.data<int32_t>()[r];
          HashBytes(&v, sizeof(v), &h);
          break;
        }
        case TypeId::kBool: {
          const unsigned char v = col.data<uint8_t>()[r];
          HashBytes(&v, 1, &h);
          break;
        }
        default: {
          const int64_t v = col.data<int64_t>()[r];
          HashBytes(&v, sizeof(v), &h);
          break;
        }
      }
    }
  }
  return h;
}

ssb::SsbOptions SmallSsb() {
  ssb::SsbOptions options;
  options.sf = 0.002;
  return options;
}

TEST(DbgenDeterminism, SsbSameOptionsTwiceInProcess) {
  for (const std::string& name : ssb::TableNames()) {
    TablePtr a = ssb::GenerateTable(name, SmallSsb()).ValueOrDie();
    TablePtr b = ssb::GenerateTable(name, SmallSsb()).ValueOrDie();
    EXPECT_EQ(TableChecksum(*a), TableChecksum(*b)) << name;
  }
}

TEST(DbgenDeterminism, TpchSameSfTwiceInProcess) {
  for (const std::string& name : tpch::TableNames()) {
    TablePtr a = tpch::GenerateTable(name, 0.002).ValueOrDie();
    TablePtr b = tpch::GenerateTable(name, 0.002).ValueOrDie();
    EXPECT_EQ(TableChecksum(*a), TableChecksum(*b)) << name;
  }
}

// Loading through two fresh engine (Database) instances must yield the same
// bytes the bare generator produces: registration, catalog storage, and any
// per-instance state must not perturb generation.
TEST(DbgenDeterminism, SsbAcrossFreshEngineInstances) {
  host::Database db1;
  host::Database db2;
  ASSERT_TRUE(ssb::LoadSsb(&db1, SmallSsb()).ok());
  ASSERT_TRUE(ssb::LoadSsb(&db2, SmallSsb()).ok());
  for (const std::string& name : ssb::TableNames()) {
    TablePtr direct = ssb::GenerateTable(name, SmallSsb()).ValueOrDie();
    TablePtr t1 = db1.catalog().GetTable(name).ValueOrDie();
    TablePtr t2 = db2.catalog().GetTable(name).ValueOrDie();
    const uint64_t want = TableChecksum(*direct);
    EXPECT_EQ(TableChecksum(*t1), want) << name;
    EXPECT_EQ(TableChecksum(*t2), want) << name;
  }
}

TEST(DbgenDeterminism, TpchAcrossFreshEngineInstances) {
  host::Database db1;
  host::Database db2;
  ASSERT_TRUE(tpch::LoadTpch(&db1, 0.002).ok());
  ASSERT_TRUE(tpch::LoadTpch(&db2, 0.002).ok());
  for (const std::string& name : tpch::TableNames()) {
    TablePtr direct = tpch::GenerateTable(name, 0.002).ValueOrDie();
    TablePtr t1 = db1.catalog().GetTable(name).ValueOrDie();
    TablePtr t2 = db2.catalog().GetTable(name).ValueOrDie();
    const uint64_t want = TableChecksum(*direct);
    EXPECT_EQ(TableChecksum(*t1), want) << name;
    EXPECT_EQ(TableChecksum(*t2), want) << name;
  }
}

// The checksum must actually react to the generation knobs, or the tests
// above are vacuous.
TEST(DbgenDeterminism, SsbOptionsChangeTheBytes) {
  ssb::SsbOptions base = SmallSsb();

  ssb::SsbOptions skewed = base;
  skewed.skew = 2.0;
  EXPECT_NE(
      TableChecksum(*ssb::GenerateTable("lineorder", base).ValueOrDie()),
      TableChecksum(*ssb::GenerateTable("lineorder", skewed).ValueOrDie()));

  ssb::SsbOptions heavy = base;
  heavy.string_heavy = true;
  EXPECT_NE(
      TableChecksum(*ssb::GenerateTable("ssb_customer", base).ValueOrDie()),
      TableChecksum(
          *ssb::GenerateTable("ssb_customer", heavy).ValueOrDie()));

  ssb::SsbOptions reseeded = base;
  reseeded.seed = 7;
  EXPECT_NE(
      TableChecksum(*ssb::GenerateTable("lineorder", base).ValueOrDie()),
      TableChecksum(
          *ssb::GenerateTable("lineorder", reseeded).ValueOrDie()));

  // The date dimension is the fixed calendar: options must NOT change it.
  EXPECT_EQ(
      TableChecksum(*ssb::GenerateTable("dwdate", base).ValueOrDie()),
      TableChecksum(*ssb::GenerateTable("dwdate", reseeded).ValueOrDie()));
}

// Golden bytes: these values pin the generators' exact output. A failure
// here means generation changed (platform drift or an edit to dbgen) — every
// committed bench snapshot and differential expectation moved with it, so
// bump these goldens only as part of a change that regenerates those too.
TEST(DbgenDeterminism, GoldenChecksums) {
  EXPECT_EQ(TableChecksum(
                *ssb::GenerateTable("ssb_customer", SmallSsb()).ValueOrDie()),
            UINT64_C(11839747392408436310));
  EXPECT_EQ(TableChecksum(
                *ssb::GenerateTable("ssb_supplier", SmallSsb()).ValueOrDie()),
            UINT64_C(10831774492375612512));
  EXPECT_EQ(TableChecksum(
                *ssb::GenerateTable("ssb_part", SmallSsb()).ValueOrDie()),
            UINT64_C(1150790835501166115));
  EXPECT_EQ(
      TableChecksum(*ssb::GenerateTable("dwdate", SmallSsb()).ValueOrDie()),
      UINT64_C(16990504272097144643));
  EXPECT_EQ(TableChecksum(
                *ssb::GenerateTable("lineorder", SmallSsb()).ValueOrDie()),
            UINT64_C(7562793488440556148));
  // Every TPC-H table: the vocabulary and RNG that SSB shares feed region,
  // nation, part, supplier and customer.
  const std::pair<const char*, uint64_t> kTpch[] = {
      {"region", UINT64_C(7954062297722311022)},
      {"nation", UINT64_C(18082049275677388251)},
      {"part", UINT64_C(15517583188637252212)},
      {"supplier", UINT64_C(675673436309108612)},
      {"partsupp", UINT64_C(12958202827263282715)},
      {"customer", UINT64_C(11447631791360849442)},
      {"orders", UINT64_C(6831168717521428588)},
      {"lineitem", UINT64_C(11081869473986265742)},
  };
  for (const auto& [name, checksum] : kTpch) {
    EXPECT_EQ(TableChecksum(*tpch::GenerateTable(name, 0.002).ValueOrDie()),
              checksum)
        << name;
  }
}

}  // namespace
}  // namespace sirius
