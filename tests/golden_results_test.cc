// Golden results: every TPC-H query at SF 0.01 and every SSB query at its
// default scale, run on the host CPU engine, must reproduce a fingerprint
// recorded when the result was last known good.
//
// The differential suite compares the device path against the CPU engine,
// but both share the expression evaluator, the hash join and the group-by,
// so a bug in any of those agrees with itself there. These constants do not
// depend on the shared kernels. A change that alters a result on purpose
// updates its constant in the same change, and says why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "host/database.h"
#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using format::Column;
using format::Table;
using format::TypeId;

struct Fingerprint {
  size_t rows;
  uint64_t hash;
};

bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.rows == b.rows && a.hash == b.hash;
}

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{%zu, 0x%016" PRIx64 "}", f.rows, f.hash);
  return os << buf;
}

// Doubles render with 9 significant digits, so the last bits of a sum
// (which depend on summation order) do not move the fingerprint.
std::string RenderCell(const Column& c, size_t i) {
  if (c.IsNull(i)) return "NULL";
  if (c.type().id == TypeId::kFloat64) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", c.data<double>()[i]);
    return buf;
  }
  return c.GetScalar(i).ToString();
}

/// Row count plus an FNV-1a hash over the rows rendered and sorted, so the
/// fingerprint does not depend on the order the engine emits rows in.
Fingerprint FingerprintOf(const Table& t) {
  std::vector<std::string> rows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      rows[r] += RenderCell(*t.column(c), r);
      rows[r] += '|';
    }
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    for (char ch : row + "\n") {
      h ^= static_cast<uint8_t>(ch);
      h *= 1099511628211ull;
    }
  }
  return {t.num_rows(), h};
}

// Recorded on the CPU engine; see the file comment before changing one.
const Fingerprint kTpch[22] = {
    {4, 0x1c913d59b289a815},  // Q1
    {2, 0x2219e6c0cc2280b8},  // Q2
    {10, 0xa82e406947f4fee8},  // Q3
    {5, 0xef7064aa2ccc5692},  // Q4
    {5, 0xaa3dbcfcc36f7af1},  // Q5
    {1, 0x5e3f7e578bfa0252},  // Q6
    {4, 0x62a176703e649155},  // Q7
    {2, 0x84260c43820ab516},  // Q8
    {174, 0xbdcfc66908ddd450},  // Q9
    {20, 0xb1505b94c8c9697a},  // Q10
    {160, 0x3a2bc8c0b57426db},  // Q11
    {2, 0xba2b0a0ff5bc47de},  // Q12
    {34, 0x0e1d53082288134c},  // Q13
    {1, 0xdfa23e135a23aeed},  // Q14
    {1, 0x22a9bd524f91439b},  // Q15
    {324, 0xba2aeada6b3dcd1b},  // Q16
    {1, 0xdd50da02de3f4106},  // Q17
    {1, 0x828cd12618eff9c7},  // Q18
    {1, 0x5552268974c8a0cb},  // Q19
    {1, 0x5e5533bff2bf9c8e},  // Q20
    {5, 0x9f392b7dd71959b5},  // Q21
    {7, 0x77dec6830151f53f},  // Q22
};

const Fingerprint kSsb[13] = {
    {1, 0xe83d46e0d127d385},  // q1.1
    {1, 0x56adaf10aeb9acd5},  // q1.2
    {1, 0x310109c2398e6309},  // q1.3
    {185, 0x814bdff8007b65d9},  // q2.1
    {33, 0x6dde764c3745804e},  // q2.2
    {6, 0x20ddc4712fe1e77f},  // q2.3
    {150, 0xec60886a142135bc},  // q3.1
    {30, 0x405e0e5b838d7335},  // q3.2
    {0, 0x14650fb0739d0383},  // q3.3
    {0, 0x14650fb0739d0383},  // q3.4
    {35, 0xf364673f8599464a},  // q4.1
    {95, 0x0414eee11616f816},  // q4.2
    {14, 0x843b465668ab5691},  // q4.3
};

host::Database* TpchDb() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.01));
    return d;
  }();
  return db;
}

host::Database* SsbDb() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(ssb::LoadSsb(d, ssb::SsbOptions()));
    return d;
  }();
  return db;
}

Fingerprint RunCpu(host::Database* db, const std::string& sql) {
  auto plan = db->PlanSql(sql);
  SIRIUS_CHECK_OK(plan.status());
  auto result = db->ExecutePlanCpu(plan.ValueOrDie());
  SIRIUS_CHECK_OK(result.status());
  return FingerprintOf(*result.ValueOrDie().table);
}

class GoldenTpchTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenTpchTest, CpuResultMatchesRecordedFingerprint) {
  const int q = GetParam();
  const Fingerprint actual = RunCpu(TpchDb(), tpch::Query(q));
  EXPECT_EQ(actual, kTpch[q - 1]) << "Q" << q << " actual fingerprint " << actual;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, GoldenTpchTest, ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

class GoldenSsbTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenSsbTest, CpuResultMatchesRecordedFingerprint) {
  const int q = GetParam();
  const Fingerprint actual = RunCpu(SsbDb(), ssb::Query(q));
  EXPECT_EQ(actual, kSsb[q - 1])
      << ssb::QueryName(q) << " actual fingerprint " << actual;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, GoldenSsbTest,
                         ::testing::Range(1, ssb::NumQueries() + 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = ssb::QueryName(info.param);
                           std::replace(name.begin(), name.end(), '.', '_');
                           return name;
                         });

}  // namespace
}  // namespace sirius
