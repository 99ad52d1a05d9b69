// Kernel-level microbenchmarks (google-benchmark, real wall time).
//
// These measure the GDF kernel library itself — the substrate both engines
// share — rather than modeled device time: filter, gather, hash join (also
// a probe side streamed in slices, as the out-of-core scan streams batches),
// hash and sort group-by, sort, partition. The scan->filter path also gets one
// benchmark per part, on columns of a lineitem's length at SF 0.02: decode
// of the caching region's codecs, a comparison against a literal, the
// mask-to-indices compaction and a '%'-only LIKE.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_util.h"
#include "expr/eval.h"
#include "format/builder.h"
#include "format/encoding.h"
#include "gdf/copying.h"
#include "gdf/filter.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/partition.h"
#include "gdf/sort.h"

using namespace sirius;

namespace {

format::ColumnPtr RandomInts(size_t n, int64_t cardinality, uint32_t seed) {
  std::mt19937_64 rng(seed);
  format::ColumnBuilder b(format::Int64());
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.AppendInt(static_cast<int64_t>(rng() % static_cast<uint64_t>(cardinality)));
  }
  return b.Finish();
}

format::ColumnPtr RandomStrings(size_t n, int64_t cardinality, uint32_t seed) {
  std::mt19937_64 rng(seed);
  format::ColumnBuilder b(format::String());
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.AppendString("key_" +
                   std::to_string(rng() % static_cast<uint64_t>(cardinality)));
  }
  return b.Finish();
}

/// Values drawn from [0, cardinality) of `type` (an int32, date32 or int64
/// column), each NULL with probability `null_percent`%.
format::ColumnPtr RandomKeys(format::DataType type, size_t n, int64_t cardinality,
                             int null_percent, uint32_t seed) {
  std::mt19937_64 rng(seed);
  format::ColumnBuilder b(type);
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(rng() % 100) < null_percent) {
      b.AppendNull();
    } else {
      b.AppendInt(static_cast<int64_t>(rng() % static_cast<uint64_t>(cardinality)));
    }
  }
  return b.Finish();
}

format::TablePtr OneColumnTable(format::ColumnPtr col, const char* name) {
  return format::Table::Make(
             format::Schema({{name, col->type()}}), {col})
      .ValueOrDie();
}

gdf::Context Ctx() {
  gdf::Context ctx;
  ctx.mr = mem::DefaultResource();
  return ctx;
}

void BM_Filter(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto values = RandomInts(n, 100, 1);
  auto table = OneColumnTable(values, "v");
  auto e = expr::Lt(expr::ColIdx(0, format::Int64()), expr::LitInt(50));
  SIRIUS_CHECK_OK(expr::Bind(e, table->schema()));
  gdf::Context ctx = Ctx();
  for (auto _ : state) {
    auto mask = expr::Evaluate(*e, *table).ValueOrDie();
    auto out = gdf::ApplyBooleanMask(ctx, table, mask).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Filter)->Arg(1 << 14)->Arg(1 << 18);

// ---------------------------------------------------------------------------
// Scan->filter path
// ---------------------------------------------------------------------------

constexpr size_t kScanRows = 120000;

/// Uniform values of exactly `width` bits: FOR-bitpacks at that width.
format::ColumnPtr WidthInts(size_t n, int width, uint32_t seed) {
  std::mt19937_64 rng(seed);
  const uint64_t mask = (uint64_t{1} << width) - 1;
  std::vector<int64_t> v(n);
  for (auto& x : v) x = static_cast<int64_t>(rng() & mask);
  v[0] = 0;
  v[1] = static_cast<int64_t>(mask);
  return format::Column::FromInt64(v);
}

void BM_DecodeFor(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto encoded =
      format::Encode(WidthInts(kScanRows, width, 17)).ValueOrDie();
  SIRIUS_CHECK(encoded.bit_width_ == width);
  for (auto _ : state) {
    auto col = format::Decode(encoded).ValueOrDie();
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_DecodeFor)->Arg(3)->Arg(12)->Arg(17)->Arg(33);

/// A dictionary of `size` strings: l_shipmode's seven, or longer made-up
/// ones, drawn uniformly.
void BM_DecodeDict(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const char* const modes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"};
  std::mt19937_64 rng(18);
  format::ColumnBuilder b(format::String());
  b.Reserve(kScanRows);
  for (size_t i = 0; i < kScanRows; ++i) {
    const size_t code = rng() % size;
    b.AppendString(size <= 7 ? std::string(modes[code])
                             : "dictionary string " + std::to_string(code));
  }
  const auto encoded = format::Encode(b.Finish()).ValueOrDie();
  SIRIUS_CHECK(encoded.codec() == format::Codec::kDict);
  for (auto _ : state) {
    auto col = format::Decode(encoded).ValueOrDie();
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_DecodeDict)->Arg(7)->Arg(4096);

/// `column < literal` at ~50% selectivity: INT32 (0), INT64 (1) or
/// DECIMAL(2) (2), the literal at the column's own scale.
void BM_CompareLiteral(benchmark::State& state) {
  const format::DataType types[] = {format::Int32(), format::Int64(),
                                    format::Decimal(2)};
  const format::DataType type = types[state.range(0)];
  std::mt19937_64 rng(19);
  format::ColumnBuilder b(type);
  b.Reserve(kScanRows);
  for (size_t i = 0; i < kScanRows; ++i) {
    b.AppendInt(static_cast<int64_t>(rng() % 100000));
  }
  auto table = OneColumnTable(b.Finish(), "v");
  const format::Scalar literal =
      type.is_decimal() ? format::Scalar::FromDecimal(50000, 2)
                        : (type.id == format::TypeId::kInt32
                               ? format::Scalar::FromInt32(50000)
                               : format::Scalar::FromInt64(50000));
  auto e = expr::Lt(expr::ColIdx(0, type), expr::Lit(literal));
  SIRIUS_CHECK_OK(expr::Bind(e, table->schema()));
  state.SetLabel(type.ToString());
  for (auto _ : state) {
    auto mask = expr::Evaluate(*e, *table).ValueOrDie();
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_CompareLiteral)->Arg(0)->Arg(1)->Arg(2);

void BM_MaskToIndices(benchmark::State& state) {
  std::mt19937_64 rng(20);
  std::vector<bool> bits(kScanRows);
  for (size_t i = 0; i < kScanRows; ++i) bits[i] = rng() % 2 == 0;
  auto mask = format::Column::FromBool(bits);
  gdf::Context ctx = Ctx();
  for (auto _ : state) {
    auto sel = gdf::MaskToIndices(ctx, mask).ValueOrDie();
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_MaskToIndices);

/// `%a%b%` over words of 8 to 24 letters from a-j.
void BM_LikeSegments(benchmark::State& state) {
  std::mt19937_64 rng(21);
  format::ColumnBuilder b(format::String());
  b.Reserve(kScanRows);
  for (size_t i = 0; i < kScanRows; ++i) {
    std::string w(8 + rng() % 17, ' ');
    for (char& c : w) c = static_cast<char>('a' + rng() % 10);
    b.AppendString(w);
  }
  auto table = OneColumnTable(b.Finish(), "s");
  auto e = expr::Like(expr::ColIdx(0, format::String()), "%a%b%");
  SIRIUS_CHECK_OK(expr::Bind(e, table->schema()));
  for (auto _ : state) {
    auto mask = expr::Evaluate(*e, *table).ValueOrDie();
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_LikeSegments);

void BM_Gather(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto table = OneColumnTable(RandomInts(n, 1 << 30, 2), "v");
  std::vector<gdf::index_t> idx(n / 2);
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<gdf::index_t>(i * 2);
  gdf::Context ctx = Ctx();
  for (auto _ : state) {
    auto out = gdf::GatherTable(ctx, table, idx).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * idx.size());
}
BENCHMARK(BM_Gather)->Arg(1 << 14)->Arg(1 << 18);

void BM_HashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto probe = RandomInts(n, static_cast<int64_t>(n / 4), 3);
  auto build = RandomInts(n / 4, static_cast<int64_t>(n / 4), 4);
  gdf::Context ctx = Ctx();
  gdf::JoinOptions options;
  for (auto _ : state) {
    auto out = gdf::HashJoin(ctx, {probe}, {build}, options).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Arg(1 << 14)->Arg(1 << 18);

// A 2^18-row probe side in 16 slices against a 2^16-row build side, as an
// out-of-core scan probes a join batch by batch: Arg 0 builds one table and
// probes it per slice, Arg 1 calls HashJoin (build and probe) per slice.
void BM_HashJoinBatches(benchmark::State& state) {
  constexpr size_t kProbeRows = 1 << 18, kBuildRows = 1 << 16, kSlices = 16;
  const bool per_slice_build = state.range(0) == 1;
  auto probe = OneColumnTable(RandomInts(kProbeRows, kBuildRows, 3), "k");
  auto build = RandomInts(kBuildRows, kBuildRows, 4);
  gdf::Context ctx = Ctx();
  std::vector<format::ColumnPtr> slices;
  for (size_t offset = 0; offset < kProbeRows; offset += kProbeRows / kSlices) {
    slices.push_back(
        gdf::SliceTable(ctx, probe, {0}, offset, kProbeRows / kSlices).ValueOrDie()->column(0));
  }
  gdf::JoinOptions options;
  for (auto _ : state) {
    if (per_slice_build) {
      for (const auto& slice : slices) {
        auto out = gdf::HashJoin(ctx, {slice}, {build}, options).ValueOrDie();
        benchmark::DoNotOptimize(out);
      }
    } else {
      const gdf::JoinTable table = gdf::BuildJoinTable({build}).ValueOrDie();
      for (const auto& slice : slices) {
        auto out = gdf::ProbeJoinTable(ctx, table, {slice}, options).ValueOrDie();
        benchmark::DoNotOptimize(out);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}
BENCHMARK(BM_HashJoinBatches)->Arg(0)->Arg(1);

// Two keys, int64 + int32: the partsupp (ps_partkey, ps_suppkey) shape. The
// build side holds unique pairs; each probe row draws one of them.
void BM_HashJoinTwoKeys(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = n / 4;
  std::vector<int64_t> build_part(m), probe_part(n);
  std::vector<int32_t> build_supp(m), probe_supp(n);
  for (size_t i = 0; i < m; ++i) {
    build_part[i] = static_cast<int64_t>(i / 4);
    build_supp[i] = static_cast<int32_t>(i % 4);
  }
  std::mt19937_64 rng(13);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rng() % m;
    probe_part[i] = build_part[r];
    probe_supp[i] = build_supp[r];
  }
  const std::vector<format::ColumnPtr> probe = {format::Column::FromInt64(probe_part),
                                                format::Column::FromInt32(probe_supp)};
  const std::vector<format::ColumnPtr> build = {format::Column::FromInt64(build_part),
                                                format::Column::FromInt32(build_supp)};
  gdf::Context ctx = Ctx();
  gdf::JoinOptions options;
  for (auto _ : state) {
    auto out = gdf::HashJoin(ctx, probe, build, options).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoinTwoKeys)->Arg(1 << 14)->Arg(1 << 18);

void BM_HashJoinString(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto probe = RandomStrings(n, static_cast<int64_t>(n / 4), 11);
  auto build = RandomStrings(n / 4, static_cast<int64_t>(n / 4), 12);
  gdf::Context ctx = Ctx();
  gdf::JoinOptions options;
  for (auto _ : state) {
    auto out = gdf::HashJoin(ctx, {probe}, {build}, options).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoinString)->Arg(1 << 14)->Arg(1 << 18);

void BM_GroupByHashInt(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomInts(n, 1024, 5);
  auto values = OneColumnTable(RandomInts(n, 1000, 6), "v");
  gdf::Context ctx = Ctx();
  std::vector<gdf::AggRequest> aggs{{gdf::AggKind::kSum, 0, "s"}};
  for (auto _ : state) {
    auto out = gdf::GroupByAggregate(ctx, {keys}, {"k"}, values, aggs).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupByHashInt)->Arg(1 << 14)->Arg(1 << 18);

// Two nullable keys, int64 + date32, ~10% NULL each: the key-by-key shape.
void BM_GroupByHashTwoKeysNulls(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<format::ColumnPtr> keys = {
      RandomKeys(format::Int64(), n, 256, 10, 14),
      RandomKeys(format::Date32(), n, 32, 10, 15)};
  auto values = OneColumnTable(RandomInts(n, 1000, 16), "v");
  gdf::Context ctx = Ctx();
  std::vector<gdf::AggRequest> aggs{{gdf::AggKind::kSum, 0, "s"}};
  for (auto _ : state) {
    auto out =
        gdf::GroupByAggregate(ctx, keys, {"k", "d"}, values, aggs).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupByHashTwoKeysNulls)->Arg(1 << 14)->Arg(1 << 18);

void BM_GroupBySortString(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomStrings(n, 1024, 7);
  auto values = OneColumnTable(RandomInts(n, 1000, 8), "v");
  gdf::Context ctx = Ctx();
  std::vector<gdf::AggRequest> aggs{{gdf::AggKind::kSum, 0, "s"}};
  for (auto _ : state) {
    auto out = gdf::GroupByAggregate(ctx, {keys}, {"k"}, values, aggs).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupBySortString)->Arg(1 << 14)->Arg(1 << 18);

void BM_Sort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomInts(n, 1 << 30, 9);
  gdf::Context ctx = Ctx();
  for (auto _ : state) {
    auto out = gdf::SortIndices(ctx, {keys}).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sort)->Arg(1 << 14)->Arg(1 << 18);

void BM_HashPartition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto table = OneColumnTable(RandomInts(n, 1 << 30, 10), "v");
  gdf::Context ctx = Ctx();
  for (auto _ : state) {
    auto out = gdf::HashPartition(ctx, table, {0}, 4).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashPartition)->Arg(1 << 14)->Arg(1 << 18);

// Mirrors the console report into BENCH_micro_kernels.json through the
// shared writer, so these wall-time numbers land in the same format as the
// simulated-time benches.
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonMirrorReporter(bench::BenchJson* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::BenchJson::Row row;
      row.emplace_back("name", run.benchmark_name());
      row.emplace_back("iterations", static_cast<int64_t>(run.iterations));
      row.emplace_back(std::string("real_time_") +
                           benchmark::GetTimeUnitString(run.time_unit),
                       run.GetAdjustedRealTime());
      row.emplace_back(std::string("cpu_time_") +
                           benchmark::GetTimeUnitString(run.time_unit),
                       run.GetAdjustedCPUTime());
      for (const auto& counter : run.counters) {
        row.emplace_back(counter.first, static_cast<double>(counter.second));
      }
      json_->AddRow(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchJson* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchJson json("micro_kernels");
  json.Set("time_basis", std::string("wall_clock"));
  JsonMirrorReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
