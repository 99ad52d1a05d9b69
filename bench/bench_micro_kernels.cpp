// Kernel-level microbenchmarks (google-benchmark, real wall time).
//
// These measure the GDF kernel library itself — the substrate both engines
// share — rather than modeled device time: filter, gather, hash join, hash
// and sort group-by, sort, partition.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_util.h"
#include "format/builder.h"
#include "gdf/copying.h"
#include "expr/eval.h"
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
