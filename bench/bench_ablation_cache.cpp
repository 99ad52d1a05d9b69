// Ablation: hot vs cold runs (paper §4.1 reports hot runs; §3.2.3's caching
// region is what makes them possible).
//
// The engine runs one task thread, as the out-of-core pin does: with
// several, a cold query's modeled time depends on which pipeline loads a
// shared column first, so the snapshot would not repeat.

#include <cstdio>

#include "bench_util.h"

using namespace sirius;

int main() {
  bench::PrintHeader("Ablation: caching region — cold vs hot runs");
  bench::BenchJson json("ablation_cache");

  auto duck = bench::MakeTpchDb(sim::M7i16xlarge(), sim::DuckDbProfile());
  engine::SiriusEngine::Options options;
  options.data_scale = bench::DataScale();
  options.num_task_threads = 1;
  engine::SiriusEngine eng(duck.get(), options);
  duck->SetAccelerator(&eng);

  std::printf("%-4s %12s %12s %10s %16s\n", "", "cold(ms)", "hot(ms)",
              "cold/hot", "cached GiB");
  std::vector<double> ratios;
  for (int q = 1; q <= 22; ++q) {
    eng.buffer_manager().EvictAll();
    auto cold = duck->Query(tpch::Query(q));
    auto hot = duck->Query(tpch::Query(q));
    SIRIUS_CHECK_OK(cold.status());
    SIRIUS_CHECK_OK(hot.status());
    double cm = cold.ValueOrDie().timeline.total_seconds() * 1e3;
    double hm = hot.ValueOrDie().timeline.total_seconds() * 1e3;
    ratios.push_back(cm / hm);
    const double cached_gib =
        eng.buffer_manager().cached_modeled_bytes() / double(1ull << 30);
    std::printf("Q%-3d %12.1f %12.1f %9.2fx %15.2f\n", q, cm, hm, cm / hm,
                cached_gib);
    json.AddRow({{"query", static_cast<int64_t>(q)},
                 {"cold_ms", cm},
                 {"hot_ms", hm},
                 {"cold_over_hot", cm / hm},
                 {"cached_gib", cached_gib}});
  }
  duck->SetAccelerator(nullptr);
  std::printf("\ngeomean cold/hot ratio: %.2fx over NVLink-C2C\n",
              bench::Geomean(ratios));
  json.Set("geomean_cold_over_hot", bench::Geomean(ratios));
  std::printf(
      "Shape check: even cold runs stay fast on NVLink-class links (§2.1); "
      "the caching region removes the remaining load cost entirely "
      "(§4.1's hot-run methodology).\n");
  return 0;
}
