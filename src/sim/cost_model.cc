#include "sim/cost_model.h"

namespace sirius::sim {

double KernelSeconds(const DeviceProfile& dev, const KernelCost& cost,
                     double data_scale) {
  const double gb = 1e9;
  double t = cost.launches * dev.launch_overhead_us * 1e-6;
  double seq = static_cast<double>(cost.seq_bytes) * data_scale;
  double rnd = static_cast<double>(cost.rand_bytes) * data_scale;
  double rows = static_cast<double>(cost.rows) * data_scale;
  t += seq / (dev.mem_bw_gbps * gb);
  t += rnd / (dev.mem_bw_gbps * dev.random_access_factor * gb);
  t += rows * cost.ops_per_row / (dev.compute_geps * 1e9);
  return t;
}

double TransferSeconds(double link_gbps, uint64_t bytes, double latency_us,
                       double data_scale) {
  return latency_us * 1e-6 +
         static_cast<double>(bytes) * data_scale / (link_gbps * 1e9);
}

double EngineProfile::EffFor(OpCategory c) const {
  switch (c) {
    case OpCategory::kScan:
      return scan_eff;
    case OpCategory::kFilter:
      return filter_eff;
    case OpCategory::kProject:
      return project_eff;
    case OpCategory::kJoin:
      return join_eff;
    case OpCategory::kGroupBy:
      return groupby_eff;
    case OpCategory::kAggregate:
      return agg_eff;
    case OpCategory::kOrderBy:
      return sort_eff;
    case OpCategory::kExchange:
    case OpCategory::kOther:
      return 1.0;
  }
  return 1.0;
}

EngineProfile SiriusProfile() {
  EngineProfile e;
  e.name = "sirius";
  // libcudf group-by falls back to a sort path for strings; the extra cost
  // is charged directly by the kernels, not here.
  e.fixed_query_overhead_s = 0.010;  // Substrait translation + dispatch
  return e;
}

EngineProfile DuckDbProfile() {
  EngineProfile e;
  e.name = "duckdb";
  // Mature vectorized engine: beats our substrate's native efficiency
  // across the board (calibrated so the Sirius/DuckDB geomean lands near
  // the paper's 7x at equal rental cost).
  e.scan_eff = 1.5;
  e.filter_eff = 1.5;
  e.project_eff = 1.4;
  e.join_eff = 1.35;
  e.groupby_eff = 1.4;
  e.agg_eff = 1.5;
  e.sort_eff = 1.4;
  e.fixed_query_overhead_s = 0.004;
  return e;
}

EngineProfile ClickHouseProfile() {
  EngineProfile e;
  e.name = "clickhouse";
  // Excellent scan/filter/aggregate machinery...
  e.scan_eff = 2.0;
  e.filter_eff = 1.8;
  e.agg_eff = 2.0;
  e.groupby_eff = 2.0;
  // ...but "not optimized for join-heavy workloads" (§4.2): right-side
  // builds without reordering, full materialization, and distributed joins
  // that replicate the whole right table.
  e.join_eff = 0.22;
  e.reorder_joins = false;
  e.distributed_broadcast_joins = true;
  e.fixed_query_overhead_s = 0.008;
  return e;
}

EngineProfile DorisProfile() {
  EngineProfile e;
  e.name = "doris";
  // Calibrated against Table 2: competitive scans (Q6), weaker group-by
  // machinery (Q1), reasonable joins (Q3).
  e.scan_eff = 0.45;
  e.filter_eff = 0.6;
  e.groupby_eff = 1.1;
  e.agg_eff = 1.1;
  e.join_eff = 0.6;
  e.fixed_query_overhead_s = 0.045;  // coordinator + fragment dispatch
  return e;
}

namespace {
double TimelineNow(const void* ctx) {
  return static_cast<const Timeline*>(ctx)->total_seconds();
}
}  // namespace

obs::Clock SimContext::TraceClock() const {
  obs::Clock clock;
  if (timeline != nullptr) {
    clock.now = &TimelineNow;
    clock.ctx = timeline;
  }
  clock.base = trace_base;
  return clock;
}

void SimContext::Charge(OpCategory cat, const KernelCost& cost) const {
  if (kernel_stats != nullptr) {
    kernel_stats->launches += static_cast<uint64_t>(cost.launches);
    kernel_stats->seq_bytes += static_cast<uint64_t>(
        static_cast<double>(cost.seq_bytes) * data_scale);
    kernel_stats->rand_bytes += static_cast<uint64_t>(
        static_cast<double>(cost.rand_bytes) * data_scale);
  }
  if (timeline == nullptr) return;
  double eff = engine.EffFor(cat);
  if (eff <= 0) eff = 1.0;
  const double predicted = KernelSeconds(device, cost, data_scale);
  const double charged = predicted / eff;
  if (trace != nullptr) {
    // Tracing observes the clock but never advances it: the span endpoints
    // bracket exactly the seconds charged below, so simulated totals are
    // bit-identical with tracing on or off.
    const double start = trace_base + timeline->total_seconds();
    trace->AddComplete(track,
                       std::string("kernel:") + OpCategoryName(cat), "kernel",
                       start, start + charged,
                       {{"seq_bytes", static_cast<double>(cost.seq_bytes)},
                        {"rand_bytes", static_cast<double>(cost.rand_bytes)},
                        {"rows", static_cast<double>(cost.rows)},
                        {"launches", static_cast<double>(cost.launches)},
                        {"predicted_s", predicted},
                        {"charged_s", charged}});
  }
  timeline->Charge(cat, charged);
}

void SimContext::ChargeSeconds(OpCategory cat, double seconds) const {
  if (timeline == nullptr) return;
  timeline->Charge(cat, seconds);
}

}  // namespace sirius::sim
