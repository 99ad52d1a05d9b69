// Analytical kernel cost model.
//
// t = launches * launch_overhead
//   + seq_bytes / seq_bandwidth
//   + rand_bytes / (seq_bandwidth * random_access_factor)
//   + rows * ops_per_row / compute_throughput
//
// Data-dependent terms are multiplied by `data_scale`, which lets the suite
// run on a small TPC-H scale factor while reporting times for a larger
// modeled one; fixed terms (kernel launches) deliberately do not scale,
// which is how the model reproduces "overhead does not scale with data
// size" (paper §4.3).

#pragma once

#include <cstdint>

#include "obs/trace.h"
#include "sim/device.h"
#include "sim/timeline.h"

namespace sirius::sim {

/// \brief Resource usage of one kernel invocation, as counted by the kernel
/// itself while executing.
struct KernelCost {
  /// Streaming traffic: bytes read plus bytes written sequentially.
  uint64_t seq_bytes = 0;
  /// Random-access traffic (hash-table probes/inserts), in bytes.
  uint64_t rand_bytes = 0;
  /// Element count for the compute term.
  uint64_t rows = 0;
  /// Simple ops per element (comparisons, multiplies...).
  double ops_per_row = 1.0;
  /// Number of kernel launches (GPU) or task dispatches (CPU).
  int launches = 1;
};

/// \brief Aggregated device-activity counters: kernel launches and HBM
/// traffic, accumulated by SimContext::Charge alongside the timeline.
///
/// Byte counts are modeled bytes (after `data_scale`), matching what the
/// time model charged — so a fused-vs-unfused ablation can report exactly
/// the launches and round-trip traffic the fusion skipped.
struct KernelStats {
  uint64_t launches = 0;
  uint64_t seq_bytes = 0;   ///< streaming HBM traffic (modeled)
  uint64_t rand_bytes = 0;  ///< random-access HBM traffic (modeled)

  uint64_t hbm_bytes() const { return seq_bytes + rand_bytes; }

  void Append(const KernelStats& o) {
    launches += o.launches;
    seq_bytes += o.seq_bytes;
    rand_bytes += o.rand_bytes;
  }
};

/// Modeled execution time of `cost` on `dev`, in seconds.
double KernelSeconds(const DeviceProfile& dev, const KernelCost& cost,
                     double data_scale = 1.0);

/// Modeled time to move `bytes` over a link of `link_gbps` GB/s, with a
/// fixed `latency_us` setup cost.
double TransferSeconds(double link_gbps, uint64_t bytes, double latency_us = 5.0,
                       double data_scale = 1.0);

/// \brief Per-engine efficiency knobs.
///
/// The evaluation compares engines with different *planning policies* and
/// different operator maturity on the same substrate; these multipliers
/// (applied as bandwidth/compute derating per operator class) encode the
/// operator-maturity side. 1.0 = our substrate's native efficiency.
struct EngineProfile {
  std::string name = "sirius";
  double scan_eff = 1.0;
  double filter_eff = 1.0;
  double project_eff = 1.0;
  double join_eff = 1.0;
  double groupby_eff = 1.0;
  double agg_eff = 1.0;
  double sort_eff = 1.0;
  double exchange_eff = 1.0;
  /// Cost-based join reordering (off reproduces ClickHouse's syntactic-order
  /// behaviour the paper calls out in §4.2).
  bool reorder_joins = true;
  /// IN/EXISTS -> semi/anti join rewrites available.
  bool semi_join_rewrites = true;
  /// Distributed joins replicate the entire right input to every node
  /// instead of shuffling (ClickHouse's distributed-join behaviour, which
  /// the paper's Table 2 Q3 exposes).
  bool distributed_broadcast_joins = false;
  /// Fixed per-query overhead: parse/optimize/dispatch/result return,
  /// seconds. Dominates "Other" in Table 2.
  double fixed_query_overhead_s = 0.0;

  double EffFor(OpCategory c) const;
};

/// Sirius itself: libcudf-class kernels, cost-based host plans.
EngineProfile SiriusProfile();
/// DuckDB-class CPU engine: mature vectorized operators, good optimizer.
EngineProfile DuckDbProfile();
/// ClickHouse-class engine: excellent scans, weak join planning/execution.
EngineProfile ClickHouseProfile();
/// Apache Doris-class distributed CPU engine.
EngineProfile DorisProfile();

/// \brief Everything a kernel needs to charge simulated time.
struct SimContext {
  DeviceProfile device;
  EngineProfile engine;
  Timeline* timeline = nullptr;  ///< not owned; may be null (no accounting)
  /// Multiplier applied to data-dependent cost terms (modeled SF / actual SF).
  double data_scale = 1.0;
  /// Simulated stream this kernel invocation is enqueued on.
  StreamId stream = 0;
  /// Happens-before checker for stream-ordering debug runs; not owned, may
  /// be null (no checking).
  HazardTracker* hazards = nullptr;
  /// Launch/traffic counter sink; not owned, may be null (no counting).
  KernelStats* kernel_stats = nullptr;
  /// Per-query trace sink; not owned, may be null (no tracing). Charge()
  /// emits one "kernel" span per invocation onto `track`.
  obs::TraceRecorder* trace = nullptr;
  /// Trace lane for this context (one per simulated stream/node).
  obs::TrackId track = 0;
  /// Offset of this context's (local, zero-based) timeline into the
  /// query-global simulated time axis.
  double trace_base = 0.0;

  /// Current position on the query-global simulated time axis.
  double TraceNow() const {
    return trace_base + (timeline != nullptr ? timeline->total_seconds() : 0.0);
  }
  /// Clock stamping obs::Span guards from this context's timeline.
  obs::Clock TraceClock() const;

  /// Charges `cost` (derated by the engine's efficiency for `cat`) to the
  /// timeline. Safe to call with a null timeline.
  void Charge(OpCategory cat, const KernelCost& cost) const;
  /// Charges raw pre-computed seconds.
  void ChargeSeconds(OpCategory cat, double seconds) const;

  /// Declares a kernel-side read/write of a tracked resource on this
  /// context's stream. Safe to call with a null tracker.
  void NoteRead(uint64_t resource, const std::string& what = "") const {
    if (hazards != nullptr) hazards->OnRead(stream, resource, what);
  }
  void NoteWrite(uint64_t resource, const std::string& what = "") const {
    if (hazards != nullptr) hazards->OnWrite(stream, resource, what);
  }
};

}  // namespace sirius::sim
