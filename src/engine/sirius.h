// Sirius: the GPU-native SQL engine (paper §3).
//
// Consumes Substrait-format plans from a host database, executes them
// entirely on the (simulated) GPU device through the GDF kernel library,
// with a caching/processing buffer manager and a pipeline push executor
// fed from a global task queue. Implements host::Accelerator, so plugging
// it into DuckX requires zero host changes (drop-in acceleration, §3.1).

#pragma once

#include <atomic>
#include <memory>

#include "common/result.h"
#include "mem/reservation.h"
#include "mem/tier.h"
#include "common/thread_pool.h"
#include "engine/buffer_manager.h"
#include "engine/pipeline.h"
#include "fault/fault_injector.h"
#include "gdf/vector_search.h"
#include "host/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/device.h"

namespace sirius::engine {

/// \brief Per-execution limits for one query, set by callers that multiplex
/// queries onto a shared engine (the serving layer).
///
/// All limits are charged in *simulated* time: the deadline compares against
/// the query's accumulating Timeline, never a wall clock, so cancellation is
/// deterministic for a given plan and cache state.
struct ExecLimits {
  /// Cancel once the query's charged simulated time passes this many
  /// seconds (0 = no deadline). Checked between pipeline steps, so a
  /// cancellation lands mid-pipeline and surfaces as Status::Timeout with
  /// the partial work already charged.
  double deadline_s = 0;
  /// External cancel flag polled at the same sites (not owned; may be null).
  const std::atomic<bool>* cancel = nullptr;
  /// Admission-time memory reservation for this query (not owned; may be
  /// null). Grown on the fly when an intermediate exceeds the admitted
  /// estimate; growth failure surfaces as Status::ResourceExhausted.
  mem::Reservation* reservation = nullptr;
  /// Per-tenant spill quota (not owned; may be null = unlimited). Every
  /// byte the query spills to host/NVMe is charged here via
  /// Reservation::Grow; exhaustion surfaces as Status::ResourceExhausted
  /// with cause kSpillRefused and a retry-after hint so the serving layer
  /// can shed.
  mem::Reservation* spill = nullptr;
};

/// \brief The GPU engine, attachable to a host database as a drop-in
/// accelerator.
class SiriusEngine : public host::Accelerator {
 public:
  struct Options {
    sim::DeviceProfile device = sim::Gh200Gpu();
    sim::EngineProfile profile = sim::SiriusProfile();
    /// Modeled SF / loaded SF, forwarded to the cost model.
    double data_scale = 1.0;
    /// Host<->device link (NVLink-C2C on GH200, PCIe4 on the A100 cluster):
    /// prices cold loads, out-of-core batches and every spill's
    /// device<->host leg.
    sim::Link host_link = sim::NvlinkC2c();
    /// §3.4 out-of-core extension: stream over-capacity inputs in batches
    /// instead of failing with OutOfMemory.
    bool out_of_core = false;
    /// Spill-tier capacities below HBM (pinned host, then simulated NVMe)
    /// for the out-of-core overflow path. Spilled bytes live in governed
    /// tiers instead of growing the host unboundedly; exhaustion is a
    /// diagnosable ResourceExhausted.
    mem::TierManager::Options tier;
    /// Worker threads pulling pipeline tasks from the global queue.
    int num_task_threads = 4;
    /// §3.4 "predicate transfer" optimization [29, 30]: build a Bloom filter
    /// on each inner-join build side and pre-filter the probe input with it
    /// when the build side is selective.
    bool predicate_transfer = false;
    /// Fused pipeline execution: run each pipeline's streaming chain as one
    /// pass per morsel where selection vectors flow between operators and
    /// sinks are the only materialization points. Off, every step
    /// materializes its output (step-at-a-time execution). Stages with
    /// cross/asof/residual joins always materialize.
    bool fusion = true;
    /// Fault injector consulted at the device-memory sites ("engine.reserve");
    /// nullptr uses the (disarmed) global injector.
    fault::FaultInjector* injector = nullptr;
    /// Processing-region allocator override, forwarded to the buffer
    /// manager (fault tests inject a PressureMemoryResource here). Not owned.
    mem::MemoryResource* processing_override = nullptr;
    /// Debug race checking: model each pipeline as a simulated stream, its
    /// dependency edges as recorded/awaited events, and verify with a
    /// vector-clock happens-before relation that no two pipelines touch a
    /// shared resource (materialized result, cache entry) without an
    /// ordering edge. A violation aborts with a diagnostic. Defaults on
    /// when SIRIUS_RACE_CHECK=1 is set.
    bool race_check = sim::RaceCheckRequestedByEnv();
    /// Per-query tracing (spans over simulated time, exposed as
    /// host::QueryResult::profile). On by default; allocation-light — the
    /// span buffer is preallocated to obs::kSpanCapacity and overflow spans
    /// are dropped (and counted). Off, a query builds no recorder.
    bool tracing = true;
  };

  /// \brief Engine counters — a view over the metrics registry (snapshot;
  /// see stats()). Each field reads one "engine.*" registry counter, a
  /// monotone total since the engine was built; a reader that wants a
  /// window subtracts two stats().
  struct Stats {
    uint64_t queries = 0;            ///< plans executed (attempts not counted)
    uint64_t oom_events = 0;         ///< OutOfMemory statuses seen from the device
    uint64_t evictions_under_pressure = 0;  ///< cache columns dropped to recover
    uint64_t pipeline_retries = 0;   ///< pipeline-set re-runs after eviction
    uint64_t spill_events = 0;       ///< §3.4 out-of-core spills (all tiers)
    uint64_t spill_host = 0;         ///< spill round trips to pinned host
    uint64_t spill_nvme = 0;         ///< spill round trips to simulated NVMe
    uint64_t tier_loss_retries = 0;  ///< re-runs after a mid-spill tier loss
    uint64_t deadline_cancels = 0;   ///< mid-pipeline ExecLimits cancellations
    uint64_t fused_stages = 0;       ///< fused single-pass stage executions
    uint64_t fusion_fallbacks = 0;   ///< fused compiles degraded to materialized
  };

  /// `host_db` supplies base tables (the paper: "Sirius relies on the host
  /// database to read data from disk", §3.2.3). Not owned.
  SiriusEngine(host::Database* host_db, Options options);
  ~SiriusEngine() override;

  /// The drop-in entry point: deserializes the Substrait plan and executes
  /// it on the device (ExecutePlan).
  Result<host::QueryResult> ExecuteSubstrait(const std::string& plan_text) override;

  /// Executes an already-deserialized plan under per-query `limits`
  /// (deadline / cancel flag / memory reservation; the serving layer sets
  /// them). A plan CheckDeviceSupport declines returns its
  /// UnsupportedOnDevice status before anything is charged, and the caller
  /// runs it on the host instead.
  ///
  /// Re-entrant: any number of threads may execute plans against one engine
  /// concurrently. Pipeline tasks from every in-flight query share the
  /// global task queue (paper §3.2.2); the buffer manager and metrics are
  /// internally synchronized.
  Result<host::QueryResult> ExecutePlan(const plan::PlanPtr& plan,
                                        const ExecLimits& limits = {});

  std::string name() const override { return "sirius"; }

  BufferManager& buffer_manager() { return buffer_manager_; }
  const Options& options() const { return options_; }

  /// The spill-tier hierarchy backing the §3.4 out-of-core path. Shared by
  /// every query on this engine.
  mem::TierManager& tiers() { return tiers_; }
  const mem::TierManager& tiers() const { return tiers_; }

  /// Snapshot of the engine counters; safe while pipelines are running.
  Stats stats() const;

  /// The engine-lifetime metrics registry backing stats().
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Pipeline breakdown of the given plan (EXPLAIN-style, for tests).
  Result<std::string> ExplainPipelines(const plan::PlanPtr& plan) const;

  /// \brief Vector similarity search on the device (§3.4).
  ///
  /// Scores the LIST<FLOAT64> column `embedding_column` of `table_name`
  /// against `query` (embeddings cached in the caching region like any
  /// other column) and returns the top-k rows with a trailing
  /// "__score" FLOAT64 column. Charges the query's cost to `timeline`
  /// when provided.
  Result<format::TablePtr> VectorSearch(const std::string& table_name,
                                        const std::string& embedding_column,
                                        const std::vector<double>& query,
                                        size_t k,
                                        gdf::Metric metric = gdf::Metric::kCosine,
                                        sim::Timeline* timeline = nullptr);

 private:
  fault::FaultInjector* injector() const {
    return options_.injector != nullptr ? options_.injector
                                        : fault::FaultInjector::Global();
  }

  host::Database* host_db_;
  Options options_;
  mem::TierManager tiers_;  ///< before buffer_manager_, which points at it
  BufferManager buffer_manager_;
  ThreadPool task_pool_;
  obs::MetricsRegistry metrics_;
};

}  // namespace sirius::engine
