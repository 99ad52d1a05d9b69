#include "engine/sirius.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "engine/device_support.h"
#include "gdf/asof.h"
#include "gdf/bloom.h"
#include "gdf/compute.h"
#include "gdf/copying.h"
#include "gdf/filter.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/selection.h"
#include "host/cpu_executor.h"
#include "plan/substrait.h"

namespace sirius::engine {

using format::ColumnPtr;
using format::TablePtr;
using plan::PlanNode;
using plan::PlanPtr;

// Device-memory fault site: a firing check models an allocation failing in
// the processing region (the paper's GPU OOM, §3.4).
SIRIUS_FAULT_DEFINE_SITE(kSiteReserve, "engine.reserve");
// Fused-stage compile fault site: a firing check models the fusion compiler
// rejecting the plan (e.g. an unexpected chain shape); the engine degrades
// the whole run to materialized step-at-a-time execution instead of failing
// the query.
SIRIUS_FAULT_DEFINE_SITE(kSiteFuseCompile, "engine.fuse.compile");

namespace {

using Stats = SiriusEngine::Stats;

/// The registry counter behind each Stats field: the one place a counter's
/// name is spelled. stats() reads the registry snapshot through it.
constexpr std::pair<uint64_t Stats::*, const char*> kStatCounters[] = {
    {&Stats::queries, "engine.queries"},
    {&Stats::oom_events, "engine.oom_events"},
    {&Stats::evictions_under_pressure, "engine.evictions_under_pressure"},
    {&Stats::pipeline_retries, "engine.pipeline_retries"},
    {&Stats::spill_events, "engine.spill_events"},
    {&Stats::spill_host, "engine.spill.host"},
    {&Stats::spill_nvme, "engine.spill.nvme"},
    {&Stats::tier_loss_retries, "engine.tier_loss_retries"},
    {&Stats::deadline_cancels, "engine.deadline_cancels"},
    {&Stats::fused_stages, "engine.fused_stages"},
    {&Stats::fusion_fallbacks, "engine.fusion_fallbacks"},
};

const char* CounterName(uint64_t Stats::*field) {
  for (const auto& [f, name] : kStatCounters) {
    if (f == field) return name;
  }
  SIRIUS_CHECK(false);
  return nullptr;
}

/// Adds `n` to the registry counter behind `field` (and, when tracing, to
/// the query's trace counters).
void Bump(obs::MetricsRegistry* metrics, uint64_t Stats::*field,
          uint64_t n = 1, obs::TraceRecorder* trace = nullptr) {
  metrics->GetCounter(CounterName(field))->Add(n);
  if (trace != nullptr) trace->AddCounter(CounterName(field), n);
}

}  // namespace

SiriusEngine::SiriusEngine(host::Database* host_db, Options options)
    : host_db_(host_db),
      options_(options),
      tiers_(options.tier, options.host_link,
             options.injector != nullptr ? options.injector
                                         : fault::FaultInjector::Global()),
      buffer_manager_([&] {
        BufferManager::Options bm;
        bm.device_capacity_bytes = static_cast<uint64_t>(
            options.device.mem_capacity_gib * (1ull << 30));
        bm.host_link = options.host_link;
        bm.processing_override = options.processing_override;
        return bm;
      }()),
      task_pool_(static_cast<size_t>(options.num_task_threads)) {
  // Registered up front so every counter shows in metrics() from the start.
  for (const auto& [field, name] : kStatCounters) metrics_.GetCounter(name);
}

SiriusEngine::~SiriusEngine() = default;

namespace {

/// Hazard-tracker resource ids for materialized pipeline results live above
/// the ids sim::NewResourceId mints (cache entries, spill extents).
constexpr uint64_t kPipelineResourceBase = 1ull << 32;

/// A-priori compression-ratio estimate of the caching region, used only for
/// RunScan's out-of-core sizing pre-check; the cache itself accounts the
/// real encoded size.
constexpr double kCacheCompressionEstimate = 2.5;

uint64_t PipelineResource(int id) {
  return kPipelineResourceBase + static_cast<uint64_t>(id);
}

/// Executes one compiled pipeline set against the device.
class PipelineRunner {
 public:
  PipelineRunner(const SiriusEngine::Options& options, BufferManager* bm,
                 host::Database* host_db, ThreadPool* pool,
                 fault::FaultInjector* injector, mem::TierManager* tiers,
                 obs::MetricsRegistry* metrics, obs::TraceRecorder* trace,
                 const ExecLimits& limits)
      : options_(options),
        bm_(bm),
        host_db_(host_db),
        pool_(pool),
        injector_(injector),
        tiers_(tiers),
        metrics_(metrics),
        trace_(trace),
        limits_(limits) {}

  /// `trace_base_s` places this run on the query-global simulated time
  /// axis (after the fixed query overhead; retries start after the failed
  /// run's charged time).
  Result<TablePtr> Run(const std::vector<Pipeline>& pipelines,
                       const std::vector<FusedStage>& stages, int result_id,
                       sim::Timeline* timeline, sim::KernelStats* kernels,
                       double trace_base_s = 0.0) {
    const size_t n = pipelines.size();
    stages_ = &stages;
    // Fresh spill state per run: a retry starts with empty lanes.
    spill_ = std::make_unique<mem::SpillSession>(tiers_);
    results_.assign(n, nullptr);
    timelines_.assign(n, sim::Timeline());
    kstats_.assign(n, sim::KernelStats());
    remaining_deps_.assign(n, 0);
    dependents_.assign(n, {});
    start_s_.assign(n, trace_base_s);
    end_s_.assign(n, trace_base_s);
    run_base_s_ = trace_base_s;
    inflight_ = 0;
    error_ = Status::OK();
    if (trace_ != nullptr) {
      track_ids_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        // Each pipeline executes as one simulated stream; RegisterTrack
        // dedups by name, so a retry run reuses the same lanes.
        track_ids_[i] = trace_->RegisterTrack("stream-" + std::to_string(i));
      }
    }

    if (options_.race_check) {
      // Each pipeline executes as one simulated stream; the dependency edges
      // of the pipeline DAG become recorded/awaited events. The tracker then
      // proves every cross-pipeline access is ordered — deterministically,
      // whatever the host thread pool's actual interleaving was.
      tracker_ = std::make_unique<sim::HazardTracker>();
      stream_ids_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        stream_ids_[i] =
            tracker_->CreateStream("pipeline-" + std::to_string(i));
      }
      completion_events_.assign(n, -1);
    }

    for (const auto& p : pipelines) {
      remaining_deps_[p.id] = static_cast<int>(p.dependencies.size());
      for (int d : p.dependencies) dependents_[d].push_back(p.id);
    }
    // Enqueue initially-ready pipelines into the global task queue; idle
    // worker threads pull and execute them (paper §3.2.2).
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& p : pipelines) {
        if (remaining_deps_[p.id] == 0) Enqueue(pipelines, p.id);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return inflight_ == 0; });
      SIRIUS_RETURN_NOT_OK(error_);
    }

    // Merge per-pipeline timelines deterministically (id order). Simulated
    // time models a single saturated device: work adds up.
    for (size_t i = 0; i < n; ++i) timeline->Append(timelines_[i]);
    if (kernels != nullptr) {
      for (size_t i = 0; i < n; ++i) kernels->Append(kstats_[i]);
    }
    if (results_[result_id] == nullptr) {
      return Status::Internal("result pipeline did not materialize");
    }
    return results_[result_id];
  }

 private:
  /// Caller holds mu_.
  void Enqueue(const std::vector<Pipeline>& pipelines, int id) {
    ++inflight_;
    // All dependencies have completed, so this pipeline's position on the
    // simulated time axis is decided: it starts when its last dependency
    // ends (dependency-driven start, concurrent with unrelated pipelines).
    start_s_[id] = run_base_s_;
    for (int dep : pipelines[id].dependencies) {
      start_s_[id] = std::max(start_s_[id], end_s_[dep]);
    }
    pool_->Submit([this, &pipelines, id] {
      WaitForDependencies(pipelines[id]);
      auto result = ExecutePipeline(pipelines[id]);
      std::lock_guard<std::mutex> lock(mu_);
      end_s_[id] = start_s_[id] + timelines_[id].total_seconds();
      if (result.ok()) {
        results_[id] = std::move(result).ValueOrDie();
        if (tracker_ != nullptr) {
          // Materializing the result is a write on this pipeline's stream;
          // the completion event is the edge dependents must wait on.
          tracker_->OnWrite(stream_ids_[id], PipelineResource(id),
                            "materialize pipeline " + std::to_string(id));
          completion_events_[id] = tracker_->RecordEvent(stream_ids_[id]);
        }
        if (error_.ok()) {
          for (int dep : dependents_[id]) {
            if (--remaining_deps_[dep] == 0) Enqueue(pipelines, dep);
          }
        }
      } else if (error_.ok()) {
        error_ = result.status();  // first error wins; no new tasks start
      }
      --inflight_;
      done_cv_.notify_all();
    });
  }

  /// Replays the pipeline's dependency edges as stream-event waits; after
  /// this, every access the dependency materialized happens-before us.
  void WaitForDependencies(const Pipeline& p) {
    if (tracker_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (int dep : p.dependencies) {
      if (completion_events_[dep] >= 0) {
        tracker_->StreamWaitEvent(stream_ids_[p.id], completion_events_[dep]);
      }
    }
  }

  sim::SimContext MakeSim(int id) {
    sim::SimContext sim;
    sim.device = options_.device;
    sim.engine = options_.profile;
    sim.timeline = &timelines_[id];
    sim.kernel_stats = &kstats_[id];
    sim.data_scale = options_.data_scale;
    if (tracker_ != nullptr) {
      sim.stream = stream_ids_[id];
      sim.hazards = tracker_.get();
    }
    if (trace_ != nullptr) {
      sim.trace = trace_;
      sim.track = track_ids_[id];
      sim.trace_base = start_s_[id];
    }
    return sim;
  }

  /// Deadline / cancel-flag poll, called between units of charged work. The
  /// deadline compares the pipeline's position on the query-global simulated
  /// axis, so a trip is deterministic for a given plan and cache state and
  /// the partial work stays charged (cancellation costs simulated time).
  Status CheckLimits(const Pipeline& p) {
    if (limits_.cancel != nullptr &&
        limits_.cancel->load(std::memory_order_relaxed)) {
      Bump(metrics_, &Stats::deadline_cancels);
      return Status::Timeout("query cancelled mid-pipeline (pipeline " +
                             std::to_string(p.id) + ")");
    }
    if (limits_.deadline_s > 0) {
      const double elapsed_s =
          start_s_[p.id] + timelines_[p.id].total_seconds();
      if (elapsed_s > limits_.deadline_s) {
        Bump(metrics_, &Stats::deadline_cancels);
        return Status::Timeout(
            "deadline of " + std::to_string(limits_.deadline_s) +
            "s (simulated) exceeded mid-pipeline (pipeline " +
            std::to_string(p.id) + ")");
      }
    }
    return Status::OK();
  }

  Result<TablePtr> ExecutePipeline(const Pipeline& p) {
    SIRIUS_RETURN_NOT_OK(CheckLimits(p));
    gdf::Context ctx;
    ctx.mr = bm_->processing_resource();
    ctx.sim = MakeSim(p.id);
    obs::Span pipeline_span(trace_,
                            trace_ != nullptr ? track_ids_[p.id] : 0,
                            "pipeline-" + std::to_string(p.id), "pipeline",
                            ctx.sim.TraceClock());

    TablePtr out;
    if (p.source_scan != nullptr) {
      SIRIUS_ASSIGN_OR_RETURN(out, RunScan(p, ctx));
    } else if (p.source_pipeline >= 0) {
      TablePtr source = results_[p.source_pipeline];
      if (source == nullptr) {
        return Status::Internal("source pipeline did not materialize");
      }
      ctx.sim.NoteRead(PipelineResource(p.source_pipeline),
                       "source of pipeline " + std::to_string(p.id));
      SIRIUS_ASSIGN_OR_RETURN(
          out, RunMorsel(p, std::move(source), ctx, /*batch_tables=*/nullptr));
    } else {
      return Status::Internal("pipeline without source");
    }
    SIRIUS_RETURN_NOT_OK(DrainSpill(p, ctx));
    return out;
  }

  /// True when the compiler fused `p`'s chain: each morsel then runs it in
  /// one register-residency scope (`gdf::Context::fused_reads`).
  bool Fused(const Pipeline& p) const {
    return (*stages_)[p.id].exec == StageExec::kFused;
  }

  /// Pipeline-end barrier on the spill lane: every outstanding prefetch must
  /// land before the result is final. Compute pays only the remaining drain
  /// (transfers overlapped with the steps that ran since the round trip);
  /// a tier lost mid-spill surfaces here as Unavailable.
  Status DrainSpill(const Pipeline& p, const gdf::Context& ctx) {
    if (spill_ == nullptr) return Status::OK();
    const double now = start_s_[p.id] + timelines_[p.id].total_seconds();
    SIRIUS_ASSIGN_OR_RETURN(const double drain, spill_->Join(p.id, now));
    if (drain > 0) {
      const double t0 = ctx.sim.TraceNow();
      ctx.sim.ChargeSeconds(sim::OpCategory::kOther, drain);
      if (trace_ != nullptr) {
        trace_->AddComplete(track_ids_[p.id], "spill-drain", "mem", t0,
                            t0 + drain);
      }
    }
    return Status::OK();
  }

  /// One slot per chain step: a join step's hash table, built by the first
  /// morsel that reaches the step and probed by every later morsel of the
  /// same scan. The slots live as long as the scan's morsel loop, so no table
  /// outlives its scan; an in-core morsel is a loop of one.
  using JoinTables = std::vector<std::optional<gdf::JoinTable>>;

  /// Scan source. In core, the cached columns run through the chain and the
  /// sink as one morsel. Inputs that do not fit the caching region take the
  /// §3.4 out-of-core batch mode: each batch streams from host memory as its
  /// own morsel (the morsel boundary is a materialization point) and probes
  /// join tables the batch loop builds once, and the sink runs once over the
  /// concatenated batch outputs.
  Result<TablePtr> RunScan(const Pipeline& p, const gdf::Context& ctx) {
    const PlanNode& scan = *p.source_scan;
    SIRIUS_ASSIGN_OR_RETURN(TablePtr host_table,
                            host_db_->catalog().GetTable(scan.table_name));
    // Selecting first range-checks the plan against the table as it is now:
    // a plan bound before the table was replaced may scan a column it lost.
    SIRIUS_ASSIGN_OR_RETURN(TablePtr scanned,
                            host_table->SelectColumns(scan.scan_columns));
    const uint64_t modeled_bytes = static_cast<uint64_t>(
        static_cast<double>(scanned->MemoryUsage()) * ctx.sim.data_scale);
    const uint64_t compressed_bytes = static_cast<uint64_t>(
        static_cast<double>(modeled_bytes) / kCacheCompressionEstimate);

    if (compressed_bytes <= bm_->cache_capacity_bytes() ||
        !options_.out_of_core) {
      // The buffer manager charges the scan read (compressed bytes + decode
      // when the cache is compressed).
      SIRIUS_ASSIGN_OR_RETURN(
          TablePtr current,
          bm_->GetOrCacheColumns(scan.table_name, host_table,
                                 scan.scan_columns, ctx.sim));
      return RunMorsel(p, std::move(current), ctx, /*batch_tables=*/nullptr);
    }

    // Batch execution: split the input so each modeled batch fits in half of
    // the caching region, stream each batch over the host link. Each batch
    // copies only the scanned columns (the slice still prices the whole row).
    const uint64_t budget = bm_->cache_capacity_bytes() / 2;
    const size_t num_batches =
        static_cast<size_t>((modeled_bytes + budget - 1) / budget);
    const size_t rows_per_batch =
        (scanned->num_rows() + num_batches - 1) / num_batches;
    std::vector<TablePtr> outputs;
    {
      JoinTables tables(p.steps.size());
      for (size_t offset = 0; offset < scanned->num_rows();
           offset += rows_per_batch) {
        SIRIUS_ASSIGN_OR_RETURN(
            TablePtr batch, gdf::SliceTable(ctx, host_table, scan.scan_columns,
                                            offset, rows_per_batch));
        ctx.sim.ChargeSeconds(sim::OpCategory::kScan,
                              options_.host_link.TransferSeconds(
                                  batch->MemoryUsage(), ctx.sim.data_scale));
        SIRIUS_ASSIGN_OR_RETURN(TablePtr out,
                                RunMorsel(p, std::move(batch), ctx, &tables));
        outputs.push_back(std::move(out));
      }
    }
    TablePtr all;
    if (outputs.size() == 1) {
      all = outputs[0];
    } else {
      SIRIUS_ASSIGN_OR_RETURN(all, gdf::ConcatTables(ctx, outputs));
      // A fused stage prices the concatenation like its other
      // materialization points.
      if (Fused(p)) {
        SIRIUS_RETURN_NOT_OK(CheckProcessingFit(all->MemoryUsage(), p, ctx));
      }
    }
    return RunSink(p, gdf::SelectionView::FromTable(std::move(all)), ctx);
  }

  /// Runs one morsel through the chain, then through the sink — or, for an
  /// out-of-core batch, only up to the morsel-boundary gather. A batch's
  /// join steps use the scan's `batch_tables`; any other morsel is a loop of
  /// one, whose tables are released before its sink. A fused stage opens one
  /// register-residency scope for the chain and its sink; a scanned morsel
  /// enters it resident (the scan read or the host-link transfer already
  /// loaded the columns), a materialized source is read cold.
  Result<TablePtr> RunMorsel(const Pipeline& p, TablePtr input,
                             const gdf::Context& ctx, JoinTables* batch_tables) {
    gdf::SelectionView view = gdf::SelectionView::FromTable(input);
    std::unordered_set<const format::Column*> resident;
    gdf::Context mctx = ctx;
    if (Fused(p)) {
      if (p.source_scan != nullptr) {
        for (const auto& c : input->columns()) resident.insert(c.get());
      }
      mctx.fused_reads = &resident;
    }
    if (batch_tables != nullptr) {
      SIRIUS_RETURN_NOT_OK(RunChain(p, &view, mctx, batch_tables));
      return GatherView(p, view, mctx);
    }
    {
      JoinTables tables(p.steps.size());
      SIRIUS_RETURN_NOT_OK(RunChain(p, &view, mctx, &tables));
    }
    return RunSink(p, std::move(view), mctx);
  }

  /// The streaming chain over one morsel, one kernel per step. Inside a
  /// fused pass the chain is one kernel: selection vectors flow between the
  /// steps, nothing gathers until the sink, and the per-op kernel spans
  /// collapse into one "fused-stage" span carrying `fused_ops`. Outside one
  /// every step is a standalone kernel that leaves a dense view behind.
  Status RunChain(const Pipeline& p, gdf::SelectionView* view,
                  const gdf::Context& ctx, JoinTables* tables) {
    const bool fused = ctx.fused_reads != nullptr;
    const double t0 = ctx.sim.TraceNow();
    gdf::Context step_ctx = ctx;
    if (fused) {
      step_ctx.sim.trace = nullptr;
      sim::KernelCost launch;
      launch.ops_per_row = 0;
      launch.launches = 1;
      step_ctx.Charge(sim::OpCategory::kOther, launch);
    }
    for (size_t i = 0; i < p.steps.size(); ++i) {
      SIRIUS_RETURN_NOT_OK(RunStep(p, p.steps[i], view, step_ctx, &(*tables)[i]));
      // What the step leaves live must fit the processing region: the
      // gathered intermediate, or a fused pass's selection vectors.
      SIRIUS_RETURN_NOT_OK(CheckProcessingFit(
          fused ? view->SelectionBytes() : view->dense()->MemoryUsage(), p,
          step_ctx));
      SIRIUS_RETURN_NOT_OK(CheckLimits(p));
    }
    if (!fused) return Status::OK();
    if (trace_ != nullptr) {
      const double charged = ctx.sim.TraceNow() - t0;
      trace_->AddComplete(
          track_ids_[p.id], "fused-stage", "kernel", t0, t0 + charged,
          {{"fused_ops", static_cast<double>(p.steps.size())},
           {"charged_s", charged},
           {"predicted_s", charged}});
    }
    Bump(metrics_, &Stats::fused_stages);
    return Status::OK();
  }

  /// One step over the view. Each kernel prices itself by `ctx`: inside a
  /// fused pass it composes into the view's selection vectors, outside one
  /// it runs standalone and gathers a dense view. `join_table` is the step's
  /// JoinTables slot.
  Status RunStep(const Pipeline& p, const Step& step,
                 gdf::SelectionView* view, const gdf::Context& ctx,
                 std::optional<gdf::JoinTable>* join_table) {
    switch (step.kind) {
      case StepKind::kFilter: {
        SIRIUS_ASSIGN_OR_RETURN(
            ColumnPtr mask,
            gdf::ComputeColumnView(ctx, *step.node->predicate, *view,
                                   sim::OpCategory::kFilter));
        SIRIUS_ASSIGN_OR_RETURN(std::vector<gdf::index_t> sel,
                                gdf::MaskToIndices(ctx, mask));
        // Engine-side row ids are uint64; GDF gathers take int32
        // (§3.2.3's stated conversion boundary).
        BufferManager::ChargeIndexBoundary(sel.size(), ctx.sim);
        return gdf::RefineView(ctx, view, sel, sim::OpCategory::kFilter);
      }
      case StepKind::kProject: {
        std::vector<ColumnPtr> cols;
        for (const auto& e : step.node->projections) {
          SIRIUS_ASSIGN_OR_RETURN(
              ColumnPtr c, gdf::ComputeColumnView(ctx, *e, *view,
                                                  sim::OpCategory::kProject));
          cols.push_back(std::move(c));
        }
        SIRIUS_ASSIGN_OR_RETURN(
            TablePtr t,
            format::Table::Make(step.node->output_schema, std::move(cols)));
        // Computed columns are already compact; the view restarts dense.
        view->ResetToTable(std::move(t));
        return Status::OK();
      }
      case StepKind::kJoin:
        return Join(p, step, view, ctx, join_table);
    }
    return Status::Internal("unknown step kind");
  }

  /// Join step against the materialized build side. Probe keys gather
  /// through the view, and ApplyJoinToView applies the pair lists: inside a
  /// fused pass the probe side refines and the build side appends as a new
  /// segment; outside one both sides gather into a dense table. A hash join
  /// builds `join_table` if no earlier morsel of the scan did, then probes
  /// it. Cross joins, ASOF joins and residual predicates only run outside a
  /// fused pass: the fused-stage compiler keeps their stages materialized.
  Status Join(const Pipeline& p, const Step& step, gdf::SelectionView* view,
              const gdf::Context& ctx, std::optional<gdf::JoinTable>* join_table) {
    const PlanNode& node = *step.node;
    TablePtr build = results_[step.build_pipeline];
    if (build == nullptr) {
      return Status::Internal("build side not materialized");
    }
    ctx.sim.NoteRead(PipelineResource(step.build_pipeline),
                     "build side probed by pipeline " + std::to_string(p.id));

    std::vector<ColumnPtr> lkeys, rkeys;
    for (int k : node.left_keys) {
      SIRIUS_ASSIGN_OR_RETURN(
          ColumnPtr c,
          gdf::GatherViewColumn(ctx, *view, k, sim::OpCategory::kJoin));
      lkeys.push_back(std::move(c));
    }
    for (int k : node.right_keys) rkeys.push_back(build->column(k));
    // Predicate transfer (§3.4, [29, 30]): when the build side is selective,
    // a Bloom filter on its key cheaply pre-filters the probe input. False
    // positives are harmless — the hash join re-checks exactly.
    if (options_.predicate_transfer &&
        node.join_type == plan::JoinType::kInner &&
        node.left_keys.size() == 1 &&
        build->num_rows() * 2 < view->num_rows()) {
      SIRIUS_ASSIGN_OR_RETURN(std::vector<gdf::index_t> keep,
                              gdf::BloomPrefilter(ctx, lkeys[0], rkeys[0]));
      if (keep.size() < view->num_rows()) {
        SIRIUS_RETURN_NOT_OK(
            gdf::RefineView(ctx, view, keep, sim::OpCategory::kJoin));
        // Compact the gathered key alongside the view; the Bloom charge
        // and the refine already covered its rows.
        SIRIUS_ASSIGN_OR_RETURN(
            lkeys[0], gdf::GatherColumnUncharged(ctx, lkeys[0], keep));
      }
    }

    gdf::JoinResult pairs;
    if (node.join_type == plan::JoinType::kCross) {
      SIRIUS_ASSIGN_OR_RETURN(
          pairs, gdf::CrossJoin(ctx, view->num_rows(), build->num_rows()));
    } else if (node.join_type == plan::JoinType::kAsof) {
      SIRIUS_ASSIGN_OR_RETURN(
          ColumnPtr left_on,
          gdf::GatherViewColumn(ctx, *view, node.asof_left_on,
                                sim::OpCategory::kJoin));
      SIRIUS_ASSIGN_OR_RETURN(
          pairs, gdf::AsofJoin(ctx, left_on, build->column(node.asof_right_on),
                               lkeys, rkeys));
    } else {
      gdf::JoinOptions joptions;
      joptions.type = host::ToGdfJoin(node.join_type);
      if (node.residual != nullptr) {
        joptions.residual = node.residual.get();
        joptions.left_table = view->dense();
        joptions.right_table = build;
      }
      if (!join_table->has_value()) {
        SIRIUS_ASSIGN_OR_RETURN(gdf::JoinTable built, gdf::BuildJoinTable(rkeys));
        join_table->emplace(std::move(built));
      }
      SIRIUS_ASSIGN_OR_RETURN(
          pairs, gdf::ProbeJoinTable(ctx, **join_table, lkeys, joptions));
    }
    // uint64 <-> int32 index boundary on the join outputs (§3.2.3).
    BufferManager::ChargeIndexBoundary(pairs.left_indices.size(), ctx.sim);

    return gdf::ApplyJoinToView(ctx, view, pairs, build, node.output_schema,
                                host::JoinEmitsRight(node.join_type),
                                host::JoinNullableRight(node.join_type),
                                sim::OpCategory::kJoin);
  }

  /// The view as one table. An identity view already is one (always
  /// outside a fused pass); a selected view gathers once here, the fused
  /// chain's single materialization kernel.
  static Result<TablePtr> Materialize(const Pipeline& p,
                                      const gdf::SelectionView& view,
                                      const gdf::Context& ctx) {
    if (view.IsIdentity()) return view.dense();
    return gdf::MaterializeView(ctx, view, StepOutputSchema(p),
                                sim::OpCategory::kOther);
  }

  /// The chain's materialization point. Inside a fused pass the gathered
  /// table must fit the processing region like any materialized
  /// intermediate (out of core, the same tiered spill round trip, §3.4);
  /// outside one every step already fit-checked the dense view it left.
  Result<TablePtr> GatherView(const Pipeline& p, const gdf::SelectionView& view,
                              const gdf::Context& ctx) {
    SIRIUS_ASSIGN_OR_RETURN(TablePtr t, Materialize(p, view, ctx));
    if (ctx.fused_reads != nullptr) {
      SIRIUS_RETURN_NOT_OK(CheckProcessingFit(t->MemoryUsage(), p, ctx));
    }
    return t;
  }

  /// Schema of the chain's logical output (the last step's node). Only
  /// selected views need it, and they exist only in fused stages, which
  /// always have steps (the compiler keeps empty chains materialized).
  static const format::Schema& StepOutputSchema(const Pipeline& p) {
    return p.steps.back().node->output_schema;
  }

  /// Sink. Aggregates consume the view directly (only referenced columns
  /// gather); limits select their rows before the gather, so only survivors
  /// materialize; every other sink runs over the gathered table.
  Result<TablePtr> RunSink(const Pipeline& p, gdf::SelectionView view,
                           const gdf::Context& ctx) {
    const PlanNode* node = p.sink_node;
    switch (p.sink) {
      case SinkKind::kAggregate: {
        std::vector<std::string> key_names;
        for (size_t k = 0; k < node->group_by.size(); ++k) {
          key_names.push_back(node->output_schema.field(k).name);
        }
        return gdf::GroupByAggregateView(ctx, view, node->group_by, key_names,
                                         host::AggRequests(*node));
      }
      case SinkKind::kLimit: {
        const size_t start =
            std::min(static_cast<size_t>(node->offset), view.num_rows());
        const size_t count =
            node->limit < 0 ? view.num_rows() - start
                            : std::min(static_cast<size_t>(node->limit),
                                       view.num_rows() - start);
        std::vector<gdf::index_t> sel(count);
        for (size_t i = 0; i < count; ++i) {
          sel[i] = static_cast<gdf::index_t>(start + i);
        }
        SIRIUS_RETURN_NOT_OK(
            gdf::RefineView(ctx, &view, sel, sim::OpCategory::kOther));
        return Materialize(p, view, ctx);
      }
      default:
        break;
    }
    SIRIUS_ASSIGN_OR_RETURN(TablePtr t, GatherView(p, view, ctx));
    switch (p.sink) {
      case SinkKind::kSort:
      case SinkKind::kDistinct:
        // The host executor's operator over the gathered table.
        return host::ApplyNode(*node, {t}, ctx);
      default:
        // kMaterialize, and kExchange: single-node deployments bypass the
        // exchange layer (§3.2.4).
        return t;
    }
  }

  /// Fit check for `raw_bytes` of live intermediate state: a gathered
  /// intermediate, or a fused pass's selection vectors (its only per-step
  /// allocation).
  Status CheckProcessingFit(uint64_t raw_bytes, const Pipeline& p,
                            const gdf::Context& ctx) const {
    const uint64_t modeled = static_cast<uint64_t>(
        static_cast<double>(raw_bytes) * ctx.sim.data_scale);
    // The injector models an allocation failing under pressure even when
    // the capacity pre-check would pass.
    Status st = injector_->Check(kSiteReserve);
    if (st.ok()) st = bm_->ReserveProcessing(modeled);
    if (st.ok() && limits_.reservation != nullptr) {
      // Per-query accounting: intermediates beyond the admission-time
      // estimate grow the query's reservation; refusal means the serving
      // layer's budget is exhausted, not the device.
      std::lock_guard<std::mutex> lock(reservation_mu_);
      st = limits_.reservation->EnsureAtLeast(modeled);
    }
    if (!st.ok() && st.IsOutOfMemory() && options_.out_of_core) {
      // §3.4 spilling, tiered: the overflow is staged on the first surviving
      // tier with room (pinned host, then NVMe) as an asynchronous round
      // trip on this pipeline's spill lane. Compute pays backpressure when
      // the lane is still busy, not the transfer itself; the remaining
      // drain is charged at pipeline end (DrainSpill). Each byte is charged
      // to the tenant's spill quota, and tier exhaustion is a diagnosable
      // ResourceExhausted instead of unbounded host growth.
      const uint64_t overflow = modeled > bm_->processing_capacity_bytes()
                                    ? modeled - bm_->processing_capacity_bytes()
                                    : modeled;
      const double now = start_s_[p.id] + timelines_[p.id].total_seconds();
      Result<mem::SpillSession::Ticket> trip = spill_->RoundTrip(
          p.id, overflow, now, limits_.spill, ctx.sim.hazards, ctx.sim.stream);
      if (!trip.ok()) return trip.status();
      const mem::SpillSession::Ticket& tk = trip.ValueOrDie();
      if (tk.stall_s > 0) {
        ctx.sim.ChargeSeconds(sim::OpCategory::kOther, tk.stall_s);
      }
      Bump(metrics_, &Stats::spill_events, 1, trace_);
      Bump(metrics_,
           tk.tier == mem::Tier::kHost ? &Stats::spill_host
                                       : &Stats::spill_nvme,
           1, trace_);
      return Status::OK();
    }
    return st;
  }

  const SiriusEngine::Options& options_;
  BufferManager* bm_;
  host::Database* host_db_;
  ThreadPool* pool_;
  fault::FaultInjector* injector_;
  mem::TierManager* tiers_;
  obs::MetricsRegistry* metrics_;
  /// Per-run spill state; lanes are per-pipeline, so concurrent pipelines
  /// never share an overlap horizon (determinism).
  std::unique_ptr<mem::SpillSession> spill_;
  obs::TraceRecorder* trace_;
  const ExecLimits& limits_;
  /// Per-pipeline fused-stage decisions for the current Run (not owned).
  const std::vector<FusedStage>* stages_ = nullptr;
  /// Reservation growth is cross-pipeline (the Reservation is per-query,
  /// not per-stream); serialize it independently of the scheduler lock.
  mutable std::mutex reservation_mu_;

  std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<TablePtr> results_;
  std::vector<sim::Timeline> timelines_;
  std::vector<sim::KernelStats> kstats_;
  std::vector<int> remaining_deps_;
  std::vector<std::vector<int>> dependents_;
  /// Trace layout: lane per pipeline, dependency-driven start/end offsets
  /// on the query-global simulated time axis.
  std::vector<obs::TrackId> track_ids_;
  std::vector<double> start_s_;
  std::vector<double> end_s_;
  double run_base_s_ = 0.0;
  size_t inflight_ = 0;
  Status error_;

  /// Race-check state (race_check option); null when checking is off.
  std::unique_ptr<sim::HazardTracker> tracker_;
  std::vector<sim::StreamId> stream_ids_;
  std::vector<sim::EventId> completion_events_;
};

/// Re-materializes `t` into default host memory. Result tables can outlive
/// the engine (and its processing pool), so they must not alias pool-backed
/// buffers. Untimed: the copy-out is not part of the modeled query.
Result<TablePtr> CopyOutResult(const TablePtr& t) {
  gdf::Context ctx;  // default resource, no timeline
  return gdf::SliceTable(ctx, t, t->ColumnIndices(), 0, t->num_rows());
}

}  // namespace

Result<host::QueryResult> SiriusEngine::ExecuteSubstrait(
    const std::string& plan_text) {
  auto resolver = [this](const std::string& name) {
    return host_db_->catalog().GetTableSchema(name);
  };
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr plan,
                          plan::DeserializePlan(plan_text, resolver));
  return ExecutePlan(plan);
}

Result<host::QueryResult> SiriusEngine::ExecutePlan(const PlanPtr& plan,
                                                    const ExecLimits& limits) {
  SIRIUS_RETURN_NOT_OK(CheckDeviceSupport(*plan));
  std::vector<Pipeline> pipelines;
  SIRIUS_ASSIGN_OR_RETURN(int result_id,
                          PipelineCompiler::Compile(plan, &pipelines));

  Bump(&metrics_, &Stats::queries);
  host::QueryResult result;
  result.optimized_plan = plan;
  result.timeline.Charge(sim::OpCategory::kOther,
                         options_.profile.fixed_query_overhead_s);

  std::shared_ptr<obs::TraceRecorder> recorder;
  if (options_.tracing) {
    recorder = std::make_shared<obs::TraceRecorder>();
    const obs::TrackId engine_track = recorder->RegisterTrack("engine");
    recorder->AddComplete(engine_track, "query-overhead", "engine", 0.0,
                          options_.profile.fixed_query_overhead_s);
  }

  // Fused-stage compile: one decision per pipeline. A firing fault at the
  // compile site degrades this query to materialized execution (graceful
  // fallback, counted) instead of failing it.
  bool fusion_on = options_.fusion;
  if (fusion_on) {
    Status fuse_st = injector()->Check(kSiteFuseCompile);
    if (!fuse_st.ok()) {
      fusion_on = false;
      Bump(&metrics_, &Stats::fusion_fallbacks, 1, recorder.get());
    }
  }
  const std::vector<FusedStage> stages =
      FusedStageCompiler::Compile(pipelines, fusion_on);

  PipelineRunner runner(options_, &buffer_manager_, host_db_, &task_pool_,
                        injector(), &tiers_, &metrics_, recorder.get(),
                        limits);
  Result<TablePtr> table = runner.Run(pipelines, stages, result_id,
                                      &result.timeline, &result.kernels,
                                      result.timeline.total_seconds());
  // Device-memory recovery, one retry per query: drop the caching region
  // (base columns re-load from the host) and re-run the pipeline set before
  // the host falls back to its CPU engine (§3.4). A mid-spill tier loss
  // (cause kSpillTierLost) first revives the lost tiers (a transient loss
  // heals; a persistent fault re-fires on the next placement). A spill read
  // or write fault that outlasted its in-place retries is not a tier loss
  // and gets no retry. A second failure propagates, so the serving layer
  // can re-admit the query or the host can fall back.
  const bool oom = !table.ok() && table.status().IsOutOfMemory();
  const bool tier_loss =
      table.status().cause() == StatusCause::kSpillTierLost;
  if (oom) Bump(&metrics_, &Stats::oom_events);
  if (oom || tier_loss) {
    if (tier_loss) tiers_.ReviveLostTiers();
    Bump(&metrics_, &Stats::evictions_under_pressure,
         buffer_manager_.EvictAll());
    Bump(&metrics_, &Stats::pipeline_retries, 1, recorder.get());
    if (tier_loss) {
      Bump(&metrics_, &Stats::tier_loss_retries, 1, recorder.get());
    }
    if (recorder != nullptr) {
      recorder->AddInstant(recorder->RegisterTrack("engine"),
                           oom ? "oom-evict-retry" : "tier-loss-retry",
                           "engine", result.timeline.total_seconds());
    }
    table = runner.Run(pipelines, stages, result_id, &result.timeline,
                       &result.kernels, result.timeline.total_seconds());
  }
  SIRIUS_ASSIGN_OR_RETURN(result.table, std::move(table));
  SIRIUS_ASSIGN_OR_RETURN(result.table, CopyOutResult(result.table));
  result.accelerated = true;
  if (recorder != nullptr) {
    recorder->AddComplete(recorder->RegisterTrack("engine"), "query", "engine",
                          0.0, result.timeline.total_seconds());
    result.profile =
        std::make_shared<obs::QueryProfile>(recorder->Finish());
  }
  return result;
}

SiriusEngine::Stats SiriusEngine::stats() const {
  const auto snap = metrics_.Snapshot();
  Stats s;
  for (const auto& [field, name] : kStatCounters) {
    auto it = snap.find(name);
    if (it != snap.end()) s.*field = it->second;
  }
  return s;
}

Result<format::TablePtr> SiriusEngine::VectorSearch(
    const std::string& table_name, const std::string& embedding_column,
    const std::vector<double>& query, size_t k, gdf::Metric metric,
    sim::Timeline* timeline) {
  SIRIUS_ASSIGN_OR_RETURN(format::TablePtr host_table,
                          host_db_->catalog().GetTable(table_name));
  const int emb_idx = host_table->schema().IndexOf(embedding_column);
  if (emb_idx < 0) {
    return Status::KeyError("no column '" + embedding_column + "' in '" +
                            table_name + "'");
  }
  gdf::Context ctx;
  ctx.mr = buffer_manager_.processing_resource();
  ctx.sim.device = options_.device;
  ctx.sim.engine = options_.profile;
  ctx.sim.timeline = timeline;
  ctx.sim.data_scale = options_.data_scale;

  // All columns participate in the result; cache them like a scan would.
  SIRIUS_ASSIGN_OR_RETURN(
      format::TablePtr device_table,
      buffer_manager_.GetOrCacheColumns(table_name, host_table,
                                        host_table->ColumnIndices(), ctx.sim));
  SIRIUS_ASSIGN_OR_RETURN(
      gdf::TopKResult top,
      gdf::VectorTopK(ctx, device_table->column(emb_idx), query, k, metric));
  SIRIUS_ASSIGN_OR_RETURN(
      format::TablePtr rows,
      gdf::GatherTable(ctx, device_table, top.indices, sim::OpCategory::kOther));
  // Append the similarity scores.
  format::Schema schema = rows->schema();
  schema.AddField({"__score", format::Float64()});
  std::vector<format::ColumnPtr> cols = rows->columns();
  cols.push_back(format::Column::FromDouble(top.scores));
  SIRIUS_ASSIGN_OR_RETURN(
      format::TablePtr out,
      format::Table::Make(std::move(schema), std::move(cols)));
  return CopyOutResult(out);
}

Result<std::string> SiriusEngine::ExplainPipelines(const PlanPtr& plan) const {
  std::vector<Pipeline> pipelines;
  SIRIUS_RETURN_NOT_OK(PipelineCompiler::Compile(plan, &pipelines).status());
  const std::vector<FusedStage> stages =
      FusedStageCompiler::Compile(pipelines, options_.fusion);
  return PipelinesToString(pipelines, stages);
}

}  // namespace sirius::engine
