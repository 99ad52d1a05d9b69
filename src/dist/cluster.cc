#include "dist/cluster.h"

#include <algorithm>

#include "engine/device_support.h"
#include "gdf/copying.h"
#include "gdf/partition.h"
#include "host/cpu_executor.h"

namespace sirius::dist {

using format::TablePtr;
using plan::ExchangeKind;
using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

// Control-plane fault sites: a fragment crashing on one node mid-query, and
// a node's heartbeat lease expiring while a query is in flight.
SIRIUS_FAULT_DEFINE_SITE(kSiteFragment, "dist.fragment");
SIRIUS_FAULT_DEFINE_SITE(kSiteHeartbeat, "dist.heartbeat");

// ---------------------------------------------------------------------------
// TempTableRegistry
// ---------------------------------------------------------------------------

std::string TempTableRegistry::Register(std::vector<TablePtr> parts) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = "__exchange_" + std::to_string(next_id_++);
  tables_[name] = std::move(parts);
  return name;
}

Status TempTableRegistry::Deregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(name) == 0) {
    return Status::KeyError("temp table '" + name + "' not registered");
  }
  return Status::OK();
}

size_t TempTableRegistry::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

// ---------------------------------------------------------------------------
// DorisCluster
// ---------------------------------------------------------------------------

DorisCluster::DorisCluster(Options options)
    : options_(options),
      coordinator_([&] {
        host::Database::Options db;
        db.engine = options.engine;
        db.data_scale = options.data_scale;
        return db;
      }()),
      membership_(options.num_nodes) {
  for (int r = 0; r < options_.num_nodes; ++r) {
    auto node = std::make_unique<NodeState>();
    node->rank = r;
    node->buffer = std::make_unique<engine::BufferManager>([&] {
      engine::BufferManager::Options bm;
      bm.device_capacity_bytes = static_cast<uint64_t>(
          options_.device.mem_capacity_gib * (1ull << 30));
      return bm;
    }());
    nodes_.push_back(std::move(node));
  }
}

Status DorisCluster::LoadPartitioned(const std::string& name,
                                     const TablePtr& table) {
  // Coordinator keeps global metadata (and the authoritative copy used for
  // plan statistics and fault recovery, §3.4).
  SIRIUS_RETURN_NOT_OK(coordinator_.CreateTable(name, table));
  gdf::Context ctx;  // partitioning at load time is not charged to queries
  SIRIUS_ASSIGN_OR_RETURN(
      std::vector<TablePtr> parts,
      gdf::HashPartition(ctx, table, {0}, static_cast<size_t>(options_.num_nodes)));
  std::lock_guard<std::mutex> lock(membership_mu_);
  for (int r = 0; r < options_.num_nodes; ++r) {
    SIRIUS_RETURN_NOT_OK(nodes_[r]->catalog.CreateTable(name, parts[r]));
    // The node's partition changed: cached columns for it are stale.
    nodes_[r]->buffer->EvictAll();
  }
  partition_layout_.clear();
  for (int r = 0; r < options_.num_nodes; ++r) partition_layout_.push_back(r);
  return Status::OK();
}

Result<std::vector<int>> DorisCluster::PrepareActiveNodes(bool* re_partitioned) {
  // Membership snapshot + possible re-layout are one atomic step: two
  // concurrent queries must not both observe a changed membership and race
  // to re-partition the same tables.
  std::lock_guard<std::mutex> lock(membership_mu_);
  if (re_partitioned != nullptr) *re_partitioned = false;
  std::vector<int> actives = membership_.AliveRanks();
  if (actives.empty()) {
    return Status::Unavailable("no alive compute nodes in the cluster");
  }
  if (actives == partition_layout_) return actives;
  // Membership changed: recover by re-partitioning every table from the
  // coordinator's authoritative copy onto the surviving nodes.
  gdf::Context ctx;
  for (const auto& name : coordinator_.catalog().TableNames()) {
    SIRIUS_ASSIGN_OR_RETURN(TablePtr full, coordinator_.catalog().GetTable(name));
    SIRIUS_ASSIGN_OR_RETURN(
        std::vector<TablePtr> parts,
        gdf::HashPartition(ctx, full, {0}, actives.size()));
    for (size_t i = 0; i < actives.size(); ++i) {
      SIRIUS_RETURN_NOT_OK(
          nodes_[actives[i]]->catalog.CreateTable(name, parts[i]));
    }
  }
  // Every surviving node now holds different rows under the same table
  // names; drop the stale column caches.
  for (int r : actives) nodes_[r]->buffer->EvictAll();
  partition_layout_ = actives;
  if (re_partitioned != nullptr) *re_partitioned = true;
  return actives;
}

void DorisCluster::Heartbeat(int rank, double now_s) {
  std::lock_guard<std::mutex> lock(membership_mu_);
  membership_.Heartbeat(rank, now_s);
}

int DorisCluster::ExpireHeartbeats(double now_s, double timeout_s) {
  std::lock_guard<std::mutex> lock(membership_mu_);
  return membership_.ExpireHeartbeats(now_s, timeout_s);
}

bool DorisCluster::IsAlive(int rank) const {
  std::lock_guard<std::mutex> lock(membership_mu_);
  return membership_.IsAlive(rank);
}

int DorisCluster::num_alive() const {
  std::lock_guard<std::mutex> lock(membership_mu_);
  return membership_.num_alive();
}

namespace {

/// Distributed intermediate state: one table per node, or a single table on
/// the coordinator node after a gather.
struct DistState {
  std::vector<TablePtr> parts;
  bool gathered = false;
};

class DistExecutor {
 public:
  /// `trace` is the query's recorder (never null). `trace_base_s` places
  /// this attempt on the simulated time axis; the executor maintains a
  /// per-node "ready" clock from there, so the trace shows genuine overlap:
  /// a lightly-loaded rank's downstream fragment starts before the
  /// collective's slowest rank finishes.
  DistExecutor(const DorisCluster::Options& options,
               std::vector<NodeState*> nodes, net::Communicator* comm,
               TempTableRegistry* registry, sim::Timeline* timeline,
               fault::FaultInjector* injector, obs::TraceRecorder* trace,
               double trace_base_s)
      : options_(options),
        nodes_(std::move(nodes)),
        comm_(comm),
        registry_(registry),
        timeline_(timeline),
        injector_(injector),
        trace_(trace),
        node_ready_(nodes_.size(), trace_base_s) {
    node_tracks_.resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      node_tracks_[i] =
          trace_->RegisterTrack("node-" + std::to_string(nodes_[i]->rank));
    }
    link_track_ = trace_->RegisterTrack("link");
    comm_->set_trace(trace_, link_track_);
  }

  /// Global rank of the node whose fragment failed, or -1. The coordinator
  /// uses this to mark the node dead and re-run on the survivors.
  int failed_rank() const { return failed_rank_; }
  /// SCCL link retries healed during this attempt.
  int collective_retries() const { return collective_retries_; }
  /// Simulated backoff charged for those retries.
  double retry_backoff_seconds() const { return retry_backoff_s_; }
  /// Latest simulated instant any node reached (attempt end for the trace).
  double trace_end_s() const {
    double m = 0.0;
    for (double t : node_ready_) m = std::max(m, t);
    return m;
  }

  Result<DistState> Exec(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kExchange:
        return ExecExchange(node);
      case PlanKind::kTableScan:
        return ExecScan(node);
      default: {
        std::vector<DistState> children;
        for (const auto& c : node.children) {
          SIRIUS_ASSIGN_OR_RETURN(DistState s, Exec(*c));
          children.push_back(std::move(s));
        }
        return ExecLocal(node, children);
      }
    }
  }

 private:
  int n() const { return static_cast<int>(nodes_.size()); }

  /// Per-fragment injection point: a firing site means the node running
  /// this fragment died. Records the first casualty's global rank.
  Status NodeFaultCheck(int local_rank) {
    Status st = injector_->Check(kSiteFragment);
    if (!st.ok() && failed_rank_ < 0) {
      failed_rank_ = nodes_[local_rank]->rank;
      return st.WithContext("node " + std::to_string(failed_rank_) +
                            " failed executing a fragment");
    }
    return st;
  }

  void AccumulateRetryStats(const net::CollectiveResult& coll) {
    collective_retries_ += coll.retries;
    retry_backoff_s_ += coll.backoff_seconds;
  }

  gdf::Context NodeContext(sim::Timeline* t, int local_rank) const {
    gdf::Context ctx;
    ctx.mr = mem::DefaultResource();
    ctx.sim.device = options_.device;
    ctx.sim.engine = options_.engine;
    ctx.sim.timeline = t;
    ctx.sim.data_scale = options_.data_scale;
    ctx.sim.trace = trace_;
    ctx.sim.track = node_tracks_[local_rank];
    ctx.sim.trace_base = node_ready_[local_rank];
    return ctx;
  }

  /// Merges per-node op timelines with barrier semantics: the cluster waits
  /// for the slowest node, so each category advances by its per-node max.
  void MergeNodeTimelines(const std::vector<sim::Timeline>& per_node) {
    std::map<sim::OpCategory, double> maxima;
    for (const auto& t : per_node) {
      for (const auto& [cat, secs] : t.breakdown()) {
        maxima[cat] = std::max(maxima[cat], secs);
      }
    }
    for (const auto& [cat, secs] : maxima) timeline_->Charge(cat, secs);
  }

  /// Charges the merged timelines and advances each node's trace clock by
  /// its own local time (nodes proceed independently between barriers).
  void Advance(const std::vector<sim::Timeline>& per_node) {
    MergeNodeTimelines(per_node);
    for (size_t r = 0; r < node_ready_.size(); ++r) {
      node_ready_[r] += per_node[r].total_seconds();
    }
  }

  Result<DistState> ExecScan(const PlanNode& node) {
    DistState state;
    state.parts.resize(n());
    std::vector<sim::Timeline> node_times(n());
    for (int r = 0; r < n(); ++r) {
      SIRIUS_RETURN_NOT_OK(NodeFaultCheck(r));
      gdf::Context ctx = NodeContext(&node_times[r], r);
      SIRIUS_ASSIGN_OR_RETURN(TablePtr base,
                              nodes_[r]->catalog.GetTable(node.table_name));
      obs::Span op_span(trace_, TrackFor(r), "op:TableScan", "fragment",
                        ctx.sim.TraceClock());
      // Scan through the node's buffer manager: the projected columns are
      // served from (or loaded into) the device cache, charging decode plus
      // any cold host-link transfer, and hit/miss counters.
      SIRIUS_ASSIGN_OR_RETURN(
          state.parts[r],
          nodes_[r]->buffer->GetOrCacheColumns(node.table_name, base,
                                               node.scan_columns, ctx.sim));
    }
    Advance(node_times);
    return state;
  }

  Result<DistState> ExecLocal(const PlanNode& node,
                              const std::vector<DistState>& children) {
    // A node participates when the inputs are partitioned; after a gather
    // only the coordinator (rank 0) runs.
    bool gathered = !children.empty() && children[0].gathered;
    for (const auto& c : children) {
      if (node.kind == PlanKind::kJoin) continue;  // join handled below
      if (c.gathered != gathered) {
        return Status::Internal("mixed gathered/partitioned inputs");
      }
    }
    if (node.kind == PlanKind::kJoin) {
      // Left side drives the distribution; the right side is either
      // broadcast (replicated on every node) or co-shuffled.
      gathered = children[0].gathered;
    }

    DistState state;
    state.gathered = gathered;
    state.parts.assign(n(), nullptr);
    std::vector<sim::Timeline> node_times(n());
    const int active = gathered ? 1 : n();
    for (int r = 0; r < active; ++r) {
      SIRIUS_RETURN_NOT_OK(NodeFaultCheck(r));
      gdf::Context ctx = NodeContext(&node_times[r], r);
      std::vector<TablePtr> inputs;
      for (const auto& c : children) {
        TablePtr part = c.parts[r];
        if (part == nullptr && c.gathered) part = c.parts[0];
        if (part == nullptr) {
          return Status::Internal("missing partition for rank " +
                                  std::to_string(r));
        }
        inputs.push_back(std::move(part));
      }
      obs::Span op_span(trace_, TrackFor(r),
                        std::string("op:") + plan::PlanKindName(node.kind),
                        "fragment", ctx.sim.TraceClock());
      SIRIUS_ASSIGN_OR_RETURN(state.parts[r],
                              host::ApplyNode(node, inputs, ctx));
    }
    Advance(node_times);
    return state;
  }

  /// Entry barrier of a collective: every participating rank must arrive
  /// before the link moves data. Returns the collective's simulated start
  /// and aims the communicator's trace at it.
  double CollectiveBarrier() {
    double start = 0.0;
    for (double t : node_ready_) start = std::max(start, t);
    for (double& t : node_ready_) t = start;
    comm_->set_trace_start(start);
    return start;
  }

  /// Books the collective: retry stats, the global exchange charge, and
  /// per-rank completion — ranks with less traffic come out of the
  /// collective earlier, which is exactly the overlap the trace shows.
  void FinishCollective(double start_s, const net::CollectiveResult& coll) {
    AccumulateRetryStats(coll);
    timeline_->Charge(sim::OpCategory::kExchange, coll.seconds);
    for (size_t r = 0; r < node_ready_.size(); ++r) {
      node_ready_[r] = start_s + (r < coll.per_rank_seconds.size()
                                      ? coll.per_rank_seconds[r]
                                      : coll.seconds);
    }
  }

  Result<DistState> ExecExchange(const PlanNode& node) {
    SIRIUS_ASSIGN_OR_RETURN(DistState child, Exec(*node.children[0]));
    // Exchanged intermediates live in the registry while in flight; the
    // guard deregisters on *every* exit path, including mid-exchange faults.
    TempTableGuard guard(registry_, registry_->Register(child.parts));

    gdf::Context silent;  // collective-internal work is part of its cost
    silent.mr = mem::DefaultResource();

    DistState state;
    switch (node.exchange) {
      case ExchangeKind::kShuffle: {
        // Partition locally on every node (charged as exchange prep)...
        std::vector<std::vector<TablePtr>> matrix(n());
        std::vector<sim::Timeline> node_times(n());
        for (int r = 0; r < n(); ++r) {
          gdf::Context ctx = NodeContext(&node_times[r], r);
          TablePtr part = child.gathered && r > 0
                              ? nullptr
                              : child.parts[r];
          if (part == nullptr) {
            // Gathered input: only rank 0 holds data; others send nothing.
            SIRIUS_ASSIGN_OR_RETURN(
                TablePtr empty,
                gdf::SliceTable(ctx, child.parts[0],
                                child.parts[0]->ColumnIndices(), 0, 0));
            matrix[r].assign(n(), empty);
            continue;
          }
          SIRIUS_ASSIGN_OR_RETURN(
              matrix[r], gdf::HashPartition(ctx, part, node.partition_keys,
                                            static_cast<size_t>(n())));
        }
        Advance(node_times);
        // ...then all-to-all over the network.
        const double t0 = CollectiveBarrier();
        SIRIUS_ASSIGN_OR_RETURN(
            net::CollectiveResult coll,
            comm_->AllToAll(matrix, silent, options_.data_scale));
        FinishCollective(t0, coll);
        state.parts = std::move(coll.per_rank);
        state.gathered = false;
        break;
      }
      case ExchangeKind::kGather: {
        std::vector<TablePtr> inputs = child.parts;
        if (child.gathered) {
          state = child;  // already on the coordinator
          break;
        }
        const double t0 = CollectiveBarrier();
        SIRIUS_ASSIGN_OR_RETURN(
            net::CollectiveResult coll,
            comm_->Gather(inputs, /*root=*/0, silent, options_.data_scale));
        FinishCollective(t0, coll);
        state.parts = std::move(coll.per_rank);
        state.gathered = true;
        break;
      }
      case ExchangeKind::kBroadcast: {
        TablePtr full;
        if (child.gathered) {
          full = child.parts[0];
        } else {
          const double t0 = CollectiveBarrier();
          SIRIUS_ASSIGN_OR_RETURN(
              net::CollectiveResult gathered,
              comm_->Gather(child.parts, 0, silent, options_.data_scale));
          FinishCollective(t0, gathered);
          full = gathered.per_rank[0];
        }
        const double t1 = CollectiveBarrier();
        SIRIUS_ASSIGN_OR_RETURN(
            net::CollectiveResult coll,
            comm_->Broadcast(full, /*root=*/0, options_.data_scale));
        FinishCollective(t1, coll);
        state.parts = std::move(coll.per_rank);
        state.gathered = false;
        break;
      }
      case ExchangeKind::kMulticast: {
        std::vector<int> all(n());
        for (int r = 0; r < n(); ++r) all[r] = r;
        TablePtr full = child.gathered ? child.parts[0] : nullptr;
        if (full == nullptr) {
          const double t0 = CollectiveBarrier();
          SIRIUS_ASSIGN_OR_RETURN(
              net::CollectiveResult gathered,
              comm_->Gather(child.parts, 0, silent, options_.data_scale));
          FinishCollective(t0, gathered);
          full = gathered.per_rank[0];
        }
        const double t1 = CollectiveBarrier();
        SIRIUS_ASSIGN_OR_RETURN(
            net::CollectiveResult coll,
            comm_->Multicast(full, 0, all, options_.data_scale));
        FinishCollective(t1, coll);
        state.parts = std::move(coll.per_rank);
        state.gathered = false;
        break;
      }
    }
    // The consuming fragment owns the data now.
    SIRIUS_RETURN_NOT_OK(guard.Release());
    return state;
  }

  obs::TrackId TrackFor(int local_rank) const {
    return node_tracks_[local_rank];
  }

  const DorisCluster::Options& options_;
  std::vector<NodeState*> nodes_;  ///< alive nodes only
  net::Communicator* comm_;
  TempTableRegistry* registry_;
  sim::Timeline* timeline_;
  fault::FaultInjector* injector_;
  obs::TraceRecorder* trace_;
  /// Trace overlay: per-node simulated "free at" clocks and lanes.
  std::vector<double> node_ready_;
  std::vector<obs::TrackId> node_tracks_;
  obs::TrackId link_track_ = 0;
  int failed_rank_ = -1;
  int collective_retries_ = 0;
  double retry_backoff_s_ = 0;
};

}  // namespace

Result<DistQueryResult> DorisCluster::RunAttempt(const DistributedPlan& dplan,
                                                 RecoveryStats* recovery,
                                                 int* failed_rank,
                                                 obs::TraceRecorder* trace,
                                                 double trace_base_s,
                                                 double* trace_end_s) {
  *failed_rank = -1;
  *trace_end_s = trace_base_s;
  bool re_partitioned = false;
  SIRIUS_ASSIGN_OR_RETURN(std::vector<int> actives,
                          PrepareActiveNodes(&re_partitioned));
  if (re_partitioned) ++recovery->re_partitions;
  std::vector<NodeState*> active_nodes;
  for (int r : actives) active_nodes.push_back(nodes_[r].get());
  net::Communicator comm(static_cast<int>(actives.size()), options_.network,
                         injector());

  DistQueryResult result;
  result.timeline.Charge(sim::OpCategory::kOther, options_.coordinator_overhead_s);
  const double exec_base_s = trace_base_s + options_.coordinator_overhead_s;
  trace->AddComplete(trace->RegisterTrack("coordinator"),
                     "coordinator-overhead", "coordinator", trace_base_s,
                     exec_base_s, {});

  DistExecutor executor(options_, std::move(active_nodes), &comm,
                        &temp_registry_, &result.timeline, injector(), trace,
                        exec_base_s);
  auto out = executor.Exec(*dplan.plan);
  recovery->collective_retries += executor.collective_retries();
  recovery->retry_backoff_seconds += executor.retry_backoff_seconds();
  *trace_end_s = std::max(exec_base_s, executor.trace_end_s());
  if (!out.ok()) {
    *failed_rank = executor.failed_rank();
    return out.status();
  }
  DistState state = std::move(out).ValueOrDie();
  if (!state.gathered) {
    return Status::Internal("distributed plan did not gather its result");
  }
  result.table = state.parts[0];
  result.total_seconds = result.timeline.total_seconds();
  result.exchange_seconds = result.timeline.seconds(sim::OpCategory::kExchange);
  result.other_seconds = result.timeline.seconds(sim::OpCategory::kOther);
  result.compute_seconds =
      result.total_seconds - result.exchange_seconds - result.other_seconds;
  return result;
}

Result<DistQueryResult> DorisCluster::Query(const std::string& sql) {
  const int quorum = std::max(1, options_.quorum);
  if (num_alive() < quorum) {
    return Status::Unavailable(
        "cluster below quorum: " + std::to_string(num_alive()) +
        " alive node(s), quorum is " + std::to_string(quorum));
  }

  // Coordinator: parse + optimize on global metadata (§3.3).
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr plan, coordinator_.PlanSql(sql));
  SIRIUS_RETURN_NOT_OK(engine::CheckDeviceSupport(*plan));

  FragmenterOptions frag;
  frag.broadcast_threshold_bytes = options_.engine.distributed_broadcast_joins
                                       ? UINT64_MAX
                                       : options_.broadcast_threshold_bytes;
  frag.data_scale = options_.data_scale;
  SIRIUS_ASSIGN_OR_RETURN(DistributedPlan dplan,
                          FragmentPlan(plan, coordinator_.catalog(), frag));
  SIRIUS_RETURN_NOT_OK(dplan.plan->Validate());

  // Execute with a bounded recovery loop (§3.3/§3.4): a node lost to a
  // fragment failure or an expired heartbeat is marked dead, data is
  // re-partitioned onto the survivors, and the query re-runs once per unit
  // of retry budget. Anything that is not a node failure surfaces as-is.
  obs::TraceRecorder recorder;
  const obs::TrackId coord_track = recorder.RegisterTrack("coordinator");
  double trace_now = 0.0;  // simulated clock carried across attempts

  RecoveryStats recovery;
  const int budget = std::max(0, options_.query_retry_budget);
  for (int attempt = 0;; ++attempt) {
    // Heartbeat leases are checked once per attempt per node; an injected
    // expiry kills the node before its fragments are dispatched.
    {
      std::lock_guard<std::mutex> lock(membership_mu_);
      for (auto& node : nodes_) {
        if (membership_.IsAlive(node->rank) &&
            !injector()->Check(kSiteHeartbeat).ok()) {
          membership_.MarkDead(node->rank);
          ++recovery.node_failures;
          recorder.AddInstant(coord_track,
                              "recovery:node-" + std::to_string(node->rank) +
                                  "-dead",
                              "recovery", trace_now);
        }
      }
    }
    if (num_alive() < quorum) {
      return Status::Unavailable(
          "cluster dropped below quorum during recovery: " +
          std::to_string(num_alive()) + " alive node(s), quorum is " +
          std::to_string(quorum));
    }

    int failed_rank = -1;
    double attempt_end_s = trace_now;
    auto out = RunAttempt(dplan, &recovery, &failed_rank, &recorder,
                          trace_now, &attempt_end_s);
    if (out.ok()) {
      DistQueryResult result = std::move(out).ValueOrDie();
      result.recovery = recovery;
      result.profile = std::make_shared<obs::QueryProfile>(recorder.Finish());
      return result;
    }
    trace_now = attempt_end_s;
    if (failed_rank < 0) return out.status();  // not a node failure
    {
      std::lock_guard<std::mutex> lock(membership_mu_);
      membership_.MarkDead(failed_rank);
    }
    ++recovery.node_failures;
    recorder.AddInstant(
        coord_track, "recovery:node-" + std::to_string(failed_rank) + "-dead",
        "recovery", trace_now);
    if (attempt >= budget) {
      return out.status().WithContext(
          "query retry budget (" + std::to_string(budget) + ") exhausted");
    }
    ++recovery.query_retries;
    recorder.AddInstant(coord_track, "recovery:query-retry", "recovery",
                        trace_now);
  }
}

}  // namespace sirius::dist
