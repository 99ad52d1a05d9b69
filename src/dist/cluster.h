// DorisX: the distributed host database (Apache Doris stand-in, paper §3.3).
//
// The coordinator owns the control plane: node registry with heartbeats,
// query planning (on global metadata), plan fragmenting, and dispatch.
// Fragments execute per node — on the CPU engine (Doris/ClickHouse
// baselines) or on per-node Sirius GPU engines — with the SCCL exchange
// layer moving intermediates, which are tracked in a temporary-table
// registry while in flight (§3.2.4).

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/fragmenter.h"
#include "dist/membership.h"
#include "engine/buffer_manager.h"
#include "fault/fault_injector.h"
#include "host/database.h"
#include "net/sccl.h"
#include "sim/cost_model.h"
#include "sim/device.h"

namespace sirius::dist {

/// \brief In-flight exchanged intermediates, registered as temporary tables
/// and deregistered once the consuming fragment finishes (§3.2.4).
class TempTableRegistry {
 public:
  /// Registers per-node partitions under a fresh name; returns the name.
  std::string Register(std::vector<format::TablePtr> parts);
  Status Deregister(const std::string& name);
  size_t active_count() const;
  /// Total registrations over the registry's lifetime.
  uint64_t total_registered() const { return next_id_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<format::TablePtr>> tables_;
  uint64_t next_id_ = 0;
};

/// \brief RAII deregistration of one temp-table entry.
///
/// Fragments can fail (or be failed by the fault injector) between
/// registering an exchanged intermediate and consuming it; the guard keeps
/// `active_count()` honest on every exit path.
class TempTableGuard {
 public:
  TempTableGuard(TempTableRegistry* registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}
  ~TempTableGuard() {
    if (registry_ != nullptr) registry_->Deregister(name_).ok();
  }

  TempTableGuard(const TempTableGuard&) = delete;
  TempTableGuard& operator=(const TempTableGuard&) = delete;

  /// Deregisters now (the consuming fragment took ownership) and reports
  /// whether the entry was still registered.
  Status Release() {
    if (registry_ == nullptr) return Status::OK();
    TempTableRegistry* r = registry_;
    registry_ = nullptr;
    return r->Deregister(name_);
  }

  const std::string& name() const { return name_; }

 private:
  TempTableRegistry* registry_;
  std::string name_;
};

/// \brief One compute node: local partition catalog, buffer manager for
/// scanned columns (hits/misses/evictions show up in query traces), and
/// heartbeat state.
struct NodeState {
  int rank = 0;
  host::Catalog catalog;       ///< this node's partitions
  /// Device-side column cache for this node's scans; every node has one
  /// from construction. Invalidated whenever the coordinator re-partitions
  /// data onto a changed membership.
  std::unique_ptr<engine::BufferManager> buffer;
};

/// \brief Recovery actions taken while answering one query (§3.3/§3.4
/// fault tolerance). Tests and benches assert on these, not just answers.
struct RecoveryStats {
  /// Transient SCCL link failures healed by retrying.
  int collective_retries = 0;
  /// Simulated time spent in collective retry backoff (charged to the
  /// timeline's exchange bucket).
  double retry_backoff_seconds = 0;
  /// Nodes declared dead during this query (fragment failure or heartbeat
  /// expiry).
  int node_failures = 0;
  /// Full re-runs of the query on the surviving membership.
  int query_retries = 0;
  /// Table re-layouts onto a changed membership.
  int re_partitions = 0;
};

/// Result of one distributed query, with the Table 2 breakdown.
struct DistQueryResult {
  format::TablePtr table;
  sim::Timeline timeline;
  double total_seconds = 0;
  double compute_seconds = 0;   ///< local GPU/CPU execution
  double exchange_seconds = 0;  ///< SCCL collectives
  double other_seconds = 0;     ///< coordinator: optimize/dispatch/results
  RecoveryStats recovery;       ///< recovery actions taken for this query
  /// Per-query trace: fragment spans per node, collective/retry spans on
  /// the link lane, recovery events on the coordinator lane.
  std::shared_ptr<obs::QueryProfile> profile;
};

/// \brief A cluster of compute nodes with a coordinator.
class DorisCluster {
 public:
  struct Options {
    int num_nodes = 4;
    /// Per-node execution device + engine profile.
    sim::DeviceProfile device = sim::XeonGold6526Y();
    sim::EngineProfile engine = sim::DorisProfile();
    sim::Link network = sim::Infiniband400();
    double data_scale = 1.0;
    uint64_t broadcast_threshold_bytes = 16ull << 20;
    /// Fixed coordinator-side time per query ("Other" in Table 2).
    double coordinator_overhead_s = 0.045;
    /// Fault injector consulted by the exchange layer and the per-fragment
    /// execution sites; nullptr uses the (disarmed) global injector.
    fault::FaultInjector* injector = nullptr;
    /// Full query re-runs allowed after a node dies mid-query.
    int query_retry_budget = 1;
    /// Minimum alive nodes required to serve queries; below this Query()
    /// returns Status::Unavailable without touching the data plane.
    int quorum = 1;
  };

  explicit DorisCluster(Options options);

  /// Hash-partitions `table` by its first column across the nodes and
  /// registers it on every node plus the coordinator's global catalog.
  Status LoadPartitioned(const std::string& name, const format::TablePtr& table);

  /// Plans on the coordinator, fragments, and executes across the nodes.
  Result<DistQueryResult> Query(const std::string& sql);

  /// \name Control plane (§3.2.1) and fault tolerance (§3.4).
  ///
  /// When heartbeats expire, the next query transparently re-partitions
  /// every table from the coordinator's copy onto the surviving nodes and
  /// runs there; recovered nodes rejoin the same way.
  /// @{
  void Heartbeat(int rank, double now_s);
  /// Marks nodes dead when their last heartbeat is older than `timeout_s`.
  int ExpireHeartbeats(double now_s, double timeout_s);
  bool IsAlive(int rank) const;
  int num_alive() const;
  /// @}

  int num_nodes() const { return options_.num_nodes; }
  const Options& options() const { return options_; }
  host::Database& coordinator() { return coordinator_; }
  TempTableRegistry& temp_registry() { return temp_registry_; }

 private:
  /// Re-distributes all tables across the currently-alive nodes when the
  /// membership changed since the last layout. Returns the alive ranks.
  /// Sets *re_partitioned when a new layout was installed.
  Result<std::vector<int>> PrepareActiveNodes(bool* re_partitioned = nullptr);

  /// One execution attempt of the fragmented plan over the current
  /// membership. On a node failure, sets *failed_rank to the global rank of
  /// the dead node (else leaves it -1).
  Result<DistQueryResult> RunAttempt(const DistributedPlan& dplan,
                                     RecoveryStats* recovery, int* failed_rank,
                                     obs::TraceRecorder* trace,
                                     double trace_base_s, double* trace_end_s);

  fault::FaultInjector* injector() const {
    return options_.injector != nullptr ? options_.injector
                                        : fault::FaultInjector::Global();
  }

  Options options_;
  host::Database coordinator_;  ///< global metadata + planning
  std::vector<std::unique_ptr<NodeState>> nodes_;
  TempTableRegistry temp_registry_;
  /// Guards cluster membership (the heartbeat tracker) and the partition
  /// layout. Queries may run concurrently (the serving layer submits from
  /// many sessions); membership reads/writes and re-partitioning serialize
  /// on this mutex while fragment execution itself proceeds in parallel.
  mutable std::mutex membership_mu_;
  Membership membership_;
  std::vector<int> partition_layout_;  ///< ranks data is currently spread over
};

}  // namespace sirius::dist
