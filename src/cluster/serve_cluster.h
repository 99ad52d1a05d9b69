// The federated serving tier: N QueryServers behind one QueryService.
//
// ServeCluster federates one serve::QueryServer per cluster node (each with
// its own DeviceGroup and admission pools) behind the QueryService surface,
// so the load generator and every serve-layer driver run against a cluster
// exactly as they run against one node. Three mechanisms (DESIGN.md §12):
//
//  * Tenant-sharded routing — rendezvous hashing gives each tenant a stable
//    preference order over the nodes; a submit lands on the most-preferred
//    alive node. Per-node admission backpressure re-routes: a shed on the
//    primary walks the preference list, and a shed on *every* candidate
//    surfaces the minimum retry-after hint across them (the client should
//    come back when the soonest replica frees up, not when the first one
//    tried does).
//
//  * Replicated, hit-anywhere result-cache region — each node server's
//    result cache is one replica. A fill completed on any node is
//    multicast to its peers over the fabric (optionally compressed on the
//    wire; bytes, codec time and latency charged to the fabric) and
//    becomes visible at completion + transfer time, so any replica serves a
//    hit another replica filled. Catalog write-version stamps make
//    invalidation exact: an eager invalidation multicast drops stale
//    entries from replica occupancy, and even a permanently dropped
//    invalidation is correctness-safe because every lookup re-checks the
//    stamp. CacheMode::kCoordinatorOnly models the baseline: only node 0
//    caches, remote nodes consult it over the fabric per lookup and every
//    hit's service + egress is charged to node 0 (the hotspot the
//    replicated region removes).
//
//  * Node-loss recovery — losing a node (the `cluster.node.lost` fault
//    site, or LoseNode from a chaos test) marks it dead in the shared
//    dist::Membership, re-routes its non-terminal queries to the survivors
//    (re-admission may shed them), and drops only the undelivered fills it
//    originated. Its replica dies with it; entries already installed on
//    survivors — including ones the dead node filled — are never
//    invalidated, because a surviving replica's entry is exactly as valid
//    as its version stamp, regardless of who filled it.
//
// Threading discipline: ServeCluster is *externally synchronized* — one
// driver thread calls Submit/Step/Resolve/DrainAll (the FairScheduler
// precedent), while each node server keeps its own internal DES lock and
// worker pool. The cluster itself holds no mutex and never calls into a
// node while one could call back: the on_result_fill hook (invoked under a
// node's lock) only appends to the pending-replication queue; multicasts
// and peer installs run in a later flush pass with no locks held.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/routing.h"
#include "common/result.h"
#include "dist/membership.h"
#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "host/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/serve.h"
#include "sim/interconnect.h"

namespace sirius::cluster {

/// How the cluster treats the result-cache region.
enum class CacheMode {
  kCoordinatorOnly,  ///< node 0 owns the only cache; remote hits pay the wire
  kReplicated,       ///< hit-anywhere: fills multicast to every replica
};

struct ClusterOptions {
  int num_nodes = 4;
  /// Per-node server configuration (devices, streams, admission budget,
  /// …). `result_cache` and `on_result_fill` are overridden per node
  /// according to `cache_mode`.
  serve::ServeOptions node;
  CacheMode cache_mode = CacheMode::kReplicated;
  /// Compress replicated fills on the wire (format::Encode codecs); the
  /// multicast is priced on compressed bytes plus modeled codec time.
  bool compress_fills = true;
  /// Inter-node fabric carrying fills, invalidations and remote hits.
  sim::Link fabric = sim::Infiniband400();
  /// Scales modeled wire bytes (benches run small SFs and scale up).
  double data_scale = 1.0;
  /// Fault injector for the "cluster.route" / "cluster.fill" /
  /// "cluster.node.lost" sites; nullptr uses the (disarmed) global one.
  fault::FaultInjector* injector = nullptr;
  /// Cluster-level trace (route/fill/invalidate spans per node + fabric).
  bool tracing = false;
};

/// Cluster counters since the cluster was built: a view over the
/// `cluster.*` registry counters (see stats()).
struct ClusterStats {
  uint64_t routed = 0;          ///< submits admitted on some node
  uint64_t route_retried = 0;   ///< candidates skipped by cluster.route faults
  uint64_t rerouted = 0;        ///< sheds that moved to a later candidate
  uint64_t shed_all_replicas = 0;  ///< submits every candidate refused
  uint64_t remote_hits = 0;     ///< coordinator-mode hits served over the wire
  uint64_t fills_sent = 0;      ///< fill multicasts priced onto the fabric
  uint64_t fills_delivered = 0; ///< per-peer cache installs
  uint64_t fill_retries = 0;    ///< cluster.fill retries, fills + invalidations
  uint64_t fills_dropped = 0;   ///< fills lost (budget exhausted / origin died)
  uint64_t invalidations_sent = 0;
  uint64_t invalidations_delivered = 0;  ///< per-peer stale-entry evictions
  uint64_t nodes_lost = 0;
  uint64_t requeued = 0;        ///< entries re-routed off a dead node
  uint64_t requeue_shed = 0;    ///< re-routed entries every survivor refused
  uint64_t fill_bytes_plain = 0;  ///< fill payload bytes before compression
  uint64_t fill_bytes_wire = 0;   ///< bytes actually multicast
};

/// Per-node serving load, for hotspot assertions and the bench gate.
struct NodeLoad {
  uint64_t dispatched = 0;   ///< queries executed on the node (cache misses)
  uint64_t cache_hits = 0;   ///< hits served by this node's replica
  double busy_s = 0;         ///< stream-occupancy seconds of executed queries
  double hit_service_s = 0;  ///< hit service incl. remote-hit egress
  double fill_egress_s = 0;  ///< multicast time for fills this node originated
  /// Total serving load: what the bench compares across nodes.
  double load_s() const { return busy_s + hit_service_s + fill_egress_s; }
};

/// One admission candidate consulted while routing a shed submit.
struct ShedCandidate {
  int node = -1;
  double retry_after_s = 0;
};

/// \brief Federation of QueryServers with a replicated result-cache region.
class ServeCluster : public serve::QueryService {
 public:
  /// All nodes serve one shared catalog (`db`, not owned) — a single
  /// write-version stream, so invalidation stamps agree across replicas —
  /// with one engine per node (`engines[i]`, not owned, own DeviceGroup and
  /// buffer manager). `engines.size()` must equal `options.num_nodes`.
  ServeCluster(host::Database* db, std::vector<engine::SiriusEngine*> engines,
               ClusterOptions options);
  ~ServeCluster() override;

  ServeCluster(const ServeCluster&) = delete;
  ServeCluster& operator=(const ServeCluster&) = delete;

  /// \name QueryService (the LoadGenerator drives these).
  /// @{
  void RegisterTenant(const std::string& tenant, double weight) override;
  serve::SessionId OpenSession(const std::string& tenant) override;
  Result<serve::QueryId> Submit(serve::SessionId session,
                                const std::string& sql,
                                const serve::SubmitOptions& options) override;
  Result<serve::QueryOutcome> Resolve(serve::QueryId id) override;
  double NextDispatchTime() const override;
  Result<serve::QueryOutcome> Step() override;
  Result<serve::QueryOutcome> Peek(serve::QueryId id) const override;
  Status DrainAll() override;
  double now_s() const override;
  /// @}

  /// Kills `node` at the current frontier: marks it dead, re-routes its
  /// non-terminal queries to survivors, drops its undelivered fills. Only
  /// the dead node's replica is forgotten — survivors keep every entry.
  void LoseNode(int node);

  /// Terminal outcomes so far, in cluster QueryId order.
  std::vector<serve::QueryOutcome> Outcomes() const;

  /// Candidates consulted by the most recent all-replicas shed, in
  /// preference order with each node's retry-after hint (the surfaced hint
  /// is the minimum of these).
  const std::vector<ShedCandidate>& last_shed() const { return last_shed_; }

  const dist::Membership& membership() const { return membership_; }
  const RendezvousRouter& router() const { return router_; }
  serve::QueryServer& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  int num_nodes() const { return options_.num_nodes; }
  const ClusterOptions& options() const { return options_; }
  /// Reads the `cluster.*` counters of metrics().
  ClusterStats stats() const;
  /// Per-node serving load so far (terminal outcomes + wire charges).
  std::vector<NodeLoad> node_loads() const;
  /// Undelivered replication messages (tests drive retry/drop behavior).
  size_t pending_replication() const { return pending_.size(); }
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Snapshot of the cluster-level trace (empty when tracing is off).
  obs::QueryProfile Profile() const;

 private:
  /// One fill or invalidation in flight on the replication channel.
  struct PendingMsg {
    bool invalidate = false;
    int origin = -1;  ///< filling node; -1 = control plane (invalidations)
    std::string normalized_sql;
    uint64_t version = 0;
    serve::QueryCache::CachedResult result;  ///< fill payload
    /// Earliest next send attempt: the fill's completion (or the catalog
    /// write), pushed back by each dropped attempt's backoff. The attempt
    /// that gets through is timed here.
    double ready_s = 0;
    int attempts = 0;
    bool sent = false;       ///< priced onto the fabric, awaiting delivery
    double deliver_s = 0;    ///< visibility time once sent
    std::vector<int> destinations;  ///< captured at send time
  };

  /// Cluster query id -> where it lives.
  struct Binding {
    int node = -1;
    serve::QueryId local_id = 0;
    std::string tenant;
    std::string sql;
    serve::SubmitOptions sub;
    bool cluster_terminal = false;  ///< outcome held locally (not on a node)
    serve::QueryOutcome local;
  };

  /// Sends due unsent messages and installs due sent ones. `force` drains
  /// everything regardless of the frontier (DrainAll).
  void FlushReplication(double frontier_s, bool force);
  /// One send attempt for `msg` (fault gate + fabric pricing): the
  /// replication channel's only retry level. Returns false when the message
  /// must be dropped.
  bool TrySend(PendingMsg* msg, double frontier_s);
  /// Installs `msg` on its (still-alive) destinations.
  void Deliver(const PendingMsg& msg);
  /// Enqueues an eager invalidation when the catalog version advanced.
  void MaybeEnqueueInvalidation();
  /// Node-local session for (`node`, `tenant`), opened on first use.
  serve::SessionId SessionFor(int node, const std::string& tenant);
  /// Consults the cluster.node.lost site; on a trigger, kills the victim.
  void ProbeNodeLoss(const std::string& tenant);
  /// Re-routes `binding` (whose node just died) onto the survivors.
  void RequeueBinding(serve::QueryId id, Binding* binding, double at_s);
  /// Stamps node/cluster-id onto a node-local outcome.
  serve::QueryOutcome Translate(const serve::QueryOutcome& out,
                                serve::QueryId cluster_id, int node) const;
  /// Alive node with the earliest next dispatch, or -1.
  int EarliestNode(double* when_s) const;
  double Frontier() const;
  fault::FaultInjector* injector() const {
    return options_.injector != nullptr ? options_.injector
                                        : fault::FaultInjector::Global();
  }
  obs::Counter* counter(const std::string& name) {
    return metrics_.GetCounter(name);
  }

  ClusterOptions options_;
  host::Database* db_;
  std::vector<std::unique_ptr<serve::QueryServer>> nodes_;
  RendezvousRouter router_;
  dist::Membership membership_;

  std::map<serve::QueryId, Binding> bindings_;
  std::map<std::pair<int, serve::QueryId>, serve::QueryId> reverse_;
  std::map<serve::SessionId, std::string> sessions_;
  /// Per-node (tenant -> node-local session), opened lazily.
  std::vector<std::map<std::string, serve::SessionId>> node_sessions_;
  std::vector<PendingMsg> pending_;
  std::vector<ShedCandidate> last_shed_;
  /// Remote-hit service + egress seconds charged to the coordinator beyond
  /// what its own outcomes show (coordinator mode), and fill egress per
  /// origin.
  double remote_hit_service_s_ = 0;
  std::vector<double> fill_egress_s_;

  serve::QueryId next_query_id_ = 1;
  serve::SessionId next_session_id_ = 1;
  double frontier_s_ = 0;
  uint64_t last_catalog_version_ = 0;
  bool in_node_loss_ = false;  ///< re-entrancy guard for loss handling

  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  std::vector<obs::TrackId> node_tracks_;
  obs::TrackId fabric_track_ = 0;
};

}  // namespace sirius::cluster
