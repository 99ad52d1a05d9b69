#include "cluster/serve_cluster.h"

#include <algorithm>
#include <limits>

#include "format/encoding.h"
#include "net/sccl.h"
#include "serve/query_cache.h"

namespace sirius::cluster {

// The federation's fault sites: a routing decision failing (transient codes
// skip the candidate, anything else surfaces), the replication channel
// dropping a fill or invalidation multicast (retried on later flushes under
// net's retry schedule, the channel's only retry level), and a whole node
// dying (its tenants re-route to survivors; only its own replica is
// forgotten).
SIRIUS_FAULT_DEFINE_SITE(kSiteRoute, "cluster.route");
SIRIUS_FAULT_DEFINE_SITE(kSiteFill, "cluster.fill");
SIRIUS_FAULT_DEFINE_SITE(kSiteNodeLost, "cluster.node.lost");

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Modeled size of a version-stamp invalidation message on the wire.
constexpr uint64_t kInvalidationBytes = 64;
/// Modeled (de)compression throughput for fill payloads, GB/s per side.
constexpr double kCodecGbps = 25.0;

/// The registry counter behind each ClusterStats field: stats() reads the
/// registry snapshot through it. A field that covers two events reads both.
constexpr std::pair<uint64_t ClusterStats::*, const char*> kStatCounters[] = {
    {&ClusterStats::routed, "cluster.routed"},
    {&ClusterStats::route_retried, "cluster.route.retried"},
    {&ClusterStats::rerouted, "cluster.rerouted"},
    {&ClusterStats::shed_all_replicas, "cluster.shed"},
    {&ClusterStats::remote_hits, "cluster.remote_hit"},
    {&ClusterStats::fills_sent, "cluster.fill.sent"},
    {&ClusterStats::fills_delivered, "cluster.fill.delivered"},
    {&ClusterStats::fill_retries, "cluster.fill.retried"},
    {&ClusterStats::fill_retries, "cluster.invalidate.retried"},
    {&ClusterStats::fills_dropped, "cluster.fill.dropped"},
    {&ClusterStats::fills_dropped, "cluster.fill.origin_lost"},
    {&ClusterStats::invalidations_sent, "cluster.invalidate.sent"},
    {&ClusterStats::invalidations_delivered, "cluster.invalidate.delivered"},
    {&ClusterStats::nodes_lost, "cluster.node.lost"},
    {&ClusterStats::requeued, "cluster.requeued"},
    {&ClusterStats::requeue_shed, "cluster.requeue_shed"},
    {&ClusterStats::fill_bytes_plain, "cluster.fill.bytes_plain"},
    {&ClusterStats::fill_bytes_wire, "cluster.fill.bytes_wire"},
};

std::string NodeTag(int node) { return "node" + std::to_string(node); }

/// The soonest retry-after hint across `sheds`, floored at
/// serve::kMinRetryAfterS; the floor itself when nothing was consulted.
double MinRetryAfterS(const std::vector<ShedCandidate>& sheds) {
  double soonest = sheds.empty() ? serve::kMinRetryAfterS : kInf;
  for (const ShedCandidate& c : sheds) {
    soonest = std::min(soonest, c.retry_after_s);
  }
  return std::max(soonest, serve::kMinRetryAfterS);
}

}  // namespace

ServeCluster::ServeCluster(host::Database* db,
                           std::vector<engine::SiriusEngine*> engines,
                           ClusterOptions options)
    : options_(options),
      db_(db),
      router_(options.num_nodes),
      membership_(options.num_nodes),
      node_sessions_(static_cast<size_t>(options.num_nodes)),
      fill_egress_s_(static_cast<size_t>(options.num_nodes), 0.0),
      last_catalog_version_(db->catalog().version()),
      trace_(obs::TraceRecorder::Options{/*unbounded=*/true}) {
  nodes_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int n = 0; n < options_.num_nodes; ++n) {
    serve::ServeOptions node_opts = options_.node;
    node_opts.result_cache =
        options_.cache_mode == CacheMode::kReplicated || n == 0;
    // Record every cacheable completion for replication. Runs under the
    // node's DES lock: append only, flushed later with no locks held.
    // In coordinator mode node 0's fills stay local (it owns the region);
    // remote fills unicast to it.
    node_opts.on_result_fill = [this, n](const serve::ResultFillEvent& e) {
      if (options_.cache_mode == CacheMode::kCoordinatorOnly && n == 0) {
        return;
      }
      PendingMsg m;
      m.origin = n;
      m.normalized_sql = e.normalized_sql;
      m.version = e.catalog_version;
      m.result = e.result;
      m.ready_s = e.completed_at_s;
      pending_.push_back(std::move(m));
    };
    nodes_.push_back(std::make_unique<serve::QueryServer>(
        db_, engines[static_cast<size_t>(n)], node_opts));
    node_tracks_.push_back(trace_.RegisterTrack("node-" + std::to_string(n)));
  }
  fabric_track_ = trace_.RegisterTrack("fabric");
}

ServeCluster::~ServeCluster() = default;

void ServeCluster::RegisterTenant(const std::string& tenant, double weight) {
  for (auto& node : nodes_) node->RegisterTenant(tenant, weight);
}

serve::SessionId ServeCluster::OpenSession(const std::string& tenant) {
  serve::SessionId id = next_session_id_++;
  sessions_[id] = tenant;
  return id;
}

serve::SessionId ServeCluster::SessionFor(int node, const std::string& tenant) {
  auto& per_node = node_sessions_[static_cast<size_t>(node)];
  auto it = per_node.find(tenant);
  if (it != per_node.end()) return it->second;
  serve::SessionId local = nodes_[static_cast<size_t>(node)]->OpenSession(tenant);
  per_node.emplace(tenant, local);
  return local;
}

double ServeCluster::Frontier() const {
  double t = frontier_s_;
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (membership_.IsAlive(n)) {
      t = std::max(t, nodes_[static_cast<size_t>(n)]->now_s());
    }
  }
  return t;
}

double ServeCluster::now_s() const { return Frontier(); }

void ServeCluster::MaybeEnqueueInvalidation() {
  const uint64_t v = db_->catalog().version();
  if (v == last_catalog_version_) return;
  last_catalog_version_ = v;
  // A catalog write invalidates by stamp everywhere; the eager multicast
  // only drops stale entries from replica occupancy sooner. It is issued by
  // the control plane (origin -1), never tied to a node's life.
  PendingMsg m;
  m.invalidate = true;
  m.version = v;
  m.ready_s = frontier_s_;
  pending_.push_back(std::move(m));
}

void ServeCluster::ProbeNodeLoss(const std::string& tenant) {
  if (in_node_loss_) return;
  Status s = injector()->Check(kSiteNodeLost);
  if (s.ok()) return;
  const int victim = router_.Primary(tenant, membership_);
  if (victim >= 0) LoseNode(victim);
}

bool ServeCluster::TrySend(PendingMsg* msg, double frontier_s) {
  Status gate = injector()->Check(kSiteFill);
  if (!gate.ok()) {
    ++msg->attempts;
    const bool budget_left = msg->attempts < net::kRetryMaxAttempts;
    if (!gate.IsTransient() || !budget_left) return false;
    counter(msg->invalidate ? "cluster.invalidate.retried"
                            : "cluster.fill.retried")
        ->Add();
    msg->ready_s = std::max(frontier_s, msg->ready_s) +
                   net::RetryBackoffS(msg->attempts - 1);
    return true;
  }

  std::vector<int> dests;
  for (int n : membership_.AliveRanks()) {
    if (msg->invalidate) {
      dests.push_back(n);  // stale stamps die everywhere, origin included
    } else if (options_.cache_mode == CacheMode::kCoordinatorOnly) {
      if (n == 0 && msg->origin != 0) dests.push_back(n);
    } else if (n != msg->origin) {
      dests.push_back(n);
    }
  }
  if (dests.empty()) {
    msg->sent = true;
    msg->deliver_s = msg->ready_s;
    msg->destinations.clear();
    return true;
  }

  double seconds = 0;
  if (msg->invalidate) {
    seconds = options_.fabric.TransferSeconds(kInvalidationBytes, 1.0);
    counter("cluster.invalidate.sent")->Add();
  } else {
    const uint64_t plain =
        msg->result.table != nullptr ? msg->result.table->MemoryUsage() : 0;
    uint64_t wire = plain;
    if (options_.compress_fills && msg->result.table != nullptr) {
      uint64_t compressed = 0;
      bool all_encoded = true;
      for (size_t c = 0; c < msg->result.table->num_columns(); ++c) {
        auto enc = format::Encode(msg->result.table->column(c));
        if (!enc.ok()) {
          all_encoded = false;
          break;
        }
        compressed += enc.ValueOrDie().CompressedBytes();
      }
      if (all_encoded) wire = compressed;
    }
    const double ratio =
        plain > 0 ? static_cast<double>(wire) / static_cast<double>(plain)
                  : 1.0;
    // One copy of the payload crosses the fabric per destination.
    seconds = options_.fabric.TransferSeconds(plain * dests.size(),
                                              options_.data_scale * ratio);
    if (options_.compress_fills && plain > 0) {
      // Compress once on the origin, decompress once per receiving replica
      // (modeled; replicas decode in parallel so one decode is charged).
      seconds += 2.0 * static_cast<double>(plain) * options_.data_scale /
                 (kCodecGbps * 1e9);
    }
    fill_egress_s_[static_cast<size_t>(msg->origin)] += seconds;
    counter("cluster.fill.sent")->Add();
    counter("cluster.fill.bytes_plain")
        ->Add(static_cast<uint64_t>(static_cast<double>(plain) *
                                    options_.data_scale));
    counter("cluster.fill.bytes_wire")
        ->Add(static_cast<uint64_t>(static_cast<double>(wire) *
                                    options_.data_scale));
    counter("cluster." + NodeTag(msg->origin) + ".fill_sent")->Add();
  }
  msg->sent = true;
  msg->deliver_s = msg->ready_s + seconds;
  msg->destinations = std::move(dests);
  if (options_.tracing) {
    trace_.AddComplete(fabric_track_,
                       msg->invalidate
                           ? "invalidate@v" + std::to_string(msg->version)
                           : "fill:" + NodeTag(msg->origin),
                       msg->invalidate ? "invalidate" : "fill",
                       msg->ready_s, msg->deliver_s,
                       {{"destinations", static_cast<double>(
                                             msg->destinations.size())}});
  }
  return true;
}

void ServeCluster::Deliver(const PendingMsg& msg) {
  for (int n : msg.destinations) {
    if (!membership_.IsAlive(n)) continue;  // died between send and delivery
    if (msg.invalidate) {
      nodes_[static_cast<size_t>(n)]->EvictStaleCache(msg.version);
      counter("cluster.invalidate.delivered")->Add();
    } else {
      nodes_[static_cast<size_t>(n)]->InstallCachedResult(
          msg.normalized_sql, msg.version, msg.result);
      counter("cluster.fill.delivered")->Add();
      counter("cluster." + NodeTag(n) + ".fill_installed")->Add();
    }
  }
}

void ServeCluster::FlushReplication(double frontier_s, bool force) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      PendingMsg& m = *it;
      if (!m.sent) {
        if (!force && m.ready_s > frontier_s) {
          ++it;
          continue;
        }
        if (!m.invalidate && !membership_.IsAlive(m.origin)) {
          // Node lost mid-fill: the fill dies with its origin. Survivors
          // keep everything already installed; nothing is invalidated.
          counter("cluster.fill.origin_lost")->Add();
          it = pending_.erase(it);
          progress = true;
          continue;
        }
        if (!TrySend(&m, frontier_s)) {
          if (m.invalidate) {
            counter("cluster.invalidate.dropped")->Add();
          } else {
            counter("cluster.fill.dropped")->Add();
          }
          it = pending_.erase(it);
          progress = true;
          continue;
        }
        if (!m.sent) {  // transient fault: backoff scheduled, retry later
          // A forced drain keeps attempting (backoff is simulated time);
          // the attempt cap guarantees termination.
          if (force) progress = true;
          ++it;
          continue;
        }
        progress = true;
      }
      if (m.sent && (force || m.deliver_s <= frontier_s)) {
        Deliver(m);
        it = pending_.erase(it);
        progress = true;
        continue;
      }
      ++it;
    }
    if (!force) break;  // one pass per flush point; DrainAll drains dry
  }
}

Result<serve::QueryId> ServeCluster::Submit(
    serve::SessionId session, const std::string& sql,
    const serve::SubmitOptions& options) {
  auto sit = sessions_.find(session);
  if (sit == sessions_.end()) {
    return Status::KeyError("Submit: unknown cluster session " +
                            std::to_string(session));
  }
  const std::string& tenant = sit->second;
  const double arrival =
      options.arrival_s >= 0 ? std::max(options.arrival_s, frontier_s_)
                             : Frontier();
  frontier_s_ = std::max(frontier_s_, arrival);
  MaybeEnqueueInvalidation();
  FlushReplication(frontier_s_, /*force=*/false);
  ProbeNodeLoss(tenant);

  last_shed_.clear();
  for (int nd : router_.Preference(tenant)) {
    if (!membership_.IsAlive(nd)) continue;
    Status route = injector()->Check(kSiteRoute);
    if (!route.ok()) {
      if (route.IsTransient()) {
        // Transient route fault: skip this candidate, walk the list.
        counter("cluster.route.retried")->Add();
        continue;
      }
      return route;
    }

    if (options_.cache_mode == CacheMode::kCoordinatorOnly && nd != 0 &&
        membership_.IsAlive(0) && !options.bypass_cache) {
      // The coordinator owns the only cache region: every remote lookup
      // consults it over the fabric, and a hit ships the result back —
      // service and egress land on node 0, the hotspot hit-anywhere removes.
      serve::QueryCache::CachedResult hit;
      const std::string norm = serve::NormalizeSql(sql);
      if (nodes_[0]->LookupCachedResult(norm, db_->catalog().version(),
                                        &hit)) {
        const uint64_t bytes =
            hit.table != nullptr ? hit.table->MemoryUsage() : 0;
        const double wire_s =
            options_.fabric.TransferSeconds(kInvalidationBytes, 1.0) +
            options_.fabric.TransferSeconds(bytes, options_.data_scale);
        const double service_s = options_.node.cache_hit_cost_s + wire_s;

        serve::QueryId id = next_query_id_++;
        Binding b;
        b.tenant = tenant;
        b.sql = sql;
        b.sub = options;
        b.cluster_terminal = true;
        b.local.id = id;
        b.local.tenant = tenant;
        b.local.priority = options.priority;
        b.local.state = serve::QueryState::kCompleted;
        b.local.status = Status::OK();
        b.local.arrival_s = arrival;
        b.local.dispatch_s = arrival;
        b.local.finish_s = arrival + service_s;
        b.local.cache_hit = true;
        b.local.node = nd;
        b.local.exec_solo_s = hit.exec_seconds;
        if (hit.table != nullptr) b.local.result_rows = hit.table->num_rows();
        if (options.keep_result) b.local.table = hit.table;
        bindings_.emplace(id, std::move(b));
        remote_hit_service_s_ += service_s;
        counter("cluster.remote_hit")->Add();
        return id;
      }
    }

    serve::SubmitOptions local = options;
    local.arrival_s = arrival;
    auto submitted =
        nodes_[static_cast<size_t>(nd)]->Submit(SessionFor(nd, tenant), sql,
                                                local);
    if (submitted.ok()) {
      serve::QueryId id = next_query_id_++;
      Binding b;
      b.node = nd;
      b.local_id = submitted.ValueOrDie();
      b.tenant = tenant;
      b.sql = sql;
      b.sub = options;
      reverse_[{nd, b.local_id}] = id;
      bindings_.emplace(id, std::move(b));
      counter("cluster.routed")->Add();
      counter("cluster." + NodeTag(nd) + ".routed")->Add();
      if (!last_shed_.empty()) {
        counter("cluster.rerouted")->Add();
      }
      if (options_.tracing) {
        trace_.AddInstant(node_tracks_[static_cast<size_t>(nd)],
                          "route:" + tenant, "route", arrival);
      }
      return id;
    }
    if (!submitted.status().IsResourceExhausted()) return submitted.status();
    last_shed_.push_back(
        ShedCandidate{nd, submitted.status().retry_after_s()});
    counter("cluster." + NodeTag(nd) + ".shed")->Add();
  }

  if (last_shed_.empty()) {
    return Status::Unavailable("no alive cluster node to route tenant '" +
                               tenant + "' to");
  }
  // Every candidate replica shed: surface the *minimum* retry-after across
  // them — the client should come back when the soonest replica frees up,
  // not when the first node consulted does.
  counter("cluster.shed")->Add();
  return Status::ResourceExhausted("all " +
                                   std::to_string(last_shed_.size()) +
                                   " candidate replica(s) shed tenant '" +
                                   tenant + "'")
      .WithRetryAfter(MinRetryAfterS(last_shed_));
}

serve::QueryOutcome ServeCluster::Translate(const serve::QueryOutcome& out,
                                            serve::QueryId cluster_id,
                                            int node) const {
  serve::QueryOutcome t = out;
  t.id = cluster_id;
  t.node = node;
  return t;
}

Result<serve::QueryOutcome> ServeCluster::Peek(serve::QueryId id) const {
  auto it = bindings_.find(id);
  if (it == bindings_.end()) {
    return Status::KeyError("Peek: unknown cluster query " +
                            std::to_string(id));
  }
  const Binding& b = it->second;
  if (b.cluster_terminal) return b.local;
  SIRIUS_ASSIGN_OR_RETURN(
      serve::QueryOutcome out,
      nodes_[static_cast<size_t>(b.node)]->Peek(b.local_id));
  return Translate(out, id, b.node);
}

Result<serve::QueryOutcome> ServeCluster::Resolve(serve::QueryId id) {
  auto it = bindings_.find(id);
  if (it == bindings_.end()) {
    return Status::KeyError("Resolve: unknown cluster query " +
                            std::to_string(id));
  }
  Binding& b = it->second;
  if (b.cluster_terminal) return b.local;
  SIRIUS_ASSIGN_OR_RETURN(
      serve::QueryOutcome out,
      nodes_[static_cast<size_t>(b.node)]->Resolve(b.local_id));
  frontier_s_ = std::max(frontier_s_,
                         nodes_[static_cast<size_t>(b.node)]->now_s());
  FlushReplication(frontier_s_, /*force=*/false);
  return Translate(out, id, b.node);
}

int ServeCluster::EarliestNode(double* when_s) const {
  int best = -1;
  double best_t = kInf;
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (!membership_.IsAlive(n)) continue;
    const double t = nodes_[static_cast<size_t>(n)]->NextDispatchTime();
    if (t < best_t) {
      best_t = t;
      best = n;
    }
  }
  if (when_s != nullptr) *when_s = best_t;
  return best;
}

double ServeCluster::NextDispatchTime() const {
  double when = kInf;
  EarliestNode(&when);
  return when;
}

Result<serve::QueryOutcome> ServeCluster::Step() {
  const int nd = EarliestNode(nullptr);
  if (nd < 0) {
    return Status::Invalid("Step: nothing queued on any alive node");
  }
  SIRIUS_ASSIGN_OR_RETURN(serve::QueryOutcome out,
                          nodes_[static_cast<size_t>(nd)]->Step());
  frontier_s_ =
      std::max(frontier_s_, nodes_[static_cast<size_t>(nd)]->now_s());
  FlushReplication(frontier_s_, /*force=*/false);
  auto rit = reverse_.find({nd, out.id});
  if (rit == reverse_.end()) return Translate(out, out.id, nd);
  return Translate(out, rit->second, nd);
}

Status ServeCluster::DrainAll() {
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (!membership_.IsAlive(n)) continue;
    SIRIUS_RETURN_NOT_OK(nodes_[static_cast<size_t>(n)]->DrainAll());
  }
  frontier_s_ = Frontier();
  // Fills recorded during the drain now flush to the end of time.
  FlushReplication(frontier_s_, /*force=*/true);
  return Status::OK();
}

void ServeCluster::RequeueBinding(serve::QueryId id, Binding* binding,
                                  double at_s) {
  counter("cluster.requeued")->Add();
  reverse_.erase({binding->node, binding->local_id});
  std::vector<ShedCandidate> sheds;
  for (int nd : router_.Preference(binding->tenant)) {
    if (!membership_.IsAlive(nd)) continue;
    serve::SubmitOptions sub = binding->sub;
    sub.arrival_s = std::max(at_s, sub.arrival_s);
    auto submitted = nodes_[static_cast<size_t>(nd)]->Submit(
        SessionFor(nd, binding->tenant), binding->sql, sub);
    if (submitted.ok()) {
      binding->node = nd;
      binding->local_id = submitted.ValueOrDie();
      reverse_[{nd, binding->local_id}] = id;
      counter("cluster." + NodeTag(nd) + ".requeue_admitted")->Add();
      return;
    }
    if (!submitted.status().IsResourceExhausted()) {
      binding->cluster_terminal = true;
      binding->local.id = id;
      binding->local.tenant = binding->tenant;
      binding->local.state = serve::QueryState::kFailed;
      binding->local.status = submitted.status();
      binding->local.arrival_s = at_s;
      binding->local.finish_s = at_s;
      return;
    }
    sheds.push_back(ShedCandidate{nd, submitted.status().retry_after_s()});
  }
  // Every survivor refused the re-admission: the query was admitted once,
  // so this is a terminal shed (LoadReport counts it as requeue_shed),
  // carrying the minimum retry-after across the survivors.
  counter("cluster.requeue_shed")->Add();
  binding->cluster_terminal = true;
  binding->local.id = id;
  binding->local.tenant = binding->tenant;
  binding->local.state = serve::QueryState::kShed;
  const std::string why =
      "node loss requeue: every survivor shed tenant '" + binding->tenant + "'";
  binding->local.status =
      Status::ResourceExhausted(why).WithRetryAfter(MinRetryAfterS(sheds));
  binding->local.arrival_s = at_s;
  binding->local.finish_s = at_s;
}

void ServeCluster::LoseNode(int node) {
  if (node < 0 || node >= options_.num_nodes) return;
  if (!membership_.MarkDead(node)) return;
  in_node_loss_ = true;
  const double at_s = Frontier();
  counter("cluster.node.lost")->Add();
  if (options_.tracing) {
    trace_.AddInstant(node_tracks_[static_cast<size_t>(node)], "node-lost",
                      "recovery", at_s);
  }
  // Undelivered fills this node originated die with it. Everything already
  // delivered — on any survivor — stays: a replica entry is exactly as
  // valid as its version stamp, regardless of who filled it, so node loss
  // never issues a shared invalidation.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!it->invalidate && it->origin == node && !it->sent) {
      counter("cluster.fill.origin_lost")->Add();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // The dead node's tenants re-route to the survivors: every non-terminal
  // query it held re-enters admission down its tenant's preference list.
  for (auto& [id, b] : bindings_) {
    if (b.cluster_terminal || b.node != node) continue;
    auto peeked = nodes_[static_cast<size_t>(node)]->Peek(b.local_id);
    if (peeked.ok() && peeked.ValueOrDie().terminal()) continue;
    RequeueBinding(id, &b, at_s);
  }
  in_node_loss_ = false;
}

std::vector<serve::QueryOutcome> ServeCluster::Outcomes() const {
  std::vector<serve::QueryOutcome> out;
  out.reserve(bindings_.size());
  for (const auto& [id, b] : bindings_) {
    if (b.cluster_terminal) {
      out.push_back(b.local);
      continue;
    }
    auto peeked = nodes_[static_cast<size_t>(b.node)]->Peek(b.local_id);
    if (peeked.ok()) out.push_back(Translate(peeked.ValueOrDie(), id, b.node));
  }
  return out;
}

std::vector<NodeLoad> ServeCluster::node_loads() const {
  std::vector<NodeLoad> loads(static_cast<size_t>(options_.num_nodes));
  for (int n = 0; n < options_.num_nodes; ++n) {
    NodeLoad& load = loads[static_cast<size_t>(n)];
    for (const serve::QueryOutcome& out :
         nodes_[static_cast<size_t>(n)]->Outcomes()) {
      if (out.state == serve::QueryState::kCompleted && out.cache_hit) {
        ++load.cache_hits;
        load.hit_service_s += options_.node.cache_hit_cost_s;
      } else if ((out.state == serve::QueryState::kCompleted ||
                  out.state == serve::QueryState::kTimedOut) &&
                 !out.cache_hit) {
        ++load.dispatched;
        load.busy_s += std::max(out.finish_s - out.dispatch_s, 0.0);
      }
    }
    load.fill_egress_s = fill_egress_s_[static_cast<size_t>(n)];
  }
  // Remote hits are served by the coordinator (node 0) over the fabric.
  loads[0].cache_hits += stats().remote_hits;
  loads[0].hit_service_s += remote_hit_service_s_;
  return loads;
}

ClusterStats ServeCluster::stats() const {
  const auto snap = metrics_.Snapshot();
  ClusterStats s;
  for (const auto& [field, name] : kStatCounters) {
    auto it = snap.find(name);
    if (it != snap.end()) s.*field += it->second;
  }
  return s;
}

obs::QueryProfile ServeCluster::Profile() const { return trace_.Finish(); }

}  // namespace sirius::cluster
