// Tests for the federated serving tier: rendezvous routing is deterministic
// and minimally disruptive; tenants shard to their primary; the replicated
// result-cache region serves hits on any replica after the fill propagates;
// the coordinator-only baseline pays the wire and concentrates load on node
// 0; backpressure re-routes shed tenants down the preference list and an
// all-replicas shed surfaces the *minimum* retry-after hint; catalog writes
// invalidate every replica exactly; ClusterStats reads the cluster's
// metrics registry; and the open-loop arrival schedule (including
// per-tenant rate overrides) is pinned by golden checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/serve_cluster.h"
#include "common/hash.h"
#include "engine/sirius.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/serve.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using cluster::CacheMode;
using cluster::ClusterOptions;
using cluster::ClusterStats;
using cluster::NodeLoad;
using cluster::RendezvousRouter;
using cluster::ServeCluster;
using serve::LoadGenerator;
using serve::LoadOptions;
using serve::LoadReport;
using serve::QueryOutcome;
using serve::QueryState;
using serve::SubmitOptions;

constexpr double kSf = 0.005;
constexpr double kDataScale = 1.0 / kSf;
constexpr int kNodes = 4;

host::Database* SharedDb() {
  static host::Database* db = [] {
    host::Database::Options options;
    options.data_scale = kDataScale;
    auto* d = new host::Database(options);  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, kSf));
    return d;
  }();
  return db;
}

/// One engine per cluster node (each its own DeviceGroup + buffer manager),
/// all attached to the shared catalog: a single write-version stream.
std::vector<engine::SiriusEngine*> NodeEngines() {
  static std::vector<engine::SiriusEngine*>* engines = [] {
    auto* v = new std::vector<engine::SiriusEngine*>();  // sirius-lint: allow(raw-new-delete): leaked singleton
    for (int i = 0; i < kNodes; ++i) {
      engine::SiriusEngine::Options options;
      options.data_scale = kDataScale;
      v->push_back(new engine::SiriusEngine(SharedDb(), options));  // sirius-lint: allow(raw-new-delete): leaked singleton
    }
    return v;
  }();
  return *engines;
}

ClusterOptions BaseOptions() {
  ClusterOptions options;
  options.num_nodes = kNodes;
  options.node.num_streams = 4;
  options.node.execution_threads = 4;
  options.data_scale = kDataScale;
  return options;
}

/// A tenant whose rendezvous primary is `node` (deterministic search).
std::string TenantOn(const RendezvousRouter& router, int node) {
  for (int i = 0; i < 256; ++i) {
    const std::string t = "tenant-" + std::to_string(i);
    if (router.Preference(t)[0] == node) return t;
  }
  ADD_FAILURE() << "no tenant found with primary " << node;
  return "tenant-0";
}

TEST(RendezvousRouterTest, DeterministicAndMinimallyDisruptive) {
  RendezvousRouter router(kNodes);
  // Stable: the same tenant always gets the same full preference order.
  for (const std::string t : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(router.Preference(t), router.Preference(t));
  }
  // Spread: 64 tenants should not all share a primary.
  std::set<int> primaries;
  for (int i = 0; i < 64; ++i) {
    primaries.insert(router.Preference("tenant-" + std::to_string(i))[0]);
  }
  EXPECT_EQ(primaries.size(), static_cast<size_t>(kNodes));
  // Minimal disruption: killing one node moves only the tenants whose
  // primary it was — everyone else's first alive choice is unchanged.
  dist::Membership all(kNodes), lossy(kNodes);
  lossy.MarkDead(2);
  for (int i = 0; i < 64; ++i) {
    const std::string t = "tenant-" + std::to_string(i);
    const int before = router.Primary(t, all);
    const int after = router.Primary(t, lossy);
    if (before != 2) {
      EXPECT_EQ(after, before) << t << " moved without losing its primary";
    } else {
      EXPECT_NE(after, 2);
      EXPECT_EQ(after, router.Preference(t)[1]);
    }
  }
}

TEST(ServeClusterTest, RoutesTenantsToTheirPrimary) {
  ServeCluster cl(SharedDb(), NodeEngines(), BaseOptions());
  std::vector<serve::QueryId> ids;
  std::vector<int> expected;
  for (int n = 0; n < kNodes; ++n) {
    const std::string tenant = TenantOn(cl.router(), n);
    auto session = cl.OpenSession(tenant);
    SubmitOptions sub;
    sub.bypass_cache = true;
    auto id = cl.Submit(session, tpch::Query(6), sub);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.ValueOrDie());
    expected.push_back(n);
  }
  ASSERT_TRUE(cl.DrainAll().ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto out = cl.Peek(ids[i]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
    EXPECT_EQ(out.ValueOrDie().node, expected[i])
        << "query " << i << " did not land on its tenant's primary";
  }
  EXPECT_EQ(cl.stats().routed, static_cast<uint64_t>(kNodes));
  EXPECT_EQ(cl.stats().rerouted, 0u);
}

TEST(ServeClusterTest, ReplicatedCacheServesHitAnywhere) {
  ClusterOptions options = BaseOptions();
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  const std::string filler = TenantOn(cl.router(), 0);
  const std::string reader = TenantOn(cl.router(), 3);
  const std::string sql = tpch::Query(1);

  auto fid = cl.Submit(cl.OpenSession(filler), sql, SubmitOptions{});
  ASSERT_TRUE(fid.ok()) << fid.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());  // executes + propagates the fill
  auto fout = cl.Peek(fid.ValueOrDie());
  ASSERT_TRUE(fout.ok());
  ASSERT_EQ(fout.ValueOrDie().state, QueryState::kCompleted);
  ASSERT_FALSE(fout.ValueOrDie().cache_hit);
  ASSERT_EQ(fout.ValueOrDie().node, 0);
  EXPECT_GE(cl.stats().fills_sent, 1u);
  // The multicast reached every peer replica (3 of them) and cost wire time.
  EXPECT_GE(cl.stats().fills_delivered, 3u);
  EXPECT_GT(cl.node_loads()[0].fill_egress_s, 0.0);
  EXPECT_GT(cl.stats().fill_bytes_wire, 0u);

  // A different tenant, sharded to a different node, hits the entry the
  // first node filled — without touching node 0.
  auto rid = cl.Submit(cl.OpenSession(reader), sql, SubmitOptions{});
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  auto rout = cl.Resolve(rid.ValueOrDie());
  ASSERT_TRUE(rout.ok()) << rout.status().ToString();
  EXPECT_EQ(rout.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_TRUE(rout.ValueOrDie().cache_hit) << "peer replica missed the fill";
  EXPECT_EQ(rout.ValueOrDie().node, 3);
}

TEST(ServeClusterTest, TraceRecordsRoutesFillsAndNodeLoss) {
  ClusterOptions options = BaseOptions();
  options.cache_mode = CacheMode::kReplicated;
  options.tracing = true;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  // A fill from node 0 reaches its three peers; after node 2 dies, the next
  // fill reaches the two survivors.
  const std::string filler = TenantOn(cl.router(), 0);
  const auto session = cl.OpenSession(filler);
  std::vector<QueryOutcome> outs;
  double lost_at_s = -1;
  for (int q : {6, 1}) {
    auto id = cl.Submit(session, tpch::Query(q), SubmitOptions{});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(cl.DrainAll().ok());
    outs.push_back(cl.Peek(id.ValueOrDie()).ValueOrDie());
    ASSERT_EQ(outs.back().state, QueryState::kCompleted);
    ASSERT_FALSE(outs.back().cache_hit);
    if (q == 6) {
      lost_at_s = cl.now_s();
      cl.LoseNode(2);
    }
  }

  const obs::QueryProfile profile = cl.Profile();
  auto track = [&](const obs::SpanRecord* span) {
    return profile.tracks[span->track];
  };

  const auto routes = profile.SpansNamed("route:" + filler);
  ASSERT_EQ(routes.size(), 2u);
  for (size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(routes[i]->instant);
    EXPECT_EQ(routes[i]->category, "route");
    EXPECT_EQ(track(routes[i]), "node-0");
    EXPECT_EQ(routes[i]->start_s, outs[i].arrival_s);
  }

  // Each fill is one fabric span from the origin's completion to delivery,
  // multicast to the peers alive when it was sent.
  const auto fills = profile.SpansNamed("fill:node0");
  ASSERT_EQ(fills.size(), 2u);
  for (size_t i = 0; i < outs.size(); ++i) {
    const auto fill = std::find_if(
        fills.begin(), fills.end(), [&](const obs::SpanRecord* span) {
          return span->start_s == outs[i].finish_s;
        });
    ASSERT_NE(fill, fills.end()) << "no fill span for query " << i;
    EXPECT_EQ((*fill)->category, "fill");
    EXPECT_EQ(track(*fill), "fabric");
    EXPECT_GT((*fill)->end_s, (*fill)->start_s);
    EXPECT_EQ((*fill)->Attr("destinations"), i == 0 ? 3.0 : 2.0);
  }

  const auto lost = profile.SpansNamed("node-lost");
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_TRUE(lost[0]->instant);
  EXPECT_EQ(lost[0]->category, "recovery");
  EXPECT_EQ(track(lost[0]), "node-2");
  EXPECT_EQ(lost[0]->start_s, lost_at_s);
}

TEST(ServeClusterTest, StatsReadTheRegistry) {
  ClusterOptions options = BaseOptions();
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);
  auto id = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 1)),
                      tpch::Query(6), SubmitOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());

  // Every ClusterStats field, with the registry counters it sums.
  static_assert(sizeof(ClusterStats) == 16 * sizeof(uint64_t),
                "a new ClusterStats field needs a row below");
  const std::vector<std::pair<uint64_t ClusterStats::*,
                              std::vector<std::string>>>
      fields = {
          {&ClusterStats::routed, {"cluster.routed"}},
          {&ClusterStats::route_retried, {"cluster.route.retried"}},
          {&ClusterStats::rerouted, {"cluster.rerouted"}},
          {&ClusterStats::shed_all_replicas, {"cluster.shed"}},
          {&ClusterStats::remote_hits, {"cluster.remote_hit"}},
          {&ClusterStats::fills_sent, {"cluster.fill.sent"}},
          {&ClusterStats::fills_delivered, {"cluster.fill.delivered"}},
          {&ClusterStats::fill_retries,
           {"cluster.fill.retried", "cluster.invalidate.retried"}},
          {&ClusterStats::fills_dropped,
           {"cluster.fill.dropped", "cluster.fill.origin_lost"}},
          {&ClusterStats::invalidations_sent, {"cluster.invalidate.sent"}},
          {&ClusterStats::invalidations_delivered,
           {"cluster.invalidate.delivered"}},
          {&ClusterStats::nodes_lost, {"cluster.node.lost"}},
          {&ClusterStats::requeued, {"cluster.requeued"}},
          {&ClusterStats::requeue_shed, {"cluster.requeue_shed"}},
          {&ClusterStats::fill_bytes_plain, {"cluster.fill.bytes_plain"}},
          {&ClusterStats::fill_bytes_wire, {"cluster.fill.bytes_wire"}},
      };
  const ClusterStats stats = cl.stats();
  ASSERT_EQ(stats.routed, 1u);
  ASSERT_EQ(stats.fills_sent, 1u);
  ASSERT_EQ(stats.fills_delivered, 3u);
  ASSERT_GT(stats.fill_bytes_wire, 0u);
  const auto snap = cl.metrics().Snapshot();
  for (const auto& [field, names] : fields) {
    uint64_t sum = 0;
    for (const std::string& name : names) {
      auto it = snap.find(name);
      if (it != snap.end()) sum += it->second;
    }
    EXPECT_EQ(stats.*field, sum) << names[0];
  }
}

TEST(ServeClusterTest, CompressedFillsShrinkWireBytes) {
  ClusterOptions plain = BaseOptions();
  plain.compress_fills = false;
  ClusterOptions packed = BaseOptions();
  packed.compress_fills = true;

  for (ClusterOptions* o : {&plain, &packed}) {
    ServeCluster cl(SharedDb(), NodeEngines(), *o);
    auto id = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 1)),
                        tpch::Query(1), SubmitOptions{});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(cl.DrainAll().ok());
    ASSERT_GE(cl.stats().fills_sent, 1u);
    if (o == &plain) {
      EXPECT_EQ(cl.stats().fill_bytes_wire, cl.stats().fill_bytes_plain);
    } else {
      EXPECT_LT(cl.stats().fill_bytes_wire, cl.stats().fill_bytes_plain)
          << "compression did not shrink the fill payload";
    }
  }
}

TEST(ServeClusterTest, CoordinatorModePaysTheWireAndLoadsNodeZero) {
  ClusterOptions options = BaseOptions();
  options.cache_mode = CacheMode::kCoordinatorOnly;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  const std::string tenant = TenantOn(cl.router(), 2);
  const std::string sql = tpch::Query(6);
  auto first = cl.Submit(cl.OpenSession(tenant), sql, SubmitOptions{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());  // fill unicasts to the coordinator

  auto second = cl.Submit(cl.OpenSession(tenant), sql, SubmitOptions{});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto out = cl.Resolve(second.ValueOrDie());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_TRUE(out.ValueOrDie().cache_hit);
  EXPECT_EQ(cl.stats().remote_hits, 1u);
  // The remote hit is slower than a local one (request + response on the
  // fabric) and its service lands on node 0, not on the tenant's primary.
  EXPECT_GT(out.ValueOrDie().latency_s(), options.node.cache_hit_cost_s);
  const std::vector<NodeLoad> loads = cl.node_loads();
  EXPECT_GT(loads[0].hit_service_s, 0.0);
  EXPECT_EQ(loads[2].cache_hits, 0u);
}

TEST(ServeClusterTest, BackpressureReroutesToNextPreferredReplica) {
  ClusterOptions options = BaseOptions();
  options.node.num_streams = 1;
  options.node.execution_threads = 2;
  options.node.max_queue_depth = 1;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  const std::string tenant = TenantOn(cl.router(), 1);
  auto session = cl.OpenSession(tenant);
  SubmitOptions sub;
  sub.bypass_cache = true;
  sub.arrival_s = 0;
  std::vector<serve::QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = cl.Submit(session, tpch::Query(6), sub);
    if (id.ok()) ids.push_back(id.ValueOrDie());
  }
  ASSERT_TRUE(cl.DrainAll().ok());
  EXPECT_GT(cl.stats().rerouted, 0u) << "backpressure never re-routed";
  std::set<int> nodes_used;
  for (serve::QueryId id : ids) {
    auto out = cl.Peek(id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
    nodes_used.insert(out.ValueOrDie().node);
  }
  EXPECT_GT(nodes_used.size(), 1u)
      << "one tenant's overload stayed on one node";
}

TEST(ServeClusterTest, AllReplicasShedSurfacesMinRetryAfter) {
  ClusterOptions options = BaseOptions();
  options.node.num_streams = 1;
  options.node.execution_threads = 2;
  options.node.max_queue_depth = 1;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  auto session = cl.OpenSession(TenantOn(cl.router(), 0));
  SubmitOptions sub;
  sub.bypass_cache = true;
  sub.arrival_s = 0;
  Status all_shed = Status::OK();
  for (int i = 0; i < 32 && all_shed.ok(); ++i) {
    auto id = cl.Submit(session, tpch::Query(6), sub);
    if (!id.ok()) all_shed = id.status();
  }
  ASSERT_TRUE(all_shed.IsResourceExhausted())
      << "cluster never exhausted all replicas: " << all_shed.ToString();
  EXPECT_EQ(cl.stats().shed_all_replicas, 1u);

  // Every alive candidate was consulted, and the surfaced hint is the
  // minimum retry-after across them (floored at 1 ms) — the client should
  // come back when the *soonest* replica frees up.
  ASSERT_EQ(cl.last_shed().size(), static_cast<size_t>(kNodes));
  double min_hint = std::numeric_limits<double>::infinity();
  for (const auto& c : cl.last_shed()) {
    min_hint = std::min(min_hint, std::max(c.retry_after_s, 1e-3));
  }
  EXPECT_DOUBLE_EQ(all_shed.retry_after_s(), min_hint);
  ASSERT_TRUE(cl.DrainAll().ok());
}

TEST(ServeClusterTest, CatalogWriteInvalidatesEveryReplicaExactly) {
  ClusterOptions options = BaseOptions();
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  const std::string tenant = TenantOn(cl.router(), 1);
  const std::string sql = tpch::Query(6);
  auto warm = cl.Submit(cl.OpenSession(tenant), sql, SubmitOptions{});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());

  // A hit on a *different* replica proves the region is warm everywhere.
  const std::string other = TenantOn(cl.router(), 2);
  auto hit = cl.Submit(cl.OpenSession(other), sql, SubmitOptions{});
  ASSERT_TRUE(hit.ok());
  auto hout = cl.Resolve(hit.ValueOrDie());
  ASSERT_TRUE(hout.ok());
  ASSERT_TRUE(hout.ValueOrDie().cache_hit);

  // Catalog write: bump the write version by replacing a table in place.
  host::Catalog& catalog = SharedDb()->catalog();
  const uint64_t before = catalog.version();
  auto region = catalog.GetTable("region");
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(catalog.CreateTable("region", region.ValueOrDie()).ok());
  ASSERT_GT(catalog.version(), before);

  // The next submit observes the version change, multicasts the eager
  // invalidation, and the stale entry no longer serves — on any replica.
  auto miss = cl.Submit(cl.OpenSession(other), sql, SubmitOptions{});
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());
  auto mout = cl.Peek(miss.ValueOrDie());
  ASSERT_TRUE(mout.ok());
  EXPECT_EQ(mout.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_FALSE(mout.ValueOrDie().cache_hit)
      << "stale entry served after a catalog write";
  EXPECT_GE(cl.stats().invalidations_sent, 1u);
  EXPECT_GE(cl.stats().invalidations_delivered, 1u);

  // Exactness: the re-execution under the new version refills the region,
  // and the fresh entry serves again.
  auto again = cl.Submit(cl.OpenSession(tenant), sql, SubmitOptions{});
  ASSERT_TRUE(again.ok());
  auto aout = cl.Resolve(again.ValueOrDie());
  ASSERT_TRUE(aout.ok());
  EXPECT_TRUE(aout.ValueOrDie().cache_hit)
      << "fresh-version entry did not serve";
}

TEST(ServeClusterTest, LoadGeneratorDrivesTheClusterDeterministically) {
  auto run = [] {
    ClusterOptions options = BaseOptions();
    ServeCluster cl(SharedDb(), NodeEngines(), options);
    LoadOptions load;
    load.num_clients = 8;
    load.queries_per_client = 2;
    load.query_mix = {1, 6};
    load.tenants = {"gold", "silver", "bronze"};
    load.seed = 17;
    LoadGenerator gen(&cl, load);
    auto report = gen.Run();
    SIRIUS_CHECK_OK(report.status());
    return report.ValueOrDie();
  };
  run();  // warm every node engine's device column cache
  const LoadReport a = run();
  const LoadReport b = run();
  EXPECT_EQ(a.completed, 16u);
  EXPECT_EQ(a.failed, 0u);
  ASSERT_EQ(a.latencies_ms.size(), b.latencies_ms.size());
  for (size_t i = 0; i < a.latencies_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.latencies_ms[i], b.latencies_ms[i])
        << "latency histogram diverged at " << i;
  }
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedule: per-tenant overrides + golden determinism
// ---------------------------------------------------------------------------

uint64_t ScheduleChecksum(const std::vector<serve::OpenLoopArrival>& sched) {
  uint64_t h = 0xfeedfacecafe;
  for (const auto& a : sched) {
    h = HashCombine(h, HashMix64(static_cast<uint64_t>(
                           std::llround(a.at_s * 1e9))));
    h = HashCombine(h, static_cast<uint64_t>(a.client));
  }
  return h;
}

TEST(OpenLoopArrivalsTest, OverridesDoNotPerturbTheBaseStream) {
  LoadOptions base;
  base.open_loop = true;
  base.num_clients = 8;
  base.arrival_rate_qps = 400;
  base.duration_s = 0.25;
  base.tenants = {"cold", "hot"};
  base.seed = 23;

  std::mt19937_64 rng_a(base.seed);
  const auto plain = serve::GenerateOpenLoopArrivals(base, 0.0, &rng_a);
  ASSERT_FALSE(plain.empty());

  LoadOptions hot = base;
  hot.tenant_arrival_rate_qps["hot"] = 2000;
  std::mt19937_64 rng_b(hot.seed);
  const auto mixed = serve::GenerateOpenLoopArrivals(hot, 0.0, &rng_b);

  // The base Poisson stream consumed the caller's rng identically: its
  // arrival *times* are unchanged by adding a hot-tenant override (only the
  // round-robin client targets shrink to the non-hot slots). "hot" owns the
  // odd client slots (round-robin tenant assignment).
  std::vector<double> base_times;
  for (const auto& a : mixed) {
    if (a.client % 2 == 0) base_times.push_back(a.at_s);
  }
  ASSERT_EQ(base_times.size(), plain.size());
  std::vector<double> plain_times;
  plain_times.reserve(plain.size());
  for (const auto& a : plain) plain_times.push_back(a.at_s);
  std::sort(base_times.begin(), base_times.end());
  std::sort(plain_times.begin(), plain_times.end());
  for (size_t i = 0; i < plain_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(base_times[i], plain_times[i]) << "base stream moved";
  }

  // The hot stream runs ~5x the base rate over half the client slots.
  const size_t hot_arrivals = mixed.size() - base_times.size();
  EXPECT_GT(hot_arrivals, plain.size() * 3)
      << "override rate did not take effect";
}

TEST(OpenLoopArrivalsTest, GoldenChecksumsPinTheSchedule) {
  // Golden values pin the exact schedule (times quantized to 1 ns): any
  // change to rng consumption order, the override derivation, or the
  // round-robin assignment shows up as a checksum break, not a silent
  // perturbation of every serving benchmark downstream.
  LoadOptions base;
  base.open_loop = true;
  base.num_clients = 6;
  base.arrival_rate_qps = 300;
  base.duration_s = 0.2;
  base.tenants = {"a", "b", "c"};
  base.seed = 41;
  std::mt19937_64 rng(base.seed);
  const auto plain = serve::GenerateOpenLoopArrivals(base, 0.0, &rng);

  LoadOptions hot = base;
  hot.tenant_arrival_rate_qps["b"] = 1500;
  std::mt19937_64 rng2(hot.seed);
  const auto mixed = serve::GenerateOpenLoopArrivals(hot, 0.0, &rng2);

  // Reproducibility: identical inputs => identical schedules.
  std::mt19937_64 rng3(hot.seed);
  const auto mixed2 = serve::GenerateOpenLoopArrivals(hot, 0.0, &rng3);
  EXPECT_EQ(ScheduleChecksum(mixed), ScheduleChecksum(mixed2));
  EXPECT_NE(ScheduleChecksum(plain), ScheduleChecksum(mixed));

  EXPECT_EQ(ScheduleChecksum(plain), 0x9d6532cd0feba60bull);
  EXPECT_EQ(ScheduleChecksum(mixed), 0xf440b9f27548dea1ull);
}

}  // namespace
}  // namespace sirius
