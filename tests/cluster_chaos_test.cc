// Chaos tests for the federated serving tier, sweeping its three fault
// sites under fixed seeds:
//
//   "cluster.route"     — transient routing faults skip the candidate and
//                         walk the preference list; queries still complete.
//   "cluster.fill"      — dropped replication multicasts (fills AND eager
//                         invalidations) are retried with backoff under the
//                         replication budget, then delivered one backoff
//                         later; an exhausted budget drops the fill once.
//   "cluster.node.lost" — a node dies mid-run (and mid-fill): its tenants
//                         re-route to survivors within the clients' retry
//                         budget, its undelivered fills die with it, and NO
//                         survivor-owned cache entry is invalidated — the
//                         write-version stamps still serve every entry that
//                         was already installed.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/serve_cluster.h"
#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "net/sccl.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/serve.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using cluster::CacheMode;
using cluster::ClusterOptions;
using cluster::ServeCluster;
using fault::FaultInjector;
using fault::FaultSpec;
using serve::LoadGenerator;
using serve::LoadOptions;
using serve::LoadReport;
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

ClusterOptions BaseOptions(FaultInjector* injector) {
  ClusterOptions options;
  options.num_nodes = kNodes;
  options.node.num_streams = 4;
  options.node.execution_threads = 4;
  options.data_scale = kDataScale;
  options.injector = injector;
  options.node.injector = injector;
  return options;
}

std::string TenantOn(const cluster::RendezvousRouter& router, int node) {
  for (int i = 0; i < 256; ++i) {
    const std::string t = "tenant-" + std::to_string(i);
    if (router.Preference(t)[0] == node) return t;
  }
  ADD_FAILURE() << "no tenant found with primary " << node;
  return "tenant-0";
}

TEST(ClusterChaosTest, RouteFaultsSkipCandidatesAndStillServe) {
  FaultInjector injector(0xc0de);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;  // transient: walk the list
  spec.every_nth = 3;
  fault::ScopedFault armed(&injector, "cluster.route", spec);

  ServeCluster cl(SharedDb(), NodeEngines(), BaseOptions(&injector));
  LoadOptions load;
  load.num_clients = 6;
  load.queries_per_client = 2;
  load.query_mix = {1, 6};
  load.tenants = {"gold", "silver", "bronze"};
  load.bypass_cache = true;
  load.seed = 7;
  LoadGenerator gen(&cl, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();

  EXPECT_GT(injector.injected("cluster.route"), 0u)
      << "armed route site never fired";
  EXPECT_GT(cl.stats().route_retried, 0u);
  // Transient route faults cost a less-preferred placement, never a query.
  EXPECT_EQ(r.completed, 12u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(ClusterChaosTest, DroppedFillMulticastsAreRetriedThenDelivered) {
  FaultInjector injector(0xf111);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.every_nth = 1;   // a transient channel outage…
  spec.max_triggers = 2;  // …that heals after two dropped attempts
  fault::ScopedFault armed(&injector, "cluster.fill", spec);

  ClusterOptions options = BaseOptions(&injector);
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  const std::string tenant = TenantOn(cl.router(), 1);
  const std::string sql = tpch::Query(1);
  auto id = cl.Submit(cl.OpenSession(tenant), sql, SubmitOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());

  EXPECT_GT(injector.injected("cluster.fill"), 0u);
  EXPECT_GT(cl.stats().fill_retries, 0u) << "dropped multicast never retried";
  EXPECT_GE(cl.stats().fills_delivered, 3u)
      << "retries did not heal the fill";
  // The healed fill serves a hit on a peer replica.
  auto rid = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 2)), sql,
                       SubmitOptions{});
  ASSERT_TRUE(rid.ok());
  auto out = cl.Resolve(rid.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie().cache_hit);
}

TEST(ClusterChaosTest, RetriedFillIsDeliveredAfterTheAttemptThatGotThrough) {
  FaultInjector injector(0xf112);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.every_nth = 1;
  spec.max_triggers = 1;  // drop the first attempt only
  fault::ScopedFault armed(&injector, "cluster.fill", spec);

  ClusterOptions options = BaseOptions(&injector);
  options.cache_mode = CacheMode::kReplicated;
  options.tracing = true;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  auto id = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 1)),
                      tpch::Query(6), SubmitOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());
  auto out = cl.Peek(id.ValueOrDie());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
  ASSERT_EQ(cl.stats().fill_retries, 1u);

  // The dropped attempt's backoff is simulated time: the attempt that got
  // through leaves no earlier than one base backoff after the completion.
  const obs::QueryProfile profile = cl.Profile();
  const auto fills = profile.SpansNamed("fill:node1");
  ASSERT_EQ(fills.size(), 1u);
  EXPECT_GE(fills[0]->start_s,
            out.ValueOrDie().finish_s + net::kRetryBaseBackoffS);
  EXPECT_GT(fills[0]->end_s, fills[0]->start_s);
}

TEST(ClusterChaosTest, ChannelBudgetExhaustionDropsTheFillOnce) {
  FaultInjector injector(0xf113);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.every_nth = 1;  // an outage that never heals
  fault::ScopedFault armed(&injector, "cluster.fill", spec);

  ClusterOptions options = BaseOptions(&injector);
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  const std::string sql = tpch::Query(6);
  auto id = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 1)), sql,
                      SubmitOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());

  // One retry level: the channel spends its whole budget, then drops the
  // fill exactly once.
  EXPECT_EQ(injector.stats("cluster.fill").hits,
            static_cast<uint64_t>(net::kRetryMaxAttempts));
  EXPECT_EQ(cl.stats().fill_retries,
            static_cast<uint64_t>(net::kRetryMaxAttempts - 1));
  EXPECT_EQ(cl.stats().fills_dropped, 1u);
  EXPECT_EQ(cl.stats().fills_delivered, 0u);
  EXPECT_EQ(cl.pending_replication(), 0u);

  // No peer replica got the result.
  auto rid = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 2)), sql,
                       SubmitOptions{});
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  auto rout = cl.Resolve(rid.ValueOrDie());
  ASSERT_TRUE(rout.ok()) << rout.status().ToString();
  EXPECT_EQ(rout.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_FALSE(rout.ValueOrDie().cache_hit);
}

TEST(ClusterChaosTest, DroppedInvalidationMulticastIsRetried) {
  FaultInjector injector(0x1450);
  ClusterOptions options = BaseOptions(&injector);
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  // Warm the region first with the channel healthy.
  const std::string sql = tpch::Query(6);
  auto warm = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 0)), sql,
                        SubmitOptions{});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());

  // Bump the catalog version, then drop the first invalidation sends.
  host::Catalog& catalog = SharedDb()->catalog();
  auto region = catalog.GetTable("region");
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(catalog.CreateTable("region", region.ValueOrDie()).ok());

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_triggers = 2;  // transient outage that heals
  spec.every_nth = 1;
  fault::ScopedFault armed(&injector, "cluster.fill", spec);

  auto id = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 1)), sql,
                      SubmitOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());

  EXPECT_GT(cl.stats().fill_retries, 0u)
      << "dropped invalidation never retried";
  EXPECT_GE(cl.stats().invalidations_delivered, 1u)
      << "retries did not heal the invalidation";
  // Correctness did not depend on the delivery: the stale entry could not
  // have served anyway — the lookup stamp (write-version) already changed.
  auto out = cl.Peek(id.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_FALSE(out.ValueOrDie().cache_hit);
}

TEST(ClusterChaosTest, NodeLossMidFillSparesSurvivorEntries) {
  FaultInjector injector(0xdead);
  ClusterOptions options = BaseOptions(&injector);
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  // Step 1: node 0's tenant fills the region; the fill propagates cleanly.
  const std::string survivor_sql = tpch::Query(1);
  auto warm = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 0)),
                        survivor_sql, SubmitOptions{});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cl.DrainAll().ok());
  const uint64_t delivered_before = cl.stats().fills_delivered;
  ASSERT_GE(delivered_before, 3u);

  // Step 2: node 1 completes a query whose fill is still pending — then
  // dies mid-fill. The fill must die with it; nothing else may.
  const std::string victim_tenant = TenantOn(cl.router(), 1);
  auto vid = cl.Submit(cl.OpenSession(victim_tenant), tpch::Query(6),
                       SubmitOptions{});
  ASSERT_TRUE(vid.ok()) << vid.status().ToString();
  auto vout = cl.Resolve(vid.ValueOrDie());
  ASSERT_TRUE(vout.ok());
  ASSERT_EQ(vout.ValueOrDie().state, QueryState::kCompleted);
  ASSERT_GE(cl.pending_replication(), 1u) << "fill already flushed";

  cl.LoseNode(1);
  EXPECT_EQ(cl.stats().nodes_lost, 1u);
  EXPECT_FALSE(cl.membership().IsAlive(1));
  EXPECT_GE(cl.stats().fills_dropped, 1u) << "mid-fill loss kept the fill";
  EXPECT_GE(cl.metrics().Snapshot().at("cluster.fill.origin_lost"), 1u);
  // Node loss is not a catalog write: no invalidation was multicast, and
  // the survivors' caches count zero version-stamp invalidations.
  EXPECT_EQ(cl.stats().invalidations_sent, 0u);
  for (int n : cl.membership().AliveRanks()) {
    EXPECT_EQ(cl.node(n).cache_invalidations(), 0u)
        << "node loss invalidated survivor entries on node " << n;
  }

  // Step 3: the victim's tenant re-routes to its next-preferred survivor…
  auto rerouted = cl.Submit(cl.OpenSession(victim_tenant), tpch::Query(6),
                            SubmitOptions{});
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  auto rout = cl.Resolve(rerouted.ValueOrDie());
  ASSERT_TRUE(rout.ok());
  EXPECT_EQ(rout.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_NE(rout.ValueOrDie().node, 1);

  // …and the survivor-owned entry from step 1 still serves a hit.
  auto hit = cl.Submit(cl.OpenSession(TenantOn(cl.router(), 2)),
                       survivor_sql, SubmitOptions{});
  ASSERT_TRUE(hit.ok());
  auto hout = cl.Resolve(hit.ValueOrDie());
  ASSERT_TRUE(hout.ok());
  EXPECT_TRUE(hout.ValueOrDie().cache_hit)
      << "survivor-owned cache entry was lost with the node";
}

TEST(ClusterChaosTest, NodeLostSiteReroutesWithinRetryBudget) {
  FaultInjector injector(0xbeef);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.skip_first = 6;  // let the run warm up, then kill one primary
  spec.every_nth = 1;
  spec.max_triggers = 1;
  fault::ScopedFault armed(&injector, "cluster.node.lost", spec);

  ClusterOptions options = BaseOptions(&injector);
  options.cache_mode = CacheMode::kReplicated;
  ServeCluster cl(SharedDb(), NodeEngines(), options);

  LoadOptions load;
  load.num_clients = 8;
  load.queries_per_client = 3;
  load.query_mix = {1, 6};
  load.tenants = {"gold", "silver", "bronze", "iron"};
  load.bypass_cache = true;
  load.max_retries = 3;
  load.seed = 11;
  LoadGenerator gen(&cl, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();

  EXPECT_EQ(cl.stats().nodes_lost, 1u) << "armed node-lost site never fired";
  EXPECT_EQ(cl.membership().num_alive(), kNodes - 1);
  // Every query landed: the dead node's tenants re-routed (at submit time
  // or via requeue) within the clients' retry budget — nothing abandoned,
  // nothing failed.
  EXPECT_EQ(r.completed + r.requeue_shed,
            static_cast<uint64_t>(load.num_clients * load.queries_per_client));
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.abandoned, 0u);
  // Node loss never issues a shared invalidation: survivor replicas keep
  // every entry they installed (write-version stamps untouched).
  EXPECT_EQ(cl.stats().invalidations_sent, 0u);
  for (int n : cl.membership().AliveRanks()) {
    EXPECT_EQ(cl.node(n).cache_invalidations(), 0u)
        << "node loss invalidated survivor entries on node " << n;
  }
}

}  // namespace
}  // namespace sirius
