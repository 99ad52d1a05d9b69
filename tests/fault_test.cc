// Chaos tests for the fault-injection framework and the recovery paths it
// exercises: deterministic injector scheduling, SCCL retry/backoff, cluster
// control-plane recovery (node death, re-partitioning, quorum), and the GPU
// memory path (allocation pressure, evict-and-retry, out-of-core spill, CPU
// fallback). The sweep asserts the paper-level contract: under injected
// faults, queries either return answers identical to the fault-free run or
// fail with a clean Status — never crash, never leak temp tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "dist/cluster.h"
#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "mem/memory_resource.h"
#include "net/sccl.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using format::Column;
using format::TablePtr;

constexpr double kSf = 0.005;
const int kChaosQueries[] = {1, 3, 6};

TablePtr IntTable(std::vector<int64_t> v) {
  return format::Table::Make(format::Schema({{"x", format::Int64()}}),
                             {Column::FromInt64(std::move(v))})
      .ValueOrDie();
}

gdf::Context Ctx() {
  gdf::Context ctx;
  ctx.mr = mem::DefaultResource();
  return ctx;
}

/// TPC-H tables generated once (dbgen is deterministic per scale factor).
const TablePtr& TpchTable(const std::string& name) {
  static auto* tables = [] {
    auto* m = new std::map<std::string, TablePtr>();  // sirius-lint: allow(raw-new-delete): leaked singleton
    for (const auto& n : tpch::TableNames()) {
      (*m)[n] = tpch::GenerateTable(n, kSf).ValueOrDie();
    }
    return m;
  }();
  return tables->at(name);
}

std::unique_ptr<dist::DorisCluster> MakeCluster(
    dist::DorisCluster::Options options) {
  options.num_nodes = 4;
  auto cluster = std::make_unique<dist::DorisCluster>(options);
  for (const auto& name : tpch::TableNames()) {
    SIRIUS_CHECK_OK(cluster->LoadPartitioned(name, TpchTable(name)));
  }
  return cluster;
}

/// Fault-free reference answers on an identical 4-node cluster.
const TablePtr& ReferenceResult(int q) {
  static auto* results = [] {
    auto* m = new std::map<int, TablePtr>();  // sirius-lint: allow(raw-new-delete): leaked singleton
    auto cluster = MakeCluster({});
    for (int query : kChaosQueries) {
      (*m)[query] = cluster->Query(tpch::Query(query)).ValueOrDie().table;
    }
    return m;
  }();
  return results->at(q);
}

void ExpectMatchesReference(int q, const TablePtr& table) {
  const TablePtr& ref = ReferenceResult(q);
  EXPECT_TRUE(ref->Equals(*table) || ref->EqualsUnordered(*table))
      << "Q" << q << " diverged under faults.\nreference:\n"
      << ref->ToString(8) << "\ngot:\n"
      << table->ToString(8);
}

// ---------------------------------------------------------------------------
// FaultInjector scheduling
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedSitePassesButCountsHits) {
  FaultInjector inj;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(inj.Check("some.site").ok());
  EXPECT_EQ(inj.stats("some.site").hits, 3u);
  EXPECT_EQ(inj.stats("some.site").injected, 0u);
}

TEST(FaultInjectorTest, EveryNthScheduleIsDeterministic) {
  FaultInjector inj;
  FaultSpec spec;
  spec.skip_first = 2;
  spec.every_nth = 3;
  inj.Arm("s", spec);
  // Hits 1,2 skipped; eligible hits 3..: fires where (hit - 2) % 3 == 0.
  std::vector<bool> fired;
  for (int i = 0; i < 12; ++i) fired.push_back(!inj.Check("s").ok());
  std::vector<bool> expected(12, false);
  expected[4] = expected[7] = expected[10] = true;  // hits 5, 8, 11
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(inj.injected("s"), 3u);
}

TEST(FaultInjectorTest, MaxTriggersModelsTransientFault) {
  FaultInjector inj;
  FaultSpec spec;
  spec.every_nth = 1;
  spec.max_triggers = 2;
  inj.Arm("s", spec);
  EXPECT_FALSE(inj.Check("s").ok());
  EXPECT_FALSE(inj.Check("s").ok());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(inj.Check("s").ok());
  EXPECT_EQ(inj.injected("s"), 2u);
}

TEST(FaultInjectorTest, ProbabilityScheduleReplaysUnderSeed) {
  FaultSpec spec;
  spec.probability = 0.5;
  auto run = [&](uint64_t seed) {
    FaultInjector inj(seed);
    inj.Arm("s", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!inj.Check("s").ok());
    return fired;
  };
  auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different schedule
  const size_t fired = static_cast<size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 50u);
  EXPECT_LT(fired, 150u);
}

TEST(FaultInjectorTest, InjectedStatusCarriesConfiguredCode) {
  FaultInjector inj;
  FaultSpec spec;
  spec.code = StatusCode::kTimeout;
  spec.message = "link watchdog expired";
  inj.Arm("s", spec);
  Status st = inj.Check("s");
  EXPECT_TRUE(st.IsTimeout());
  EXPECT_TRUE(st.IsTransient());
  EXPECT_NE(st.ToString().find("link watchdog expired"), std::string::npos);
}

TEST(FaultInjectorTest, ScopedFaultDisarmsOnExit) {
  FaultInjector inj;
  {
    fault::ScopedFault scoped(&inj, "s", FaultSpec{});
    EXPECT_TRUE(inj.IsArmed("s"));
    EXPECT_FALSE(inj.Check("s").ok());
  }
  EXPECT_FALSE(inj.IsArmed("s"));
  EXPECT_TRUE(inj.Check("s").ok());
}

TEST(FaultInjectorTest, KnownSitesCoverAllThreeLayers) {
  const auto sites = fault::KnownSites();
  auto has = [&](const char* s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  EXPECT_TRUE(has("sccl.alltoall"));
  EXPECT_TRUE(has("sccl.broadcast"));
  EXPECT_TRUE(has("sccl.gather"));
  EXPECT_TRUE(has("sccl.multicast"));
  EXPECT_TRUE(has("dist.fragment"));
  EXPECT_TRUE(has("dist.heartbeat"));
  EXPECT_TRUE(has("engine.reserve"));
  EXPECT_TRUE(has("mem.spill.write"));
  EXPECT_TRUE(has("mem.spill.read"));
  EXPECT_TRUE(has("mem.tier.lost"));
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
}

// ---------------------------------------------------------------------------
// SCCL retry/backoff
// ---------------------------------------------------------------------------

TEST(ScclRetryTest, TransientLinkFailureHealsWithBackoff) {
  auto t = IntTable({1, 2, 3});
  net::Communicator clean(4, sim::Infiniband400());
  const double fault_free_s = clean.Broadcast(t, 0, 1.0).ValueOrDie().seconds;

  FaultInjector inj;
  FaultSpec spec;
  spec.max_triggers = 2;  // transient: two failures, then the link heals
  inj.Arm("sccl.broadcast", spec);
  net::Communicator comm(4, sim::Infiniband400(), &inj);
  auto r = comm.Broadcast(t, 0, 1.0).ValueOrDie();
  EXPECT_EQ(r.retries, 2);
  EXPECT_GT(r.backoff_seconds, 0.0);
  // Backoff is charged as simulated time on top of the clean collective.
  EXPECT_NEAR(r.seconds, fault_free_s + r.backoff_seconds, 1e-12);
  for (const auto& p : r.per_rank) EXPECT_TRUE(p->Equals(*t));
}

TEST(ScclRetryTest, PersistentFailureExhaustsBudgetCleanly) {
  FaultInjector inj;
  inj.Arm("sccl.gather", FaultSpec{});  // unlimited Unavailable
  net::Communicator comm(3, sim::Infiniband400(), &inj);
  std::vector<TablePtr> tables{IntTable({1}), IntTable({2}), IntTable({3})};
  auto r = comm.Gather(tables, 0, Ctx(), 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_NE(r.status().ToString().find("failed after"), std::string::npos);
  // Default policy: 4 attempts, each consulting the site once.
  EXPECT_EQ(inj.stats("sccl.gather").hits, 4u);
  EXPECT_EQ(inj.injected("sccl.gather"), 4u);
}

TEST(ScclRetryTest, NonTransientFaultIsNotRetried) {
  FaultInjector inj;
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  inj.Arm("sccl.broadcast", spec);
  net::Communicator comm(2, sim::Infiniband400(), &inj);
  auto r = comm.Broadcast(IntTable({1}), 0, 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().IsTransient());
  EXPECT_EQ(inj.stats("sccl.broadcast").hits, 1u);  // no second attempt
}

TEST(ScclRetryTest, TimeoutIsTransientToo) {
  FaultInjector inj;
  FaultSpec spec;
  spec.code = StatusCode::kTimeout;
  spec.max_triggers = 1;
  inj.Arm("sccl.alltoall", spec);
  net::Communicator comm(2, sim::Infiniband400(), &inj);
  std::vector<std::vector<TablePtr>> parts{
      {IntTable({1}), IntTable({2})},
      {IntTable({3}), IntTable({4})},
  };
  auto r = comm.AllToAll(parts, Ctx(), 1.0).ValueOrDie();
  EXPECT_EQ(r.retries, 1);
  EXPECT_TRUE(r.per_rank[0]->EqualsUnordered(*IntTable({1, 3})));
  EXPECT_TRUE(r.per_rank[1]->EqualsUnordered(*IntTable({2, 4})));
}

TEST(ScclRetryTest, RetryScheduleReplaysUnderSeed) {
  auto run = [](uint64_t seed) {
    FaultInjector inj(seed);
    FaultSpec spec;
    spec.probability = 0.6;
    spec.max_triggers = 3;
    inj.Arm("sccl.broadcast", spec);
    net::Communicator comm(4, sim::Infiniband400(), &inj);
    auto r = comm.Broadcast(IntTable({1, 2}), 0, 1.0).ValueOrDie();
    return std::make_pair(r.retries, r.backoff_seconds);
  };
  auto a = run(7), b = run(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);  // jitter replays from the seed
}

// ---------------------------------------------------------------------------
// Cluster control-plane recovery
// ---------------------------------------------------------------------------

TEST(ClusterRecoveryTest, FragmentFailureKillsNodeAndRetriesOnSurvivors) {
  FaultInjector inj;
  dist::DorisCluster::Options options;
  options.injector = &inj;
  auto cluster = MakeCluster(options);
  FaultSpec spec;
  spec.max_triggers = 1;  // one fragment casualty, then healthy
  inj.Arm("dist.fragment", spec);

  auto r = cluster->Query(tpch::Query(3));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectMatchesReference(3, r.ValueOrDie().table);
  const auto& rec = r.ValueOrDie().recovery;
  EXPECT_EQ(rec.node_failures, 1);
  EXPECT_EQ(rec.query_retries, 1);
  EXPECT_GE(rec.re_partitions, 1);  // survivors got a fresh layout
  EXPECT_EQ(cluster->num_alive(), 3);
  EXPECT_EQ(cluster->temp_registry().active_count(), 0u);
}

TEST(ClusterRecoveryTest, HeartbeatExpiryRepartitionsBeforeDispatch) {
  FaultInjector inj;
  dist::DorisCluster::Options options;
  options.injector = &inj;
  auto cluster = MakeCluster(options);
  FaultSpec spec;
  spec.max_triggers = 1;
  inj.Arm("dist.heartbeat", spec);

  auto r = cluster->Query(tpch::Query(1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectMatchesReference(1, r.ValueOrDie().table);
  const auto& rec = r.ValueOrDie().recovery;
  EXPECT_EQ(rec.node_failures, 1);
  EXPECT_EQ(rec.query_retries, 0);  // caught before dispatch, no wasted run
  EXPECT_GE(rec.re_partitions, 1);
  EXPECT_EQ(cluster->num_alive(), 3);
}

TEST(ClusterRecoveryTest, CollectiveRetriesSurfaceInRecoveryStats) {
  FaultInjector inj;
  dist::DorisCluster::Options options;
  options.injector = &inj;
  auto cluster = MakeCluster(options);
  FaultSpec spec;
  spec.max_triggers = 2;
  inj.Arm("sccl.gather", spec);

  auto r = cluster->Query(tpch::Query(1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectMatchesReference(1, r.ValueOrDie().table);
  const auto& rec = r.ValueOrDie().recovery;
  EXPECT_GE(rec.collective_retries, 1);
  EXPECT_GT(rec.retry_backoff_seconds, 0.0);
  EXPECT_EQ(rec.node_failures, 0);
}

TEST(ClusterRecoveryTest, RetryBudgetExhaustedIsCleanError) {
  FaultInjector inj;
  dist::DorisCluster::Options options;
  options.injector = &inj;
  options.query_retry_budget = 1;
  auto cluster = MakeCluster(options);
  inj.Arm("dist.fragment", FaultSpec{});  // every attempt loses a node

  auto r = cluster->Query(tpch::Query(6));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_NE(r.status().ToString().find("retry budget"), std::string::npos);
  EXPECT_EQ(cluster->temp_registry().active_count(), 0u);
  EXPECT_EQ(cluster->num_alive(), 2);  // one death per attempt
}

TEST(ClusterRecoveryTest, BelowQuorumIsUnavailableWithoutDispatch) {
  FaultInjector inj;
  dist::DorisCluster::Options options;
  options.injector = &inj;
  options.quorum = 4;
  auto cluster = MakeCluster(options);
  FaultSpec spec;
  spec.max_triggers = 1;
  inj.Arm("dist.heartbeat", spec);

  auto r = cluster->Query(tpch::Query(1));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_NE(r.status().ToString().find("quorum"), std::string::npos);
  // The heartbeat loss was detected, data plane never ran.
  EXPECT_EQ(inj.stats("dist.fragment").hits, 0u);
}

TEST(ClusterRecoveryTest, AllNodesDeadIsUnavailable) {
  auto cluster = MakeCluster({});
  cluster->ExpireHeartbeats(/*now=*/1000.0, /*timeout=*/1.0);
  EXPECT_EQ(cluster->num_alive(), 0);
  auto r = cluster->Query(tpch::Query(6));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST(ClusterRecoveryTest, FailedQueryLeavesNoTempTables) {
  FaultInjector inj;
  dist::DorisCluster::Options options;
  options.injector = &inj;
  // Model SF100 so Q3 shuffles both big sides instead of broadcasting
  // (matching the paper's distributed plan shape).
  options.data_scale = 100.0 / kSf;
  auto cluster = MakeCluster(options);

  // Warm run registers temp tables and must fully drain them.
  auto warm = cluster->Query(tpch::Query(3));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const uint64_t registered_before = cluster->temp_registry().total_registered();
  EXPECT_GT(registered_before, 0u);
  EXPECT_EQ(cluster->temp_registry().active_count(), 0u);

  // Q3 shuffles; failing every shuffle aborts fragments mid-exchange. The
  // RAII guard must still deregister everything that got registered.
  inj.Arm("sccl.alltoall", FaultSpec{});
  auto r = cluster->Query(tpch::Query(3));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(cluster->temp_registry().active_count(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos sweep: every known site x TPC-H Q1/Q3/Q6 on a 4-node cluster
// ---------------------------------------------------------------------------

TEST(ChaosSweepTest, TransientFaultsAtEverySiteRecoverToIdenticalAnswers) {
  for (const auto& site : fault::KnownSites()) {
    for (int q : kChaosQueries) {
      FaultInjector inj;
      dist::DorisCluster::Options options;
      options.injector = &inj;
      options.query_retry_budget = 3;
      auto cluster = MakeCluster(options);
      FaultSpec spec;
      spec.max_triggers = 2;  // transient: heals within every retry budget
      inj.Arm(site, spec);

      auto r = cluster->Query(tpch::Query(q));
      ASSERT_TRUE(r.ok()) << "site=" << site << " Q" << q << ": "
                          << r.status().ToString();
      ExpectMatchesReference(q, r.ValueOrDie().table);
      EXPECT_EQ(cluster->temp_registry().active_count(), 0u)
          << "site=" << site << " Q" << q;
    }
  }
}

TEST(ChaosSweepTest, PersistentFaultsYieldCleanStatusOrIdenticalAnswers) {
  for (const auto& site : fault::KnownSites()) {
    for (int q : kChaosQueries) {
      FaultInjector inj;
      dist::DorisCluster::Options options;
      options.injector = &inj;
      auto cluster = MakeCluster(options);
      inj.Arm(site, FaultSpec{});  // unlimited failures

      auto r = cluster->Query(tpch::Query(q));
      if (r.ok()) {
        // Site not on this query's path (e.g. multicast): answer unharmed.
        ExpectMatchesReference(q, r.ValueOrDie().table);
      } else {
        EXPECT_TRUE(r.status().IsUnavailable())
            << "site=" << site << " Q" << q << ": " << r.status().ToString();
      }
      EXPECT_EQ(cluster->temp_registry().active_count(), 0u)
          << "site=" << site << " Q" << q;
    }
  }
}

TEST(ChaosSweepTest, RandomizedMultiSiteChaosNeverCorruptsAnswers) {
  for (uint64_t seed : {11u, 23u, 59u}) {
    FaultInjector inj(seed);
    dist::DorisCluster::Options options;
    options.injector = &inj;
    options.query_retry_budget = 2;
    auto cluster = MakeCluster(options);
    FaultSpec spec;
    spec.probability = 0.3;
    for (const auto& site : fault::KnownSites()) inj.Arm(site, spec);

    for (int q : kChaosQueries) {
      auto r = cluster->Query(tpch::Query(q));
      if (r.ok()) {
        ExpectMatchesReference(q, r.ValueOrDie().table);
      } else {
        EXPECT_TRUE(r.status().IsUnavailable())
            << "seed=" << seed << " Q" << q << ": " << r.status().ToString();
      }
      EXPECT_EQ(cluster->temp_registry().active_count(), 0u)
          << "seed=" << seed << " Q" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// GPU memory path: pressure, evict-and-retry, spill, CPU fallback
// ---------------------------------------------------------------------------

TEST(MemoryPressureTest, PressureResourceFailsEveryNth) {
  mem::PressureMemoryResource pressure(mem::DefaultResource(),
                                       /*fail_every_nth=*/3, /*skip_first=*/1);
  std::vector<void*> live;
  int failures = 0;
  for (int i = 1; i <= 7; ++i) {
    void* p = nullptr;
    Status st = pressure.Allocate(64, &p);
    if (st.ok()) {
      live.push_back(p);
    } else {
      EXPECT_TRUE(st.IsOutOfMemory());
      ++failures;
      // Requests 4 and 7: skip 1, then every 3rd counted request fails.
      EXPECT_TRUE(i == 4 || i == 7) << "unexpected failure at request " << i;
    }
  }
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(pressure.num_requests(), 7u);
  EXPECT_EQ(pressure.num_injected_failures(), 2u);
  for (void* p : live) pressure.Deallocate(p, 64);
}

host::Database* EngineDb() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, kSf));
    return d;
  }();
  return db;
}

const TablePtr& CpuResult(int q) {
  static auto* results = [] {
    auto* m = new std::map<int, TablePtr>();  // sirius-lint: allow(raw-new-delete): leaked singleton
    EngineDb()->SetAccelerator(nullptr);
    for (int query : kChaosQueries) {
      (*m)[query] = EngineDb()->Query(tpch::Query(query)).ValueOrDie().table;
    }
    return m;
  }();
  return results->at(q);
}

TEST(MemoryPressureTest, InjectedOomHealsByEvictAndRetry) {
  FaultInjector inj;
  engine::SiriusEngine::Options options;
  options.injector = &inj;
  engine::SiriusEngine engine(EngineDb(), options);
  (void)CpuResult(6);  // materialize the CPU reference first
  FaultSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.max_triggers = 1;
  inj.Arm("engine.reserve", spec);

  EngineDb()->SetAccelerator(&engine);
  auto r = EngineDb()->Query(tpch::Query(6));
  EngineDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().accelerated);
  EXPECT_FALSE(r.ValueOrDie().fell_back);  // device healed itself
  EXPECT_TRUE(CpuResult(6)->Equals(*r.ValueOrDie().table) ||
              CpuResult(6)->EqualsUnordered(*r.ValueOrDie().table));

  const auto stats = engine.stats();
  EXPECT_EQ(stats.oom_events, 1u);
  EXPECT_EQ(stats.pipeline_retries, 1u);
  EXPECT_GE(stats.evictions_under_pressure, 1u);  // cache was dropped
}

TEST(MemoryPressureTest, OutOfCoreSpillAbsorbsInjectedOom) {
  FaultInjector inj;
  engine::SiriusEngine::Options options;
  options.injector = &inj;
  options.out_of_core = true;
  engine::SiriusEngine engine(EngineDb(), options);
  FaultSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.max_triggers = 1;
  inj.Arm("engine.reserve", spec);

  EngineDb()->SetAccelerator(&engine);
  auto r = EngineDb()->Query(tpch::Query(6));
  EngineDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().fell_back);
  EXPECT_TRUE(CpuResult(6)->Equals(*r.ValueOrDie().table) ||
              CpuResult(6)->EqualsUnordered(*r.ValueOrDie().table));

  const auto stats = engine.stats();
  EXPECT_GE(stats.spill_events, 1u);  // absorbed, not failed
  EXPECT_EQ(stats.oom_events, 0u);
}

TEST(MemoryPressureTest, PersistentAllocationPressureFallsBackToCpu) {
  // Every other processing-pool allocation fails: the device cannot finish
  // even after evicting, so the host must transparently run the query on
  // its CPU engine (the drop-in contract, paper §3.1). (Every *other*, not
  // every 3rd: fused execution gathers so little that a sparser cadence
  // never fires.)
  mem::PressureMemoryResource pressure(mem::DefaultResource(),
                                       /*fail_every_nth=*/2);
  engine::SiriusEngine::Options options;
  options.processing_override = &pressure;
  engine::SiriusEngine engine(EngineDb(), options);

  EngineDb()->SetAccelerator(&engine);
  auto r = EngineDb()->Query(tpch::Query(6));
  EngineDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().fell_back);
  EXPECT_TRUE(CpuResult(6)->Equals(*r.ValueOrDie().table) ||
              CpuResult(6)->EqualsUnordered(*r.ValueOrDie().table));

  EXPECT_GE(pressure.num_injected_failures(), 1u);
  const auto stats = engine.stats();
  EXPECT_GE(stats.oom_events, 1u);
  EXPECT_GE(stats.pipeline_retries, 1u);  // evict-and-retry was attempted
}

TEST(MemoryPressureTest, NonOomDeviceFaultFallsBackWithoutRetry) {
  FaultInjector inj;
  engine::SiriusEngine::Options options;
  options.injector = &inj;
  engine::SiriusEngine engine(EngineDb(), options);
  inj.Arm("engine.reserve", FaultSpec{});  // persistent Unavailable

  EngineDb()->SetAccelerator(&engine);
  auto r = EngineDb()->Query(tpch::Query(6));
  EngineDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().fell_back);
  EXPECT_TRUE(CpuResult(6)->Equals(*r.ValueOrDie().table) ||
              CpuResult(6)->EqualsUnordered(*r.ValueOrDie().table));

  const auto stats = engine.stats();
  EXPECT_EQ(stats.oom_events, 0u);       // Unavailable is not an OOM
  EXPECT_EQ(stats.pipeline_retries, 0u); // eviction would not help
  EXPECT_GE(inj.injected("engine.reserve"), 1u);
}

// ---------------------------------------------------------------------------
// Spill-tier chaos: mem.spill.write / mem.spill.read / mem.tier.lost
// swept over TPC-H Q1/Q6/Q18 with the out-of-core path forced hot
// ---------------------------------------------------------------------------

const char* kSpillSites[] = {"mem.spill.write", "mem.spill.read",
                             "mem.tier.lost"};
const int kSpillQueries[] = {1, 6, 18};

const TablePtr& SpillCpuResult(int q) {
  static auto* results = [] {
    auto* m = new std::map<int, TablePtr>();  // sirius-lint: allow(raw-new-delete): leaked singleton
    EngineDb()->SetAccelerator(nullptr);
    for (int query : kSpillQueries) {
      (*m)[query] = EngineDb()->Query(tpch::Query(query)).ValueOrDie().table;
    }
    return m;
  }();
  return results->at(q);
}

/// Runs `q` on an engine whose out-of-core path spills every intermediate
/// (persistent injected OOM at engine.reserve), with `site` armed as `spec`.
Result<host::QueryResult> RunWithSpillFault(int q, const char* site,
                                            FaultSpec spec,
                                            engine::SiriusEngine** out_engine,
                                            FaultInjector* inj) {
  engine::SiriusEngine::Options options;
  options.injector = inj;
  options.out_of_core = true;
  auto* engine = new engine::SiriusEngine(EngineDb(), options);  // sirius-lint: allow(raw-new-delete): caller owns via out_engine
  *out_engine = engine;
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  inj->Arm("engine.reserve", oom);
  inj->Arm(site, spec);
  EngineDb()->SetAccelerator(engine);
  auto r = EngineDb()->Query(tpch::Query(q));
  EngineDb()->SetAccelerator(nullptr);
  return r;
}

TEST(SpillChaosTest, TransientTierFaultsRecoverToIdenticalAnswers) {
  for (const char* site : kSpillSites) {
    for (int q : kSpillQueries) {
      (void)SpillCpuResult(q);
      FaultInjector inj;
      FaultSpec spec;
      spec.max_triggers = 2;  // heals within the retry / fallback budget
      engine::SiriusEngine* engine = nullptr;
      auto r = RunWithSpillFault(q, site, spec, &engine, &inj);
      std::unique_ptr<engine::SiriusEngine> owned(engine);
      ASSERT_TRUE(r.ok()) << "site=" << site << " Q" << q << ": "
                          << r.status().ToString();
      EXPECT_FALSE(r.ValueOrDie().fell_back)
          << "site=" << site << " Q" << q << " needed the CPU for a "
          << "transient fault the tiers should have absorbed";
      const TablePtr& ref = SpillCpuResult(q);
      EXPECT_TRUE(ref->Equals(*r.ValueOrDie().table) ||
                  ref->EqualsUnordered(*r.ValueOrDie().table))
          << "site=" << site << " Q" << q << " diverged under faults";
      // No staged bytes left behind on any path.
      EXPECT_EQ(engine->tiers().stats(mem::Tier::kHost).used_bytes, 0u)
          << "site=" << site << " Q" << q;
      EXPECT_EQ(engine->tiers().stats(mem::Tier::kNvme).used_bytes, 0u)
          << "site=" << site << " Q" << q;
    }
  }
}

TEST(SpillChaosTest, PersistentTierFaultsFallBackToCorrectCpuAnswers) {
  for (const char* site : kSpillSites) {
    for (int q : kSpillQueries) {
      (void)SpillCpuResult(q);
      FaultInjector inj;
      engine::SiriusEngine* engine = nullptr;
      auto r = RunWithSpillFault(q, site, FaultSpec{}, &engine, &inj);
      std::unique_ptr<engine::SiriusEngine> owned(engine);
      // The device path cannot finish; the host's CPU engine must still
      // deliver the exact answer (the drop-in contract).
      ASSERT_TRUE(r.ok()) << "site=" << site << " Q" << q << ": "
                          << r.status().ToString();
      EXPECT_TRUE(r.ValueOrDie().fell_back)
          << "site=" << site << " Q" << q;
      const TablePtr& ref = SpillCpuResult(q);
      EXPECT_TRUE(ref->Equals(*r.ValueOrDie().table) ||
                  ref->EqualsUnordered(*r.ValueOrDie().table))
          << "site=" << site << " Q" << q << " diverged under faults";
      EXPECT_EQ(engine->tiers().stats(mem::Tier::kHost).used_bytes, 0u)
          << "site=" << site << " Q" << q;
      EXPECT_EQ(engine->tiers().stats(mem::Tier::kNvme).used_bytes, 0u)
          << "site=" << site << " Q" << q;
    }
  }
}

TEST(SpillChaosTest, BoundedHostSpillIsDiagnosableNotUnbounded) {
  // Regression: the out-of-core path used to grow pinned host memory without
  // limit. With a tiny host tier and NVMe disabled, overflow must surface as
  // a diagnosable ResourceExhausted naming the fix, not silent growth.
  FaultInjector inj;
  engine::SiriusEngine::Options options;
  options.injector = &inj;
  options.out_of_core = true;
  options.tier.host_capacity_bytes = 1 * 1024;  // 1 KiB: nothing real fits
  options.tier.nvme_capacity_bytes = 0;
  engine::SiriusEngine engine(EngineDb(), options);
  FaultSpec oom;
  oom.code = StatusCode::kOutOfMemory;
  inj.Arm("engine.reserve", oom);

  auto plan = EngineDb()->PlanSql(tpch::Query(6)).ValueOrDie();
  auto r = engine.ExecutePlan(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_EQ(r.status().cause(), StatusCause::kSpillRefused);
  EXPECT_NE(r.status().message().find("exceeds every configured tier"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(engine.tiers().stats(mem::Tier::kHost).used_bytes, 0u);

  // The full drop-in stack still answers the query: the host CPU engine
  // takes over when the governed tiers cannot absorb the overflow.
  (void)SpillCpuResult(6);
  EngineDb()->SetAccelerator(&engine);
  auto full = EngineDb()->Query(tpch::Query(6));
  EngineDb()->SetAccelerator(nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_TRUE(full.ValueOrDie().fell_back);
  EXPECT_TRUE(SpillCpuResult(6)->Equals(*full.ValueOrDie().table) ||
              SpillCpuResult(6)->EqualsUnordered(*full.ValueOrDie().table));
}

TEST(MemoryPressureTest, TpchSuiteAtSf005StaysOnDevice) {
  // The modeled processing region is the only capacity limit on the device
  // path. One engine runs the 22 TPC-H queries at loaded SF 0.05 in turn,
  // as bench_fig4 does. No query holds more than ~40 MiB of gathers live,
  // but across the suite the pool keeps more than 64 MiB of blocks spread
  // over its size classes, so a fixed 64 MiB arena runs out on Q21. Every
  // query must stay on the device and match the CPU engine.
  host::Database db;
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.05));
  std::vector<TablePtr> expected;
  for (int q = 1; q <= 22; ++q) {
    auto cpu = db.Query(tpch::Query(q));
    ASSERT_TRUE(cpu.ok()) << "Q" << q << ": " << cpu.status().ToString();
    expected.push_back(cpu.ValueOrDie().table);
  }

  engine::SiriusEngine engine(&db, {});
  db.SetAccelerator(&engine);
  for (int q = 1; q <= 22; ++q) {
    auto r = db.Query(tpch::Query(q));
    ASSERT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().accelerated) << "Q" << q;
    EXPECT_FALSE(r.ValueOrDie().fell_back) << "Q" << q;
    const TablePtr& want = expected[q - 1];
    EXPECT_TRUE(want->Equals(*r.ValueOrDie().table) ||
                want->EqualsUnordered(*r.ValueOrDie().table))
        << "Q" << q;
  }
  db.SetAccelerator(nullptr);
  EXPECT_EQ(engine.stats().oom_events, 0u);
}

TEST(MemoryPressureTest, ResultTablesOutliveTheEngine) {
  TablePtr table;
  {
    engine::SiriusEngine engine(EngineDb(), {});
    EngineDb()->SetAccelerator(&engine);
    auto r = EngineDb()->Query(tpch::Query(1));
    EngineDb()->SetAccelerator(nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    table = r.ValueOrDie().table;
  }
  // The engine (and its processing pool) are gone; the result must not
  // alias pool memory.
  EXPECT_GT(table->num_rows(), 0u);
  EXPECT_TRUE(CpuResult(1)->Equals(*table) ||
              CpuResult(1)->EqualsUnordered(*table));
}

}  // namespace
}  // namespace sirius
