// Tests for the SCCL collective layer and the DorisX distributed runtime:
// collective semantics and timing, fragmenter shapes, control plane,
// temp-table registry, and distributed-vs-single-node result agreement for
// every TPC-H query.

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "dist/fragmenter.h"
#include "net/sccl.h"
#include "scoped_udf.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using format::Column;
using format::TablePtr;

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

// ---------------------------------------------------------------------------
// SCCL collectives
// ---------------------------------------------------------------------------

TEST(ScclTest, AllToAllRedistributes) {
  net::Communicator comm(2, sim::Infiniband400());
  // partitions[src][dst]
  std::vector<std::vector<TablePtr>> parts{
      {IntTable({1}), IntTable({2})},
      {IntTable({3}), IntTable({4})},
  };
  auto r = comm.AllToAll(parts, Ctx(), 1.0).ValueOrDie();
  ASSERT_EQ(r.per_rank.size(), 2u);
  EXPECT_TRUE(r.per_rank[0]->EqualsUnordered(*IntTable({1, 3})));
  EXPECT_TRUE(r.per_rank[1]->EqualsUnordered(*IntTable({2, 4})));
  EXPECT_GT(r.seconds, 0.0);
  // Only off-diagonal traffic crosses the network.
  EXPECT_EQ(r.bytes, IntTable({2})->MemoryUsage() + IntTable({3})->MemoryUsage());
}

TEST(ScclTest, AllToAllDiagonalOnlyIsFree) {
  net::Communicator comm(2, sim::Infiniband400());
  std::vector<std::vector<TablePtr>> parts{
      {IntTable({1}), IntTable({})},
      {IntTable({}), IntTable({4})},
  };
  auto r = comm.AllToAll(parts, Ctx(), 1.0).ValueOrDie();
  EXPECT_EQ(r.bytes, IntTable({})->MemoryUsage() * 2);
}

TEST(ScclTest, BroadcastSharesTable) {
  net::Communicator comm(4, sim::Infiniband400());
  auto t = IntTable({1, 2, 3});
  auto r = comm.Broadcast(t, 0, 1.0).ValueOrDie();
  ASSERT_EQ(r.per_rank.size(), 4u);
  for (const auto& p : r.per_rank) EXPECT_TRUE(p->Equals(*t));
  EXPECT_EQ(r.bytes, t->MemoryUsage() * 3);
  EXPECT_FALSE(comm.Broadcast(t, 9, 1.0).ok());
}

TEST(ScclTest, GatherConcatsAtRoot) {
  net::Communicator comm(3, sim::Infiniband400());
  std::vector<TablePtr> tables{IntTable({1}), IntTable({2}), IntTable({3})};
  auto r = comm.Gather(tables, 0, Ctx(), 1.0).ValueOrDie();
  EXPECT_TRUE(r.per_rank[0]->EqualsUnordered(*IntTable({1, 2, 3})));
  EXPECT_EQ(r.per_rank[1], nullptr);
  EXPECT_EQ(r.bytes, tables[1]->MemoryUsage() + tables[2]->MemoryUsage());
}

TEST(ScclTest, MulticastSubset) {
  net::Communicator comm(4, sim::Infiniband400());
  auto t = IntTable({7});
  auto r = comm.Multicast(t, 0, {0, 2}, 1.0).ValueOrDie();
  EXPECT_NE(r.per_rank[0], nullptr);
  EXPECT_EQ(r.per_rank[1], nullptr);
  EXPECT_NE(r.per_rank[2], nullptr);
  EXPECT_EQ(r.bytes, t->MemoryUsage());  // root copy is free
}

TEST(ScclTest, SlowerLinkTakesLonger) {
  auto t = IntTable(std::vector<int64_t>(10000, 1));
  net::Communicator fast(2, sim::Infiniband400());
  net::Communicator slow(2, sim::Ethernet100());
  double f = fast.Broadcast(t, 0, 1000.0).ValueOrDie().seconds;
  double s = slow.Broadcast(t, 0, 1000.0).ValueOrDie().seconds;
  EXPECT_GT(s, f);
}

// ---------------------------------------------------------------------------
// Fragmenter
// ---------------------------------------------------------------------------

class FragmenterTest : public ::testing::Test {
 protected:
  static host::Database* db() {
    static host::Database* instance = [] {
      auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
      SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.002));
      return d;
    }();
    return instance;
  }

  static int CountExchanges(const plan::PlanNode& n, plan::ExchangeKind kind) {
    int count = n.kind == plan::PlanKind::kExchange && n.exchange == kind ? 1 : 0;
    for (const auto& c : n.children) count += CountExchanges(*c, kind);
    return count;
  }
};

TEST_F(FragmenterTest, ResultAlwaysGathered) {
  for (int q : {1, 3, 6}) {
    auto plan = db()->PlanSql(tpch::Query(q)).ValueOrDie();
    auto d = dist::FragmentPlan(plan, db()->catalog(), {}).ValueOrDie();
    EXPECT_TRUE(d.gathered) << "Q" << q;
    EXPECT_TRUE(d.plan->Validate().ok()) << "Q" << q;
    EXPECT_TRUE(d.plan->output_schema.Equals(plan->output_schema)) << "Q" << q;
  }
}

TEST_F(FragmenterTest, Q3ShufflesBothBigSides) {
  // The paper: "Doris' distributed query plan shuffles both the orders and
  // lineitem tables" — big-side joins must use shuffle exchanges.
  auto plan = db()->PlanSql(tpch::Query(3)).ValueOrDie();
  dist::FragmenterOptions options;
  options.data_scale = 100.0 / 0.002;  // model SF100
  options.broadcast_threshold_bytes = 16ull << 20;
  auto d = dist::FragmentPlan(plan, db()->catalog(), options).ValueOrDie();
  EXPECT_GE(CountExchanges(*d.plan, plan::ExchangeKind::kShuffle), 2)
      << d.plan->ToString();
}

TEST_F(FragmenterTest, SmallBuildSidesBroadcast) {
  auto plan = db()->PlanSql(tpch::Query(5)).ValueOrDie();
  dist::FragmenterOptions options;
  options.data_scale = 100.0 / 0.002;
  auto d = dist::FragmentPlan(plan, db()->catalog(), options).ValueOrDie();
  // nation/region build sides are tiny -> broadcast.
  EXPECT_GE(CountExchanges(*d.plan, plan::ExchangeKind::kBroadcast), 1)
      << d.plan->ToString();
}

TEST_F(FragmenterTest, TwoPhaseAggregationShape) {
  auto plan = db()->PlanSql(tpch::Query(1)).ValueOrDie();
  auto d = dist::FragmentPlan(plan, db()->catalog(), {}).ValueOrDie();
  // Partial + final: two Aggregate nodes with a gather between them.
  int aggs = 0;
  std::function<void(const plan::PlanNode&)> walk = [&](const plan::PlanNode& n) {
    if (n.kind == plan::PlanKind::kAggregate) ++aggs;
    for (const auto& c : n.children) walk(*c);
  };
  walk(*d.plan);
  EXPECT_EQ(aggs, 2) << d.plan->ToString();
  EXPECT_GE(CountExchanges(*d.plan, plan::ExchangeKind::kGather), 1);
}

TEST_F(FragmenterTest, CountDistinctRepartitions) {
  auto plan = db()->PlanSql(tpch::Query(16)).ValueOrDie();
  auto d = dist::FragmentPlan(plan, db()->catalog(), {}).ValueOrDie();
  // count(distinct ps_suppkey) cannot two-phase: shuffle by group keys.
  EXPECT_GE(CountExchanges(*d.plan, plan::ExchangeKind::kShuffle), 1)
      << d.plan->ToString();
}

// ---------------------------------------------------------------------------
// DorisCluster
// ---------------------------------------------------------------------------

dist::DorisCluster* SharedCluster() {
  static dist::DorisCluster* cluster = [] {
    dist::DorisCluster::Options options;
    options.num_nodes = 4;
    auto* c = new dist::DorisCluster(options);  // sirius-lint: allow(raw-new-delete): leaked singleton
    for (const auto& name : tpch::TableNames()) {
      auto t = tpch::GenerateTable(name, 0.005).ValueOrDie();
      SIRIUS_CHECK_OK(c->LoadPartitioned(name, t));
    }
    return c;
  }();
  return cluster;
}

host::Database* SharedSingleNode() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.005));
    return d;
  }();
  return db;
}

class DistributedQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedQueryTest, MatchesSingleNodeResults) {
  const int q = GetParam();
  auto single = SharedSingleNode()->Query(tpch::Query(q));
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  auto distributed = SharedCluster()->Query(tpch::Query(q));
  ASSERT_TRUE(distributed.ok()) << "Q" << q << ": "
                                << distributed.status().ToString();
  const auto& s = *single.ValueOrDie().table;
  const auto& d = *distributed.ValueOrDie().table;
  EXPECT_TRUE(s.Equals(d) || s.EqualsUnordered(d))
      << "Q" << q << "\nsingle:\n"
      << s.ToString(8) << "\ndistributed:\n"
      << d.ToString(8);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, DistributedQueryTest,
                         ::testing::Range(1, 23), [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(DorisClusterTest, BreakdownSumsToTotal) {
  auto r = SharedCluster()->Query(tpch::Query(3)).ValueOrDie();
  EXPECT_NEAR(r.total_seconds,
              r.compute_seconds + r.exchange_seconds + r.other_seconds, 1e-9);
  EXPECT_GT(r.exchange_seconds, 0.0);  // Q3 shuffles
  EXPECT_GT(r.other_seconds, 0.0);     // coordinator overhead
}

TEST(DorisClusterTest, HeartbeatsTrackLiveness) {
  dist::DorisCluster::Options options;
  options.num_nodes = 3;
  dist::DorisCluster cluster(options);
  for (int r = 0; r < 3; ++r) cluster.Heartbeat(r, 10.0);
  EXPECT_EQ(cluster.num_alive(), 3);
  cluster.Heartbeat(0, 20.0);
  EXPECT_EQ(cluster.ExpireHeartbeats(/*now=*/25.0, /*timeout=*/10.0), 2);
  EXPECT_EQ(cluster.num_alive(), 1);
  EXPECT_TRUE(cluster.IsAlive(0));
  EXPECT_FALSE(cluster.IsAlive(1));
  cluster.Heartbeat(1, 26.0);
  EXPECT_TRUE(cluster.IsAlive(1));
}

TEST(DorisClusterTest, TempTablesDeregisteredAfterQuery) {
  auto* cluster = SharedCluster();
  uint64_t before = cluster->temp_registry().total_registered();
  (void)cluster->Query(tpch::Query(3)).ValueOrDie();
  EXPECT_GT(cluster->temp_registry().total_registered(), before);
  EXPECT_EQ(cluster->temp_registry().active_count(), 0u);
}

TEST(DorisClusterTest, PartitionsCoverAllRows) {
  dist::DorisCluster::Options options;
  options.num_nodes = 4;
  dist::DorisCluster cluster(options);
  auto orders = tpch::GenerateTable("orders", 0.002).ValueOrDie();
  SIRIUS_CHECK_OK(cluster.LoadPartitioned("orders", orders));
  auto r = cluster.Query("select count(*) as c from orders").ValueOrDie();
  EXPECT_EQ(r.table->column(0)->data<int64_t>()[0],
            static_cast<int64_t>(orders->num_rows()));
}

TEST(DorisClusterTest, CapabilityGateRejects) {
  ScopedUdf clamp(ClampUdf());  // no device-side UDF exists (§3.4)
  dist::DorisCluster::Options options;
  options.num_nodes = 2;
  dist::DorisCluster cluster(options);
  auto orders = tpch::GenerateTable("orders", 0.002).ValueOrDie();
  SIRIUS_CHECK_OK(cluster.LoadPartitioned("orders", orders));
  auto r = cluster.Query("select sum(clamp100(o_custkey)) from orders");
  EXPECT_TRUE(r.status().IsUnsupportedOnDevice());
}

TEST(DorisClusterTest, FaultToleranceRepartitionsOntoSurvivors) {
  dist::DorisCluster::Options options;
  options.num_nodes = 4;
  dist::DorisCluster cluster(options);
  auto orders = tpch::GenerateTable("orders", 0.003).ValueOrDie();
  SIRIUS_CHECK_OK(cluster.LoadPartitioned("orders", orders));
  for (int r = 0; r < 4; ++r) cluster.Heartbeat(r, 0.0);

  auto before = cluster.Query("select count(*) as c from orders").ValueOrDie();
  const int64_t total = before.table->column(0)->data<int64_t>()[0];
  EXPECT_EQ(total, static_cast<int64_t>(orders->num_rows()));

  // Node 2 dies: its heartbeat stops, the next query must still see every row.
  for (int r : {0, 1, 3}) cluster.Heartbeat(r, 100.0);
  EXPECT_EQ(cluster.ExpireHeartbeats(/*now=*/101.0, /*timeout=*/50.0), 1);
  EXPECT_FALSE(cluster.IsAlive(2));
  auto after = cluster.Query("select count(*) as c from orders").ValueOrDie();
  EXPECT_EQ(after.table->column(0)->data<int64_t>()[0], total);

  // Aggregation results survive the failure too.
  auto grouped_before = cluster.Query(
      "select o_orderpriority, count(*) as c from orders "
      "group by o_orderpriority order by o_orderpriority");
  SIRIUS_CHECK_OK(grouped_before.status());

  // Node 2 recovers and rejoins.
  cluster.Heartbeat(2, 200.0);
  EXPECT_EQ(cluster.num_alive(), 4);
  auto rejoined = cluster.Query("select count(*) as c from orders").ValueOrDie();
  EXPECT_EQ(rejoined.table->column(0)->data<int64_t>()[0], total);
}

TEST(DorisClusterTest, AllNodesDeadIsAnError) {
  dist::DorisCluster::Options options;
  options.num_nodes = 2;
  dist::DorisCluster cluster(options);
  auto orders = tpch::GenerateTable("orders", 0.001).ValueOrDie();
  SIRIUS_CHECK_OK(cluster.LoadPartitioned("orders", orders));
  cluster.ExpireHeartbeats(/*now=*/1000.0, /*timeout=*/1.0);
  EXPECT_EQ(cluster.num_alive(), 0);
  auto r = cluster.Query("select count(*) from orders");
  EXPECT_FALSE(r.ok());
}

TEST(DorisClusterTest, ListColumnsCrossTheExchange) {
  // The coordinator gathers every node's rows, LIST columns included.
  std::vector<int64_t> ids(2000);
  std::vector<std::vector<double>> embs(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int64_t>(i);
    embs[i].assign(i % 4, static_cast<double>(i) / 8);  // some lists empty
  }
  auto docs = format::Table::Make(
                  format::Schema({{"id", format::Int64()},
                                  {"emb", format::List(format::Float64())}}),
                  {Column::FromInt64(ids), Column::FromListsOfDoubles(embs)})
                  .ValueOrDie();
  dist::DorisCluster::Options options;
  options.num_nodes = 4;
  dist::DorisCluster cluster(options);
  SIRIUS_CHECK_OK(cluster.LoadPartitioned("docs", docs));
  const std::string sql = "SELECT id, emb FROM docs WHERE id > 1500";
  auto r = cluster.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().table->num_rows(), 499u);

  host::Database single;
  SIRIUS_CHECK_OK(single.CreateTable("docs", docs));
  EXPECT_TRUE(single.Query(sql).ValueOrDie().table->EqualsUnordered(
      *r.ValueOrDie().table));
}

TEST(DorisClusterTest, GpuClusterFasterThanCpu) {
  dist::DorisCluster::Options cpu;
  cpu.data_scale = 10000.0;
  dist::DorisCluster cpu_cluster(cpu);
  dist::DorisCluster::Options gpu = cpu;
  gpu.device = sim::A100Gpu();
  gpu.engine = sim::SiriusProfile();
  dist::DorisCluster gpu_cluster(gpu);
  for (const auto& name : tpch::TableNames()) {
    auto t = tpch::GenerateTable(name, 0.005).ValueOrDie();
    SIRIUS_CHECK_OK(cpu_cluster.LoadPartitioned(name, t));
    SIRIUS_CHECK_OK(gpu_cluster.LoadPartitioned(name, t));
  }
  auto c = cpu_cluster.Query(tpch::Query(6)).ValueOrDie();
  auto g = gpu_cluster.Query(tpch::Query(6)).ValueOrDie();
  EXPECT_LT(g.total_seconds, c.total_seconds);
  EXPECT_TRUE(c.table->Equals(*g.table));
}

}  // namespace
}  // namespace sirius
