// Tests for the serving layer: admission control sheds with retry hints and
// never leaks reservations; the fair scheduler converges to tenant weights;
// deadlines cancel queries mid-pipeline (engine-side) and in the queue;
// the result cache short-circuits repeated SQL and invalidates on catalog
// writes; latency histograms are deterministic for a fixed seed; and the
// headline acceptance: a 64-client closed loop on one simulated GH200
// sustains >= 1.5x the queries-per-simulated-second of a serialized server.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "engine/sirius.h"
#include "serve/load_gen.h"
#include "serve/query_cache.h"
#include "serve/scheduler.h"
#include "serve/serve.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using serve::LoadGenerator;
using serve::LoadOptions;
using serve::LoadReport;
using serve::QueryOutcome;
using serve::QueryServer;
using serve::QueryState;
using serve::ServeOptions;
using serve::SubmitOptions;

constexpr double kSf = 0.01;
// Model SF1 on SF0.01 data: real kernels stay fast while modeled
// intermediates stay well inside the GH200 processing region even when
// dozens of queries hold admissions concurrently.
constexpr double kDataScale = 1.0 / kSf;

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

engine::SiriusEngine* SharedEngine() {
  static engine::SiriusEngine* eng = [] {
    engine::SiriusEngine::Options options;
    options.data_scale = kDataScale;
    return new engine::SiriusEngine(SharedDb(), options);  // sirius-lint: allow(raw-new-delete): leaked singleton
  }();
  return eng;
}

/// Runs each query in `mix` once so the device column cache is warm and
/// subsequent timings are deterministic.
void WarmEngine(const std::vector<int>& mix) {
  for (int q : mix) {
    auto plan = SharedDb()->PlanSql(tpch::Query(q));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto r = SharedEngine()->ExecutePlan(plan.ValueOrDie());
    ASSERT_TRUE(r.ok()) << "warm Q" << q << ": " << r.status().ToString();
  }
}

TEST(NormalizeSqlTest, CanonicalizesCaseAndWhitespace) {
  EXPECT_EQ(serve::NormalizeSql("SELECT  *\n FROM t"),
            serve::NormalizeSql("select * from t"));
  EXPECT_EQ(serve::NormalizeSql("  select 1  "), "select 1");
}

TEST(NormalizeSqlTest, PreservesStringLiterals) {
  const std::string norm =
      serve::NormalizeSql("SELECT * FROM t WHERE r = 'BRAZIL'");
  EXPECT_NE(norm.find("'BRAZIL'"), std::string::npos);
  EXPECT_NE(serve::NormalizeSql("select 'A'"), serve::NormalizeSql("select 'a'"));
}

TEST(FairSchedulerTest, StrideConvergesToWeights) {
  serve::FairScheduler sched;
  sched.RegisterTenant("gold", 3.0);
  sched.RegisterTenant("bronze", 1.0);
  for (uint64_t i = 0; i < 40; ++i) {
    sched.Enqueue({100 + i, "gold", 0, 0.0});
    sched.Enqueue({200 + i, "bronze", 0, 0.0});
  }
  int gold = 0, bronze = 0;
  serve::QueuedEntry e;
  // Uniform unit-cost queries: dispatch counts should track the 3:1 weights.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(sched.PopNext(0.0, &e));
    (e.tenant == "gold" ? gold : bronze)++;
    sched.Charge(e.tenant, 1.0);
  }
  EXPECT_GE(gold, 28);
  EXPECT_LE(bronze, 12);
  EXPECT_NEAR(sched.charged("gold") / std::max(sched.charged("bronze"), 1.0),
              3.0, 1.0);
}

TEST(FairSchedulerTest, InteractiveLaneDispatchesFirst) {
  serve::FairScheduler sched;
  sched.Enqueue({1, "t", 0, 0.0});
  sched.Enqueue({2, "t", 1, 0.0});
  sched.Enqueue({3, "u", 0, 0.0});
  serve::QueuedEntry e;
  ASSERT_TRUE(sched.PopNext(0.0, &e));
  EXPECT_EQ(e.query_id, 2u);  // priority lane preempts both batch entries
}

TEST(ServeAdmissionTest, RejectsOverBudgetReservation) {
  ServeOptions options;
  options.admission_budget_bytes = 1ull << 20;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  SubmitOptions sub;
  sub.reservation_bytes = 2ull << 20;  // twice the budget
  auto r = server.Submit(session, tpch::Query(6), sub);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GT(r.status().retry_after_s(), 0);
  EXPECT_EQ(server.reservations().reserved(), 0u);
  EXPECT_EQ(server.reservations().total_refused(), 1u);
  EXPECT_EQ(server.metrics().Snapshot().at("serve.tenant.acme.shed"), 1u);
}

TEST(ServeAdmissionTest, ShedsWhenQueueIsFull) {
  WarmEngine({6});
  ServeOptions options;
  options.num_streams = 1;  // force queueing behind the first dispatch
  options.max_queue_depth = 2;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  SubmitOptions sub;
  sub.arrival_s = 0;
  int admitted = 0, shed = 0;
  std::vector<serve::QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    auto r = server.Submit(session, tpch::Query(6), sub);
    if (r.ok()) {
      ++admitted;
      ids.push_back(r.ValueOrDie());
    } else {
      ASSERT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      ++shed;
    }
  }
  // One dispatches immediately, two queue, the rest shed.
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(shed, 2);
  ASSERT_TRUE(server.DrainAll().ok());
  for (auto id : ids) {
    auto out = server.Resolve(id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
  }
  EXPECT_EQ(server.reservations().reserved(), 0u);
}

TEST(ServeTimeoutTest, DeadlineCancelsMidPipelineAndReleasesReservation) {
  WarmEngine({9});
  const uint64_t cancels_before = SharedEngine()->stats().deadline_cancels;
  ServeOptions options;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  SubmitOptions sub;
  sub.arrival_s = 0;
  sub.timeout_s = 20e-6;  // far below Q9's modeled runtime
  auto r = server.Submit(session, tpch::Query(9), sub);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = server.Resolve(r.ValueOrDie());
  ASSERT_TRUE(out.ok());
  const QueryOutcome& o = out.ValueOrDie();
  EXPECT_EQ(o.state, QueryState::kTimedOut);
  EXPECT_TRUE(o.status.IsTimeout()) << o.status.ToString();
  // Finish is pinned to the simulated deadline, not to any wall clock.
  EXPECT_DOUBLE_EQ(o.finish_s, o.arrival_s + sub.timeout_s);
  // The engine observed the deadline between pipeline steps.
  EXPECT_GT(SharedEngine()->stats().deadline_cancels, cancels_before);
  // The admission reservation was returned on the cancellation path.
  EXPECT_EQ(server.reservations().reserved(), 0u);
}

TEST(ServeTimeoutTest, QueueWaitCountsAgainstDeadline) {
  WarmEngine({1, 6});
  ServeOptions options;
  options.num_streams = 1;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  // A long query occupies the only stream...
  SubmitOptions first;
  first.arrival_s = 0;
  auto a = server.Submit(session, tpch::Query(1), first);
  ASSERT_TRUE(a.ok());
  // ...so a tight-deadline query behind it expires while still queued.
  SubmitOptions second;
  second.arrival_s = 0;
  second.timeout_s = 1e-6;
  auto b = server.Submit(session, tpch::Query(6), second);
  ASSERT_TRUE(b.ok());

  auto out_b = server.Resolve(b.ValueOrDie());
  ASSERT_TRUE(out_b.ok());
  EXPECT_EQ(out_b.ValueOrDie().state, QueryState::kTimedOut);
  EXPECT_EQ(out_b.ValueOrDie().stream, -1);  // never reached the device
  auto out_a = server.Resolve(a.ValueOrDie());
  ASSERT_TRUE(out_a.ok());
  EXPECT_EQ(out_a.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_EQ(server.reservations().reserved(), 0u);
}

TEST(ServeCacheTest, ResultCacheHitSkipsExecution) {
  WarmEngine({1});
  ServeOptions options;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  auto first = server.Submit(session, tpch::Query(1));
  ASSERT_TRUE(first.ok());
  auto out1 = server.Resolve(first.ValueOrDie());
  ASSERT_TRUE(out1.ok());
  ASSERT_EQ(out1.ValueOrDie().state, QueryState::kCompleted);
  EXPECT_FALSE(out1.ValueOrDie().cache_hit);

  const uint64_t queries_before = SharedEngine()->stats().queries;
  // Different whitespace/case, same normalized key.
  std::string variant = tpch::Query(1);
  std::replace(variant.begin(), variant.end(), '\n', ' ');
  variant = "  " + variant + "   ";
  auto second = server.Submit(session, variant);
  ASSERT_TRUE(second.ok());
  auto out2 = server.Resolve(second.ValueOrDie());
  ASSERT_TRUE(out2.ok());
  const QueryOutcome& o2 = out2.ValueOrDie();
  EXPECT_EQ(o2.state, QueryState::kCompleted);
  EXPECT_TRUE(o2.cache_hit);
  EXPECT_EQ(o2.result_rows, out1.ValueOrDie().result_rows);
  EXPECT_DOUBLE_EQ(o2.latency_s(), server.options().cache_hit_cost_s);
  // No execution reached the engine.
  EXPECT_EQ(SharedEngine()->stats().queries, queries_before);
  EXPECT_GE(server.cache_stats().result_hits, 1u);
}

TEST(ServeCacheTest, CatalogWriteInvalidatesCachedResults) {
  WarmEngine({6});
  ServeOptions options;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  auto first = server.Submit(session, tpch::Query(6));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(server.Resolve(first.ValueOrDie()).ok());

  // Any catalog write may change any cached answer.
  auto extra = format::Table::Make(
      format::Schema({{"x", format::Int64()}}),
      {format::Column::FromInt64({1, 2, 3})});
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(
      SharedDb()->CreateTable("serve_cache_epoch", extra.ValueOrDie()).ok());

  auto second = server.Submit(session, tpch::Query(6));
  ASSERT_TRUE(second.ok());
  auto out = server.Resolve(second.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.ValueOrDie().cache_hit);
  EXPECT_GE(server.cache_stats().invalidations, 1u);
}

TEST(ServeFairnessTest, DeviceTimeConvergesToTenantWeights) {
  WarmEngine({6});
  ServeOptions options;
  options.num_streams = 2;
  options.solo_utilization = 1.0;  // saturated device: fairness governs
  options.result_cache = false;
  options.max_queue_depth = 256;
  QueryServer server(SharedDb(), SharedEngine(), options);
  server.RegisterTenant("gold", 3.0);
  server.RegisterTenant("bronze", 1.0);

  LoadOptions load;
  load.num_clients = 8;
  load.queries_per_client = 6;
  load.query_mix = {6};  // uniform cost isolates the arbitration
  load.tenants = {"gold", "bronze"};
  load.bypass_cache = true;
  load.seed = 11;
  LoadGenerator gen(&server, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();
  ASSERT_EQ(r.completed, 48u);

  // Both tenants submit identical total work, so lifetime device seconds
  // are equal by construction; fairness is *when* the work runs. While both
  // backlogs compete, gold should receive ~3x the dispatch slots: in the
  // first half of the completion timeline gold dominates ~3:1, and gold
  // drains its backlog well before bronze drains its own.
  std::vector<QueryOutcome> done;
  for (const auto& out : server.Outcomes()) {
    if (out.state == QueryState::kCompleted) done.push_back(out);
  }
  std::sort(done.begin(), done.end(),
            [](const QueryOutcome& a, const QueryOutcome& b) {
              return a.finish_s < b.finish_s;
            });
  int gold_early = 0, bronze_early = 0;
  for (size_t i = 0; i < done.size() / 2; ++i) {
    (done[i].tenant == "gold" ? gold_early : bronze_early)++;
  }
  EXPECT_GE(gold_early, 2 * std::max(bronze_early, 1))
      << "first-half completions: gold " << gold_early << ", bronze "
      << bronze_early;
  double gold_last = 0, bronze_last = 0;
  for (const auto& out : done) {
    (out.tenant == "gold" ? gold_last : bronze_last) = out.finish_s;
  }
  EXPECT_LT(gold_last, 0.85 * bronze_last)
      << "gold backlog should drain well before bronze";
  EXPECT_EQ(server.reservations().reserved(), 0u);
}

TEST(ServeDeterminismTest, FixedSeedGivesIdenticalHistograms) {
  const std::vector<int> mix = {1, 3, 6, 12};
  WarmEngine(mix);
  auto run_once = [&]() -> LoadReport {
    ServeOptions options;
    options.result_cache = false;
    QueryServer server(SharedDb(), SharedEngine(), options);
    LoadOptions load;
    load.num_clients = 8;
    load.queries_per_client = 3;
    load.query_mix = mix;
    load.bypass_cache = true;
    load.seed = 7;
    LoadGenerator gen(&server, load);
    auto report = gen.Run();
    SIRIUS_CHECK(report.ok());
    return report.ValueOrDie();
  };
  LoadReport first = run_once();
  LoadReport second = run_once();
  ASSERT_EQ(first.latencies_ms.size(), second.latencies_ms.size());
  for (size_t i = 0; i < first.latencies_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.latencies_ms[i], second.latencies_ms[i]) << i;
  }
  EXPECT_DOUBLE_EQ(first.p99_ms, second.p99_ms);
  EXPECT_DOUBLE_EQ(first.qps, second.qps);
}

// The ISSUE acceptance: 64 closed-loop clients on one simulated GH200, a
// TPC-H mix, zero dropped reservations, p99 from simulated time, and >= 1.5x
// the queries-per-simulated-second of a serialized (one stream, no overlap)
// server.
TEST(ServeAcceptanceTest, ConcurrentBeatsSerializedByHalfAgain) {
  const std::vector<int> mix = {1, 3, 5, 6, 10, 12, 14, 19};
  WarmEngine(mix);

  auto run_mode = [&](int num_streams, double solo_utilization) -> LoadReport {
    ServeOptions options;
    options.num_streams = num_streams;
    options.solo_utilization = solo_utilization;
    options.result_cache = false;
    options.max_queue_depth = 256;
    QueryServer server(SharedDb(), SharedEngine(), options);
    LoadOptions load;
    load.num_clients = 64;
    load.queries_per_client = 2;
    load.query_mix = mix;
    load.bypass_cache = true;
    load.seed = 42;
    LoadGenerator gen(&server, load);
    auto report = gen.Run();
    SIRIUS_CHECK(report.ok());
    // Zero dropped reservations: every admission was granted and returned.
    SIRIUS_CHECK(server.reservations().reserved() == 0);
    SIRIUS_CHECK(server.reservations().total_refused() == 0);
    return report.ValueOrDie();
  };

  LoadReport serialized = run_mode(1, 1.0);
  LoadReport concurrent = run_mode(8, 0.45);

  EXPECT_EQ(serialized.completed, 128u);
  EXPECT_EQ(concurrent.completed, 128u);
  EXPECT_EQ(concurrent.shed, 0u);
  EXPECT_EQ(concurrent.failed, 0u);
  EXPECT_EQ(concurrent.timed_out, 0u);
  EXPECT_GT(concurrent.p99_ms, 0.0);
  EXPECT_GE(concurrent.p99_ms, concurrent.p50_ms);
  ASSERT_GT(serialized.qps, 0.0);
  const double speedup = concurrent.qps / serialized.qps;
  EXPECT_GE(speedup, 1.5) << "concurrent " << concurrent.qps
                          << " q/s vs serialized " << serialized.qps << " q/s";
}

}  // namespace
}  // namespace sirius
