// Tests for multi-GPU placement in the serving layer: the PlacementPolicy
// and DeviceGroup units; per-device admission (sheds name the device and
// carry its retry hint); warm-device affinity with spill-under-imbalance
// charging fabric migration; the "serve.place" chaos site (forced
// mis-placement and device loss with requeue onto survivors); and
// determinism — two seeded runs produce identical per-device dispatch
// orders. The admission ledger balances to zero on every path, across every
// device pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "serve/load_gen.h"
#include "serve/scheduler.h"
#include "serve/serve.h"
#include "sim/device_group.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using serve::LoadGenerator;
using serve::LoadOptions;
using serve::LoadReport;
using serve::PlacementPolicy;
using serve::QueryOutcome;
using serve::QueryServer;
using serve::QueryState;
using serve::ServeOptions;
using serve::SubmitOptions;

constexpr double kSf = 0.005;
constexpr double kDataScale = 1.0 / kSf;
constexpr double kInf = std::numeric_limits<double>::infinity();

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

// ---------------------------------------------------------------------------
// PlacementPolicy units
// ---------------------------------------------------------------------------

TEST(PlacementPolicyTest, ColdPlacementPicksLeastLoaded) {
  PlacementPolicy policy;
  auto d = policy.Place("t", /*inputs_resident=*/false, {3.0, 1.0, 2.0},
                        {true, true, true});
  EXPECT_EQ(d.device, 1);
  EXPECT_FALSE(d.warm);
  EXPECT_STREQ(d.reason, "cold");
  // Ties break to the lowest index so decisions replay deterministically.
  d = policy.Place("t", false, {1.0, 1.0, 1.0}, {true, true, true});
  EXPECT_EQ(d.device, 0);
}

TEST(PlacementPolicyTest, WarmAffinityHoldsUntilImbalance) {
  PlacementPolicy policy(PlacementPolicy::Options{2.0, 1e-3});
  policy.RecordPlacement("t", 1);
  // Warm backlog within 2x of the least-loaded: stay warm.
  auto d = policy.Place("t", true, {1.0, 1.9, 5.0}, {true, true, true});
  EXPECT_EQ(d.device, 1);
  EXPECT_TRUE(d.warm);
  EXPECT_STREQ(d.reason, "warm");
  // Warm backlog beyond 2x: spill to the least-loaded device.
  d = policy.Place("t", true, {1.0, 2.5, 5.0}, {true, true, true});
  EXPECT_EQ(d.device, 0);
  EXPECT_FALSE(d.warm);
  EXPECT_STREQ(d.reason, "spill");
  // Inputs not resident: nothing to be warm about, balance wins.
  d = policy.Place("t", false, {1.0, 1.1, 5.0}, {true, true, true});
  EXPECT_EQ(d.device, 0);
  EXPECT_STREQ(d.reason, "cold");
}

TEST(PlacementPolicyTest, DeviceLossForgetsWarmTenants) {
  PlacementPolicy policy;
  policy.RecordPlacement("a", 0);
  policy.RecordPlacement("b", 1);
  policy.ForgetDevice(0);
  EXPECT_EQ(policy.warm_device("a"), -1);
  EXPECT_EQ(policy.warm_device("b"), 1);
  // A dead warm device is also ignored at placement time.
  policy.RecordPlacement("c", 2);
  auto d = policy.Place("c", true, {1.0, 1.0, kInf}, {true, true, false});
  EXPECT_EQ(d.device, 0);
  EXPECT_STREQ(d.reason, "cold");
  // Nothing alive: no decision.
  d = policy.Place("c", true, {kInf, kInf, kInf}, {false, false, false});
  EXPECT_EQ(d.device, -1);
}

// ---------------------------------------------------------------------------
// DeviceGroup units
// ---------------------------------------------------------------------------

TEST(DeviceGroupTest, LostDeviceStopsAcceptingPlacements) {
  sim::DeviceGroup group(
      sim::DeviceGroup::Options{4, sim::StreamSet::Options{2, 0.45}});
  EXPECT_EQ(group.num_devices(), 4);
  EXPECT_EQ(group.alive_devices(), 4);
  EXPECT_TRUE(std::isfinite(group.EarliestStart(2, 0.0)));
  group.MarkLost(2);
  EXPECT_TRUE(group.lost(2));
  EXPECT_EQ(group.alive_devices(), 3);
  EXPECT_EQ(group.EarliestStart(2, 0.0), kInf);
  EXPECT_EQ(group.BusyAt(2, 0.0), 0);
  group.MarkLost(2);  // idempotent
  EXPECT_EQ(group.alive_devices(), 3);
}

TEST(DeviceGroupTest, FabricPricesMigration) {
  sim::DeviceGroup group(
      sim::DeviceGroup::Options{2, sim::StreamSet::Options{2, 0.45}});
  const double t = group.MigrateSeconds(256ull << 20);
  EXPECT_GT(t, 0.0);
  // More bytes take longer over the same link.
  EXPECT_GT(group.MigrateSeconds(1ull << 30), t);
}

// ---------------------------------------------------------------------------
// Per-device admission
// ---------------------------------------------------------------------------

TEST(ServePlacementTest, ShedNamesDeviceAndCarriesItsRetryHint) {
  ServeOptions options;
  options.num_devices = 2;
  options.admission_budget_bytes = 64ull << 20;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  SubmitOptions sub;
  sub.arrival_s = 0;
  sub.bypass_cache = true;
  sub.reservation_bytes = 128ull << 20;  // over any single device's budget
  auto r = server.Submit(session, tpch::Query(1), sub);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("device "), std::string::npos)
      << "shed message must name the device: " << r.status().message();
  EXPECT_GT(r.status().retry_after_s(), 0.0);
  EXPECT_GT(server.total_refused(), 0u);
  EXPECT_EQ(server.total_reserved_bytes(), 0u);
}

TEST(ServePlacementTest, EachDeviceOwnsItsAdmissionPool) {
  ServeOptions options;
  options.num_devices = 3;
  options.admission_budget_bytes = 256ull << 20;
  QueryServer server(SharedDb(), SharedEngine(), options);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(server.reservations(d).capacity(), 256ull << 20);
    EXPECT_EQ(server.reservations(d).reserved(), 0u);
  }
  EXPECT_EQ(server.num_devices(), 3);
}

// ---------------------------------------------------------------------------
// Warm affinity and spill in the server
// ---------------------------------------------------------------------------

TEST(ServePlacementTest, RepeatedTenantStaysOnWarmDevice) {
  ServeOptions options;
  options.num_devices = 4;
  options.result_cache = false;  // repeats must execute, not short-circuit
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  SubmitOptions sub;
  std::vector<int> devices;
  for (int i = 0; i < 4; ++i) {
    sub.arrival_s = server.now_s();
    auto id = server.Submit(session, tpch::Query(1), sub);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto out = server.Resolve(id.ValueOrDie());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out.ValueOrDie().state, QueryState::kCompleted);
    devices.push_back(out.ValueOrDie().device);
    if (i > 0) {
      EXPECT_TRUE(out.ValueOrDie().warm_placed)
          << "repeat " << i << " left the warm device";
    }
  }
  // The statement's plan-cache stamp marks its inputs warm after the first
  // run; with idle peers everywhere, affinity must hold.
  for (int d : devices) EXPECT_EQ(d, devices[0]);
  EXPECT_GE(server.metrics().Snapshot().at("serve.placed_warm"), 3u);
}

TEST(ServePlacementTest, ImbalanceSpillsAndChargesMigration) {
  ServeOptions options;
  options.num_devices = 2;
  options.num_streams = 1;  // one query saturates a device
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto session = server.OpenSession("acme");

  // The first submit lands cold and occupies its device's only stream (the
  // stream stays busy in simulated time even though the real execution has
  // joined). The repeat at the same arrival finds its warm device saturated
  // and an idle peer: it spills and pays the fabric transfer of its
  // resident working set.
  SubmitOptions sub;
  sub.arrival_s = 0;
  auto first = server.Submit(session, tpch::Query(1), sub);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  sub.arrival_s = 0;
  auto spilled = server.Submit(session, tpch::Query(1), sub);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();

  ASSERT_TRUE(server.DrainAll().ok());
  auto warm_out = server.Peek(first.ValueOrDie());
  ASSERT_TRUE(warm_out.ok());
  const int warm_dev = warm_out.ValueOrDie().device;
  auto out = server.Peek(spilled.ValueOrDie());
  ASSERT_TRUE(out.ok());
  const QueryOutcome& o = out.ValueOrDie();
  EXPECT_EQ(o.state, QueryState::kCompleted);
  EXPECT_NE(o.device, warm_dev) << "imbalance never spilled";
  EXPECT_FALSE(o.warm_placed);
  EXPECT_GT(o.migrate_s, 0.0) << "spill away from warm inputs must migrate";
  EXPECT_GE(server.metrics().Snapshot().at("serve.placed_spill"), 1u);
  EXPECT_EQ(server.total_reserved_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// The "serve.place" chaos site
// ---------------------------------------------------------------------------

TEST(ServePlacementChaosTest, MisplacementStillCompletesEverything) {
  FaultInjector injector(0xabcd);
  FaultSpec spec;
  spec.code = StatusCode::kInternal;  // non-Unavailable: forced mis-placement
  spec.every_nth = 2;
  fault::ScopedFault armed(&injector, "serve.place", spec);

  ServeOptions options;
  options.num_devices = 4;
  options.injector = &injector;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);

  LoadOptions load;
  load.num_clients = 8;
  load.queries_per_client = 2;
  load.query_mix = {1, 6};
  load.bypass_cache = true;
  load.seed = 11;
  LoadGenerator gen(&server, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();

  EXPECT_GT(injector.injected("serve.place"), 0u);
  EXPECT_GE(server.metrics().Snapshot().at("serve.placed_forced"), 1u);
  EXPECT_EQ(r.completed,
            static_cast<uint64_t>(load.num_clients * load.queries_per_client));
  EXPECT_EQ(server.total_reserved_bytes(), 0u);
  for (int d = 0; d < 4; ++d) EXPECT_FALSE(server.device_lost(d));
}

TEST(ServePlacementChaosTest, DeviceLossRequeuesQueuedWorkOntoSurvivors) {
  FaultInjector injector(0xdead);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;  // device loss
  spec.skip_first = 4;                   // let both devices build a queue
  spec.every_nth = 1;
  spec.max_triggers = 1;
  fault::ScopedFault armed(&injector, "serve.place", spec);

  ServeOptions options;
  options.num_devices = 2;
  options.num_streams = 1;
  options.injector = &injector;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto a = server.OpenSession("alpha");
  auto b = server.OpenSession("beta");

  // Two tenants, all arrivals at t=0: each tenant's first query saturates a
  // device (alpha cold -> dev X; beta cold -> the other), and each tenant's
  // second query queues warm behind it. The fifth submit (alpha again, warm)
  // trips the loss on alpha's device; its queued query re-enters admission
  // on the survivor.
  SubmitOptions sub;
  sub.arrival_s = 0;
  sub.bypass_cache = true;
  std::vector<serve::QueryId> ids;
  for (auto [session, tag] : {std::pair{a, "a1"}, {b, "b1"}, {a, "a2"}, {b, "b2"}}) {
    auto id = server.Submit(session, tpch::Query(6), sub);
    ASSERT_TRUE(id.ok()) << tag << ": " << id.status().ToString();
    ids.push_back(id.ValueOrDie());
  }
  auto trigger = server.Submit(a, tpch::Query(6), sub);
  ASSERT_TRUE(trigger.ok()) << trigger.status().ToString();
  ids.push_back(trigger.ValueOrDie());
  ASSERT_EQ(injector.injected("serve.place"), 1u);
  ASSERT_TRUE(server.DrainAll().ok());

  int lost = -1;
  for (int d = 0; d < 2; ++d) {
    if (server.device_lost(d)) lost = d;
  }
  ASSERT_NE(lost, -1) << "armed loss site never killed a device";
  const int survivor = 1 - lost;
  const auto counters = server.metrics().Snapshot();
  EXPECT_EQ(counters.at("serve.device_lost"), 1u);
  EXPECT_GE(counters.at("serve.requeued"), 1u);

  uint64_t on_survivor = 0;
  for (auto id : ids) {
    auto out = server.Peek(id);
    ASSERT_TRUE(out.ok());
    const QueryOutcome& o = out.ValueOrDie();
    EXPECT_TRUE(o.terminal());
    EXPECT_EQ(o.state, QueryState::kCompleted) << o.status.ToString();
    if (o.device == survivor) ++on_survivor;
  }
  // The survivor ran its own two, the requeued one, and the trigger.
  EXPECT_GE(on_survivor, 3u);
  EXPECT_EQ(server.total_reserved_bytes(), 0u);
}

TEST(ServePlacementChaosTest, RequeueShedsWhenSurvivorPoolIsFull) {
  FaultInjector injector(0xbeef);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.skip_first = 4;
  spec.every_nth = 1;
  spec.max_triggers = 1;
  fault::ScopedFault armed(&injector, "serve.place", spec);

  ServeOptions options;
  options.num_devices = 2;
  options.num_streams = 1;
  // Each device's pool holds exactly one queued admission: the survivor
  // cannot absorb the lost device's queued query on top of its own.
  options.admission_budget_bytes = 300ull << 20;
  options.default_reservation_bytes = 256ull << 20;
  options.injector = &injector;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);
  auto a = server.OpenSession("alpha");
  auto b = server.OpenSession("beta");

  // Same choreography as the requeue test, but each device's pool holds
  // exactly one queued admission: when alpha's device dies, the survivor
  // cannot absorb the orphan on top of its own queued query, so the
  // *admitted* orphan is terminally shed.
  SubmitOptions sub;
  sub.arrival_s = 0;
  sub.bypass_cache = true;
  std::vector<serve::QueryId> ids;
  for (auto [session, tag] : {std::pair{a, "a1"}, {b, "b1"}, {a, "a2"}, {b, "b2"}}) {
    auto id = server.Submit(session, tpch::Query(6), sub);
    ASSERT_TRUE(id.ok()) << tag << ": " << id.status().ToString();
    ids.push_back(id.ValueOrDie());
  }
  // The trigger itself may also be refused by the survivor's full pool —
  // that is an ordinary admission shed, not the path under test.
  auto trigger = server.Submit(a, tpch::Query(6), sub);
  if (!trigger.ok()) {
    EXPECT_TRUE(trigger.status().IsResourceExhausted())
        << trigger.status().ToString();
  }
  ASSERT_EQ(injector.injected("serve.place"), 1u);
  ASSERT_TRUE(server.DrainAll().ok());

  const auto counters = server.metrics().Snapshot();
  EXPECT_GE(counters.at("serve.requeue_shed"), 1u);
  bool saw_terminal_shed = false;
  for (auto id : ids) {
    auto out = server.Peek(id);
    ASSERT_TRUE(out.ok());
    const QueryOutcome& o = out.ValueOrDie();
    EXPECT_TRUE(o.terminal());
    if (o.state == QueryState::kShed) {
      saw_terminal_shed = true;
      EXPECT_TRUE(o.status.IsResourceExhausted()) << o.status.ToString();
      EXPECT_GT(o.status.retry_after_s(), 0.0);
    }
  }
  EXPECT_TRUE(saw_terminal_shed);
  EXPECT_EQ(server.total_reserved_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(ServePlacementTest, FixedSeedGivesIdenticalPerDeviceDispatchOrders) {
  // Warm the engine's column cache first so both runs model against the
  // same residency state (a cold first run would load columns the second
  // run finds cached, shifting modeled durations).
  for (int q : {1, 6, 12}) {
    auto plan = SharedDb()->PlanSql(tpch::Query(q));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto r = SharedEngine()->ExecutePlan(plan.ValueOrDie());
    ASSERT_TRUE(r.ok()) << "warm Q" << q << ": " << r.status().ToString();
  }
  auto run = [] {
    ServeOptions options;
    options.num_devices = 4;
    options.result_cache = false;
    QueryServer server(SharedDb(), SharedEngine(), options);
    LoadOptions load;
    load.num_clients = 16;
    load.queries_per_client = 2;
    load.tenants = {"a", "b", "c", "d"};
    load.query_mix = {1, 6, 12};
    load.bypass_cache = true;
    load.seed = 1234;
    LoadGenerator gen(&server, load);
    auto report = gen.Run();
    SIRIUS_CHECK_OK(report.status());
    // (id, device, stream, dispatch, finish) per query: any placement or
    // arbitration divergence shows up here.
    std::vector<std::tuple<uint64_t, int, int, double, double>> order;
    for (const auto& out : server.Outcomes()) {
      order.emplace_back(out.id, out.device, out.stream, out.dispatch_s,
                         out.finish_s);
    }
    std::sort(order.begin(), order.end());
    return order;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "divergence at outcome " << i;
  }
}

}  // namespace
}  // namespace sirius
