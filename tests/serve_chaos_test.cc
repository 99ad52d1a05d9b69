// Chaos tests for the serving layer: overload shedding ("serve.admit") and
// mid-query cancellation ("serve.cancel") injected through the deterministic
// fault schedule, under real concurrent load. The contract mirrors the rest
// of the chaos suite: queries either complete with answers, or fail with a
// clean Status — and the admission ledger balances to zero reservations on
// every path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "engine/sirius.h"
#include "fault/fault_injector.h"
#include "serve/load_gen.h"
#include "serve/serve.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using serve::LoadGenerator;
using serve::LoadOptions;
using serve::LoadReport;
using serve::QueryServer;
using serve::ServeOptions;

constexpr double kSf = 0.005;
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

TEST(ServeChaosTest, AdmitSiteShedsDeterministically) {
  FaultInjector injector(0xfeed);
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.every_nth = 3;
  fault::ScopedFault armed(&injector, "serve.admit", spec);

  ServeOptions options;
  options.injector = &injector;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);

  LoadOptions load;
  load.num_clients = 6;
  load.queries_per_client = 3;
  load.query_mix = {1, 6};
  load.bypass_cache = true;
  load.max_retries = 2;
  load.seed = 3;
  LoadGenerator gen(&server, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();

  EXPECT_GT(r.shed, 0u) << "armed admit site never fired";
  EXPECT_GT(r.completed, 0u) << "shedding starved the workload entirely";
  EXPECT_GT(injector.injected("serve.admit"), 0u);
  // Shed submissions hold no resources; completed ones returned theirs.
  EXPECT_EQ(server.reservations().reserved(), 0u);
}

TEST(ServeChaosTest, CancelSiteReleasesEverything) {
  FaultInjector injector(0xbead);
  FaultSpec spec;
  spec.every_nth = 2;  // cancel every other execution
  fault::ScopedFault armed(&injector, "serve.cancel", spec);

  ServeOptions options;
  options.injector = &injector;
  options.result_cache = false;
  options.default_timeout_s = 5.0;  // cancellations land before this
  QueryServer server(SharedDb(), SharedEngine(), options);

  LoadOptions load;
  load.num_clients = 4;
  load.queries_per_client = 3;
  load.query_mix = {1, 6, 12};
  load.bypass_cache = true;
  load.seed = 5;
  LoadGenerator gen(&server, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();

  EXPECT_GT(r.timed_out, 0u) << "armed cancel site never fired";
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.completed + r.timed_out + r.failed,
            static_cast<uint64_t>(load.num_clients * load.queries_per_client));
  EXPECT_EQ(server.reservations().reserved(), 0u);
  // Cancelled queries surfaced as timeouts with the work they did charged.
  for (const auto& out : server.Outcomes()) {
    EXPECT_TRUE(out.terminal());
    if (out.state == serve::QueryState::kTimedOut) {
      EXPECT_TRUE(out.status.IsTimeout()) << out.status.ToString();
    }
  }
}

// Open-loop overload: arrivals outrun the device, the queue fills, load is
// shed with retry hints, and the books still balance.
TEST(ServeChaosTest, OpenLoopOverloadShedsAndRecovers) {
  ServeOptions options;
  options.num_streams = 2;
  options.max_queue_depth = 4;
  options.result_cache = false;
  QueryServer server(SharedDb(), SharedEngine(), options);

  LoadOptions load;
  load.open_loop = true;
  load.num_clients = 8;
  load.arrival_rate_qps = 2000;  // far beyond service capacity
  load.duration_s = 0.05;
  load.query_mix = {1, 6};
  load.bypass_cache = true;
  load.max_retries = 1;
  load.seed = 9;
  LoadGenerator gen(&server, load);
  auto report = gen.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadReport& r = report.ValueOrDie();

  EXPECT_GT(r.shed, 0u) << "overload never shed";
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(server.reservations().reserved(), 0u);
  EXPECT_TRUE(std::isinf(server.NextDispatchTime()));  // queue drained
}

}  // namespace
}  // namespace sirius
