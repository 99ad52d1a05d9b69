// Out-of-core spill sweep: tiered memory under working sets past HBM.
//
// Two phases, both asserted (SIRIUS_CHECK) so the bench doubles as an
// acceptance harness and the committed BENCH_spill_sweep.json locks the
// numbers via scripts/bench_gate.py:
//
//  1. Capacity sweep — modeled SF grows past the GH200 caching region; the
//     out-of-core engine must keep answering on the GPU path (no CPU
//     fallback, no abort) with simulated time degrading monotonically as
//     overflow first fits pinned host staging and then bounces through
//     simulated NVMe. Tier occupancy must drain to zero after every run.
//
//  2. Spill governance — the same over-capacity plan served to one
//     unlimited tenant vs four tenants of which one carries a tiny spill
//     quota. The bounded tenant is shed mid-run with ResourceExhausted and
//     a retry-after hint; everyone else completes, and no quota bytes leak.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/serve.h"

using namespace sirius;

namespace {

struct SweepPoint {
  double modeled_sf = 0;
  double sim_ms = 0;
  int64_t spill_events = 0;
  int64_t spill_host = 0;
  int64_t spill_nvme = 0;
  int64_t host_spilled_bytes = 0;
  int64_t nvme_spilled_bytes = 0;
};

// Pinned host staging stays at the GH200 default (64 GiB); the NVMe tier is
// provisioned like a datacenter scratch array so the sweep's largest
// extents stay placeable and the bench measures degradation, not the
// capacity diagnostic (tests/tier_test.cc covers the bounded-tier error).
constexpr uint64_t kNvmeCapacity = 8ull << 40;

engine::SiriusEngine::Options EngineOptions(double ds) {
  engine::SiriusEngine::Options opts;
  opts.device = sim::Gh200Gpu();
  opts.profile = sim::SiriusProfile();
  opts.data_scale = ds;
  opts.out_of_core = true;
  opts.tier.nvme_capacity_bytes = kNvmeCapacity;
  return opts;
}

SweepPoint RunSweepPoint(double modeled_sf) {
  const double ds = modeled_sf / bench::LoadedSf();
  auto db = bench::MakeTpchDb(sim::Gh200Gpu(), sim::DuckDbProfile(), ds);
  engine::SiriusEngine engine(db.get(), EngineOptions(ds));

  db->SetAccelerator(&engine);
  (void)db->Query(tpch::Query(18));  // hot-run methodology (§4.1)
  auto r = db->Query(tpch::Query(18));
  db->SetAccelerator(nullptr);

  // Monotone no-abort degradation: every point answers on the GPU path.
  SIRIUS_CHECK_OK(r.status());
  SIRIUS_CHECK(!r.ValueOrDie().fell_back);

  const auto stats = engine.stats();
  const auto host = engine.tiers().stats(mem::Tier::kHost);
  const auto nvme = engine.tiers().stats(mem::Tier::kNvme);
  // Per-tier counters partition the aggregate, and every staged extent was
  // read back and released — nothing parks on a tier across queries.
  SIRIUS_CHECK(stats.spill_events == stats.spill_host + stats.spill_nvme);
  SIRIUS_CHECK(host.used_bytes == 0 && nvme.used_bytes == 0);
  SIRIUS_CHECK(mem::PinnedHostInUse() == 0);

  SweepPoint p;
  p.modeled_sf = modeled_sf;
  p.sim_ms = r.ValueOrDie().timeline.total_seconds() * 1e3;
  p.spill_events = static_cast<int64_t>(stats.spill_events);
  p.spill_host = static_cast<int64_t>(stats.spill_host);
  p.spill_nvme = static_cast<int64_t>(stats.spill_nvme);
  p.host_spilled_bytes = static_cast<int64_t>(host.spilled_bytes);
  p.nvme_spilled_bytes = static_cast<int64_t>(nvme.spilled_bytes);
  return p;
}

struct TenantTally {
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t retry_hinted = 0;  ///< shed outcomes carrying retry-after > 0
};

}  // namespace

int main() {
  std::printf("=== Spill sweep: tiered out-of-core past device memory "
              "(Q18, GH200 92 GiB) ===\n");
  std::printf("(loaded SF %.3g; modeled SF sweeps past the caching region; "
              "times are simulated)\n\n",
              bench::LoadedSf());
  bench::BenchJson json("spill_sweep");

  // --- Phase 1: capacity sweep ------------------------------------------
  const mem::TierManager::Options tier_defaults;
  json.Set("host_tier_gib", static_cast<int64_t>(
                                tier_defaults.host_capacity_bytes >> 30));
  json.Set("nvme_tier_gib", static_cast<int64_t>(kNvmeCapacity >> 30));

  std::printf("%-12s %12s %8s %10s %10s %14s %14s\n", "modeled SF", "Q18 (ms)",
              "spills", "-> host", "-> nvme", "host GiB", "nvme GiB");
  double prev_ms = 0;
  SweepPoint last;
  for (double modeled_sf : {50.0, 200.0, 800.0, 3200.0}) {
    const SweepPoint p = RunSweepPoint(modeled_sf);
    std::printf("%-12.0f %12.1f %8lld %10lld %10lld %14.2f %14.2f\n",
                p.modeled_sf, p.sim_ms, static_cast<long long>(p.spill_events),
                static_cast<long long>(p.spill_host),
                static_cast<long long>(p.spill_nvme),
                static_cast<double>(p.host_spilled_bytes) / (1ull << 30),
                static_cast<double>(p.nvme_spilled_bytes) / (1ull << 30));
    SIRIUS_CHECK(p.sim_ms >= prev_ms);  // degradation is monotone
    prev_ms = p.sim_ms;
    last = p;
    json.AddRow({{"phase", std::string("sweep")},
                 {"modeled_sf", p.modeled_sf},
                 {"q18_ms", p.sim_ms},
                 {"spill_events", p.spill_events},
                 {"spill_host", p.spill_host},
                 {"spill_nvme", p.spill_nvme},
                 {"host_spilled_bytes", p.host_spilled_bytes},
                 {"nvme_spilled_bytes", p.nvme_spilled_bytes}});
  }
  // The sweep must actually leave the in-memory regime.
  SIRIUS_CHECK(last.spill_events > 0);

  // --- Phase 2: one tenant vs four, one quota-bounded -------------------
  // An over-capacity point where every admitted query spills, with headroom
  // for several tenants staging concurrently.
  const double governed_sf = 800.0;
  const double ds = governed_sf / bench::LoadedSf();
  constexpr uint64_t kTinyQuota = 1 << 10;  // 1 KiB: refuses the first extent
  std::printf("\n--- governance at modeled SF %.0f (quota-bounded tenant: "
              "%llu-byte spill quota) ---\n",
              governed_sf, static_cast<unsigned long long>(kTinyQuota));
  json.Set("governed_sf", governed_sf);
  json.Set("bounded_quota_bytes", static_cast<int64_t>(kTinyQuota));

  struct Config {
    const char* name;
    std::vector<std::string> tenants;
    std::string bounded;  ///< tenant carrying kTinyQuota; "" = none
    int queries_per_tenant;
  };
  const Config configs[] = {
      {"solo", {"alone"}, "", 8},
      {"governed", {"t0", "t1", "t2", "bounded"}, "bounded", 2},
  };

  for (const Config& cfg : configs) {
    auto db = bench::MakeTpchDb(sim::Gh200Gpu(), sim::DuckDbProfile(), ds);
    engine::SiriusEngine engine(db.get(), EngineOptions(ds));

    serve::ServeOptions serve_opts;
    serve_opts.result_cache = false;
    serve::QueryServer server(db.get(), &engine, serve_opts);
    if (!cfg.bounded.empty()) {
      server.SetTenantSpillQuota(cfg.bounded, kTinyQuota);
    }

    std::vector<std::pair<std::string, serve::QueryId>> submitted;
    for (const std::string& tenant : cfg.tenants) {
      const serve::SessionId session = server.OpenSession(tenant);
      for (int i = 0; i < cfg.queries_per_tenant; ++i) {
        auto id = server.Submit(session, tpch::Query(18));
        SIRIUS_CHECK_OK(id.status());
        submitted.emplace_back(tenant, id.ValueOrDie());
      }
    }

    std::map<std::string, TenantTally> tallies;
    double makespan_s = 0;
    for (const auto& [tenant, id] : submitted) {
      auto outcome = server.Resolve(id);
      SIRIUS_CHECK_OK(outcome.status());
      const serve::QueryOutcome& out = outcome.ValueOrDie();
      TenantTally& tally = tallies[tenant];
      if (out.state == serve::QueryState::kCompleted) {
        ++tally.completed;
      } else {
        // The only non-completion this bench tolerates is a governed shed.
        SIRIUS_CHECK(out.state == serve::QueryState::kShed);
        SIRIUS_CHECK(out.status.IsResourceExhausted());
        ++tally.shed;
        if (out.status.retry_after_s() > 0) ++tally.retry_hinted;
      }
      if (out.finish_s > makespan_s) makespan_s = out.finish_s;
    }

    for (const std::string& tenant : cfg.tenants) {
      const TenantTally& tally = tallies[tenant];
      if (tenant == cfg.bounded) {
        // Governance: the bounded tenant is shed — diagnosably, with a
        // retry hint — instead of exhausting the host for everyone.
        SIRIUS_CHECK(tally.shed == cfg.queries_per_tenant);
        SIRIUS_CHECK(tally.retry_hinted == tally.shed);
      } else {
        SIRIUS_CHECK(tally.completed == cfg.queries_per_tenant);
      }
      // No spill-quota bytes may outlive the queries that took them.
      SIRIUS_CHECK(server.spill_quota(tenant).reserved() == 0);
      std::printf("%-10s %-8s completed %2lld  shed %2lld  retry-hinted "
                  "%2lld\n",
                  cfg.name, tenant.c_str(),
                  static_cast<long long>(tally.completed),
                  static_cast<long long>(tally.shed),
                  static_cast<long long>(tally.retry_hinted));
      json.AddRow({{"phase", std::string("governance")},
                   {"config", std::string(cfg.name)},
                   {"tenant", tenant},
                   {"bounded", std::string(tenant == cfg.bounded ? "yes"
                                                                 : "no")},
                   {"completed", tally.completed},
                   {"shed", tally.shed},
                   {"retry_hinted", tally.retry_hinted}});
    }
    json.Set(std::string(cfg.name) + "_makespan_sim_s", makespan_s);
    std::printf("%-10s makespan %.3f sim-s\n", cfg.name, makespan_s);
  }

  std::printf(
      "\nShape check: past the caching region the engine degrades through "
      "host then NVMe staging instead of aborting or falling back, and a "
      "quota-bounded tenant is shed with a retry hint while its neighbors "
      "finish — §3.4's out-of-core path with governance on top.\n");
  return 0;
}
