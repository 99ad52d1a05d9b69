// Closed- and open-loop workload driver for the serving layer.
//
// Replays a TPC-H query mix against a QueryServer from N simulated clients
// and reports latency percentiles and throughput — all in *simulated* time
// (queries-per-simulated-second), so numbers are deterministic for a fixed
// seed and warm caches.
//
//  * Closed loop: each client keeps exactly one query outstanding and
//    submits the next as soon as the previous completes (the paper's
//    interactive-analytics setting). Offered load adapts to service rate.
//  * Open loop: arrivals follow a seeded exponential process at
//    `arrival_rate_qps` regardless of completions, so overload actually
//    overloads — shed + retry behavior is exercised.
//
// Randomness (arrival gaps, query choice, lane choice) comes from one
// seeded std::mt19937_64 with explicit inverse-CDF draws, never from
// distribution adapters whose output is implementation-defined.

#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/serve.h"

namespace sirius::serve {

/// Workload family a QueryRef draws from.
enum class Workload { kTpch, kSsb };

/// One entry of a tenant's query mix: a query number within a family
/// (TPC-H 1-22, SSB 1-13).
struct QueryRef {
  Workload family = Workload::kTpch;
  int query = 1;
};

struct LoadOptions {
  int num_clients = 16;
  /// Closed loop: queries each client completes (or abandons).
  int queries_per_client = 4;

  bool open_loop = false;
  /// Open loop: mean arrivals per simulated second across all clients.
  double arrival_rate_qps = 100;
  /// Open loop: arrivals are generated in [0, duration_s).
  double duration_s = 1.0;
  /// Open loop: absolute arrival rates (qps) for hot tenants. A tenant
  /// listed here gets its own seeded Poisson stream at the given rate,
  /// round-robined over that tenant's client slots; the base
  /// `arrival_rate_qps` stream then covers only the remaining clients.
  /// Each override stream draws from its own generator (seed derived from
  /// `seed` and the tenant name), so adding or retuning one hot tenant
  /// never perturbs the base stream or the other tenants' arrivals.
  std::map<std::string, double> tenant_arrival_rate_qps;

  /// TPC-H query numbers drawn uniformly per submission (tenants without a
  /// `tenant_mix` entry).
  std::vector<int> query_mix = {1, 3, 5, 6, 10, 12, 14, 19};
  /// Per-tenant workload mixes: a tenant listed here draws uniformly from
  /// its own (family, query) list instead of `query_mix`, so one tenant can
  /// replay SSB while another replays TPC-H against the same server
  /// (heterogeneous cache/placement/spill pressure). The catalog must hold
  /// both families' tables (table names are disjoint).
  std::map<std::string, std::vector<QueryRef>> tenant_mix;
  /// Clients are assigned tenants round-robin; empty = one "default" tenant.
  /// Tenants must already be registered on the server (or default weight 1).
  std::vector<std::string> tenants;
  /// Fraction of submissions routed to the interactive lane (priority 1).
  double interactive_fraction = 0;

  /// Forwarded to SubmitOptions (same semantics: <0 = server default).
  double timeout_s = -1;
  uint64_t reservation_bytes = 0;
  bool bypass_cache = false;

  uint64_t seed = 42;
  /// Shed submissions are retried after the server's retry-after hint, at
  /// most this many times, then abandoned.
  int max_retries = 3;
};

struct LoadReport {
  uint64_t submitted = 0;  ///< submit calls, including retries
  uint64_t completed = 0;  ///< terminal kCompleted (cache hits included)
  uint64_t cache_hits = 0;
  uint64_t shed = 0;       ///< shed submit calls
  /// Admitted queries shed after the fact — a device loss requeued them and
  /// the survivor pools refused the re-admission.
  uint64_t requeue_shed = 0;
  uint64_t abandoned = 0;  ///< queries given up after max_retries sheds
  uint64_t timed_out = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;

  double makespan_s = 0;  ///< last finish - first arrival, simulated
  /// Completed queries per simulated second over the makespan.
  double qps = 0;
  /// Total device-charged execution time across completed queries.
  double total_exec_s = 0;

  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// Completed-query latencies, sorted ascending (determinism assertions).
  std::vector<double> latencies_ms;

  /// Device seconds charged per tenant (fairness assertions).
  std::map<std::string, double> tenant_exec_s;
  std::map<std::string, uint64_t> tenant_completed;
};

/// One open-loop arrival: submit time plus the client slot it lands on.
struct OpenLoopArrival {
  double at_s = 0;
  size_t client = 0;
};

/// Generates the open-loop arrival schedule for `options` starting at
/// `start_s`, in deterministic generation order (base stream first, then
/// one derived stream per `tenant_arrival_rate_qps` entry in map order).
/// With no overrides this consumes `rng` exactly as the legacy inline loop
/// did, so existing seeds reproduce bit-identical schedules. Exposed for
/// golden determinism checks.
std::vector<OpenLoopArrival> GenerateOpenLoopArrivals(
    const LoadOptions& options, double start_s, std::mt19937_64* rng);

/// \brief Drives a QueryService (one QueryServer or a federated
/// ServeCluster) with a synthetic multi-tenant workload.
class LoadGenerator {
 public:
  LoadGenerator(QueryService* server, LoadOptions options);

  /// Runs the configured workload to completion and reports.
  Result<LoadReport> Run();

 private:
  /// Deterministic uniform in [0, 1) from the seeded generator.
  double Uniform();
  /// Next SQL text drawn from `tenant`'s mix (falls back to `query_mix`).
  const std::string& PickSql(const std::string& tenant);

  QueryService* server_;
  LoadOptions options_;
  std::mt19937_64 rng_;
};

/// Sorted-percentile helper shared by reports (p in [0, 100]).
double Percentile(const std::vector<double>& sorted_values, double p);

}  // namespace sirius::serve
