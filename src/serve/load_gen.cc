#include "serve/load_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>

#include "common/hash.h"
#include "ssb/queries.h"
#include "tpch/queries.h"

namespace sirius::serve {

namespace {

// 53 high bits -> [0, 1); bit-exact across platforms, unlike the
// implementation-defined std::*_distribution adapters.
double UniformFrom(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<OpenLoopArrival> GenerateOpenLoopArrivals(
    const LoadOptions& options, double start_s, std::mt19937_64* rng) {
  const size_t num_clients =
      static_cast<size_t>(std::max(1, options.num_clients));
  std::vector<std::string> tenants = options.tenants;
  if (tenants.empty()) tenants = {"default"};

  // Client slots whose tenant is NOT rate-overridden form the base stream;
  // each override tenant gets its own stream over its own slots.
  std::vector<size_t> base_clients;
  std::map<std::string, std::vector<size_t>> override_clients;
  for (size_t i = 0; i < num_clients; ++i) {
    const std::string& tenant = tenants[i % tenants.size()];
    if (options.tenant_arrival_rate_qps.count(tenant) > 0) {
      override_clients[tenant].push_back(i);
    } else {
      base_clients.push_back(i);
    }
  }
  std::vector<OpenLoopArrival> arrivals;
  // One Poisson stream at `qps` drawn from `gen`, round-robin over `slots`.
  auto stream = [&](std::mt19937_64& gen, double qps,
                    const std::vector<size_t>& slots) {
    const double rate = std::max(qps, 1e-9);
    double t = start_s;
    for (size_t rr = 0;; rr = (rr + 1) % slots.size()) {
      t += -std::log(1.0 - UniformFrom(gen)) / rate;
      if (t >= start_s + options.duration_s) break;
      arrivals.push_back(OpenLoopArrival{t, slots[rr]});
    }
  };
  // With no overrides every client is a base client and this is the legacy
  // stream: the caller's rng is consumed identically, arrival for arrival,
  // so existing seeds keep their exact schedules.
  if (!base_clients.empty()) {
    stream(*rng, options.arrival_rate_qps, base_clients);
  }
  for (const auto& [tenant, qps] : options.tenant_arrival_rate_qps) {
    const auto it = override_clients.find(tenant);
    if (it == override_clients.end()) continue;  // tenant has no client slot
    std::mt19937_64 derived(HashCombine(options.seed, HashString(tenant)));
    stream(derived, qps, it->second);
  }
  return arrivals;
}

double Percentile(const std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted_values.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  idx = std::min(std::max<size_t>(idx, 1), sorted_values.size()) - 1;
  return sorted_values[idx];
}

LoadGenerator::LoadGenerator(QueryService* server, LoadOptions options)
    : server_(server), options_(std::move(options)), rng_(options_.seed) {
  if (options_.tenants.empty()) options_.tenants = {"default"};
  if (options_.query_mix.empty()) options_.query_mix = {1};
}

double LoadGenerator::Uniform() { return UniformFrom(rng_); }

const std::string& LoadGenerator::PickSql(const std::string& tenant) {
  const auto it = options_.tenant_mix.find(tenant);
  if (it != options_.tenant_mix.end() && !it->second.empty()) {
    const QueryRef& ref = it->second[rng_() % it->second.size()];
    return ref.family == Workload::kSsb ? ssb::Query(ref.query)
                                        : tpch::Query(ref.query);
  }
  const size_t i = static_cast<size_t>(rng_() % options_.query_mix.size());
  return tpch::Query(options_.query_mix[i]);
}

namespace {

struct ClientState {
  SessionId session = 0;
  std::string tenant;
  double next_s = 0;   ///< next submit time
  int remaining = 0;   ///< queries left to complete/abandon
  int retries_left = 0;
  bool outstanding = false;  ///< closed loop: a query is in flight
  QueryId in_flight = 0;
};

void Record(const QueryOutcome& out, LoadReport* report) {
  switch (out.state) {
    case QueryState::kCompleted: {
      ++report->completed;
      if (out.cache_hit) ++report->cache_hits;
      const double latency_ms = out.latency_s() * 1e3;
      report->latencies_ms.push_back(latency_ms);
      const double exec_s =
          out.cache_hit ? 0 : (out.finish_s - out.dispatch_s);
      report->total_exec_s += exec_s;
      report->tenant_exec_s[out.tenant] += exec_s;
      ++report->tenant_completed[out.tenant];
      break;
    }
    case QueryState::kTimedOut:
      ++report->timed_out;
      break;
    case QueryState::kFailed:
      ++report->failed;
      break;
    case QueryState::kShed:
      // Terminal shed of an *admitted* query: a device loss requeued it and
      // no survivor pool could carry the reservation.
      ++report->requeue_shed;
      break;
    default:
      break;
  }
}

void FinishReport(double first_arrival, double last_finish,
                  LoadReport* report) {
  std::sort(report->latencies_ms.begin(), report->latencies_ms.end());
  report->makespan_s = std::max(last_finish - first_arrival, 0.0);
  if (report->makespan_s > 0) {
    report->qps =
        static_cast<double>(report->completed) / report->makespan_s;
  }
  if (!report->latencies_ms.empty()) {
    double sum = 0;
    for (double v : report->latencies_ms) sum += v;
    report->mean_ms = sum / static_cast<double>(report->latencies_ms.size());
    report->p50_ms = Percentile(report->latencies_ms, 50);
    report->p95_ms = Percentile(report->latencies_ms, 95);
    report->p99_ms = Percentile(report->latencies_ms, 99);
    report->max_ms = report->latencies_ms.back();
  }
}

}  // namespace

Result<LoadReport> LoadGenerator::Run() {
  LoadReport report;
  SubmitOptions sub;
  sub.timeout_s = options_.timeout_s;
  sub.reservation_bytes = options_.reservation_bytes;
  sub.bypass_cache = options_.bypass_cache;

  double first_arrival = std::numeric_limits<double>::infinity();
  double last_finish = 0;

  std::vector<ClientState> clients(
      static_cast<size_t>(std::max(1, options_.num_clients)));
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i].tenant = options_.tenants[i % options_.tenants.size()];
    clients[i].session = server_->OpenSession(clients[i].tenant);
    clients[i].next_s = server_->now_s();
    clients[i].remaining = options_.queries_per_client;
    clients[i].retries_left = options_.max_retries;
  }
  // Submits one query for `c` arriving at `at_s`. A shed submit yields no
  // id and sets `*hint` to the server's retry-after delay.
  auto submit = [&](const ClientState& c, double at_s,
                    double* hint) -> Result<std::optional<QueryId>> {
    SubmitOptions per = sub;
    per.arrival_s = at_s;
    per.priority = Uniform() < options_.interactive_fraction ? 1 : 0;
    const std::string& sql = PickSql(c.tenant);
    ++report.submitted;
    first_arrival = std::min(first_arrival, at_s);
    auto submitted = server_->Submit(c.session, sql, per);
    if (submitted.ok()) return std::optional<QueryId>(submitted.ValueOrDie());
    if (!submitted.status().IsResourceExhausted()) return submitted.status();
    ++report.shed;
    *hint = std::max(submitted.status().retry_after_s(), kMinRetryAfterS);
    return std::optional<QueryId>();
  };

  if (!options_.open_loop) {
    // Closed loop: one outstanding query per client; the next submit waits
    // for the previous completion. Submits and dispatch decisions interleave
    // in global simulated-time order — a submit due before the server's next
    // dispatch must land first, so the fair scheduler arbitrates over
    // everything actually queued at each decision point (and real
    // executions genuinely overlap on the worker pool).
    // Collects finished in-flight queries and schedules their clients.
    auto harvest = [&]() -> Status {
      for (auto& c : clients) {
        if (!c.outstanding) continue;
        SIRIUS_ASSIGN_OR_RETURN(QueryOutcome out, server_->Peek(c.in_flight));
        if (!out.terminal()) continue;
        Record(out, &report);
        last_finish = std::max(last_finish, out.finish_s);
        c.outstanding = false;
        --c.remaining;
        c.retries_left = options_.max_retries;
        c.next_s = out.finish_s;
      }
      return Status::OK();
    };
    for (;;) {
      SIRIUS_RETURN_NOT_OK(harvest());
      ClientState* next = nullptr;
      for (auto& c : clients) {
        if (c.outstanding || c.remaining <= 0) continue;
        if (next == nullptr || c.next_s < next->next_s) next = &c;
      }
      const double next_dispatch = server_->NextDispatchTime();
      if (next != nullptr && next->next_s <= next_dispatch) {
        double hint = 0;
        SIRIUS_ASSIGN_OR_RETURN(std::optional<QueryId> id,
                                submit(*next, next->next_s, &hint));
        if (id.has_value()) {
          next->outstanding = true;
          next->in_flight = *id;
        } else {
          if (next->retries_left > 0) {
            --next->retries_left;
            ++report.retries;
          } else {
            ++report.abandoned;
            --next->remaining;
            next->retries_left = options_.max_retries;
          }
          next->next_s += hint;
        }
      } else if (std::isfinite(next_dispatch)) {
        SIRIUS_ASSIGN_OR_RETURN(QueryOutcome stepped, server_->Step());
        (void)stepped;  // the top-of-loop harvest attributes it to its client
      } else {
        // No submits due and nothing queued: every in-flight query is
        // terminal and was harvested at the top of this iteration.
        break;
      }
    }
  } else {
    // Open loop: a seeded Poisson arrival stream, submitted in time order;
    // shed submissions re-enter the stream after the server's hint.
    struct Arrival {
      double at_s = 0;
      int retries_left = 0;
      size_t client = 0;
    };
    auto later = [](const Arrival& a, const Arrival& b) {
      return a.at_s > b.at_s || (a.at_s == b.at_s && a.client > b.client);
    };
    std::priority_queue<Arrival, std::vector<Arrival>, decltype(later)>
        arrivals(later);

    for (const OpenLoopArrival& oa :
         GenerateOpenLoopArrivals(options_, server_->now_s(), &rng_)) {
      arrivals.push(Arrival{oa.at_s, options_.max_retries, oa.client});
    }

    std::vector<QueryId> pending;
    while (!arrivals.empty()) {
      Arrival a = arrivals.top();
      arrivals.pop();
      double hint = 0;
      SIRIUS_ASSIGN_OR_RETURN(std::optional<QueryId> id,
                              submit(clients[a.client], a.at_s, &hint));
      if (id.has_value()) {
        pending.push_back(*id);
      } else if (a.retries_left > 0) {
        ++report.retries;
        arrivals.push(Arrival{a.at_s + hint, a.retries_left - 1, a.client});
      } else {
        ++report.abandoned;
      }
    }
    SIRIUS_RETURN_NOT_OK(server_->DrainAll());
    for (QueryId id : pending) {
      SIRIUS_ASSIGN_OR_RETURN(QueryOutcome out, server_->Resolve(id));
      Record(out, &report);
      last_finish = std::max(last_finish, out.finish_s);
    }
  }

  if (std::isinf(first_arrival)) first_arrival = 0;
  FinishReport(first_arrival, last_finish, &report);
  return report;
}

}  // namespace sirius::serve
