#include "net/sccl.h"

#include <algorithm>

#include "gdf/copying.h"

namespace sirius::net {

using format::TablePtr;

SIRIUS_FAULT_DEFINE_SITE(kSiteAllToAll, "sccl.alltoall");
SIRIUS_FAULT_DEFINE_SITE(kSiteBroadcast, "sccl.broadcast");
SIRIUS_FAULT_DEFINE_SITE(kSiteGather, "sccl.gather");
SIRIUS_FAULT_DEFINE_SITE(kSiteMulticast, "sccl.multicast");

namespace {

/// Fraction of each collective backoff randomized, drawn from the
/// injector's seeded RNG so a fault sweep replays exactly.
constexpr double kBackoffJitter = 0.5;

}  // namespace

double RetryBackoffS(int retry) {
  double delay = kRetryBaseBackoffS;
  for (int i = 0; i < retry && delay < kRetryMaxBackoffS; ++i) delay *= 2;
  return std::min(delay, kRetryMaxBackoffS);
}

double Communicator::BackoffSeconds(int attempt) const {
  // Center the jitter so the expected delay stays on the schedule.
  const double u = injector_->Uniform();
  return RetryBackoffS(attempt) * (1.0 + kBackoffJitter * (u - 0.5));
}

template <typename Fn>
Result<CollectiveResult> Communicator::RunWithRetry(const char* site,
                                                    Fn&& body) const {
  int retries = 0;
  double backoff = 0;
  Status last = Status::OK();
  for (int attempt = 0; attempt < kRetryMaxAttempts; ++attempt) {
    Status injected = injector_->Check(site);
    if (injected.ok()) {
      SIRIUS_ASSIGN_OR_RETURN(CollectiveResult result, body());
      result.retries = retries;
      result.backoff_seconds = backoff;
      const double body_seconds = result.seconds;
      result.seconds += backoff;
      if (result.per_rank_seconds.empty()) {
        result.per_rank_seconds.assign(static_cast<size_t>(world_size_),
                                       body_seconds);
      }
      for (double& s : result.per_rank_seconds) s += backoff;
      if (trace_ != nullptr) {
        trace_->AddComplete(
            trace_track_, std::string("collective:") + site, "collective",
            trace_start_s_ + backoff, trace_start_s_ + result.seconds,
            {{"bytes", static_cast<double>(result.bytes)},
             {"retries", static_cast<double>(result.retries)},
             {"backoff_s", result.backoff_seconds},
             {"link_gbps", link_.bandwidth_gbps}});
      }
      return result;
    }
    if (!injected.IsTransient()) return injected;  // hard fault: no retry
    last = injected;
    if (attempt + 1 < kRetryMaxAttempts) {
      const double delay = BackoffSeconds(attempt);
      if (trace_ != nullptr) {
        // One span per healed transient attempt, covering its backoff: the
        // trace shows exactly the retries the policy reports.
        trace_->AddComplete(trace_track_, std::string("retry:") + site,
                            "retry", trace_start_s_ + backoff,
                            trace_start_s_ + backoff + delay,
                            {{"attempt", static_cast<double>(attempt)}});
      }
      backoff += delay;
      ++retries;
    }
  }
  return last.WithContext("collective '" + std::string(site) + "' failed after " +
                          std::to_string(kRetryMaxAttempts) + " attempts");
}

Result<CollectiveResult> Communicator::AllToAll(
    const std::vector<std::vector<TablePtr>>& partitions, const gdf::Context& ctx,
    double data_scale) const {
  return RunWithRetry(kSiteAllToAll,
                      [&] { return DoAllToAll(partitions, ctx, data_scale); });
}

Result<CollectiveResult> Communicator::Broadcast(const TablePtr& table, int root,
                                                 double data_scale) const {
  return RunWithRetry(kSiteBroadcast,
                      [&] { return DoBroadcast(table, root, data_scale); });
}

Result<CollectiveResult> Communicator::Gather(const std::vector<TablePtr>& tables,
                                              int root, const gdf::Context& ctx,
                                              double data_scale) const {
  return RunWithRetry(kSiteGather,
                      [&] { return DoGather(tables, root, ctx, data_scale); });
}

Result<CollectiveResult> Communicator::Multicast(
    const TablePtr& table, int root, const std::vector<int>& destinations,
    double data_scale) const {
  return RunWithRetry(kSiteMulticast, [&] {
    return DoMulticast(table, root, destinations, data_scale);
  });
}

Result<CollectiveResult> Communicator::DoAllToAll(
    const std::vector<std::vector<TablePtr>>& partitions, const gdf::Context& ctx,
    double data_scale) const {
  const int n = world_size_;
  if (static_cast<int>(partitions.size()) != n) {
    return Status::Invalid("AllToAll: expected " + std::to_string(n) + " senders");
  }
  CollectiveResult result;
  result.per_rank.resize(n);

  std::vector<uint64_t> sent(n, 0), received(n, 0);
  for (int src = 0; src < n; ++src) {
    if (static_cast<int>(partitions[src].size()) != n) {
      return Status::Invalid("AllToAll: sender " + std::to_string(src) +
                             " has wrong partition count");
    }
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;  // local partition, no network traffic
      uint64_t bytes = partitions[src][dst]->MemoryUsage();
      sent[src] += bytes;
      received[dst] += bytes;
      result.bytes += bytes;
    }
  }
  uint64_t slowest = 0;
  for (int r = 0; r < n; ++r) slowest = std::max({slowest, sent[r], received[r]});
  result.seconds = link_.TransferSeconds(slowest, data_scale);
  // Per-rank completion: each rank is done once its own traffic has moved;
  // lightly-loaded ranks can start downstream work before the collective's
  // modeled wall time (the overlap Theseus-style schedulers chase).
  result.per_rank_seconds.resize(n);
  for (int r = 0; r < n; ++r) {
    result.per_rank_seconds[r] =
        link_.TransferSeconds(std::max(sent[r], received[r]), data_scale);
  }

  for (int dst = 0; dst < n; ++dst) {
    std::vector<TablePtr> incoming;
    incoming.reserve(n);
    for (int src = 0; src < n; ++src) incoming.push_back(partitions[src][dst]);
    SIRIUS_ASSIGN_OR_RETURN(result.per_rank[dst], gdf::ConcatTables(ctx, incoming));
  }
  return result;
}

Result<CollectiveResult> Communicator::DoBroadcast(const TablePtr& table, int root,
                                                   double data_scale) const {
  if (root < 0 || root >= world_size_) return Status::Invalid("Broadcast: bad root");
  CollectiveResult result;
  result.per_rank.assign(world_size_, table);  // in-process: shared pointer
  if (world_size_ > 1) {
    uint64_t bytes = table->MemoryUsage();
    result.bytes = bytes * (world_size_ - 1);
    // Ring broadcast: pipeline hides all but the hop latencies.
    result.seconds = link_.TransferSeconds(bytes, data_scale) +
                     (world_size_ - 2 > 0 ? (world_size_ - 2) : 0) *
                         link_.latency_us * 1e-6;
  }
  return result;
}

Result<CollectiveResult> Communicator::DoGather(const std::vector<TablePtr>& tables,
                                                int root, const gdf::Context& ctx,
                                                double data_scale) const {
  if (static_cast<int>(tables.size()) != world_size_) {
    return Status::Invalid("Gather: wrong rank count");
  }
  if (root < 0 || root >= world_size_) return Status::Invalid("Gather: bad root");
  CollectiveResult result;
  result.per_rank.assign(world_size_, nullptr);
  for (int r = 0; r < world_size_; ++r) {
    if (r == root) continue;
    result.bytes += tables[r]->MemoryUsage();
  }
  result.seconds = link_.TransferSeconds(result.bytes, data_scale);
  // Senders finish after shipping their own table; the root waits for all.
  result.per_rank_seconds.assign(world_size_, result.seconds);
  for (int r = 0; r < world_size_; ++r) {
    if (r != root) {
      result.per_rank_seconds[r] =
          link_.TransferSeconds(tables[r]->MemoryUsage(), data_scale);
    }
  }
  SIRIUS_ASSIGN_OR_RETURN(result.per_rank[root], gdf::ConcatTables(ctx, tables));
  return result;
}

Result<CollectiveResult> Communicator::DoMulticast(
    const TablePtr& table, int root, const std::vector<int>& destinations,
    double data_scale) const {
  CollectiveResult result;
  result.per_rank.assign(world_size_, nullptr);
  result.per_rank[root] = table;
  uint64_t bytes = table->MemoryUsage();
  for (int d : destinations) {
    if (d < 0 || d >= world_size_) return Status::Invalid("Multicast: bad rank");
    result.per_rank[d] = table;
    if (d != root) result.bytes += bytes;
  }
  result.seconds = link_.TransferSeconds(result.bytes, data_scale);
  return result;
}

}  // namespace sirius::net
