// Simulated time accounting.
//
// Every operator charges its modeled execution time to a Timeline; reported
// benchmark numbers are Timeline totals, not wall-clock (DESIGN.md §1).

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sirius::sim {

/// Operator-time buckets matching the Figure 5 breakdown categories.
enum class OpCategory {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kGroupBy,
  kAggregate,
  kOrderBy,
  kExchange,
  kOther,
};

const char* OpCategoryName(OpCategory c);

/// \brief Accumulates simulated seconds, bucketed by operator category.
///
/// One Timeline per (query execution x device). Distributed execution keeps
/// one per node and merges them into the query's Timeline at each exchange
/// barrier, then charges the exchange itself.
class Timeline {
 public:
  /// Charges `seconds` of simulated time to `category`.
  void Charge(OpCategory category, double seconds);

  /// Total simulated seconds elapsed.
  double total_seconds() const { return total_; }

  /// Simulated seconds charged to one category.
  double seconds(OpCategory category) const;

  /// Per-category totals for every category that was charged.
  std::map<OpCategory, double> breakdown() const { return by_category_; }

  /// Resets the clock and all buckets to zero.
  void Reset();

  /// Merges another timeline's buckets into this one (sequential composition:
  /// totals add).
  void Append(const Timeline& other);

 private:
  double total_ = 0.0;
  std::map<OpCategory, double> by_category_;
};

/// Identifies one simulated stream (in-order work queue) of the device model.
using StreamId = int32_t;
/// Identifies one recorded event (cross-stream ordering point).
using EventId = int32_t;

/// \brief Debug-mode happens-before checker for work on simulated streams.
///
/// The device model executes kernels for real on the host thread pool, so a
/// missing ordering edge between two pipelines does not deterministically
/// corrupt data the way it would on a GPU — it corrupts data only when the
/// scheduler happens to interleave them. This tracker makes the bug
/// deterministic: every kernel access to a shared resource (buffer, cache
/// entry, materialized pipeline result) is checked against a vector-clock
/// happens-before relation over streams and events, and an access with no
/// ordering edge to a conflicting prior access is reported immediately, on
/// every run, regardless of interleaving.
///
/// Semantics follow CUDA streams: work on one stream is ordered; cross-stream
/// ordering exists only through RecordEvent / StreamWaitEvent edges.
///
/// Thread-safe. A tracker records from construction. The engine builds one
/// per query only when race checking is on, so with it off every hook is a
/// null-pointer test (SimContext::hazards).
class HazardTracker {
 public:
  /// What went wrong, in machine-checkable form (tests assert on this).
  enum class ViolationKind {
    kWriteWriteRace,   ///< two unordered writes to the same resource
    kReadWriteRace,    ///< write unordered with a prior read
    kWriteReadRace,    ///< read unordered with a prior write
    kInvalidStream,    ///< access on an unknown stream id
    kInvalidEvent,     ///< wait on a never-recorded event
  };

  struct Violation {
    ViolationKind kind;
    uint64_t resource = 0;    ///< id of the buffer/result the kernels touched
    StreamId first = -1;      ///< stream of the earlier conflicting access
    StreamId second = -1;     ///< stream of the later access
    std::string detail;       ///< human-readable diagnostic
  };

  HazardTracker();

  /// Process-unique identity of this tracker instance. Event ids are only
  /// meaningful within one tracker; holders that cache an EventId across
  /// tracker lifetimes (e.g. buffer-manager entries surviving a query) must
  /// stamp it with this id and discard it when the tracker changes.
  uint64_t id() const { return id_; }

  /// When true (default) the first violation aborts the process with a
  /// diagnostic; tests turn this off and inspect violations() instead.
  void set_abort_on_violation(bool abort_on_violation);

  /// Registers a new stream and returns its id. Stream 0 is pre-created as
  /// the default stream, mirroring CUDA's.
  StreamId CreateStream(const std::string& name = "");

  /// Records an event capturing all work submitted to `stream` so far.
  EventId RecordEvent(StreamId stream);

  /// Makes future work on `stream` ordered after everything `event` captured.
  void StreamWaitEvent(StreamId stream, EventId event);

  /// Declares that a kernel running on `stream` reads/writes `resource`.
  /// `what` names the access in diagnostics ("probe build side", ...).
  void OnAccess(StreamId stream, uint64_t resource, bool is_write,
                const std::string& what = "");
  void OnRead(StreamId stream, uint64_t resource, const std::string& what = "") {
    OnAccess(stream, resource, /*is_write=*/false, what);
  }
  void OnWrite(StreamId stream, uint64_t resource, const std::string& what = "") {
    OnAccess(stream, resource, /*is_write=*/true, what);
  }

  /// Forgets a resource (freed buffers may recycle ids).
  void ReleaseResource(uint64_t resource);

  size_t violation_count() const;
  std::vector<Violation> violations() const;

 private:
  /// Vector clock indexed by StreamId; missing tail entries are zero.
  using Clock = std::vector<uint64_t>;

  /// One access epoch: position `at` in stream `stream`'s local order.
  struct Epoch {
    StreamId stream = -1;
    uint64_t at = 0;
    std::string what;
  };

  struct StreamState {
    std::string name;
    Clock clock;  ///< joined knowledge of every stream's progress
  };

  struct ResourceState {
    Epoch last_write;
    std::vector<Epoch> reads;  ///< reads since last_write, one per stream
  };

  /// True when epoch `e` happens-before the holder of `clock`.
  static bool HappensBefore(const Epoch& e, const Clock& clock);

  void Report(std::unique_lock<std::mutex>& lock, Violation v);
  bool CheckStream(std::unique_lock<std::mutex>& lock, StreamId stream,
                   const char* op);
  std::string StreamName(StreamId s) const;

  mutable std::mutex mu_;
  const uint64_t id_;
  bool abort_on_violation_ = true;
  std::vector<StreamState> streams_{{std::string("default"), Clock{}}};
  std::vector<Epoch> events_;  ///< EventId -> snapshot; clock in event_clocks_
  std::vector<Clock> event_clocks_;
  std::map<uint64_t, ResourceState> resources_;
  std::vector<Violation> violations_;
};

const char* HazardViolationKindName(HazardTracker::ViolationKind kind);

/// Mints a nonzero HazardTracker resource id for state that outlives one
/// query: a buffer-manager cache entry or a spill extent. Both draw from
/// this one lock-free, process-wide counter, so no two of them ever share
/// an id within a run. Thread-safe; an id is never handed out twice.
uint64_t NewResourceId();

}  // namespace sirius::sim
