// Per-query tracing over simulated time.
//
// A TraceRecorder collects spans (named intervals on a named track) and
// per-query counters/gauges. All timestamps are *simulated* seconds — the
// recorder never reads a wall clock; callers stamp spans from whatever
// simulated clock they own (engine pipelines use their sim::Timeline via
// obs::Clock). Recording is thread-safe and allocation-light: the span
// buffer is preallocated to `Options::capacity` and further spans are
// dropped (and counted) unless `Options::unbounded` is set.
//
// Spans are expected to be scoped: construct an obs::Span guard, which ends
// the span when it leaves scope. sirius_lint's `raii-span` rule enforces
// that `obs::Span` is only ever a named local.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sirius::obs {

/// One horizontal lane in the trace: a simulated stream, node, or link.
using TrackId = int32_t;
/// Handle for an in-flight span; negative means "dropped, ignore".
using SpanId = int64_t;

inline constexpr SpanId kInvalidSpan = -1;

/// \brief A simulated-time source for stamping spans.
///
/// Plain function pointer + context so obs does not depend on sim. `base`
/// offsets a local clock (e.g. a per-pipeline Timeline that starts at zero)
/// into the query-global simulated time axis.
struct Clock {
  double (*now)(const void* ctx) = nullptr;
  const void* ctx = nullptr;
  double base = 0.0;

  double Now() const { return now != nullptr ? base + now(ctx) : base; }
};

/// \brief One recorded interval (or instant, when `end_s == start_s` and
/// `instant` is set).
struct SpanRecord {
  std::string name;
  std::string category;  ///< layer: "kernel", "buffer", "collective", ...
  TrackId track = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  bool instant = false;
  /// Numeric attributes (bytes, rows, retries...). Small and by-value so a
  /// profile snapshot is self-contained.
  std::vector<std::pair<std::string, double>> attrs;

  double duration_s() const { return end_s - start_s; }
  double Attr(const std::string& key, double fallback = 0.0) const;
};

/// \brief Immutable snapshot of one query's trace: span list, track names,
/// and metric values. Returned by TraceRecorder::Finish().
///
/// Spans are stable-sorted by (track, start_s, name) so that two runs of the
/// same plan produce byte-identical exports regardless of thread-pool
/// interleaving (within one track, recording is single-threaded and hence
/// deterministic; across tracks it is not).
struct QueryProfile {
  std::vector<std::string> tracks;  ///< name by TrackId
  std::vector<SpanRecord> spans;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  uint64_t dropped_spans = 0;

  /// All spans in `category` (every category when empty).
  std::vector<const SpanRecord*> SpansInCategory(const std::string& category) const;
  /// All spans whose name starts with `prefix`.
  std::vector<const SpanRecord*> SpansNamed(const std::string& prefix) const;
  size_t CountCategory(const std::string& category) const;
  size_t CountNamed(const std::string& prefix) const;
  uint64_t Counter(const std::string& name) const;
  /// Latest end timestamp across all spans (0 when empty).
  double MaxEnd() const;
};

/// \brief Thread-safe per-query span/metric sink.
class TraceRecorder {
 public:
  struct Options {
    bool enabled = true;
    /// Preallocated span slots; spans beyond this are dropped and counted.
    size_t capacity = 8192;
    /// Grow without bound instead of dropping (the serving layer's
    /// server-wide trace).
    bool unbounded = false;
  };

  TraceRecorder();
  explicit TraceRecorder(Options options);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Registers a lane ("stream-0", "node-2", "link"). Returns its id; a
  /// repeated name returns the existing id.
  TrackId RegisterTrack(const std::string& name);

  /// Opens a span at `start_s`. Returns kInvalidSpan when disabled or full.
  SpanId BeginSpan(TrackId track, std::string name, std::string category,
                   double start_s);
  /// Closes `span` at `end_s`. Safe on kInvalidSpan.
  void EndSpan(SpanId span, double end_s);
  /// Attaches a numeric attribute to an open or closed span.
  void SetAttr(SpanId span, const std::string& key, double value);

  /// Records a complete interval in one call (the common case: the caller
  /// already knows both endpoints of simulated time).
  void AddComplete(TrackId track, std::string name, std::string category,
                   double start_s, double end_s,
                   std::vector<std::pair<std::string, double>> attrs = {});
  /// Records a zero-duration event (recovery marker, fault trigger).
  void AddInstant(TrackId track, std::string name, std::string category,
                  double at_s);

  /// Bumps a named per-query counter ("buffer.hits", "sccl.retries").
  void AddCounter(const std::string& name, uint64_t delta = 1);
  /// Sets a named gauge to its latest value.
  void SetGauge(const std::string& name, double value);

  uint64_t dropped_spans() const;

  /// Snapshots everything recorded so far into a deterministic profile.
  /// The recorder remains usable afterwards.
  QueryProfile Finish() const;

 private:
  const bool enabled_;
  const bool unbounded_;
  const size_t capacity_;

  mutable std::mutex mu_;
  std::vector<std::string> tracks_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  uint64_t dropped_ = 0;
};

/// \brief RAII guard for a span: ends it (stamped from `clock`) on scope
/// exit. Movable, not copyable; default-constructed guards are inert, so
/// tracing call sites stay branch-free when the recorder is null/disabled.
class Span {
 public:
  Span() = default;
  /// Opens a span now (per `clock`) on `recorder`. A null recorder is inert.
  Span(TraceRecorder* recorder, TrackId track, std::string name,
       std::string category, const Clock& clock);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;

  /// Attaches a numeric attribute (no-op when inert).
  void SetAttr(const std::string& key, double value);
  /// Ends the span now; idempotent.
  void End();

 private:
  TraceRecorder* recorder_ = nullptr;
  SpanId id_ = kInvalidSpan;
  Clock clock_;
};

}  // namespace sirius::obs
