#include "obs/trace.h"

#include <algorithm>

namespace sirius::obs {

double SpanRecord::Attr(const std::string& key, double fallback) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return fallback;
}

std::vector<const SpanRecord*> QueryProfile::SpansInCategory(
    const std::string& category) const {
  std::vector<const SpanRecord*> out;
  for (const auto& s : spans) {
    if (category.empty() || s.category == category) out.push_back(&s);
  }
  return out;
}

std::vector<const SpanRecord*> QueryProfile::SpansNamed(
    const std::string& prefix) const {
  std::vector<const SpanRecord*> out;
  for (const auto& s : spans) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) out.push_back(&s);
  }
  return out;
}

size_t QueryProfile::CountCategory(const std::string& category) const {
  return SpansInCategory(category).size();
}

size_t QueryProfile::CountNamed(const std::string& prefix) const {
  return SpansNamed(prefix).size();
}

uint64_t QueryProfile::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double QueryProfile::MaxEnd() const {
  double m = 0.0;
  for (const auto& s : spans) m = std::max(m, s.end_s);
  return m;
}

TraceRecorder::TraceRecorder() : TraceRecorder(Options()) {}

TraceRecorder::TraceRecorder(Options options) : unbounded_(options.unbounded) {
  if (!unbounded_) spans_.reserve(kSpanCapacity);
}

TrackId TraceRecorder::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<TrackId>(i);
  }
  tracks_.push_back(name);
  return static_cast<TrackId>(tracks_.size() - 1);
}

SpanId TraceRecorder::BeginSpan(TrackId track, std::string name,
                                std::string category, double start_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!unbounded_ && spans_.size() >= kSpanCapacity) {
    ++dropped_;
    return kInvalidSpan;
  }
  SpanRecord rec;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.track = track;
  rec.start_s = start_s;
  rec.end_s = start_s;
  spans_.push_back(std::move(rec));
  return static_cast<SpanId>(spans_.size() - 1);
}

void TraceRecorder::EndSpan(SpanId span, double end_s) {
  if (span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<size_t>(span) < spans_.size()) {
    spans_[static_cast<size_t>(span)].end_s = end_s;
  }
}

void TraceRecorder::SetAttr(SpanId span, const std::string& key, double value) {
  if (span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<size_t>(span) < spans_.size()) {
    spans_[static_cast<size_t>(span)].attrs.emplace_back(key, value);
  }
}

void TraceRecorder::AddComplete(
    TrackId track, std::string name, std::string category, double start_s,
    double end_s, std::vector<std::pair<std::string, double>> attrs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!unbounded_ && spans_.size() >= kSpanCapacity) {
    ++dropped_;
    return;
  }
  SpanRecord rec;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.track = track;
  rec.start_s = start_s;
  rec.end_s = end_s;
  rec.attrs = std::move(attrs);
  spans_.push_back(std::move(rec));
}

void TraceRecorder::AddInstant(TrackId track, std::string name,
                               std::string category, double at_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!unbounded_ && spans_.size() >= kSpanCapacity) {
    ++dropped_;
    return;
  }
  SpanRecord rec;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.track = track;
  rec.start_s = at_s;
  rec.end_s = at_s;
  rec.instant = true;
  spans_.push_back(std::move(rec));
}

void TraceRecorder::AddCounter(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

uint64_t TraceRecorder::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

QueryProfile TraceRecorder::Finish() const {
  QueryProfile profile;
  {
    std::lock_guard<std::mutex> lock(mu_);
    profile.tracks = tracks_;
    profile.spans = spans_;
    profile.counters = counters_;
    profile.dropped_spans = dropped_;
  }
  // Deterministic order: thread-pool interleaving permutes insertion order
  // across tracks, but within one track recording is single-threaded, so a
  // stable sort by (track, start) reproduces one canonical layout.
  std::stable_sort(profile.spans.begin(), profile.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.track != b.track) return a.track < b.track;
                     if (a.start_s != b.start_s) return a.start_s < b.start_s;
                     return a.name < b.name;
                   });
  return profile;
}

Span::Span(TraceRecorder* recorder, TrackId track, std::string name,
           std::string category, const Clock& clock)
    : recorder_(recorder), clock_(clock) {
  if (recorder_ != nullptr) {
    id_ = recorder_->BeginSpan(track, std::move(name), std::move(category),
                               clock_.Now());
  }
}

Span::Span(Span&& other) noexcept
    : recorder_(other.recorder_), id_(other.id_), clock_(other.clock_) {
  other.recorder_ = nullptr;
  other.id_ = kInvalidSpan;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    recorder_ = other.recorder_;
    id_ = other.id_;
    clock_ = other.clock_;
    other.recorder_ = nullptr;
    other.id_ = kInvalidSpan;
  }
  return *this;
}

void Span::SetAttr(const std::string& key, double value) {
  if (recorder_ != nullptr) recorder_->SetAttr(id_, key, value);
}

void Span::End() {
  if (recorder_ != nullptr && id_ != kInvalidSpan) {
    recorder_->EndSpan(id_, clock_.Now());
  }
  recorder_ = nullptr;
  id_ = kInvalidSpan;
}

}  // namespace sirius::obs
