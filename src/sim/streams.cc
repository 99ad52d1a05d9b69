#include "sim/streams.h"

#include <algorithm>

namespace sirius::sim {

StreamSet::StreamSet(Options options) : options_(options) {
  if (options_.num_streams < 1) options_.num_streams = 1;
  if (options_.solo_utilization <= 0.0 || options_.solo_utilization > 1.0) {
    options_.solo_utilization = 1.0;
  }
  free_at_.assign(static_cast<size_t>(options_.num_streams), 0.0);
}

double StreamSet::EarliestStart(double ready_s) const {
  double best = free_at_[0];
  for (double f : free_at_) best = std::min(best, f);
  return std::max(ready_s, best);
}

StreamSet::Placement StreamSet::Place(double ready_s, double solo_duration_s) {
  // Earliest-free stream; ties break to the lowest index, so placement is a
  // pure function of prior placements (deterministic replay).
  int stream = 0;
  for (int s = 1; s < num_streams(); ++s) {
    if (free_at_[s] < free_at_[stream]) stream = s;
  }
  Placement p;
  p.stream = stream;
  p.start_s = std::max(ready_s, free_at_[stream]);
  p.concurrent = BusyAt(p.start_s) + 1;
  p.slowdown = std::max(1.0, static_cast<double>(p.concurrent) *
                                 options_.solo_utilization);
  p.end_s = p.start_s + solo_duration_s * p.slowdown;
  free_at_[stream] = p.end_s;
  return p;
}

void StreamSet::Truncate(int stream, double end_s) {
  if (stream < 0 || stream >= num_streams()) return;
  free_at_[stream] = std::min(free_at_[stream], end_s);
}

int StreamSet::BusyAt(double t) const {
  int busy = 0;
  for (double f : free_at_) busy += f > t ? 1 : 0;
  return busy;
}

}  // namespace sirius::sim
