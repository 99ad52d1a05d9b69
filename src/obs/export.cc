#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace sirius::obs {
namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Fixed-precision decimal so exports are byte-stable across platforms.
std::string FormatMicros(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string FormatAttr(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string ToChromeTraceJson(const QueryProfile& profile) {
  std::string out;
  out.reserve(256 + profile.spans.size() * 160);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  // One named "thread" per track so the UI labels the lanes.
  for (size_t t = 0; t < profile.tracks.size(); ++t) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(t) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    AppendJsonString(&out, profile.tracks[t]);
    out += "}}";
  }
  for (const auto& s : profile.spans) {
    comma();
    out += "{\"ph\":";
    out += s.instant ? "\"i\"" : "\"X\"";
    out += ",\"pid\":0,\"tid\":" + std::to_string(s.track) + ",\"name\":";
    AppendJsonString(&out, s.name);
    out += ",\"cat\":";
    AppendJsonString(&out, s.category);
    out += ",\"ts\":" + FormatMicros(s.start_s);
    if (s.instant) {
      out += ",\"s\":\"t\"";
    } else {
      out += ",\"dur\":" + FormatMicros(s.duration_s());
    }
    if (!s.attrs.empty()) {
      out += ",\"args\":{";
      for (size_t i = 0; i < s.attrs.size(); ++i) {
        if (i > 0) out += ",";
        AppendJsonString(&out, s.attrs[i].first);
        out += ":" + FormatAttr(s.attrs[i].second);
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string ToTextSummary(const QueryProfile& profile, size_t top_n) {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "query profile: %zu spans on %zu tracks, %.6f simulated s\n",
                profile.spans.size(), profile.tracks.size(), profile.MaxEnd());
  os << buf;
  if (profile.dropped_spans > 0) {
    os << "  (" << profile.dropped_spans
       << " spans dropped past the recorder's capacity)\n";
  }

  std::map<std::string, std::pair<size_t, double>> by_category;
  for (const auto& s : profile.spans) {
    auto& slot = by_category[s.category];
    slot.first += 1;
    slot.second += s.duration_s();
  }
  os << "by category:\n";
  for (const auto& [cat, agg] : by_category) {
    std::snprintf(buf, sizeof(buf), "  %-12s %6zu spans  %12.6f s\n",
                  cat.c_str(), agg.first, agg.second);
    os << buf;
  }

  std::vector<const SpanRecord*> slowest;
  for (const auto& s : profile.spans) {
    if (!s.instant) slowest.push_back(&s);
  }
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->duration_s() > b->duration_s();
                   });
  if (slowest.size() > top_n) slowest.resize(top_n);
  os << "slowest spans:\n";
  for (const auto* s : slowest) {
    const std::string& track = s->track >= 0 &&
            static_cast<size_t>(s->track) < profile.tracks.size()
        ? profile.tracks[s->track]
        : "?";
    std::snprintf(buf, sizeof(buf), "  %12.6f s  %-28s [%s] on %s\n",
                  s->duration_s(), s->name.c_str(), s->category.c_str(),
                  track.c_str());
    os << buf;
  }

  if (!profile.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : profile.counters) {
      std::snprintf(buf, sizeof(buf), "  %-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      os << buf;
    }
  }
  if (!profile.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : profile.gauges) {
      std::snprintf(buf, sizeof(buf), "  %-32s %.6g\n", name.c_str(), value);
      os << buf;
    }
  }
  return os.str();
}

}  // namespace sirius::obs
