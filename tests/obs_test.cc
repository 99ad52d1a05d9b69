// Observability subsystem tests: TraceRecorder/Span/metrics unit behavior,
// engine and distributed query profiles (overlap, cache reuse, fault
// retries), exporter schema and determinism, and the tracing-overhead
// regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dist/cluster.h"
#include "engine/sirius.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/json.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

// ---------------------------------------------------------------------------
// TraceMatcher: assertion helper over a QueryProfile
// ---------------------------------------------------------------------------

/// Query-side of trace assertions: find spans by name prefix, category, or
/// track-name prefix, and check interval relations between them.
class TraceMatcher {
 public:
  explicit TraceMatcher(const obs::QueryProfile& profile) : p_(profile) {}

  /// TrackId of the exactly-named track, or -1.
  int Track(const std::string& name) const {
    for (size_t i = 0; i < p_.tracks.size(); ++i) {
      if (p_.tracks[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// True when the profile has a track whose name starts with `prefix`.
  bool HasTrackPrefixed(const std::string& prefix) const {
    for (const auto& t : p_.tracks) {
      if (t.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  /// Spans matching a name prefix, optionally restricted to tracks whose
  /// name starts with `track_prefix`.
  std::vector<const obs::SpanRecord*> Named(
      const std::string& name_prefix, const std::string& track_prefix = "") const {
    std::vector<const obs::SpanRecord*> out;
    for (const auto& s : p_.spans) {
      if (s.name.rfind(name_prefix, 0) != 0) continue;
      if (!track_prefix.empty() &&
          TrackName(s.track).rfind(track_prefix, 0) != 0) {
        continue;
      }
      out.push_back(&s);
    }
    return out;
  }

  std::vector<const obs::SpanRecord*> InCategory(const std::string& cat) const {
    return p_.SpansInCategory(cat);
  }

  const std::string& TrackName(obs::TrackId id) const {
    static const std::string kUnknown = "?";
    if (id < 0 || static_cast<size_t>(id) >= p_.tracks.size()) return kUnknown;
    return p_.tracks[id];
  }

  /// True when some span in `candidates` starts strictly inside [a, b).
  static bool AnyStartsWithin(
      const std::vector<const obs::SpanRecord*>& candidates, double a, double b) {
    for (const auto* s : candidates) {
      if (s->start_s >= a && s->start_s < b) return true;
    }
    return false;
  }

 private:
  const obs::QueryProfile& p_;
};

// ---------------------------------------------------------------------------
// TraceRecorder / Span units
// ---------------------------------------------------------------------------

double FixedClockNow(const void* ctx) { return *static_cast<const double*>(ctx); }

obs::Clock FixedClock(const double* t, double base = 0.0) {
  obs::Clock c;
  c.now = FixedClockNow;
  c.ctx = t;
  c.base = base;
  return c;
}

TEST(TraceRecorderTest, RecordsAndCanonicallySorts) {
  obs::TraceRecorder rec;
  obs::TrackId a = rec.RegisterTrack("a");
  obs::TrackId b = rec.RegisterTrack("b");
  EXPECT_EQ(rec.RegisterTrack("a"), a);  // dedup by name

  rec.AddComplete(b, "late", "test", 2.0, 3.0);
  rec.AddComplete(a, "second", "test", 1.0, 2.0, {{"bytes", 64.0}});
  rec.AddComplete(a, "first", "test", 0.0, 1.0);
  rec.AddCounter("events", 2);
  rec.AddCounter("events");

  obs::QueryProfile p = rec.Finish();
  ASSERT_EQ(p.spans.size(), 3u);
  // Sorted by (track, start, name), independent of insertion order.
  EXPECT_EQ(p.spans[0].name, "first");
  EXPECT_EQ(p.spans[1].name, "second");
  EXPECT_EQ(p.spans[2].name, "late");
  EXPECT_DOUBLE_EQ(p.spans[1].Attr("bytes"), 64.0);
  EXPECT_DOUBLE_EQ(p.spans[1].Attr("missing", -1.0), -1.0);
  EXPECT_EQ(p.Counter("events"), 3u);
  EXPECT_DOUBLE_EQ(p.MaxEnd(), 3.0);
  EXPECT_EQ(p.CountNamed("f"), 1u);
  EXPECT_EQ(p.CountCategory("test"), 3u);
}

TEST(TraceRecorderTest, CapacityOverflowDropsAndCounts) {
  obs::TraceRecorder rec;
  obs::TrackId t = rec.RegisterTrack("t");
  for (size_t i = 0; i < obs::kSpanCapacity; ++i) {
    rec.AddComplete(t, "s", "c", static_cast<double>(i),
                    static_cast<double>(i + 1));
  }
  rec.AddComplete(t, "dropped", "c", 0, 1);
  EXPECT_EQ(rec.dropped_spans(), 1u);
  EXPECT_EQ(rec.BeginSpan(t, "x", "c", 0.0), obs::kInvalidSpan);
  obs::QueryProfile p = rec.Finish();
  EXPECT_EQ(p.spans.size(), obs::kSpanCapacity);
  EXPECT_EQ(p.dropped_spans, 2u);

  // Unbounded mode keeps everything.
  obs::TraceRecorder grow(obs::TraceRecorder::Options{/*unbounded=*/true});
  for (size_t i = 0; i <= obs::kSpanCapacity; ++i) {
    grow.AddComplete(0, "s", "c", static_cast<double>(i),
                     static_cast<double>(i + 1));
  }
  EXPECT_EQ(grow.Finish().spans.size(), obs::kSpanCapacity + 1);
}

TEST(TraceRecorderTest, SpanGuardEndsOnScopeExit) {
  obs::TraceRecorder rec;
  obs::TrackId t = rec.RegisterTrack("t");
  double now = 1.0;
  {
    obs::Span span(&rec, t, "scoped", "test", FixedClock(&now));
    span.SetAttr("k", 7.0);
    now = 5.0;  // clock advances while the span is open
  }
  obs::QueryProfile p = rec.Finish();
  ASSERT_EQ(p.spans.size(), 1u);
  EXPECT_DOUBLE_EQ(p.spans[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(p.spans[0].end_s, 5.0);
  EXPECT_DOUBLE_EQ(p.spans[0].Attr("k"), 7.0);

  // Null-recorder guards are inert.
  double t0 = 0.0;
  obs::Span inert(nullptr, 0, "x", "y", FixedClock(&t0));
  inert.SetAttr("a", 1.0);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, SnapshotAndReset) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("hits");
  c->Add(5);
  EXPECT_EQ(reg.Snapshot().at("hits"), 5u);
  c->Add(2);
  EXPECT_EQ(reg.Snapshot().at("hits"), 7u);  // counters only grow
}

// ---------------------------------------------------------------------------
// Single-node engine profiles
// ---------------------------------------------------------------------------

host::Database* EngineDb() {
  static host::Database* db = [] {
    auto* d = new host::Database();  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, 0.002));
    return d;
  }();
  return db;
}

TEST(EngineTraceTest, ProfileCoversPipelinesKernelsAndBuffer) {
  engine::SiriusEngine engine(EngineDb(), {});
  auto plan = EngineDb()->PlanSql(tpch::Query(3)).ValueOrDie();
  auto result = engine.ExecutePlan(plan).ValueOrDie();
  ASSERT_NE(result.profile, nullptr);

  TraceMatcher m(*result.profile);
  EXPECT_GE(m.Track("engine"), 0);
  EXPECT_TRUE(m.HasTrackPrefixed("stream-"));
  EXPECT_GT(result.profile->CountCategory("pipeline"), 0u);
  EXPECT_GT(result.profile->CountCategory("kernel"), 0u);
  EXPECT_GT(result.profile->CountCategory("buffer"), 0u);  // cold scans load

  // The enclosing "query" span covers the whole simulated execution.
  auto query = m.Named("query");
  ASSERT_FALSE(query.empty());
  EXPECT_NEAR(query[0]->end_s, result.timeline.total_seconds(), 1e-9);

  // Kernel spans carry the cost-model prediction alongside the charge.
  auto kernels = result.profile->SpansInCategory("kernel");
  ASSERT_FALSE(kernels.empty());
  for (const auto* k : kernels) {
    EXPECT_GT(k->Attr("charged_s"), 0.0);
    EXPECT_GE(k->Attr("charged_s"), k->Attr("predicted_s") * 0.999);
  }
}

TEST(EngineTraceTest, SecondRunHitsCacheWithoutLoadSpans) {
  engine::SiriusEngine engine(EngineDb(), {});
  auto plan = EngineDb()->PlanSql(tpch::Query(6)).ValueOrDie();
  auto cold = engine.ExecutePlan(plan).ValueOrDie();
  ASSERT_NE(cold.profile, nullptr);
  EXPECT_GT(cold.profile->CountNamed("load:"), 0u);

  auto warm = engine.ExecutePlan(plan).ValueOrDie();
  ASSERT_NE(warm.profile, nullptr);
  EXPECT_GT(warm.profile->Counter("buffer.hits"), 0u);
  EXPECT_EQ(warm.profile->CountNamed("load:"), 0u);
  EXPECT_EQ(warm.profile->CountCategory("buffer"), 0u);
  // Warm runs are also faster in simulated time (no host-link transfer).
  EXPECT_LT(warm.timeline.total_seconds(), cold.timeline.total_seconds());
}

TEST(EngineTraceTest, TracingOffYieldsNoProfileAndIdenticalTiming) {
  auto plan = EngineDb()->PlanSql(tpch::Query(3)).ValueOrDie();

  engine::SiriusEngine::Options on;
  engine::SiriusEngine traced(EngineDb(), on);
  auto with = traced.ExecutePlan(plan).ValueOrDie();
  ASSERT_NE(with.profile, nullptr);

  engine::SiriusEngine::Options off;
  off.tracing = false;
  engine::SiriusEngine untraced(EngineDb(), off);
  auto without = untraced.ExecutePlan(plan).ValueOrDie();
  EXPECT_EQ(without.profile, nullptr);

  // Tracing observes the simulated clock but never advances it: simulated
  // time must be *identical* (the acceptance budget is <5%; this is 0).
  EXPECT_DOUBLE_EQ(with.timeline.total_seconds(),
                   without.timeline.total_seconds());
  EXPECT_TRUE(with.table->Equals(*without.table));
}

TEST(EngineTraceTest, ExportIsDeterministicAcrossRuns) {
  auto plan = EngineDb()->PlanSql(tpch::Query(3)).ValueOrDie();
  auto export_once = [&] {
    engine::SiriusEngine engine(EngineDb(), {});
    auto result = engine.ExecutePlan(plan).ValueOrDie();
    return obs::ToChromeTraceJson(*result.profile);
  };
  std::string first = export_once();
  std::string second = export_once();
  // Same plan, same seed, fresh engine: byte-identical trace despite the
  // worker pool executing pipelines in nondeterministic wall-clock order.
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Distributed profiles
// ---------------------------------------------------------------------------

dist::DorisCluster::Options TraceClusterOptions() {
  dist::DorisCluster::Options options;
  options.num_nodes = 4;
  // Force shuffles (no broadcast shortcut): Q3's joins then exercise the
  // all-to-all path whose overlap the trace should expose.
  options.broadcast_threshold_bytes = 1;
  return options;
}

void LoadCluster(dist::DorisCluster* cluster, double sf = 0.005) {
  for (const auto& name : tpch::TableNames()) {
    auto t = tpch::GenerateTable(name, sf).ValueOrDie();
    SIRIUS_CHECK_OK(cluster->LoadPartitioned(name, t));
  }
}

TEST(DistTraceTest, ShuffleOverlapsDownstreamFragments) {
  dist::DorisCluster cluster(TraceClusterOptions());
  LoadCluster(&cluster);
  auto result = cluster.Query(tpch::Query(3)).ValueOrDie();
  ASSERT_NE(result.profile, nullptr);
  TraceMatcher m(*result.profile);

  // All four layers report: kernels, buffer loads, collectives, fragments.
  EXPECT_GT(result.profile->CountCategory("kernel"), 0u);
  EXPECT_GT(result.profile->CountCategory("buffer"), 0u);
  EXPECT_GT(result.profile->CountCategory("collective"), 0u);
  EXPECT_GT(result.profile->CountCategory("fragment"), 0u);
  EXPECT_GE(m.Track("link"), 0);
  EXPECT_GE(m.Track("coordinator"), 0);
  EXPECT_TRUE(m.HasTrackPrefixed("node-"));

  auto shuffles = m.Named("collective:sccl.alltoall", "link");
  ASSERT_FALSE(shuffles.empty()) << "Q3 with broadcast disabled must shuffle";

  // Per-rank collective completion: at least one downstream fragment span
  // (a build/probe on a lightly-loaded rank) starts while the slowest rank
  // is still inside some shuffle — the overlap GPU schedulers chase.
  auto fragments = m.Named("op:", "node-");
  ASSERT_FALSE(fragments.empty());
  bool overlap = false;
  for (const auto* s : shuffles) {
    overlap = overlap ||
              TraceMatcher::AnyStartsWithin(fragments, s->start_s, s->end_s);
  }
  EXPECT_TRUE(overlap);

  // Collective spans carry their traffic (an empty intermediate may ship 0
  // bytes, but at least one Q3 shuffle moves real rows).
  double max_bytes = 0.0;
  for (const auto* s : shuffles) max_bytes = std::max(max_bytes, s->Attr("bytes"));
  EXPECT_GT(max_bytes, 0.0);
}

TEST(DistTraceTest, SecondRunServesScansFromNodeCaches) {
  dist::DorisCluster cluster(TraceClusterOptions());
  LoadCluster(&cluster);
  auto cold = cluster.Query(tpch::Query(3)).ValueOrDie();
  ASSERT_NE(cold.profile, nullptr);
  EXPECT_GT(cold.profile->CountNamed("load:"), 0u);
  EXPECT_GT(cold.profile->Counter("buffer.misses"), 0u);

  auto warm = cluster.Query(tpch::Query(3)).ValueOrDie();
  ASSERT_NE(warm.profile, nullptr);
  EXPECT_GT(warm.profile->Counter("buffer.hits"), 0u);
  EXPECT_EQ(warm.profile->Counter("buffer.misses"), 0u);
  EXPECT_EQ(warm.profile->CountNamed("load:"), 0u);
  EXPECT_TRUE(cold.table->Equals(*warm.table));
}

TEST(DistTraceTest, TransientLinkFaultShowsExactlyTheReportedRetries) {
  fault::FaultInjector injector(/*seed=*/7);
  auto options = TraceClusterOptions();
  options.injector = &injector;
  dist::DorisCluster cluster(options);
  LoadCluster(&cluster);

  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;  // transient: retry layer heals it
  spec.max_triggers = 2;
  fault::ScopedFault fault(&injector, "sccl.alltoall", spec);

  auto result = cluster.Query(tpch::Query(3)).ValueOrDie();
  ASSERT_NE(result.profile, nullptr);
  EXPECT_EQ(result.recovery.collective_retries, 2);

  // One retry span per healed attempt, no more, no fewer.
  TraceMatcher m(*result.profile);
  auto retries = m.Named("retry:sccl.alltoall", "link");
  EXPECT_EQ(retries.size(),
            static_cast<size_t>(result.recovery.collective_retries));
  EXPECT_EQ(result.profile->CountCategory("retry"),
            static_cast<size_t>(result.recovery.collective_retries));
  for (const auto* r : retries) EXPECT_GT(r->duration_s(), 0.0);
}

TEST(DistTraceTest, NodeDeathLeavesRecoveryMarkers) {
  fault::FaultInjector injector(/*seed=*/11);
  auto options = TraceClusterOptions();
  options.injector = &injector;
  dist::DorisCluster cluster(options);
  LoadCluster(&cluster, 0.003);

  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_triggers = 1;
  fault::ScopedFault fault(&injector, "dist.fragment", spec);

  auto result = cluster.Query(tpch::Query(1)).ValueOrDie();
  ASSERT_NE(result.profile, nullptr);
  EXPECT_EQ(result.recovery.node_failures, 1);
  EXPECT_EQ(result.recovery.query_retries, 1);
  TraceMatcher m(*result.profile);
  EXPECT_EQ(m.Named("recovery:node-").size(), 1u);
  EXPECT_EQ(m.Named("recovery:query-retry").size(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportTest, ChromeTraceValidatesAgainstEventSchema) {
  dist::DorisCluster cluster(TraceClusterOptions());
  LoadCluster(&cluster);
  auto result = cluster.Query(tpch::Query(3)).ValueOrDie();
  ASSERT_NE(result.profile, nullptr);

  std::string json = obs::ToChromeTraceJson(*result.profile);
  auto doc = plan::Json::Parse(json).ValueOrDie();
  ASSERT_TRUE(doc.Has("traceEvents"));
  const auto& events = doc["traceEvents"];
  ASSERT_EQ(events.kind(), plan::Json::Kind::kArray);
  ASSERT_GT(events.size(), 0u);

  std::set<std::string> cats;
  std::set<std::string> thread_names;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events.at(i);
    ASSERT_TRUE(e.Has("name"));
    ASSERT_TRUE(e.Has("ph"));
    ASSERT_TRUE(e.Has("pid"));
    ASSERT_TRUE(e.Has("tid"));
    const std::string ph = e["ph"].AsString();
    if (ph == "M") {
      EXPECT_EQ(e["name"].AsString(), "thread_name");
      thread_names.insert(e["args"]["name"].AsString());
      continue;
    }
    ASSERT_TRUE(e.Has("ts"));
    ASSERT_TRUE(e.Has("cat"));
    EXPECT_GE(e["ts"].AsDouble(), 0.0);
    if (ph == "X") {
      ASSERT_TRUE(e.Has("dur"));
      EXPECT_GE(e["dur"].AsDouble(), 0.0);
    } else {
      EXPECT_EQ(ph, "i");
    }
    cats.insert(e["cat"].AsString());
  }
  // Spans from every instrumented layer make it into the export.
  EXPECT_TRUE(cats.count("kernel"));
  EXPECT_TRUE(cats.count("buffer"));
  EXPECT_TRUE(cats.count("collective"));
  EXPECT_TRUE(cats.count("fragment"));
  // One simulated lane per node plus the link and the coordinator.
  EXPECT_TRUE(thread_names.count("link"));
  EXPECT_TRUE(thread_names.count("coordinator"));
  EXPECT_TRUE(thread_names.count("node-0"));
  EXPECT_TRUE(thread_names.count("node-3"));
}

TEST(ExportTest, TextSummaryListsCategoriesAndCounters) {
  engine::SiriusEngine engine(EngineDb(), {});
  auto plan = EngineDb()->PlanSql(tpch::Query(6)).ValueOrDie();
  auto result = engine.ExecutePlan(plan).ValueOrDie();
  std::string text = obs::ToTextSummary(*result.profile);
  EXPECT_NE(text.find("kernel"), std::string::npos);
  EXPECT_NE(text.find("pipeline"), std::string::npos);
  EXPECT_NE(text.find("buffer.misses"), std::string::npos);
}

}  // namespace
}  // namespace sirius
