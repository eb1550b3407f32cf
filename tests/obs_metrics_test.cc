// Unit tests for the obs metric registry, snapshots, and spans.
//
// These run in their own binary (dswm_obs_tests, label "obs") because they
// toggle the process-global enabled flag and reset the registry; the
// fixture restores a clean disabled state around every test.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.h"
#include "test_util.h"

namespace dswm::obs {
namespace {

// Names of the span counters that recorded at least one span.
std::set<std::string> RecordedSpans() {
  std::set<std::string> names;
  for (const auto& [name, v] : Registry().Snapshot().counters) {
    if (v > 0 && name.starts_with("span.") && name.ends_with(".count")) {
      names.insert(name);
    }
  }
  return names;
}

// Asserts that nothing reached the registry since `base`: no name was
// registered and no value moved. Earlier tests in the binary leave their
// names registered (ResetForTest only zeroes values), so emptiness would
// depend on which tests ran first.
void ExpectNothingRecordedSince(const MetricsSnapshot& base) {
  const MetricsSnapshot now = Registry().Snapshot();
  EXPECT_EQ(now.counters, base.counters);
  EXPECT_EQ(now.gauges, base.gauges);
  EXPECT_EQ(now.histograms, base.histograms);
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry().ResetForTest();
    SetEnabled(false);
  }
  void TearDown() override {
    SetEnabled(false);
    Registry().ResetForTest();
  }
};

TEST_F(ObsTest, DisabledMacrosRecordNothing) {
  DSWM_OBS_COUNT("test.disabled_counter", 5);
  DSWM_OBS_HISTOGRAM("test.disabled_hist", (std::vector<long>{1, 2}), 1);
  const MetricsSnapshot snap = Registry().Snapshot();
  EXPECT_EQ(snap.counters.count("test.disabled_counter"), 0u);
  EXPECT_EQ(snap.histograms.count("test.disabled_hist"), 0u);
}

TEST_F(ObsTest, EnabledMacrosRecord) {
  SetEnabled(true);
  DSWM_OBS_COUNT("test.counter", 2);
  DSWM_OBS_COUNT("test.counter", 3);
  const MetricsSnapshot snap = Registry().Snapshot();
  ASSERT_EQ(snap.counters.count("test.counter"), 1u);
  EXPECT_EQ(snap.counters.at("test.counter"), 5);
}

TEST_F(ObsTest, RegistryHandlesAreStableAcrossReset) {
  Counter* c = Registry().GetCounter("test.stable");
  c->Add(7);
  Registry().ResetForTest();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(Registry().GetCounter("test.stable"), c);
  c->Add(1);
  EXPECT_EQ(Registry().Snapshot().counters.at("test.stable"), 1);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  // A sample v lands in the first bucket with v <= edge; above the last
  // edge is the overflow bucket.
  Histogram* h = Registry().GetHistogram("test.edges", {10, 20, 30});
  for (long v : {-5L, 0L, 10L}) h->Observe(v);  // all land in bucket 0
  h->Observe(11);                               // bucket 1
  h->Observe(20);                               // bucket 1 (v <= edge)
  h->Observe(30);                               // bucket 2
  h->Observe(31);                               // overflow
  h->Observe(1000);                             // overflow
  EXPECT_EQ(h->counts(), (std::vector<long>{3, 2, 1, 2}));
  EXPECT_EQ(h->total_count(), 8);
  EXPECT_EQ(h->sum(), -5 + 0 + 10 + 11 + 20 + 30 + 31 + 1000);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge* g = Registry().GetGauge("test.gauge");
  g->Set(3);
  g->Set(11);
  EXPECT_EQ(Registry().Snapshot().gauges.at("test.gauge"), 11);
}

TEST_F(ObsTest, DeltaSinceScopesARun) {
  Counter* c = Registry().GetCounter("test.delta");
  Gauge* g = Registry().GetGauge("test.delta_gauge");
  c->Add(10);
  g->Set(1);
  const MetricsSnapshot base = Registry().Snapshot();
  c->Add(7);
  g->Set(42);
  const MetricsSnapshot delta = Registry().Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("test.delta"), 7);
  // Gauges keep the current value: they are end-of-run absolutes.
  EXPECT_EQ(delta.gauges.at("test.delta_gauge"), 42);
}

TEST_F(ObsTest, WithoutWallTimesDropsExactlyTheSuffix) {
  MetricsSnapshot s;
  s.counters["span.a.count"] = 1;
  s.counters["span.a.wall_ns"] = 123456;
  s.counters["wall_ns"] = 2;  // bare name, not the ".wall_ns" suffix: kept
  s.counters["a.wall_ns_total"] = 3;  // not the suffix, kept
  const MetricsSnapshot d = WithoutWallTimes(s);
  EXPECT_EQ(d.counters.count("span.a.count"), 1u);
  EXPECT_EQ(d.counters.count("span.a.wall_ns"), 0u);
  EXPECT_EQ(d.counters.count("wall_ns"), 1u);
  EXPECT_EQ(d.counters.count("a.wall_ns_total"), 1u);
}

TEST_F(ObsTest, ToJsonIsSortedAndStable) {
  MetricsSnapshot s;
  s.counters["b"] = 2;
  s.counters["a"] = 1;
  s.gauges["g"] = 3;
  s.histograms["h"] = HistogramSnapshot{{1, 2}, {0, 1, 0}, 1, 2};
  const std::string json = s.ToJson();
  EXPECT_EQ(json,
            "{\"counters\":{\"a\":1,\"b\":2},\"gauges\":{\"g\":3},"
            "\"histograms\":{\"h\":{\"edges\":[1,2],\"counts\":[0,1,0],"
            "\"sum\":2,\"count\":1}}}");
  // Equal snapshots serialize byte-identically.
  MetricsSnapshot t = s;
  EXPECT_EQ(t.ToJson(), json);
}

TEST_F(ObsTest, ConcurrentCounterAddsAreExact) {
  SetEnabled(true);
  Counter* c = Registry().GetCounter("test.concurrent");
  // Raw threads on purpose: the contract is about bare concurrent Add()
  // calls, independent of ThreadPool scheduling.
  std::vector<std::thread> threads;  // dswm-semlint: allow(raw-thread-outside-common)
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([c] {
      for (int j = 0; j < 10000; ++j) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), 40000);
}

TEST_F(ObsTest, SpanNestingBuildsDotPaths) {
  SetEnabled(true);
  {
    Span outer("driver");
    { Span inner("observe"); }
    // The first inner span cut the path back to "driver" when it closed,
    // so its sibling nests under "driver", not under "driver.observe".
    { Span inner("query"); }
  }
  // The outer span cut the path back to "".
  { Span top("after"); }
  EXPECT_EQ(RecordedSpans(),
            (std::set<std::string>{"span.after.count", "span.driver.count",
                                   "span.driver.observe.count",
                                   "span.driver.query.count"}));
  const MetricsSnapshot snap = Registry().Snapshot();
  EXPECT_EQ(snap.counters.at("span.driver.count"), 1);
  EXPECT_EQ(snap.counters.at("span.driver.observe.count"), 1);
  EXPECT_GE(snap.counters.at("span.driver.wall_ns"), 0);
}

TEST_F(ObsTest, SpanDisabledIsInvisible) {
  const MetricsSnapshot before = Registry().Snapshot();
  { Span span("ghost"); }
  ExpectNothingRecordedSince(before);
  // A span opened while metrics are off pushes no phase: a span opened
  // inside it once they are on records at the top level.
  {
    Span ghost("ghost");
    SetEnabled(true);
    Span inner("inner");
  }
  EXPECT_EQ(RecordedSpans(), (std::set<std::string>{"span.inner.count"}));
}

TEST_F(ObsTest, SpanAlwaysFeedsExternalAccumulator) {
  const MetricsSnapshot before = Registry().Snapshot();
  double seconds = 0.0;
  { Span span("timed", &seconds); }
  EXPECT_GE(seconds, 0.0);
  // Disabled: still measured, but nothing hits the registry.
  ExpectNothingRecordedSince(before);

  SetEnabled(true);
  double more = 0.0;
  { Span span("timed", &more); }
  EXPECT_GE(more, 0.0);
  EXPECT_EQ(Registry().Snapshot().counters.at("span.timed.count"), 1);
}

TEST_F(ObsTest, PerThreadSpanPathsAreIndependent) {
  SetEnabled(true);
  {
    Span main_span("main_phase");
    // A genuinely fresh thread (not a pooled worker) is the point: its
    // thread_local span path must start empty, not under "main_phase".
    std::thread worker([] {  // dswm-semlint: allow(raw-thread-outside-common)
      Span span("worker_phase");
    });
    worker.join();
    // The worker's span left this thread's path at "main_phase".
    Span inner("inner");
  }
  EXPECT_EQ(RecordedSpans(),
            (std::set<std::string>{"span.main_phase.count",
                                   "span.main_phase.inner.count",
                                   "span.worker_phase.count"}));
}

}  // namespace
}  // namespace dswm::obs
