// Tests for the obs subsystem: logger level filtering and sinks, metric
// counter/gauge/histogram semantics, and Prometheus/JSON export golden
// strings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace mustaple::obs {
namespace {

// ---------------------------------------------------------------- logger --

TEST(Logger, LevelFiltering) {
  Logger logger;
  auto ring = std::make_shared<RingBufferSink>();
  logger.add_sink(ring);
  logger.set_level(Level::kWarn);

  EXPECT_FALSE(logger.enabled(Level::kDebug));
  EXPECT_FALSE(logger.enabled(Level::kInfo));
  EXPECT_TRUE(logger.enabled(Level::kWarn));
  EXPECT_TRUE(logger.enabled(Level::kError));

  logger.log(Level::kInfo, "t", "filtered out");
  logger.log(Level::kWarn, "t", "kept");
  logger.log(Level::kError, "t", "also kept");
  ASSERT_EQ(ring->records().size(), 2u);
  EXPECT_EQ(ring->records()[0].message, "kept");
  EXPECT_EQ(ring->records()[1].message, "also kept");
}

TEST(Logger, SinklessLoggerIsDisabled) {
  Logger logger;
  EXPECT_FALSE(logger.enabled(Level::kError));
  logger.log(Level::kError, "t", "goes nowhere");  // must not crash
}

TEST(Logger, RingBufferEvictsOldest) {
  Logger logger;
  auto ring = std::make_shared<RingBufferSink>(3);
  logger.add_sink(ring);
  for (int i = 0; i < 5; ++i) {
    logger.log(Level::kInfo, "t", "m" + std::to_string(i));
  }
  ASSERT_EQ(ring->records().size(), 3u);
  EXPECT_EQ(ring->records().front().message, "m2");
  EXPECT_EQ(ring->records().back().message, "m4");
  EXPECT_EQ(ring->dropped(), 2u);
  ring->clear();
  EXPECT_TRUE(ring->records().empty());
  EXPECT_EQ(ring->dropped(), 0u);
}

TEST(Logger, RecordsCarryBothClocks) {
  Logger logger;
  auto ring = std::make_shared<RingBufferSink>();
  logger.add_sink(ring);
  logger.set_sim_clock([] { return util::make_time(2018, 5, 1, 12, 0, 0); });
  logger.log(Level::kInfo, "scan", "probe", {field("host", "ocsp.example")});
  ASSERT_EQ(ring->records().size(), 1u);
  const LogRecord& record = ring->records().front();
  ASSERT_TRUE(record.sim_time.has_value());
  EXPECT_EQ(record.sim_time->unix_seconds,
            util::make_time(2018, 5, 1, 12, 0, 0).unix_seconds);
  EXPECT_GT(record.wall_time.time_since_epoch().count(), 0);

  const std::string text = record.to_text();
  EXPECT_NE(text.find("info [scan] probe host=ocsp.example"),
            std::string::npos);
  EXPECT_NE(text.find("sim=\"2018-05-01 12:00:00\""), std::string::npos);

  const std::string json = record.to_json();
  EXPECT_NE(json.find("\"sim\":\"2018-05-01 12:00:00\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_unix\":1525176000"), std::string::npos);
  EXPECT_NE(json.find("\"wall\":\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_unix_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"host\":\"ocsp.example\""), std::string::npos);

  // Without a sim clock the sim stamp disappears.
  logger.set_sim_clock(nullptr);
  logger.log(Level::kInfo, "scan", "probe2");
  EXPECT_FALSE(ring->records().back().sim_time.has_value());
  EXPECT_EQ(ring->records().back().to_json().find("\"sim\":"),
            std::string::npos);
}

TEST(Logger, JsonEscapesSpecials) {
  LogRecord record;
  record.message = "quote \" backslash \\ newline \n";
  const std::string json = record.to_json();
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n"),
            std::string::npos);
}

TEST(Logger, FieldHelpersFormatValues) {
  EXPECT_EQ(field("k", "v").value, "v");
  EXPECT_EQ(field("k", std::string("s")).value, "s");
  EXPECT_EQ(field("k", 42).value, "42");
  EXPECT_EQ(field("k", std::size_t{7}).value, "7");
  EXPECT_EQ(field("k", -3).value, "-3");
  EXPECT_EQ(field("k", 2.5).value, "2.5");
  EXPECT_EQ(field("k", true).value, "true");
  EXPECT_EQ(field("k", false).value, "false");
}

TEST(Logger, EnabledTracksSinkSetWithoutLocking) {
  // Regression: enabled() is the per-call-site fast path and reads only
  // atomics; has_sinks_ must mirror every mutation of the sink list.
  Logger logger;
  logger.set_level(Level::kDebug);
  EXPECT_FALSE(logger.enabled(Level::kError));  // sinkless
  auto ring = std::make_shared<RingBufferSink>();
  logger.add_sink(ring);
  EXPECT_TRUE(logger.enabled(Level::kDebug));
  logger.remove_sink(ring);
  EXPECT_FALSE(logger.enabled(Level::kError));
  logger.add_sink(ring);
  logger.clear_sinks();
  EXPECT_FALSE(logger.enabled(Level::kError));
}

TEST(Logger, ConcurrentSinkChurnAndLoggingIsSafe) {
  // Regression: sinks_ and sim_clock_ are read under the logger mutex while
  // other threads mutate them; enabled() stays lock-free throughout. The
  // assertions are minimal — the value of this test is under TSan.
  Logger logger;
  auto ring = std::make_shared<RingBufferSink>();
  logger.add_sink(ring);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      logger.set_sim_clock([] { return util::make_time(2018, 6, 1); });
      logger.set_sim_clock(nullptr);
      logger.clear_sinks();
      logger.add_sink(ring);
    }
  });
  std::thread reader([&] {
    while (!stop.load()) (void)logger.enabled(Level::kInfo);
  });
  for (int i = 0; i < 500; ++i) {
    logger.log(Level::kInfo, "churn", "msg " + std::to_string(i));
  }
  stop.store(true);
  churn.join();
  reader.join();
  logger.clear_sinks();
  logger.add_sink(ring);
  logger.log(Level::kInfo, "churn", "final");
  EXPECT_FALSE(ring->records().empty());
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, CounterSemantics) {
  Registry registry;
  Counter& c = registry.counter("mustaple_test_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name+labels -> same cell; different labels -> different cell.
  EXPECT_EQ(&registry.counter("mustaple_test_total"), &c);
  Counter& labelled =
      registry.counter("mustaple_test_total", {{"kind", "dns"}});
  EXPECT_NE(&labelled, &c);
  labelled.inc();
  EXPECT_EQ(registry.counter_value("mustaple_test_total"), 5u);
  EXPECT_EQ(registry.counter_value("mustaple_test_total", {{"kind", "dns"}}),
            1u);
  EXPECT_EQ(registry.counter_value("absent_total"), 0u);
}

TEST(Metrics, LabelOrderIsCanonical) {
  Registry registry;
  Counter& a = registry.counter("m", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(canonical_labels({{"b", "2"}, {"a", "1"}}),
            "{a=\"1\",b=\"2\"}");
  EXPECT_EQ(canonical_labels({}), "");
}

TEST(Metrics, GaugeSemantics) {
  Registry registry;
  Gauge& g = registry.gauge("mustaple_test_depth");
  g.set(5);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set_max(3);  // below current -> no change
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set_max(10);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("mustaple_test_depth"), 10.0);
}

TEST(Metrics, GaugeSetMaxTakesFirstSampleUnconditionally) {
  Registry registry;
  Gauge& g = registry.gauge("mustaple_test_floor");
  // A fresh gauge reads 0, but 0 is not a sample: an all-negative series
  // must report its true maximum, not stick at the initial 0.
  g.set_max(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), -5.0);
  g.set_max(-9.0);
  EXPECT_DOUBLE_EQ(g.value(), -5.0);
  g.set_max(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);

  // set() counts as a sample too: a later smaller set_max is a no-op.
  Gauge& h = registry.gauge("mustaple_test_floor2");
  h.set(-1.0);
  h.set_max(-4.0);
  EXPECT_DOUBLE_EQ(h.value(), -1.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  Registry registry;
  Histogram& h = registry.histogram("mustaple_test_ms", {1.0, 10.0, 100.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (le is inclusive)
  h.observe(5.0);   // <= 10
  h.observe(50.0);  // <= 100
  h.observe(500.0); // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_DOUBLE_EQ(h.stats().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.stats().max(), 500.0);
  // Second lookup keeps the original bounds.
  EXPECT_EQ(&registry.histogram("mustaple_test_ms", std::vector<double>{7.0}),
            &h);
  EXPECT_EQ(h.bounds().size(), 3u);
}

TEST(Metrics, HistogramQuantilesInterpolateWithinBuckets) {
  Histogram h({10.0, 20.0});
  for (double x : {2.0, 4.0, 6.0, 8.0}) h.observe(x);      // first bucket
  for (double x : {12.0, 14.0, 16.0, 18.0}) h.observe(x);  // second bucket
  h.observe(25.0);                                         // +Inf bucket
  h.observe(30.0);
  // rank 5 of 10 lands 1/4 into the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 12.5);
  EXPECT_DOUBLE_EQ(h.p50(), 12.5);
  // Ranks in the +Inf bucket have no upper bound: the observed max.
  EXPECT_DOUBLE_EQ(h.p95(), 30.0);
  EXPECT_DOUBLE_EQ(h.p99(), 30.0);
  // Extremes pin to the observed range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
}

TEST(Metrics, HistogramQuantilesClampAndHandleEmpty) {
  Histogram empty({10.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // One sample at 4 in a (0, 10] bucket: interpolation toward the bound
  // must not exceed the observed max.
  Histogram single({10.0});
  single.observe(4.0);
  EXPECT_DOUBLE_EQ(single.p50(), 4.0);
  EXPECT_DOUBLE_EQ(single.p99(), 4.0);
}

TEST(Metrics, PrometheusGolden) {
  Registry registry;
  registry.counter("mustaple_demo_total").inc(3);
  registry.counter("mustaple_demo_errors_total", {{"kind", "dns"}}).inc();
  registry.counter("mustaple_demo_errors_total", {{"kind", "tcp"}}).inc(2);
  registry.gauge("mustaple_demo_depth").set(7);
  Histogram& h = registry.histogram("mustaple_demo_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(99.0);
  EXPECT_EQ(registry.render_prometheus(),
            "# TYPE mustaple_demo_errors_total counter\n"
            "mustaple_demo_errors_total{kind=\"dns\"} 1\n"
            "mustaple_demo_errors_total{kind=\"tcp\"} 2\n"
            "# TYPE mustaple_demo_total counter\n"
            "mustaple_demo_total 3\n"
            "# TYPE mustaple_demo_depth gauge\n"
            "mustaple_demo_depth 7\n"
            "# TYPE mustaple_demo_ms histogram\n"
            "mustaple_demo_ms_bucket{le=\"1\"} 1\n"
            "mustaple_demo_ms_bucket{le=\"10\"} 2\n"
            "mustaple_demo_ms_bucket{le=\"+Inf\"} 3\n"
            "mustaple_demo_ms_sum 101.5\n"
            "mustaple_demo_ms_count 3\n"
            "mustaple_demo_ms_p50 5.5\n"
            "mustaple_demo_ms_p95 99\n"
            "mustaple_demo_ms_p99 99\n");
}

TEST(Metrics, PrometheusHistogramWithLabels) {
  Registry registry;
  registry.histogram("m_ms", {1.0}, {{"region", "paris"}}).observe(0.5);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("m_ms_bucket{region=\"paris\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("m_ms_sum{region=\"paris\"} 0.5"), std::string::npos);
  EXPECT_NE(text.find("m_ms_count{region=\"paris\"} 1"), std::string::npos);
}

TEST(Metrics, JsonGolden) {
  Registry registry;
  registry.counter("a_total").inc(2);
  registry.counter("b_total", {{"kind", "dns"}}).inc();
  registry.gauge("depth").set(1.5);
  registry.histogram("lat_ms", std::vector<double>{10.0}).observe(4.0);
  EXPECT_EQ(registry.render_json(),
            "{\"counters\":{\"a_total\":2,\"b_total{kind=\\\"dns\\\"}\":1},"
            "\"gauges\":{\"depth\":1.5},"
            "\"histograms\":{\"lat_ms\":{\"count\":1,\"sum\":4,\"mean\":4,"
            "\"min\":4,\"max\":4,\"p50\":4,\"p95\":4,\"p99\":4,"
            "\"buckets\":[{\"le\":10,\"count\":1},"
            "{\"le\":\"+Inf\",\"count\":1}]}}}");
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  Registry registry;
  // Raw value: a\b"c<newline>d — each special must come out escaped per the
  // exposition format (backslash, quote, literal backslash-n).
  registry.counter("esc_total", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos)
      << text;
  // No raw newline may survive inside a sample line.
  EXPECT_EQ(text.find("c\nd"), std::string::npos) << text;
}

TEST(Metrics, EscapingKeepsDistinctRawValuesDistinct) {
  Registry registry;
  // "a<newline>b" vs the two-character sequence "a\nb": escaping must be
  // injective or these would merge into one series.
  registry.counter("amb_total", {{"k", "a\nb"}}).inc();
  registry.counter("amb_total", {{"k", "a\\nb"}}).inc(2);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("amb_total{k=\"a\\nb\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("amb_total{k=\"a\\\\nb\"} 2"), std::string::npos)
      << text;
}

TEST(Metrics, NonFiniteValuesUseExpositionSpellings) {
  Registry registry;
  registry.gauge("g_nan").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("g_pos").set(std::numeric_limits<double>::infinity());
  registry.gauge("g_neg").set(-std::numeric_limits<double>::infinity());
  const std::string text = registry.render_prometheus();
  // printf's "nan"/"inf" are rejected by Prometheus parsers; the exporter
  // must spell these NaN / +Inf / -Inf.
  EXPECT_NE(text.find("g_nan NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_pos +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_neg -Inf\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan\n"), std::string::npos) << text;
  EXPECT_EQ(text.find(" inf"), std::string::npos) << text;
}

TEST(Metrics, NonFiniteValuesRenderAsJsonNull) {
  Registry registry;
  registry.gauge("g_undefined").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("g_unbounded").set(std::numeric_limits<double>::infinity());
  const std::string json = registry.render_json();
  // JSON has no NaN/Infinity literals; null keeps the document parseable.
  EXPECT_NE(json.find("\"g_undefined\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g_unbounded\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("NaN"), std::string::npos) << json;
  EXPECT_EQ(json.find("nf"), std::string::npos) << json;  // Inf / Infinity
}

TEST(Metrics, HistogramSnapshotIsInternallyConsistent) {
  Registry registry;
  Histogram& histogram =
      registry.histogram("snap_ms", std::vector<double>{1.0, 10.0});
  histogram.observe(0.5);
  histogram.observe(2.0);
  histogram.observe(99.0);
  const HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.bounds, (std::vector<double>{1.0, 10.0}));
  // Buckets are per-bucket (non-cumulative) with the +Inf overflow last.
  ASSERT_EQ(snap.buckets,
            (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 101.5);
  EXPECT_DOUBLE_EQ(snap.mean, snap.sum / static_cast<double>(snap.count));
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 99.0);
  EXPECT_LE(snap.min, snap.p50);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(Metrics, EmptyHistogramSnapshotIsAllZero) {
  Registry registry;
  const HistogramSnapshot snap =
      registry.histogram("never_ms", std::vector<double>{5.0}).snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0] + snap.buckets[1], 0u);
}

// ----------------------------------------------------------------- trace --

TEST(Trace, ScopeSavesAndRestoresLifo) {
  EXPECT_FALSE(current_trace().active());
  {
    TraceScope outer(TraceContext{7, 1});
    EXPECT_EQ(current_trace().trace_id, 7u);
    {
      TraceScope inner(TraceContext{8, 2});
      EXPECT_EQ(current_trace().trace_id, 8u);
      EXPECT_EQ(current_trace().probe_id, 2u);
    }
    EXPECT_EQ(current_trace().trace_id, 7u);
    EXPECT_EQ(current_trace().probe_id, 1u);
  }
  EXPECT_FALSE(current_trace().active());
}

TEST(Trace, NextTraceIdNeverReturnsZero) {
  const std::uint64_t a = next_trace_id();
  const std::uint64_t b = next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_EQ(b, a + 1);
}

TEST(Trace, DisabledLogRecordsNothing) {
  TraceLog log;
  log.instant("x", "c", util::make_time(2018, 4, 25), 0);
  log.complete("y", "c", util::make_time(2018, 4, 25), 1.0, 0);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(Trace, CapacityBoundsCollectionAndCountsDrops) {
  TraceLog log;
  log.set_capacity(2);
  log.enable(util::make_time(2018, 4, 24));
  for (int i = 0; i < 5; ++i) {
    log.instant("e" + std::to_string(i), "c", util::make_time(2018, 4, 25), 0);
  }
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  log.reset();
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.capacity(), 2u);  // reset keeps capacity
}

TEST(Trace, CapacityIsSafeToChangeWhileCollecting) {
  // Regression: capacity_ moved under the log mutex — set_capacity() used
  // to race add() reading it. Every event must be accounted for as either
  // kept (within whatever capacity was current) or dropped.
  TraceLog log;
  log.set_capacity(64);  // the resizer only ever lowers/restores this bound
  log.enable(util::make_time(2018, 4, 24));
  constexpr int kEvents = 2000;
  std::thread resizer([&] {
    for (int i = 0; i < 200; ++i) {
      log.set_capacity(i % 2 == 0 ? 16 : 64);
      (void)log.capacity();
    }
  });
  for (int i = 0; i < kEvents; ++i) {
    log.instant("e", "c", util::make_time(2018, 4, 25), 0);
  }
  resizer.join();
  log.disable();
  EXPECT_EQ(log.events().size() + log.dropped(),
            static_cast<std::size_t>(kEvents));
  EXPECT_LE(log.events().size(), 64u);
}

TEST(Trace, ChromeTraceGolden) {
  TraceLog log;
  log.enable(util::make_time(2018, 4, 24));
  log.set_track_name(0, "vantage:Oregon");
  {
    TraceScope scope(TraceContext{7, 42});
    log.complete("ocsp.example", "net", util::make_time(2018, 4, 25), 250.0,
                 0, {{"region", "Oregon"}});
  }
  log.instant("scan-step", "scan", util::make_time(2018, 4, 25, 0, 0, 1),
              TraceLog::kControlTrack, {{"step", "1"}});
  EXPECT_EQ(
      log.render_chrome_trace(),
      "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"mustaple campaign (simulated clock)\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"vantage:Oregon\"}},\n"
      "{\"name\":\"ocsp.example\",\"cat\":\"net\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":86400000000,\"dur\":250000,"
      "\"args\":{\"trace\":7,\"probe\":42,\"region\":\"Oregon\"}},\n"
      "{\"name\":\"scan-step\",\"cat\":\"scan\",\"ph\":\"i\",\"pid\":1,"
      "\"tid\":99,\"ts\":86401000000,\"s\":\"t\","
      "\"args\":{\"step\":\"1\"}}]\n");
}

TEST(Trace, SubMillisecondSpansKeepVisibleWidth) {
  TraceLog log;
  log.enable(util::make_time(2018, 4, 24));
  log.complete("fast", "net", util::make_time(2018, 4, 24), 0.0, 0);
  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_EQ(log.events()[0].dur_us, 1);
}

// -------------------------------------------------------------- timeline --

TEST(Timeline, WindowsRecordCounterDeltas) {
  Registry registry;
  const util::SimTime start = util::make_time(2018, 4, 25);
  Timeline timeline(start, util::Duration::hours(1), registry);

  timeline.advance_to(start);  // baseline
  registry.counter("probes_total").inc(3);
  timeline.advance_to(start + util::Duration::hours(1));  // closes window 0
  registry.counter("probes_total").inc(5);
  timeline.flush(start + util::Duration::hours(2));

  ASSERT_EQ(timeline.windows().size(), 2u);
  EXPECT_EQ(timeline.windows()[0].start.unix_seconds, start.unix_seconds);
  EXPECT_DOUBLE_EQ(
      Timeline::counter_delta(timeline.windows()[0], "probes_total", ""), 3.0);
  EXPECT_DOUBLE_EQ(
      Timeline::counter_delta(timeline.windows()[1], "probes_total", ""), 5.0);
}

TEST(Timeline, BaselineExcludesActivityBeforeStart) {
  Registry registry;
  const util::SimTime start = util::make_time(2018, 4, 25);
  Timeline timeline(start, util::Duration::hours(1), registry);

  // Warm-up activity happens before the clock reaches `start`.
  registry.counter("probes_total").inc(100);
  timeline.advance_to(start - util::Duration::hours(12));  // before start: no-op
  timeline.advance_to(start);                              // takes the baseline
  registry.counter("probes_total").inc(2);
  timeline.flush(start + util::Duration::hours(1));

  ASSERT_EQ(timeline.windows().size(), 1u);
  EXPECT_DOUBLE_EQ(
      Timeline::counter_delta(timeline.windows()[0], "probes_total", ""), 2.0);
}

TEST(Timeline, IdleWindowsAreSkipped) {
  Registry registry;
  const util::SimTime start = util::make_time(2018, 4, 25);
  Timeline timeline(start, util::Duration::hours(1), registry);
  timeline.advance_to(start);
  registry.counter("probes_total").inc();
  // Jump four hours: only the first window saw activity.
  timeline.advance_to(start + util::Duration::hours(4));
  ASSERT_EQ(timeline.windows().size(), 1u);
  EXPECT_EQ(timeline.windows()[0].end.unix_seconds,
            (start + util::Duration::hours(1)).unix_seconds);
}

TEST(Timeline, SeriesAndRatioSeries) {
  Registry registry;
  const util::SimTime start = util::make_time(2018, 4, 25);
  Timeline timeline(start, util::Duration::hours(1), registry);
  timeline.advance_to(start);

  Counter& requests = registry.counter("req_total", {{"region", "Oregon"}});
  Counter& successes = registry.counter("ok_total", {{"region", "Oregon"}});
  requests.inc(10);
  successes.inc(9);
  timeline.advance_to(start + util::Duration::hours(1));
  requests.inc(10);
  successes.inc(5);
  timeline.flush(start + util::Duration::hours(2));

  const util::Series s =
      timeline.series("req_total", {{"region", "Oregon"}});
  ASSERT_EQ(s.x.size(), 2u);
  EXPECT_DOUBLE_EQ(s.x[0], static_cast<double>(start.unix_seconds));
  EXPECT_DOUBLE_EQ(s.y[0], 10.0);
  EXPECT_DOUBLE_EQ(s.y[1], 10.0);

  const util::Series ratio = timeline.ratio_series(
      "ok_total", "req_total", {{"region", "Oregon"}});
  ASSERT_EQ(ratio.y.size(), 2u);
  EXPECT_DOUBLE_EQ(ratio.y[0], 90.0);
  EXPECT_DOUBLE_EQ(ratio.y[1], 50.0);
}

TEST(Timeline, HistogramsContributeCountAndSumDeltas) {
  Registry registry;
  const util::SimTime start = util::make_time(2018, 4, 25);
  Timeline timeline(start, util::Duration::hours(1), registry);
  timeline.advance_to(start);
  registry.histogram("lat_ms", std::vector<double>{10.0}).observe(4.0);
  registry.histogram("lat_ms", std::vector<double>{10.0}).observe(6.0);
  timeline.flush(start + util::Duration::hours(1));
  ASSERT_EQ(timeline.windows().size(), 1u);
  EXPECT_DOUBLE_EQ(
      Timeline::counter_delta(timeline.windows()[0], "lat_ms_count", ""), 2.0);
  EXPECT_DOUBLE_EQ(
      Timeline::counter_delta(timeline.windows()[0], "lat_ms_sum", ""), 10.0);
}

TEST(Timeline, CsvAndJsonRender) {
  Registry registry;
  const util::SimTime start = util::make_time(2018, 4, 25);
  Timeline timeline(start, util::Duration::hours(1), registry);
  timeline.advance_to(start);
  registry.counter("probes_total", {{"region", "Oregon"}}).inc(3);
  registry.gauge("depth").set(2.5);
  timeline.flush(start + util::Duration::hours(1));

  EXPECT_EQ(timeline.render_csv(),
            "window_start_unix,window_start,window_end_unix,kind,metric,"
            "labels,value\n"
            "1524614400,2018-04-25 00:00:00,1524618000,counter,probes_total,"
            "\"{region=\"\"Oregon\"\"}\",3\n"
            "1524614400,2018-04-25 00:00:00,1524618000,gauge,depth,,2.5\n");
  EXPECT_EQ(timeline.render_json(),
            "{\"window_seconds\":3600,\"start_unix\":1524614400,"
            "\"windows\":[{\"start_unix\":1524614400,"
            "\"start\":\"2018-04-25 00:00:00\",\"end_unix\":1524618000,"
            "\"counters\":{\"probes_total{region=\\\"Oregon\\\"}\":3},"
            "\"gauges\":{\"depth\":2.5}}]}");
}

TEST(Timeline, InstallUninstallRoundTrip) {
  Registry registry;
  Timeline timeline(util::make_time(2018, 4, 25), util::Duration::hours(1),
                    registry);
  Timeline* previous = install_timeline(&timeline);
  EXPECT_EQ(installed_timeline(), &timeline);
  advance_installed_timeline(util::make_time(2018, 4, 25));
  install_timeline(previous);
  EXPECT_EQ(installed_timeline(), previous);
}

// ---------------------------------------------------------------- macros --

TEST(Macros, WriteToDefaults) {
#if MUSTAPLE_OBS_ENABLED
  Registry& registry = default_registry();
  const std::uint64_t before =
      registry.counter_value("mustaple_obs_test_macro_total");
  MUSTAPLE_COUNT("mustaple_obs_test_macro_total");
  MUSTAPLE_COUNT_N("mustaple_obs_test_macro_total", 2);
  EXPECT_EQ(registry.counter_value("mustaple_obs_test_macro_total"),
            before + 3);

  MUSTAPLE_GAUGE_MAX("mustaple_obs_test_macro_gauge", 11);
  EXPECT_GE(registry.gauge_value("mustaple_obs_test_macro_gauge"), 11.0);
  MUSTAPLE_GAUGE_SET("mustaple_obs_test_macro_set_gauge", -4);
  EXPECT_EQ(registry.gauge_value("mustaple_obs_test_macro_set_gauge"), -4.0);

  const Histogram* hist = registry.find_histogram("mustaple_obs_test_macro_ms");
  const std::size_t observed = hist == nullptr ? 0 : hist->count();
  MUSTAPLE_OBSERVE("mustaple_obs_test_macro_ms", 3);
  hist = registry.find_histogram("mustaple_obs_test_macro_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), observed + 1);

  auto ring = std::make_shared<RingBufferSink>();
  default_logger().add_sink(ring);
  MUSTAPLE_LOG_WARN("test", "macro message", field("n", 1));
  default_logger().clear_sinks();
  ASSERT_EQ(ring->records().size(), 1u);
  EXPECT_EQ(ring->records().front().component, "test");
#endif
}

#if MUSTAPLE_OBS_ENABLED
enum class Color : std::uint8_t { kRed, kGreen, kBlue, kAmber };
constexpr std::size_t kColorCount = 4;

const char* color_name(Color color) {
  static constexpr const char* kNames[] = {"red", "green", "blue", "amber"};
  return kNames[static_cast<std::size_t>(color)];
}

// One bound labelled site, shared by every caller.
void count_color(Color color) {
  MUSTAPLE_COUNT_ENUM("mustaple_obs_test_color_total", "color", color,
                      kColorCount, color_name(color));
}

// The sites the concurrency test races on.
void race_plain() { MUSTAPLE_COUNT("mustaple_obs_test_race_total"); }
void race_color(Color color) {
  MUSTAPLE_COUNT_ENUM("mustaple_obs_test_race_color_total", "color", color,
                      kColorCount, color_name(color));
}

std::uint64_t colored(const char* name,
                      const char* metric = "mustaple_obs_test_color_total") {
  return default_registry().counter_value(metric, {{"color", name}});
}
#endif

TEST(Macros, BoundLabelledSiteExportsOnlyIncrementedValues) {
#if MUSTAPLE_OBS_ENABLED
  const std::uint64_t red = colored("red");
  const std::uint64_t blue = colored("blue");
  count_color(Color::kRed);
  count_color(Color::kBlue);
  count_color(Color::kRed);
  EXPECT_EQ(colored("red"), red + 2);
  EXPECT_EQ(colored("blue"), blue + 1);

  // Green and amber were never incremented, so no cell (not even a zero
  // series) exists for them in either exporter.
  const std::string prom = default_registry().render_prometheus();
  EXPECT_NE(prom.find("mustaple_obs_test_color_total{color=\"red\"} " +
                      std::to_string(red + 2) + "\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mustaple_obs_test_color_total{color=\"blue\"} "),
            std::string::npos);
  EXPECT_EQ(prom.find("color=\"green\""), std::string::npos);
  EXPECT_EQ(prom.find("color=\"amber\""), std::string::npos);
  const std::string json = default_registry().render_json();
  EXPECT_NE(json.find("\"mustaple_obs_test_color_total{color=\\\"red\\\"}\":"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("green"), std::string::npos);
  EXPECT_EQ(json.find("amber"), std::string::npos);
#endif
}

// -------------------------------------------------------- thread safety --

TEST(MetricsConcurrency, BoundSitesKeepExactTotals) {
#if MUSTAPLE_OBS_ENABLED
  // Every thread races the first increment of each value through the same
  // bound sites, then keeps incrementing through the cached cells.
  constexpr const char* kRaced = "mustaple_obs_test_race_color_total";
  const std::uint64_t plain =
      default_registry().counter_value("mustaple_obs_test_race_total");
  std::uint64_t before[kColorCount];
  for (std::size_t c = 0; c < kColorCount; ++c) {
    before[c] = colored(color_name(static_cast<Color>(c)), kRaced);
  }
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        race_plain();
        race_color(static_cast<Color>(i % kColorCount));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(default_registry().counter_value("mustaple_obs_test_race_total"),
            plain + static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (std::size_t c = 0; c < kColorCount; ++c) {
    EXPECT_EQ(colored(color_name(static_cast<Color>(c)), kRaced),
              before[c] + kThreads * kPerThread / kColorCount)
        << color_name(static_cast<Color>(c));
  }
#endif
}

TEST(MetricsConcurrency, CountersGaugesHistogramsSurviveContention) {
  // The parallel scanner's workers hammer one shared registry; every inc()
  // and observe() must land. Totals are exact because the writes are
  // commutative — only ordering, not the sums, may vary mid-flight.
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("stress_total").inc();
        registry.counter("stress_labeled_total", {{"worker", t % 2 ? "a" : "b"}})
            .inc(2);
        registry.gauge("stress_gauge").set_max(static_cast<double>(i));
        registry.histogram("stress_ms").observe(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.counter_value("stress_total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.counter_value("stress_labeled_total", {{"worker", "a"}}) +
                registry.counter_value("stress_labeled_total", {{"worker", "b"}}),
            2ull * kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(registry.gauge_value("stress_gauge"), kPerThread - 1);
  const Histogram* hist = registry.find_histogram("stress_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrency, FamilyCreationRacesResolveToOneCell) {
  // First-touch creation of the same (name, labels) cell from many threads
  // must yield exactly one cell, never a lost update.
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        registry.counter("race_total", {{"cell", std::to_string(i)}}).inc();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(registry.counter_value("race_total",
                                     {{"cell", std::to_string(i)}}),
              static_cast<std::uint64_t>(kThreads))
        << "cell " << i;
  }
}

}  // namespace
}  // namespace mustaple::obs
