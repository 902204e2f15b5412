// Tests for the telemetry subsystem: histogram bucket boundaries and
// percentile math, the protocol-stream view (step metrics, the prefix,
// the lane census, handle resolution across clear_probes), device
// integration of the windows, and a JSON round-trip that parses the
// exported artifacts with the shared util/json.h parser (which started
// life in this file before being promoted for the perf-diff tooling).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/device.h"
#include "sim/protocol_stream.h"
#include "sim/telemetry.h"
#include "sim/trace.h"
#include "util/json.h"

namespace simt {
namespace {

using scq::util::JsonValue;
using scq::util::parse_json;

// ---- Histogram ----------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::bucket_low(0), 0u);
  EXPECT_EQ(Histogram::bucket_high(0), 0u);
  EXPECT_EQ(Histogram::bucket_low(1), 1u);
  EXPECT_EQ(Histogram::bucket_high(1), 1u);
  EXPECT_EQ(Histogram::bucket_low(5), 16u);
  EXPECT_EQ(Histogram::bucket_high(5), 31u);
  EXPECT_EQ(Histogram::bucket_high(64), ~std::uint64_t{0});

  // Every representable value falls inside its bucket's range.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 1000ull,
                                (1ull << 40) + 17}) {
    const unsigned b = Histogram::bucket_index(v);
    EXPECT_GE(v, Histogram::bucket_low(b));
    EXPECT_LE(v, Histogram::bucket_high(b));
  }
}

TEST(HistogramTest, CountsSumsMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u) << "empty histogram min reads 0";
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);

  h.add(3);
  h.add(5, 2);  // weighted: two observations of 5
  h.add(0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 13u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 13.0 / 4.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // 3
  EXPECT_EQ(h.bucket_count(3), 2u);  // 5, 5

  h.add(7, 0);  // zero weight is a no-op
  EXPECT_EQ(h.count(), 4u);
}

TEST(HistogramTest, PercentileMath) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(1);
  // All mass in one single-value bucket: every percentile is that value.
  EXPECT_EQ(h.percentile(1), 1u);
  EXPECT_EQ(h.percentile(50), 1u);
  EXPECT_EQ(h.percentile(99), 1u);

  Histogram mix;
  for (int i = 0; i < 90; ++i) mix.add(0);
  for (int i = 0; i < 10; ++i) mix.add(1000);
  EXPECT_EQ(mix.percentile(0), 0u) << "p0 is the minimum";
  EXPECT_EQ(mix.percentile(50), 0u);
  EXPECT_EQ(mix.percentile(89), 0u);
  EXPECT_GE(mix.percentile(95), 512u) << "falls in the top bucket";
  EXPECT_EQ(mix.percentile(100), 1000u) << "p100 is the maximum";

  // Percentiles are monotone in p and clamped to [min, max].
  std::uint64_t prev = 0;
  for (double p = 0; p <= 100; p += 5) {
    const std::uint64_t v = mix.percentile(p);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, mix.min());
    EXPECT_LE(v, mix.max());
    prev = v;
  }
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a, b;
  a.add(1);
  a.add(100);
  b.add(7, 3);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum(), 122u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 100u);
  a.merge(Histogram{});  // merging empty changes nothing
  EXPECT_EQ(a.count(), 5u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0u);
}

// ---- Protocol-stream view and windows ---------------------------------

TEST(TelemetryTest, ShardedGaugesSumAcrossWriters) {
  // The lane census: every wave publishes its own lane counts through
  // the stream's lanes step, and the lanes.* windows hold the sum over
  // waves at each close. A wave's newer census overwrites its older one
  // instead of accumulating.
  Telemetry t({.window_cycles = 10});
  ProtocolStream stream;
  stream.attach_telemetry(&t);
  stream.lanes(StepActor(0, 0, 1), 0b111, 0b1);
  stream.lanes(StepActor(5, 1, 2), 0b1111, 0b11);  // sparse wave slots
  t.on_advance(10);
  stream.lanes(StepActor(0, 0, 12), 0b1, 0);
  t.on_advance(20);
  const std::vector<WindowSample> hungry = t.windows().series("lanes.hungry");
  ASSERT_EQ(hungry.size(), 2u);
  EXPECT_EQ(hungry[0].value, 7u);
  EXPECT_EQ(hungry[1].value, 5u);
  const std::vector<WindowSample> assigned =
      t.windows().series("lanes.assigned");
  ASSERT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned[0].value, 3u);
  EXPECT_EQ(assigned[1].value, 2u);
}

TEST(TelemetryTest, ClearProbesRestartsSamplingClock) {
  // A new run starts at cycle 0 again: clear_probes restarts the window
  // clock and drops the old run's gauges and open-window sums, while
  // recorded windows survive. A step metric resolved before the clear
  // resolves again after it.
  Telemetry t({.window_cycles = 100});
  t.register_window_gauge("a", [](Cycle) { return 1; });
  t.record(StepMetric::kSlotWait, 5);
  t.on_advance(950);  // closes nine windows
  t.clear_probes();
  t.register_window_gauge("b", [](Cycle) { return 2; });
  t.record(StepMetric::kSlotWait, 7);
  t.on_advance(100);
  ASSERT_EQ(t.windows().series("b").size(), 1u);
  EXPECT_EQ(t.windows().series("b")[0].start, 0u)
      << "early cycles of the new run must not be masked by the old clock";
  EXPECT_EQ(t.windows().series("a").size(), 9u) << "recorded data survives";
  const std::vector<WindowSample> wait = t.windows().series("queue.slot_wait");
  ASSERT_EQ(wait.size(), 2u);
  EXPECT_EQ(wait[0].value, 5u);
  EXPECT_EQ(wait[1].value, 7u);
  EXPECT_EQ(t.find_histogram("queue.slot_wait")->count(), 2u);
}

TEST(TelemetryTest, MirrorsSamplesToTraceCounters) {
  // Every closed window becomes a "win."-prefixed counter-track event,
  // stamped with the window start.
  TraceRecorder trace;
  Telemetry t({.window_cycles = 10});
  t.mirror_counters_to(&trace);
  t.register_window_gauge("occ", [](Cycle now) { return now * 2; });
  t.on_advance(20);
  ASSERT_EQ(trace.counters().size(), 2u);
  EXPECT_EQ(trace.counters()[1].name, "win.occ");
  EXPECT_EQ(trace.counters()[1].cycle, 10u);
  EXPECT_DOUBLE_EQ(trace.counters()[1].value, 40.0);
}

TEST(TelemetryTest, StepMetricsResolveUnderThePrefix) {
  // The view names every step metric, applies the prefix, and bins the
  // windowed ones: a prefix set after a record resolves afresh.
  Telemetry t({.window_cycles = 10});
  t.record(StepMetric::kDequeueLatency, 3);
  t.set_prefix("dev1.");
  t.record(StepMetric::kDequeueLatency, 4);
  t.record(StepMetric::kXferAggWidth, 9);
  t.record(StepMetric::kPublishStall, 6);
  t.record_band_stall(2, 6);
  t.declare(StepMetric::kEnqueueLatency);
  t.on_advance(10);
  t.set_prefix("");
  EXPECT_EQ(t.find_histogram("queue.dequeue_latency")->sum(), 3u);
  EXPECT_EQ(t.find_histogram("dev1.queue.dequeue_latency")->sum(), 4u);
  EXPECT_EQ(t.find_histogram("dev1.xfer.agg_width")->max(), 9u);
  ASSERT_NE(t.find_histogram("dev1.queue.enqueue_latency"), nullptr);
  EXPECT_EQ(t.find_histogram("dev1.queue.enqueue_latency")->count(), 0u);
  EXPECT_EQ(t.windows().series("dev1.queue.publish_stall").size(), 1u);
  EXPECT_EQ(t.windows().series("dev1.queue.band_stall.b2")[0].value, 6u);
  EXPECT_TRUE(t.windows().series("dev1.queue.dequeue_latency").empty())
      << "only the slot wait and the publish stall are windowed";
}

// ---- Device integration -------------------------------------------------

DeviceConfig small_cfg() {
  DeviceConfig c;
  c.num_cus = 2;
  c.waves_per_cu = 1;
  c.mem_latency = 100;
  c.atomic_latency = 50;
  c.atomic_service = 4;
  c.lds_latency = 8;
  c.issue_cost = 2;
  c.kernel_launch_overhead = 1000;
  return c;
}

TEST(TelemetryTest, DeviceDrivesSampler) {
  // The event loop closes windows as simulated time advances; the
  // launch end closes the partial tail window.
  Device dev(small_cfg());
  Telemetry t({.window_cycles = 500});
  t.register_window_gauge("tick", [](Cycle now) { return now; });
  dev.attach_telemetry(&t);
  EXPECT_EQ(dev.telemetry(), &t);
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    for (int i = 0; i < 10; ++i) co_await w.compute(300);
  });
  const std::vector<WindowSample> windows = t.windows().series("tick");
  ASSERT_GE(windows.size(), 4u) << "several windows elapsed plus the tail";
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start, windows[i - 1].start + 500);
  }
}

// ---- Exporters ----------------------------------------------------------

TEST(TelemetryTest, JsonRoundTrips) {
  Telemetry t({.window_cycles = 50});
  t.histogram("lat").add(3);
  t.histogram("lat").add(200, 2);
  t.histogram("weird \"name\"\n").add(1);
  t.register_window_gauge("occ", [](Cycle now) { return 10 + now; });
  t.on_advance(100);

  const auto parsed = parse_json(t.to_json());
  ASSERT_TRUE(parsed.has_value()) << "export must be valid JSON";
  ASSERT_EQ(parsed->kind, JsonValue::Kind::kObject);
  EXPECT_FALSE(parsed->has("series")) << "windows are the only time series";

  const JsonValue& hists = parsed->at("histograms");
  ASSERT_EQ(hists.object.size(), 2u) << "escaped name must round-trip too";
  ASSERT_TRUE(hists.has("lat"));
  const JsonValue& lat = hists.at("lat");
  EXPECT_EQ(lat.at("count").number, 3.0);
  EXPECT_EQ(lat.at("sum").number, 403.0);
  EXPECT_EQ(lat.at("min").number, 3.0);
  EXPECT_EQ(lat.at("max").number, 200.0);
  ASSERT_EQ(lat.at("buckets").array.size(), 2u);
  const JsonValue& top = lat.at("buckets").array[1];
  EXPECT_EQ(top.at("low").number, 128.0);
  EXPECT_EQ(top.at("high").number, 255.0);
  EXPECT_EQ(top.at("count").number, 2.0);

  const JsonValue& windows = parsed->at("windows");
  EXPECT_EQ(windows.at("window_cycles").number, 50.0);
  EXPECT_EQ(windows.at("dropped_windows").number, 0.0);
  ASSERT_TRUE(windows.at("series").has("occ"));
  const JsonValue& occ = windows.at("series").at("occ");
  ASSERT_EQ(occ.array.size(), 2u);
  ASSERT_EQ(occ.array[1].array.size(), 2u);
  EXPECT_EQ(occ.array[1].array[0].number, 50.0) << "[start, value] pairs";
  EXPECT_EQ(occ.array[1].array[1].number, 110.0);
}

TEST(TelemetryTest, TraceCounterEventsRoundTrip) {
  // Telemetry windows mirrored into the tracer must come back out of the
  // Chrome JSON as parseable "ph":"C" counter events.
  TraceRecorder trace;
  Telemetry t({.window_cycles = 100});
  t.mirror_counters_to(&trace);
  t.register_window_gauge("queue.occupancy",
                          [](Cycle now) { return now / 10 - 10; });
  t.on_advance(300);

  const auto parsed = parse_json(trace.to_chrome_json());
  ASSERT_TRUE(parsed.has_value()) << "trace export must be valid JSON";
  ASSERT_TRUE(parsed->has("traceEvents"));
  const JsonValue& events = parsed->at("traceEvents");

  std::vector<const JsonValue*> counters;
  const JsonValue* dropped = nullptr;
  for (const JsonValue& e : events.array) {
    if (e.at("ph").str == "C") counters.push_back(&e);
    if (e.at("ph").str == "M") dropped = &e;
  }
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[2]->at("name").str, "win.queue.occupancy");
  EXPECT_EQ(counters[2]->at("ts").number, 200.0);
  EXPECT_EQ(counters[2]->at("args").at("value").number, 20.0);
  ASSERT_NE(dropped, nullptr) << "drop-count metadata is always present";
  EXPECT_EQ(dropped->at("name").str, "dropped");
  EXPECT_EQ(dropped->at("args").at("counters").number, 0.0);
}

TEST(TelemetryTest, CsvExports) {
  Telemetry t({.window_cycles = 10});
  t.histogram("h").add(5);
  t.register_window_gauge("s", [](Cycle) { return 9; });
  t.on_advance(30);
  const std::string hist = t.histograms_csv();
  EXPECT_NE(hist.find("histogram,bucket_low,bucket_high,count"),
            std::string::npos);
  EXPECT_NE(hist.find("h,4,7,1"), std::string::npos);
  const std::string windows = t.windows_csv();
  EXPECT_NE(windows.find("series,window_start,value"), std::string::npos);
  EXPECT_NE(windows.find("s,20,9"), std::string::npos);
}

TEST(TelemetryTest, WriteJsonReportsFailure) {
  Telemetry t;
  t.histogram("h").add(1);
  const std::string path = ::testing::TempDir() + "/scq_telemetry.json";
  ASSERT_TRUE(t.write_json(path));
  EXPECT_FALSE(t.write_json("/nonexistent-dir/telemetry.json"));
}

}  // namespace
}  // namespace simt
