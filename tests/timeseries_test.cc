// Tests for the windowed time-series store: window-close arithmetic for
// the three source kinds (gauge, counter delta, accumulator), ring-wrap
// oldest-overwrite with drop accounting, merge/prefix semantics used by
// the cluster runtime, Perfetto counter mirroring, and a device-driven
// seed-0 bit-exact replay of the JSON export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/device.h"
#include "sim/telemetry.h"
#include "sim/timeseries.h"
#include "sim/trace.h"
#include "util/json.h"

namespace simt {
namespace {

using scq::util::JsonValue;
using scq::util::parse_json;

TimeSeriesStore::Options small_opts(Cycle window = 100,
                                    std::size_t max_windows = 8) {
  return {.window_cycles = window, .max_windows = max_windows};
}

// ---- Window close arithmetic -------------------------------------------

TEST(TimeSeriesTest, GaugeSamplesOncePerWindowAtClose) {
  TimeSeriesStore ts(small_opts());
  ts.register_gauge("g", [](Cycle now) { return now; });
  // Dense advance across three windows: one sample per window, stamped
  // with the window's start, valued at the close.
  for (Cycle c = 0; c <= 320; ++c) ts.on_advance(c);
  const auto win = ts.series("g");
  ASSERT_EQ(win.size(), 3u) << "[0,100) [100,200) [200,300) closed";
  for (std::size_t i = 0; i < win.size(); ++i) {
    EXPECT_EQ(win[i].start, i * 100);
    EXPECT_EQ(win[i].value, (i + 1) * 100) << "gauge sampled at window end";
  }
}

TEST(TimeSeriesTest, SparseAdvanceClosesEveryCrossedWindow) {
  // Discrete-event time jumps several windows at once; every crossed
  // window must still close, so a series has no gaps.
  TimeSeriesStore ts(small_opts());
  ts.register_gauge("g", [](Cycle) { return 7; });
  ts.on_advance(450);
  const auto win = ts.series("g");
  ASSERT_EQ(win.size(), 4u);
  EXPECT_EQ(win[0].start, 0u);
  EXPECT_EQ(win[3].start, 300u);
}

TEST(TimeSeriesTest, CounterRecordsPerWindowDelta) {
  std::uint64_t cum = 5;  // non-zero at registration
  TimeSeriesStore ts(small_opts());
  ts.register_counter("c", [&cum](Cycle) { return cum; });
  cum = 12;
  ts.on_advance(100);  // closes [0,100): delta from registration = 7
  cum = 12;
  ts.on_advance(200);  // flat window: delta 0 still recorded
  cum = 40;
  ts.on_advance(300);
  const auto win = ts.series("c");
  ASSERT_EQ(win.size(), 3u);
  EXPECT_EQ(win[0].value, 7u)
      << "first delta measured from the value at registration, not 0";
  EXPECT_EQ(win[1].value, 0u) << "counters record every window, even flat";
  EXPECT_EQ(win[2].value, 28u);
}

TEST(TimeSeriesTest, AccumulatorSumsWithinWindowAndSkipsIdleWindows) {
  TimeSeriesStore ts(small_opts());
  ts.add("stalls", 3);
  ts.add("stalls", 4);
  ts.on_advance(100);  // closes [0,100) with 7
  ts.on_advance(250);  // [100,200) had no adds: not recorded
  ts.add("stalls", 1);
  ts.flush(260);  // partial window [200,300) flushes the pending add
  const auto win = ts.series("stalls");
  ASSERT_EQ(win.size(), 2u) << "event-shaped series skip empty windows";
  EXPECT_EQ(win[0].start, 0u);
  EXPECT_EQ(win[0].value, 7u);
  EXPECT_EQ(win[1].start, 200u);
  EXPECT_EQ(win[1].value, 1u);
}

TEST(TimeSeriesTest, FlushClosesPartialTailOnce) {
  TimeSeriesStore ts(small_opts());
  ts.register_gauge("g", [](Cycle now) { return now; });
  ts.on_advance(150);
  ts.flush(150);  // closes the partial [100,150)
  ASSERT_EQ(ts.series("g").size(), 2u);
  EXPECT_EQ(ts.series("g")[1].start, 100u);
  EXPECT_EQ(ts.series("g")[1].value, 150u);
  // The clock realigned past the flushed tail: advancing within the
  // next window closes nothing extra.
  ts.on_advance(190);
  EXPECT_EQ(ts.series("g").size(), 2u);
}

TEST(TimeSeriesTest, ClearProbesRestartsWindowClock) {
  TimeSeriesStore ts(small_opts());
  ts.register_gauge("a", [](Cycle) { return 1; });
  ts.on_advance(950);
  const std::size_t recorded = ts.series("a").size();
  ts.clear_probes();  // next run's clock starts at 0 again
  ts.register_gauge("b", [](Cycle) { return 2; });
  ts.on_advance(100);
  EXPECT_EQ(ts.series("b").size(), 1u)
      << "the new run's first window must not be masked by the old clock";
  EXPECT_EQ(ts.series("a").size(), recorded) << "recorded windows survive";
}

// ---- Ring bounds and drop accounting -----------------------------------

TEST(TimeSeriesTest, RingOverwritesOldestAndCountsDrops) {
  TimeSeriesStore ts(small_opts(100, 4));
  ts.register_gauge("g", [](Cycle now) { return now / 100; });
  // Close 10 windows into a 4-slot ring: 6 oldest overwritten.
  ts.on_advance(1000);
  const auto win = ts.series("g");
  ASSERT_EQ(win.size(), 4u);
  EXPECT_EQ(ts.dropped_windows(), 6u);
  // Chronological, oldest *surviving* first: windows 6..9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(win[i].start, (6 + i) * 100);
    EXPECT_EQ(win[i].value, 7 + i);
  }
}

TEST(TimeSeriesTest, RecordWindowAppendsDirectly) {
  // Host-driven series (cluster router supersteps) bypass the clock.
  TimeSeriesStore ts(small_opts(100, 2));
  ts.record_window("router.stolen", 0, 11);
  ts.record_window("router.stolen", 1, 22);
  ts.record_window("router.stolen", 2, 33);
  const auto win = ts.series("router.stolen");
  ASSERT_EQ(win.size(), 2u);
  EXPECT_EQ(win[0].value, 22u);
  EXPECT_EQ(win[1].value, 33u);
  EXPECT_EQ(ts.dropped_windows(), 1u) << "ring bounds apply to direct appends";
}

TEST(TimeSeriesTest, MergeAppendsChronologicallyAndAccumulatesDrops) {
  TimeSeriesStore a(small_opts(100, 8));
  TimeSeriesStore b(small_opts(100, 2));
  a.record_window("s", 0, 1);
  b.record_window("s", 100, 2);
  b.record_window("s", 200, 3);
  b.record_window("s", 300, 4);  // drops the 100-window in b
  b.record_window("only_b", 0, 9);
  a.merge_from(b);
  const auto win = a.series("s");
  ASSERT_EQ(win.size(), 3u);
  EXPECT_EQ(win[0].start, 0u);
  EXPECT_EQ(win[1].start, 200u) << "b's surviving windows append in order";
  EXPECT_EQ(win[2].start, 300u);
  ASSERT_EQ(a.series("only_b").size(), 1u) << "new series are created";
  EXPECT_EQ(a.dropped_windows(), 1u) << "source drop counts carry over";
}

// ---- Cluster-style prefixed merge through Telemetry ---------------------

TEST(TimeSeriesTest, DevicePrefixesKeepMergedSeriesApart) {
  // The cluster runtime gives each device's telemetry a "dev<N>."
  // prefix, then folds all of them into one sink: same probe name, no
  // collision, per-device series intact.
  Telemetry sink;
  Telemetry dev0, dev1;
  dev0.set_prefix("dev0.");
  dev1.set_prefix("dev1.");
  for (int s = 0; s < 3; ++s) {
    dev0.record_window("superstep.occupancy", s, 10 + s);
    dev1.record_window("superstep.occupancy", s, 20 + s);
  }
  sink.merge_from(dev0);
  sink.merge_from(dev1);

  const auto d0 = sink.windows().series("dev0.superstep.occupancy");
  const auto d1 = sink.windows().series("dev1.superstep.occupancy");
  ASSERT_EQ(d0.size(), 3u);
  ASSERT_EQ(d1.size(), 3u);
  EXPECT_EQ(d0[2].value, 12u);
  EXPECT_EQ(d1[2].value, 22u);
  EXPECT_TRUE(sink.windows().series("superstep.occupancy").empty())
      << "nothing may land under the unprefixed name";
}

TEST(TimeSeriesTest, TelemetryPrefixAppliesToEveryWindowSource) {
  Telemetry t;
  t.set_prefix("dev3.");
  t.register_window_gauge("g", [](Cycle) { return 1; });
  t.register_window_counter("c", [](Cycle) { return 2; });
  t.record(StepMetric::kSlotWait, 5);
  t.record_band_stall(1, 5);
  t.note_lanes(0, 1, 1);
  t.record_window("r", 0, 6);
  t.flush_windows(50);
  const auto names = t.windows().series_names();
  for (const std::string& n : names) {
    EXPECT_EQ(n.rfind("dev3.", 0), 0u) << "unprefixed series leaked: " << n;
  }
  EXPECT_EQ(names.size(), 7u);
}

// ---- Perfetto mirroring -------------------------------------------------

TEST(TimeSeriesTest, MirrorsClosedWindowsAsPrefixedCounterTracks) {
  TraceRecorder trace;
  TimeSeriesStore ts(small_opts());
  ts.mirror_counters_to(&trace);
  ts.register_gauge("queue.occupancy", [](Cycle now) { return now; });
  ts.on_advance(250);

  const auto parsed = parse_json(trace.to_chrome_json());
  ASSERT_TRUE(parsed.has_value());
  std::vector<const JsonValue*> counters;
  for (const JsonValue& e : parsed->at("traceEvents").array) {
    if (e.at("ph").str == "C") counters.push_back(&e);
  }
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0]->at("name").str, "win.queue.occupancy")
      << "window tracks carry the win. namespace";
  EXPECT_EQ(counters[1]->at("ts").number, 100.0)
      << "the track point sits at the window start";
  EXPECT_EQ(counters[1]->at("args").at("value").number, 200.0);
}

TEST(TimeSeriesTest, DroppedWindowsReachTraceDroppedMetadata) {
  // Ring-bound loss is noted on the recorder so a truncated timeline is
  // detectable from the trace file alone.
  TraceRecorder trace;
  trace.note_dropped_windows(17);
  const auto parsed = parse_json(trace.to_chrome_json());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* dropped = nullptr;
  for (const JsonValue& e : parsed->at("traceEvents").array) {
    if (e.at("ph").str == "M" && e.at("name").str == "dropped") dropped = &e;
  }
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->at("args").at("windows").number, 17.0);
}

// ---- Exports ------------------------------------------------------------

TEST(TimeSeriesTest, JsonAndCsvRoundTrip) {
  TimeSeriesStore ts(small_opts(100, 4));
  ts.add("weird \"name\"", 3);
  ts.on_advance(120);
  const auto parsed = parse_json(ts.to_json());
  ASSERT_TRUE(parsed.has_value()) << "windows export must be valid JSON";
  EXPECT_EQ(parsed->at("window_cycles").number, 100.0);
  EXPECT_EQ(parsed->at("dropped_windows").number, 0.0);
  const JsonValue& series = parsed->at("series");
  ASSERT_TRUE(series.has("weird \"name\"")) << "escaping must round-trip";
  ASSERT_EQ(series.at("weird \"name\"").array.size(), 1u);
  EXPECT_EQ(series.at("weird \"name\"").array[0].array[1].number, 3.0);

  const std::string csv = ts.to_csv();
  EXPECT_NE(csv.find("series,window_start,value"), std::string::npos);
  EXPECT_NE(csv.find(",0,3"), std::string::npos);
}

// ---- Device-driven bit-exact replay -------------------------------------

DeviceConfig replay_cfg() {
  DeviceConfig c;
  c.num_cus = 2;
  c.waves_per_cu = 2;
  c.mem_latency = 100;
  c.atomic_latency = 40;
  c.atomic_service = 4;
  c.lds_latency = 8;
  c.issue_cost = 2;
  c.kernel_launch_overhead = 500;
  return c;
}

std::string run_and_export_windows() {
  Device dev(replay_cfg());
  const Buffer data = dev.alloc(64);
  Telemetry t(Telemetry::Options{.window_cycles = 512});
  t.register_window_gauge("tick", [](Cycle now) { return now; });
  t.register_window_counter("compute",
                            [&dev](Cycle) { return dev.stats().compute_cycles; });
  dev.attach_telemetry(&t);
  (void)dev.launch(2, [&](Wave& w) -> Kernel<void> {
    for (int i = 0; i < 8; ++i) {
      co_await w.compute(100 + 10 * (i % 3));
      co_await w.load(data.at(static_cast<std::uint64_t>(i)));
    }
  });
  return t.windows().to_json();
}

TEST(TimeSeriesTest, Seed0ReplayIsBitExact) {
  // The windowed layer is a pure function of the event schedule: two
  // identical seed-0 runs export byte-identical window JSON.
  const std::string first = run_and_export_windows();
  const std::string second = run_and_export_windows();
  EXPECT_GT(first.find("\"tick\""), 0u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace simt
