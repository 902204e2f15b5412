// Windowed time-series: fixed-cycle-window aggregation of gauges,
// counter deltas, and event accumulators, stored in a bounded ring.
//
// These are the simulator's only time series. A point sample answers
// "what was the value at cycle t" for a polled gauge; it cannot answer
// "how much happened *during* [t, t+W)" for event-shaped signals
// (publish stalls, slot waits, router steals), and a capped list of
// samples drops the *end* of a long run — exactly the part a timeline
// diagnosis needs. The windowed layer answers both:
//
//   * Time is cut into fixed windows of `window_cycles`. Every series
//     records one value per window, stamped with the window's start
//     cycle.
//   * Three source kinds feed a window:
//       gauge    — a callback sampled once, at the window's close;
//       counter  — a callback returning a monotonic cumulative count;
//                  the recorded value is the delta across the window;
//       add()    — explicit accumulation (the telemetry view's step
//                  metrics); the recorded value is the sum of adds in
//                  the window.
//   * Storage is a per-series ring of `max_windows` entries. When a
//     series outgrows its ring the *oldest* window is overwritten (the
//     recent past is what a dashboard reads) and the loss is counted in
//     dropped_windows() — bounded memory with explicit accounting.
//
// Windows close lazily as simulated time advances (on_advance), so the
// output is a pure function of the event schedule: bit-exact across
// reruns at schedule seed 0. Closed windows can be mirrored into a
// TraceRecorder as "ph":"C" counter tracks (name prefixed "win.") so
// Perfetto renders the timeline alongside the wave slices.
//
// Everything here is host-side bookkeeping and costs no simulated
// cycles. simt::Telemetry owns one store, driven by the device event
// loop, and feeds its accumulators from the protocol stream through
// handles (accumulator()); host-side runtimes (the cluster router)
// append per-superstep windows directly via record_window().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.h"

namespace simt {

class TraceRecorder;

// One closed window of a series: value over [start, start + window_cycles).
struct WindowSample {
  Cycle start = 0;
  std::uint64_t value = 0;

  friend bool operator==(const WindowSample&, const WindowSample&) = default;
};

class TimeSeriesStore {
 public:
  struct Options {
    Cycle window_cycles = 4096;       // width of one aggregation window
    std::size_t max_windows = 16384;  // per-series ring capacity
  };

  TimeSeriesStore() : TimeSeriesStore(Options{}) {}
  explicit TimeSeriesStore(Options options);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] Cycle window_cycles() const { return options_.window_cycles; }

  // ---- Sources (names are stored as given; callers apply prefixes) ----
  using Gauge = std::function<std::uint64_t(Cycle now)>;

  // Sampled once at every window close; the sample is the window value.
  void register_gauge(std::string name, Gauge fn);
  // Monotonic cumulative callback; the window value is the delta across
  // the window (the first window's delta is measured from the value at
  // registration time, i.e. fn(registration cycle)).
  void register_counter(std::string name, Gauge fn);
  // Accumulates into the currently open window; the window value is the
  // sum of adds. A series accumulated this way records only windows in
  // which at least one add() happened (event-shaped signals are sparse).
  void add(std::string_view name, std::uint64_t value) {
    accumulator(name) += value;
  }
  // The open-window sum add(name, ...) accumulates into, created on
  // first use. The reference stays valid until clear_probes().
  std::uint64_t& accumulator(std::string_view name);

  // Appends one already-closed window to `name` directly (host-driven
  // series, e.g. per-superstep router deltas). `cycle` stamps the
  // window start; ring bounds and drop accounting apply as usual.
  void record_window(std::string_view name, Cycle cycle, std::uint64_t value);

  // ---- Clock (driven by the owner as simulated time advances) ----
  // Closes every window boundary crossed by `now`. Cheap no-op while
  // `now` stays inside the open window.
  void on_advance(Cycle now) {
    if (now >= open_end_) roll(now);
  }
  // Closes the partial open window at `now` (end of a run); no-op when
  // nothing has been recorded into it and no probes are registered.
  void flush(Cycle now);

  // Drops gauges/counters and pending accumulations and restarts the
  // window clock at cycle 0 (recorded windows stay). Required between
  // runs: a new run's clock restarts at 0 and its probed objects may
  // have been rebuilt.
  void clear_probes();

  // Folds another store's recorded windows into this one: series append
  // by name (ring bounds apply), drop counts accumulate.
  void merge_from(const TimeSeriesStore& other);

  // Clears recorded windows and drop counts (probes stay registered).
  void reset_data();

  // ---- Output ----
  // Closed windows of `name` in chronological order (oldest surviving
  // window first). Empty when the series does not exist.
  [[nodiscard]] std::vector<WindowSample> series(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> series_names() const;
  [[nodiscard]] bool empty() const { return series_.empty(); }
  // Windows overwritten because a series outgrew its ring.
  [[nodiscard]] std::uint64_t dropped_windows() const { return dropped_windows_; }

  // Mirrors every closed window into `tracer` as a counter-track event
  // named "win.<series>" (nullptr disables). Not owned.
  void mirror_counters_to(TraceRecorder* tracer) { mirror_ = tracer; }

  // JSON object body (no surrounding braces are added by the caller):
  //   {"window_cycles": W, "dropped_windows": N,
  //    "series": {"name": [[start, value], ...], ...}}
  [[nodiscard]] std::string to_json() const;
  // CSV: series,window_start,value — one row per closed window.
  [[nodiscard]] std::string to_csv() const;

 private:
  struct Ring {
    std::vector<WindowSample> slots;  // capacity max_windows, insertion ring
    std::size_t head = 0;             // next overwrite position when full
    [[nodiscard]] std::size_t size() const { return slots.size(); }
  };

  Options options_;
  std::map<std::string, Ring, std::less<>> series_;
  std::vector<std::pair<std::string, Gauge>> gauges_;
  struct CounterProbe {
    std::string name;
    Gauge fn;
    std::uint64_t prev = 0;
  };
  std::vector<CounterProbe> counters_;
  std::map<std::string, std::uint64_t, std::less<>> accum_;  // open window sums
  TraceRecorder* mirror_ = nullptr;
  Cycle open_start_ = 0;  // start of the currently open window
  Cycle open_end_ = 0;    // == open_start_ + window_cycles
  std::uint64_t dropped_windows_ = 0;

  void roll(Cycle now);                      // close windows up to `now`
  void close_window(Cycle start, Cycle end); // sample probes, flush accum_
  void push(const std::string& name, Cycle start, std::uint64_t value);
};

}  // namespace simt
