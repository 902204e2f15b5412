// Telemetry: distributional and time-resolved measurement for the
// simulator and the schedulers built on it.
//
// The end-of-run counters in DeviceStats say *how many* retries or polls
// a run paid; they cannot say how they were distributed (one storm or a
// steady trickle?) nor when they happened. Telemetry adds the two
// missing shapes:
//
//   * Histogram — power-of-two-bucket distributions (CAS retry run
//     lengths, proxy aggregation widths, slot-monitor wait times,
//     queue-operation service latencies) with count/sum/min/max and
//     interpolated percentile queries.
//   * Windowed series — a fixed-cycle-window ring (sim/timeseries.h)
//     aggregating gauges, counter deltas and event accumulations per
//     window: "how much happened during [t, t+W)", with bounded memory
//     and oldest-first overwrite. They are the only time series, and
//     are exported under "windows".
//
// Telemetry is a view of the device's queue-protocol stream
// (sim/protocol_stream.h). Producers emit steps that carry cycles,
// widths and retry counts and name no metric; the stream hands the
// values to this view as StepMetrics. The view owns the metric names,
// the dev<N>. prefix, which metrics are also binned into windows, the
// per-band stall suffixes and the per-wave lane census, and resolves
// each name to its histogram or window slot once, on first use.
//
// Attach to a device with Device::attach_telemetry: the device drives
// the window clock and attaches the view to its stream. Closed windows
// can be mirrored into a TraceRecorder as Chrome/Perfetto counter
// tracks ("ph":"C") so they render alongside the wave slices. Exporters
// produce a single JSON artifact and CSV tables (via util/csv) for
// external plotting.
//
// Everything here is host-side bookkeeping: it costs no simulated
// cycles, and a detached telemetry costs one branch per step.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.h"
#include "sim/timeseries.h"

namespace simt {

class TraceRecorder;

// A fixed-size histogram over u64 values with power-of-two buckets:
// bucket 0 holds {0}; bucket b >= 1 holds [2^(b-1), 2^b - 1] (i.e. the
// values whose bit width is b). Adding is O(1) and allocation-free.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;  // bit widths 0..64

  static constexpr unsigned bucket_index(std::uint64_t value) {
    return static_cast<unsigned>(std::bit_width(value));
  }
  static constexpr std::uint64_t bucket_low(unsigned b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static constexpr std::uint64_t bucket_high(unsigned b) {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  void add(std::uint64_t value, std::uint64_t weight = 1) {
    if (weight == 0) return;
    counts_[bucket_index(value)] += weight;
    count_ += weight;
    sum_ += value * weight;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  // min()/max() of an empty histogram are 0.
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket_count(unsigned b) const { return counts_[b]; }

  // Value at percentile p in [0,100]: the smallest v (to bucket
  // resolution, linearly interpolated within the bucket) such that at
  // least p% of recorded values are <= v. Clamped to [min(), max()];
  // 0 on an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  void merge(const Histogram& rhs);
  void reset() { *this = Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

// The distributions the protocol stream's steps feed: the shapes
// behind the paper's totals. The view names each one; the slot wait and
// the publish stall are binned into windows under the same name.
enum class StepMetric : std::uint8_t {
  kDequeueLatency,      // queue.dequeue_latency: slot acquisition, cycles
  kEnqueueLatency,      // queue.enqueue_latency: publish incl. its flush
  kSlotWait,            // queue.slot_wait: claim to dna sentinel clearing
  kCasRetryRun,         // queue.cas_retry_run: failed CASes per loop
  kAggWidthDequeue,     // queue.agg_width_dequeue: tickets per proxy claim
  kAggWidthEnqueue,     // queue.agg_width_enqueue: tokens per proxy batch
  // queue.publish_stall: cycles from a token's Rear reservation to its
  // write, for tokens that survived at least one failed flush round.
  kPublishStall,
  kXferAggWidth,        // xfer.agg_width: tokens per transfer batch
  kXferEnqueueLatency,  // xfer.enqueue_latency: transfer publish, cycles
};
inline constexpr std::size_t kStepMetrics =
    static_cast<std::size_t>(StepMetric::kXferEnqueueLatency) + 1;

class Telemetry {
 public:
  struct Options {
    Cycle window_cycles = 4096;       // windowed-series aggregation width
    std::size_t max_windows = 16384;  // per-windowed-series ring capacity
  };

  Telemetry() : Telemetry(Options{}) {}
  explicit Telemetry(Options options)
      : options_(options),
        windows_(TimeSeriesStore::Options{options.window_cycles,
                                          options.max_windows}) {}
  // Handles and the lane-census gauges point into the instance.
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] const Options& options() const { return options_; }

  // ---- Name prefix (multi-device namespacing) ----
  // Every histogram and windowed-series name is stored (and looked up)
  // with this prefix prepended. The cluster runtime gives each device's
  // telemetry a "dev<N>." prefix so merging per-device instances into
  // one sink cannot collide; single-device runs keep the empty prefix
  // and therefore the exact metric names earlier baselines recorded.
  void set_prefix(std::string prefix) {
    prefix_ = std::move(prefix);
    drop_handles();
  }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

  // Folds another telemetry instance into this one: histograms merge by
  // name and windowed series append (ring bounds apply). Meta and probes
  // are not transferred — they describe the source instance's
  // configuration, not its data.
  void merge_from(const Telemetry& other);

  // ---- Histograms (find-or-create by name; prefix applies) ----
  Histogram& histogram(std::string_view name);
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>& histograms()
      const {
    return histograms_;
  }

  // ---- Protocol-stream view (fed by ProtocolStream) ----
  // One value of a step metric: its histogram and, for the windowed
  // ones, the open window.
  void record(StepMetric metric, std::uint64_t value);
  // A stalled publish in priority band `band` of a banded ring: the
  // per-band window queue.band_stall.b<band>.
  void record_band_stall(std::uint64_t band, std::uint64_t cycles);
  // Wave `wave`'s lane census at one work cycle. The windows
  // lanes.hungry and lanes.assigned take the sum over waves of each
  // wave's latest census at every window close.
  void note_lanes(std::uint32_t wave, std::uint64_t hungry,
                  std::uint64_t assigned);
  // Creates a step metric's histogram now, so that it reaches the
  // export even when the run never records a value.
  void declare(StepMetric metric) { (void)step_histogram(metric); }
  // Times a step's metric name was looked up to bind its histogram or
  // window slot; every later record through the slot skips the lookup.
  // The schedule fixes the count exactly.
  [[nodiscard]] std::uint64_t name_resolutions() const {
    return name_resolutions_;
  }

  // ---- Windowed series (sim/timeseries.h; prefix applies) ----
  // Sampled once at each window close.
  void register_window_gauge(std::string_view name, TimeSeriesStore::Gauge fn) {
    windows_.register_gauge(prefix_ + std::string(name), std::move(fn));
  }
  // Monotonic cumulative callback; windows record the per-window delta.
  void register_window_counter(std::string_view name,
                               TimeSeriesStore::Gauge fn) {
    windows_.register_counter(prefix_ + std::string(name), std::move(fn));
  }
  // Appends one closed window directly (host-driven series, e.g. the
  // cluster router's per-superstep deltas).
  void record_window(std::string_view name, Cycle cycle, std::uint64_t value) {
    windows_.record_window(prefix_ + std::string(name), cycle, value);
  }
  [[nodiscard]] const TimeSeriesStore& windows() const { return windows_; }

  // ---- Window clock (driven by Device's event loop) ----
  // Closes every window boundary crossed by `now`.
  void on_advance(Cycle now) { windows_.on_advance(now); }
  // Closes the partial open window (the device calls this at launch end
  // so the run's tail is never silently missing from the timeline).
  void flush_windows(Cycle now) { windows_.flush(now); }

  // Drops every window probe, the lane census and the pending window
  // sums (recorded data stays) and restarts the window clock, since the
  // next probed run begins at cycle 0. Re-registration is required after
  // the probed objects are destroyed — e.g. when a queue-full retry
  // rebuilds the device.
  void clear_probes();

  // Mirrors every closed window into `tracer` as a "win."-prefixed
  // counter track (nullptr disables). Not owned.
  void mirror_counters_to(TraceRecorder* tracer) {
    windows_.mirror_counters_to(tracer);
  }

  // Clears recorded histograms and windows (probes stay registered,
  // metadata stays attached).
  void reset_data();

  // ---- Run metadata ----
  // Free-form key/value pairs (schedule seed, jitter bounds, device
  // name) exported in the JSON artifact's "meta" object so an artifact
  // is reproducible from itself.
  void set_meta(std::string_view key, std::string value) {
    meta_[std::string(key)] = std::move(value);
  }
  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& meta()
      const {
    return meta_;
  }

  // ---- Exporters ----
  // One self-contained JSON artifact: meta, histograms (summary +
  // non-empty buckets + p50/p90/p99) and the windowed series.
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;

  // CSV tables (util/csv): one row per non-empty histogram bucket /
  // one row per closed window.
  [[nodiscard]] std::string histograms_csv() const;
  [[nodiscard]] std::string windows_csv() const { return windows_.to_csv(); }

 private:
  // A step metric's histogram and window slot, resolved on first use.
  struct StepSlot {
    Histogram* histogram = nullptr;
    std::uint64_t* window = nullptr;
  };

  Options options_;
  TimeSeriesStore windows_;
  std::string prefix_;
  std::map<std::string, std::string, std::less<>> meta_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::array<StepSlot, kStepMetrics> steps_{};
  std::vector<std::uint64_t*> band_stalls_;  // window slot per band
  struct LaneCensus {
    std::uint64_t hungry = 0;
    std::uint64_t assigned = 0;
  };
  std::vector<LaneCensus> lanes_;  // per wave slot
  std::uint64_t name_resolutions_ = 0;

  Histogram& step_histogram(StepMetric metric);
  // Forgets every resolved slot; the next record resolves it again.
  void drop_handles() {
    steps_ = {};
    band_stalls_.clear();
  }
};

}  // namespace simt
