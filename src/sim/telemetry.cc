#include "sim/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "sim/trace.h"
#include "util/csv.h"
#include "util/json.h"

namespace simt {

namespace {

using scq::util::json_escape;

std::string u64(std::uint64_t v) { return std::to_string(v); }

std::string dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0.0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(counts_[b]);
    if (cum + 1e-9 < target) continue;
    // Linear interpolation inside the bucket.
    const double frac = (target - prev) / static_cast<double>(counts_[b]);
    const double lo = static_cast<double>(bucket_low(b));
    const double hi = static_cast<double>(bucket_high(b));
    const double v = lo + frac * (hi - lo);
    const auto value = static_cast<std::uint64_t>(std::max(v, 0.0));
    return std::clamp(value, min(), max_);
  }
  return max_;
}

void Histogram::merge(const Histogram& rhs) {
  if (rhs.count_ == 0) return;
  for (unsigned b = 0; b < kBuckets; ++b) counts_[b] += rhs.counts_[b];
  count_ += rhs.count_;
  sum_ += rhs.sum_;
  min_ = std::min(min_, rhs.min_);
  max_ = std::max(max_, rhs.max_);
}

namespace {

constexpr std::array<std::string_view, kStepMetrics> kStepNames = {
    "queue.dequeue_latency",   "queue.enqueue_latency",
    "queue.slot_wait",         "queue.cas_retry_run",
    "queue.agg_width_dequeue", "queue.agg_width_enqueue",
    "queue.publish_stall",     "xfer.agg_width",
    "xfer.enqueue_latency"};
constexpr std::string_view kBandStallPrefix = "queue.band_stall.b";
constexpr std::string_view kHungryLanes = "lanes.hungry";
constexpr std::string_view kAssignedLanes = "lanes.assigned";

}  // namespace

Histogram& Telemetry::histogram(std::string_view name) {
  return histograms_[prefix_ + std::string(name)];
}

const Histogram* Telemetry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(prefix_ + std::string(name));
  return it == histograms_.end() ? nullptr : &it->second;
}

Histogram& Telemetry::step_histogram(StepMetric metric) {
  Histogram*& h = steps_[static_cast<std::size_t>(metric)].histogram;
  if (h == nullptr) {
    ++name_resolutions_;
    h = &histogram(kStepNames[static_cast<std::size_t>(metric)]);
  }
  return *h;
}

void Telemetry::record(StepMetric metric, std::uint64_t value) {
  step_histogram(metric).add(value);
  if (metric != StepMetric::kSlotWait && metric != StepMetric::kPublishStall) {
    return;
  }
  const auto i = static_cast<std::size_t>(metric);
  std::uint64_t*& window = steps_[i].window;
  if (window == nullptr) {
    ++name_resolutions_;
    window = &windows_.accumulator(prefix_ + std::string(kStepNames[i]));
  }
  *window += value;
}

void Telemetry::record_band_stall(std::uint64_t band, std::uint64_t cycles) {
  if (band_stalls_.size() <= band) band_stalls_.resize(band + 1, nullptr);
  std::uint64_t*& window = band_stalls_[band];
  if (window == nullptr) {
    ++name_resolutions_;
    window = &windows_.accumulator(prefix_ + std::string(kBandStallPrefix) +
                                   std::to_string(band));
  }
  *window += cycles;
}

void Telemetry::note_lanes(std::uint32_t wave, std::uint64_t hungry,
                           std::uint64_t assigned) {
  if (lanes_.empty()) {
    // The first census since the probes were cleared registers the two
    // sums over waves as window gauges.
    const auto sum_of = [this](std::uint64_t LaneCensus::*field) {
      return [this, field](Cycle) {
        std::uint64_t sum = 0;
        for (const LaneCensus& c : lanes_) sum += c.*field;
        return sum;
      };
    };
    register_window_gauge(kHungryLanes, sum_of(&LaneCensus::hungry));
    register_window_gauge(kAssignedLanes, sum_of(&LaneCensus::assigned));
  }
  if (lanes_.size() <= wave) lanes_.resize(wave + 1);
  lanes_[wave] = {hungry, assigned};
}

void Telemetry::merge_from(const Telemetry& other) {
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  windows_.merge_from(other.windows_);
}

void Telemetry::clear_probes() {
  windows_.clear_probes();
  lanes_.clear();
  for (StepSlot& slot : steps_) slot.window = nullptr;
  band_stalls_.clear();
}

void Telemetry::reset_data() {
  histograms_.clear();
  windows_.reset_data();
  for (StepSlot& slot : steps_) slot.histogram = nullptr;
}

std::string Telemetry::to_json() const {
  std::string out = "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  if (!first) out += "\n  ";
  out += "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"" + json_escape(name) + "\": {";
    // The summary keys are the shared list the perf-diff flattener reads
    // back (util/json.h), so the two ends cannot drift apart.
    const auto summary_value = [&h](std::string_view key) -> std::string {
      if (key == "count") return u64(h.count());
      if (key == "sum") return u64(h.sum());
      if (key == "min") return u64(h.min());
      if (key == "max") return u64(h.max());
      if (key == "mean") return dbl(h.mean());
      if (key == "p50") return u64(h.percentile(50));
      if (key == "p90") return u64(h.percentile(90));
      return u64(h.percentile(99));  // p99
    };
    bool first_key = true;
    for (const char* key : scq::util::kHistogramSummaryKeys) {
      if (!first_key) out += ", ";
      first_key = false;
      out += '"';
      out += key;
      out += "\": ";
      out += summary_value(key);
    }
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket_count(b) == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"low\": " + u64(Histogram::bucket_low(b)) +
             ", \"high\": " + u64(Histogram::bucket_high(b)) +
             ", \"count\": " + u64(h.bucket_count(b)) + "}";
    }
    out += "]}";
  }
  out += "\n  },\n  \"windows\": " + windows_.to_json() + "\n}\n";
  return out;
}

bool Telemetry::write_json(const std::string& path) const {
  return scq::util::write_file(path, to_json());
}

std::string Telemetry::histograms_csv() const {
  scq::util::CsvWriter csv({"histogram", "bucket_low", "bucket_high", "count"});
  for (const auto& [name, h] : histograms_) {
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket_count(b) == 0) continue;
      csv.add_row({name, u64(Histogram::bucket_low(b)),
                   u64(Histogram::bucket_high(b)), u64(h.bucket_count(b))});
    }
  }
  return csv.render();
}

}  // namespace simt
