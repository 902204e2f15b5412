#include "sim/timeseries.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/csv.h"
#include "util/json.h"

namespace simt {

namespace {

using scq::util::json_escape;

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

TimeSeriesStore::TimeSeriesStore(Options options) : options_(options) {
  options_.window_cycles = std::max<Cycle>(options_.window_cycles, 1);
  options_.max_windows = std::max<std::size_t>(options_.max_windows, 1);
  open_end_ = options_.window_cycles;
}

void TimeSeriesStore::register_gauge(std::string name, Gauge fn) {
  gauges_.emplace_back(std::move(name), std::move(fn));
}

void TimeSeriesStore::register_counter(std::string name, Gauge fn) {
  CounterProbe probe;
  probe.name = std::move(name);
  probe.fn = std::move(fn);
  // The first window's delta is measured from the value now, not from
  // zero: a counter registered mid-run must not dump its whole history
  // into one window.
  probe.prev = probe.fn(open_start_);
  counters_.push_back(std::move(probe));
}

std::uint64_t& TimeSeriesStore::accumulator(std::string_view name) {
  auto it = accum_.find(name);
  if (it == accum_.end()) {
    it = accum_.emplace(std::string(name), std::uint64_t{0}).first;
  }
  return it->second;
}

void TimeSeriesStore::push(const std::string& name, Cycle start,
                           std::uint64_t value) {
  Ring& ring = series_[name];
  if (ring.slots.size() < options_.max_windows) {
    ring.slots.push_back({start, value});
  } else {
    ring.slots[ring.head] = {start, value};
    ring.head = (ring.head + 1) % ring.slots.size();
    ++dropped_windows_;
  }
  if (mirror_) {
    mirror_->record_counter(
        {start, "win." + name, static_cast<double>(value)});
  }
}

void TimeSeriesStore::record_window(std::string_view name, Cycle cycle,
                                    std::uint64_t value) {
  push(std::string(name), cycle, value);
}

void TimeSeriesStore::close_window(Cycle start, Cycle end) {
  for (const auto& [name, fn] : gauges_) push(name, start, fn(end));
  for (CounterProbe& probe : counters_) {
    const std::uint64_t cur = probe.fn(end);
    push(probe.name, start, cur - probe.prev);
    probe.prev = cur;
  }
  for (auto& [name, sum] : accum_) {
    if (sum == 0) continue;  // event-shaped series skip empty windows
    push(name, start, sum);
    sum = 0;
  }
}

void TimeSeriesStore::roll(Cycle now) {
  while (now >= open_end_) {
    close_window(open_start_, open_end_);
    open_start_ = open_end_;
    open_end_ += options_.window_cycles;
  }
}

void TimeSeriesStore::flush(Cycle now) {
  roll(now);
  if (gauges_.empty() && counters_.empty() && accum_.empty()) return;
  // Close the partial window [open_start_, now]. Probes sample at `now`;
  // the stamp is still the window start so the cadence stays aligned.
  close_window(open_start_, now);
  // The open window has been consumed: restart cleanly past it so a
  // subsequent flush cannot double-close the same span.
  open_start_ = open_end_;
  open_end_ += options_.window_cycles;
}

void TimeSeriesStore::clear_probes() {
  gauges_.clear();
  counters_.clear();
  accum_.clear();
  open_start_ = 0;
  open_end_ = options_.window_cycles;
}

void TimeSeriesStore::merge_from(const TimeSeriesStore& other) {
  for (const auto& [name, ring] : other.series_) {
    // Append in the source ring's chronological order.
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const WindowSample& s = ring.slots[(ring.head + i) % ring.size()];
      push(name, s.start, s.value);
    }
  }
  dropped_windows_ += other.dropped_windows_;
}

void TimeSeriesStore::reset_data() {
  series_.clear();
  dropped_windows_ = 0;
}

std::vector<WindowSample> TimeSeriesStore::series(std::string_view name) const {
  std::vector<WindowSample> out;
  const auto it = series_.find(name);
  if (it == series_.end()) return out;
  const Ring& ring = it->second;
  out.reserve(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    out.push_back(ring.slots[(ring.head + i) % ring.size()]);
  }
  return out;
}

std::vector<std::string> TimeSeriesStore::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, ring] : series_) names.push_back(name);
  return names;
}

std::string TimeSeriesStore::to_json() const {
  std::string out = "{\"window_cycles\": " + u64(options_.window_cycles) +
                    ", \"dropped_windows\": " + u64(dropped_windows_) +
                    ", \"series\": {";
  bool first = true;
  for (const auto& [name, ring] : series_) {
    if (!first) out += ',';
    first = false;
    out += "\n      \"" + json_escape(name) + "\": [";
    bool first_point = true;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const WindowSample& s = ring.slots[(ring.head + i) % ring.size()];
      if (!first_point) out += ',';
      first_point = false;
      out += '[' + u64(s.start) + ',' + u64(s.value) + ']';
    }
    out += ']';
  }
  out += "}}";
  return out;
}

std::string TimeSeriesStore::to_csv() const {
  scq::util::CsvWriter csv({"series", "window_start", "value"});
  for (const auto& [name, ring] : series_) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const WindowSample& s = ring.slots[(ring.head + i) % ring.size()];
      csv.add_row({name, u64(s.start), u64(s.value)});
    }
  }
  return csv.render();
}

}  // namespace simt
