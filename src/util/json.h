// Minimal JSON parser shared by tests and tools, plus the string
// escaper and the file writer every exporter uses.
//
// Just enough to round-trip this repo's own exporters (telemetry JSON,
// Chrome trace JSON, bench BENCH_*.json): objects, arrays, strings with
// basic escapes, numbers, booleans, null. Returns nullopt on any error.
// Originally test-only inside telemetry_test.cc; promoted so the
// perf-regression guard (util/perf_diff.h, bench/perf_diff.cc) can read
// artifacts without a third-party dependency.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scq::util {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return object.count(key) != 0;
  }
  // Missing keys read as a null value, keeping lookup chains total.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
};

// Parses a complete JSON document (trailing garbage is an error).
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

// Reads and parses a JSON file; nullopt on open/read/parse failure.
[[nodiscard]] std::optional<JsonValue> parse_json_file(const std::string& path);

// The body of a JSON string literal: quote and backslash escaped, \n,
// \r and \t by name, every other control character as \u00XX, all
// other bytes unchanged.
[[nodiscard]] std::string json_escape(std::string_view s);

// Writes `body` to `path`, replacing the file. False, with one line on
// stderr, when the file cannot be opened or the write or the close
// fails (a full disk shows up only at one of the last two).
bool write_file(const std::string& path, std::string_view body);

// The per-histogram summary statistics the telemetry JSON exporter
// writes and flatten_metrics reads back. One shared list so the
// exporter and the flattener cannot drift apart.
inline constexpr const char* kHistogramSummaryKeys[] = {
    "count", "sum", "min", "max", "mean", "p50", "p90", "p99",
};

// Extracts the comparable metrics of a performance artifact as a flat
// name → value map:
//   - bench JSON ({"bench":..., "metrics":{...}}): each metrics entry;
//   - telemetry JSON ({"histograms":{...}, ...}): per histogram the
//     kHistogramSummaryKeys summary, dot-joined ("enq_latency.p99"),
//     plus the windows' dropped_windows;
//   - anything else: every numeric leaf, dot-joined path, arrays
//     skipped (bucket vectors are shape, not metrics).
// Shared by the perf-regression guard (util/perf_diff.h) and the bench
// harness baseline check (bench_common.h).
[[nodiscard]] std::map<std::string, double> flatten_metrics(
    const JsonValue& doc);

}  // namespace scq::util
