// Shared helpers for the paper-reproduction benchmark harnesses.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bfs/common.h"
#include "bfs/datasets.h"
#include "bfs/pt_bfs.h"
#include "bfs/pt_sssp.h"
#include "core/counters.h"
#include "graph/bfs_ref.h"
#include "sim/config.h"
#include "sim/critical_path.h"
#include "sim/task_trace.h"
#include "sim/telemetry.h"
#include "sim/trace.h"
#include "sim/sim_profiler.h"
#include "util/args.h"
#include "util/postmortem.h"
#include "util/csv.h"
#include "util/sweep.h"
#include "util/html_report.h"
#include "util/json.h"
#include "util/perf_diff.h"
#include "util/table.h"

namespace scq::bench {

struct DeviceEntry {
  simt::DeviceConfig config;
  std::uint32_t paper_workgroups;  // 224 (Fiji) / 32 (Spectre), §5.4
};

inline std::vector<DeviceEntry> paper_devices() {
  return {{simt::fiji_config(), 224}, {simt::spectre_config(), 32}};
}

inline DeviceEntry device_by_name(const std::string& name) {
  for (const DeviceEntry& d : paper_devices()) {
    if (d.config.name == name) return d;
  }
  std::fprintf(stderr, "unknown device '%s' (Fiji|Spectre)\n", name.c_str());
  std::exit(2);
}

// Runs PT BFS and validates against the serial reference; exits loudly
// on mismatch so benchmark numbers are never reported for wrong output.
inline bfs::BfsResult run_validated(const simt::DeviceConfig& config,
                                    const graph::Graph& g, graph::Vertex source,
                                    const bfs::PtBfsOptions& options) {
  bfs::BfsResult result = bfs::run_pt_bfs(config, g, source, options);
  if (result.run.aborted) {
    std::fprintf(stderr, "FATAL: %s run aborted: %s\n",
                 std::string(to_string(options.variant)).c_str(),
                 result.run.abort_reason.c_str());
    std::exit(1);
  }
  const auto ref = graph::bfs_levels(g, source);
  const bool ok = options.atomic_discovery
                      ? bfs::matches_reference(result.levels, ref)
                      : bfs::plausible_levels(result.levels, ref);
  if (!ok) {
    std::fprintf(stderr, "FATAL: BFS output mismatch (%s): %s\n",
                 std::string(to_string(options.variant)).c_str(),
                 bfs::first_mismatch(result.levels, ref).c_str());
    std::exit(1);
  }
  return result;
}

// The workgroup sweep used by the figure benches: powers of two up to
// the device's paper workgroup count, always including the endpoint.
inline std::vector<std::uint32_t> workgroup_sweep(std::uint32_t max_wgs) {
  std::vector<std::uint32_t> sweep;
  for (std::uint32_t wg = 1; wg < max_wgs; wg *= 2) sweep.push_back(wg);
  sweep.push_back(max_wgs);
  return sweep;
}

// ---- Host-parallel sweeps (--sweep-threads) ----
//
// Benches whose points are independent simulations accept
//   --sweep-threads N    run sweep points on N host threads
//                        (1 = serial, 0 = one per hardware thread)
// Points run on worker threads only when every point is self-contained;
// observability sinks (telemetry/trace/task-trace/report) are shared
// process state, so enabling any of them forces the serial path.

inline void add_sweep_flags(util::ArgParser& args) {
  args.add_int("sweep-threads",
               "host threads for independent sweep points "
               "(1 = serial, 0 = hardware concurrency)",
               1);
}

// Worker count for a sweep of `points` independent points; `serial_only`
// (observability attached, timing pass, ...) pins the sweep to one
// thread regardless of the flag.
inline unsigned sweep_threads(const util::ArgParser& args, std::size_t points,
                              bool serial_only = false) {
  if (serial_only) return 1;
  return util::resolve_sweep_threads(args.get_int("sweep-threads"), points);
}

// ---- Observability (--telemetry / --trace / --task-trace / --report) ----
//
// Every harness takes the same flags:
//   --telemetry out.json     telemetry artifact (plus out.hist.csv and
//                            out.windows.csv siblings for plotting)
//   --window-cycles N        width of one windowed-series aggregation
//                            window in cycles (must be >= 1)
//   --trace out.json         Chrome/Perfetto trace of the run
//   --task-trace out.json    per-task lifecycle trace of the last run,
//                            plus attribution/critical-path console
//                            reports (and spawn flow arrows in --trace)
//   --report out.html        self-contained HTML dashboard: windowed
//                            series sparklines, per-device occupancy
//                            heatmap, critical-path attribution table,
//                            simulator self-profile (no external
//                            assets; implies telemetry collection)
//   --json out.json          machine-readable bench metrics
//   --baseline base.json     diff metrics against this file; the bench
//                            exits non-zero when a metric regressed
//   --diff-tolerance P       allowed relative increase (percent)
//   --diff-abs-tolerance A   allowed absolute increase for metrics
//                            whose baseline value is zero
//
// Telemetry histograms and windows accumulate over every run the bench
// executes (each run restarts its cycle clock at 0, so a sweep's windows
// concatenate per-run segments); the trace and the task trace hold the
// last run only, while attribution tables accumulate per variant label.

inline void add_observability_flags(util::ArgParser& args) {
  args.add_string("telemetry",
                  "write telemetry JSON here (+ .hist.csv/.windows.csv "
                  "siblings)",
                  "");
  args.add_int("window-cycles",
               "windowed-series aggregation window width in cycles (>= 1)",
               4096);
  args.add_string("trace", "write Chrome/Perfetto trace JSON here", "");
  args.add_string("task-trace",
                  "write per-task lifecycle trace JSON here (enables "
                  "critical-path and attribution reports)",
                  "");
  args.add_string("report",
                  "write a self-contained HTML run dashboard here "
                  "(series, heatmap, attribution, self-profile)",
                  "");
  args.add_string("json", "write machine-readable bench metrics JSON here", "");
  args.add_string("baseline",
                  "compare metrics against this baseline JSON "
                  "(non-zero exit on regression)",
                  "");
  args.add_double("diff-tolerance",
                  "allowed relative metric increase for --baseline (percent)",
                  0.0);
  args.add_double("diff-abs-tolerance",
                  "allowed absolute increase for zero-valued baseline metrics",
                  0.0);
  args.add_int("sim-seed",
               "schedule seed: permutes same-cycle event order "
               "(0 = legacy deterministic schedule)",
               0);
  args.add_int("sim-jitter",
               "bound in cycles for seeded memory/atomic latency jitter "
               "(ignored when --sim-seed is 0)",
               0);
}

class Observability {
 public:
  explicit Observability(const util::ArgParser& args,
                         std::string bench_name = "bench")
      : telemetry_(telemetry_options(args)),
        bench_name_(std::move(bench_name)),
        telemetry_path_(args.get_string("telemetry")),
        trace_path_(args.get_string("trace")),
        task_trace_path_(args.get_string("task-trace")),
        report_path_(args.get_string("report")),
        json_path_(args.get_string("json")),
        baseline_path_(args.get_string("baseline")),
        diff_tolerance_(args.get_double("diff-tolerance")),
        diff_abs_tolerance_(args.get_double("diff-abs-tolerance")),
        sim_seed_(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, args.get_int("sim-seed")))),
        sim_jitter_(static_cast<simt::Cycle>(
            std::max<std::int64_t>(0, args.get_int("sim-jitter")))) {
    // Stamp the schedule configuration into every artifact so a capture
    // always identifies the (seed, jitter) that produced it.
    telemetry_.set_meta("sim_seed", std::to_string(sim_seed_));
    telemetry_.set_meta("sim_jitter", std::to_string(sim_jitter_));
    trace_.set_meta("sim_seed", std::to_string(sim_seed_));
    trace_.set_meta("sim_jitter", std::to_string(sim_jitter_));
    task_trace_.set_meta("sim_seed", std::to_string(sim_seed_));
  }

  [[nodiscard]] bool enabled() const {
    return !telemetry_path_.empty() || !trace_path_.empty() ||
           task_tracing() || reporting();
  }
  [[nodiscard]] bool task_tracing() const { return !task_trace_path_.empty(); }
  [[nodiscard]] bool reporting() const { return !report_path_.empty(); }

  // Points a run's option struct at the sinks the user asked for. The
  // constraint keeps this usable with option types that predate task
  // tracing (the kernel-style CHAI/Rodinia ports). --report implies
  // telemetry collection (the dashboard is built from the windowed
  // series) and attaches the simulator self-profiler where supported.
  template <typename Options>
  void apply(Options& opt) {
    if (!telemetry_path_.empty() || reporting()) opt.telemetry = &telemetry_;
    if constexpr (requires { opt.trace; }) {
      if (!trace_path_.empty()) opt.trace = &trace_;
    }
    if constexpr (requires { opt.task_trace; }) {
      if (task_tracing()) opt.task_trace = &task_trace_;
    }
    if constexpr (requires { opt.profiler; }) {
      if (reporting()) opt.profiler = &profiler_;
    }
  }

  // Call with a run result's black_box after each run: the dashboard's
  // post-mortem section analyzes the most recent dump (typically the
  // deadlocked attempt before a successful capacity-doubling retry).
  void note_black_box(const std::string& json) {
    if (!json.empty()) black_box_ = json;
  }

  // Call after each run that had task tracing applied: folds the run's
  // per-phase attribution into the `label` column (the run clears the
  // trace on entry, so the trace holds exactly that run) and keeps the
  // run's task records for the critical-path/flow reports in finish().
  void after_run(const std::string& label) {
    if (!task_tracing()) return;
    last_records_ = simt::build_task_records(task_trace_.snapshot());
    const simt::AttributionSummary s = simt::total_attribution(last_records_);
    for (auto& [name, column] : attribution_columns_) {
      if (name == label) {
        column.attr.add(s.attr);
        column.tasks += s.tasks;
        return;
      }
    }
    attribution_columns_.emplace_back(label, s);
  }

  // Accumulates one machine-readable metric for --json / --baseline.
  // All metrics are treated as higher-is-worse by the regression diff.
  void record_metric(const std::string& key, double value) {
    metrics_[key] = value;
  }

  // Per-workload dynamic-task statistics table for the --report
  // dashboard's taskstats section (fed by fig_task_framework from the
  // same numbers it records as metrics).
  void set_task_stats(util::ReportTable table) {
    task_stats_ = std::move(table);
  }

  // Applies the --sim-seed/--sim-jitter schedule perturbation to a
  // device config. Seed 0 (the default) leaves the legacy bit-exact
  // schedule untouched, so paper-number runs are unaffected.
  [[nodiscard]] simt::DeviceConfig tuned(simt::DeviceConfig config) const {
    config.sched_seed = sim_seed_;
    config.sched_mem_jitter = sim_jitter_;
    config.sched_atomic_jitter = sim_jitter_;
    return config;
  }

  [[nodiscard]] std::uint64_t sim_seed() const { return sim_seed_; }

  // Device count stamped into the --json meta (and telemetry meta) so a
  // cluster artifact identifies the configuration that produced it.
  // Single-device benches keep the default 1.
  void set_device_count(std::uint32_t n) {
    device_count_ = n;
    telemetry_.set_meta("device_count", std::to_string(n));
  }
  [[nodiscard]] std::uint32_t device_count() const { return device_count_; }

  [[nodiscard]] simt::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] simt::TaskTrace& task_trace() { return task_trace_; }
  [[nodiscard]] simt::SimProfiler& profiler() { return profiler_; }

  // Writes the requested artifacts, prints the task-trace reports, and
  // runs the --baseline regression diff. Returns false (with a message
  // on stderr) if any write failed or a metric regressed, so benches
  // can exit non-zero.
  [[nodiscard]] bool finish() {
    bool ok = true;
    if (task_tracing()) {
      // Spawn flows ride in the Chrome trace, so export before the
      // trace write below.
      if (!last_records_.empty() && !trace_path_.empty()) {
        simt::export_flows(last_records_, trace_);
      }
      if (!attribution_columns_.empty()) {
        std::printf("\nPer-phase latency attribution (cycles, %% of summed "
                    "task latency):\n%s",
                    simt::attribution_table(attribution_columns_).c_str());
      }
      if (!last_records_.empty()) {
        std::printf("\nCritical path (last run):\n%s",
                    simt::critical_path_report(
                        simt::critical_path(last_records_)).c_str());
      }
      if (task_trace_.write_json(task_trace_path_)) {
        std::printf("task trace -> %s\n", task_trace_path_.c_str());
      } else {
        ok = false;
      }
    }
    if (!telemetry_path_.empty()) {
      if (telemetry_.write_json(telemetry_path_)) {
        std::printf("telemetry -> %s\n", telemetry_path_.c_str());
      } else {
        ok = false;
      }
      const std::string stem = strip_json_suffix(telemetry_path_);
      ok &= util::write_file(stem + ".hist.csv", telemetry_.histograms_csv());
      ok &= util::write_file(stem + ".windows.csv", telemetry_.windows_csv());
    }
    if (reporting()) {
      if (build_report().write(report_path_)) {
        std::printf("report -> %s\n", report_path_.c_str());
      } else {
        ok = false;
      }
    }
    if (!trace_path_.empty()) {
      if (trace_.write_chrome_json(trace_path_)) {
        std::printf("trace -> %s\n", trace_path_.c_str());
      } else {
        ok = false;
      }
    }
    if (!json_path_.empty()) {
      if (util::write_file(json_path_, metrics_json())) {
        std::printf("metrics -> %s\n", json_path_.c_str());
      } else {
        ok = false;
      }
    }
    if (!baseline_path_.empty()) ok &= check_baseline();
    return ok;
  }

  // {"bench":...,"sim_seed":N,"sim_jitter":J,"device_count":D,
  //  "metrics":{...}} — the artifact the perf_diff guard consumes
  // (util::flatten_metrics reads "metrics"; the meta scalars identify
  // the configuration that produced the numbers).
  [[nodiscard]] std::string metrics_json() const {
    std::string out = "{\"bench\":\"" + bench_name_ + "\"";
    out += ",\"sim_seed\":" + std::to_string(sim_seed_);
    out += ",\"sim_jitter\":" + std::to_string(sim_jitter_);
    out += ",\"device_count\":" + std::to_string(device_count_);
    out += ",\"metrics\":{";
    bool first = true;
    char buf[64];
    for (const auto& [key, value] : metrics_) {
      if (!first) out += ',';
      first = false;
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += "\"" + key + "\":" + buf;
    }
    out += "}}\n";
    return out;
  }

 private:
  // A window of 0 cycles would divide the run into nothing; reject it
  // loudly instead of silently clamping (usage error, exit 2).
  static simt::Telemetry::Options telemetry_options(
      const util::ArgParser& args) {
    if (args.get_int("window-cycles") <= 0) {
      std::fprintf(stderr, "error: --window-cycles must be >= 1 (got %lld)\n",
                   static_cast<long long>(args.get_int("window-cycles")));
      std::exit(2);
    }
    simt::Telemetry::Options options;
    options.window_cycles =
        static_cast<simt::Cycle>(args.get_int("window-cycles"));
    return options;
  }

  // Adapts the run's collected telemetry / attribution / profiler state
  // into the plain structs util/html_report.h renders. Every section is
  // populated from whatever was collected; sections without data render
  // an explicit empty state.
  [[nodiscard]] util::HtmlReportBuilder build_report() const {
    util::HtmlReportBuilder report;
    report.set_title(bench_name_ + " run report");
    report.add_meta("bench", bench_name_);
    for (const auto& [k, v] : telemetry_.meta()) report.add_meta(k, v);
    const simt::TimeSeriesStore& wins = telemetry_.windows();
    report.add_meta("window_cycles",
                    std::to_string(wins.window_cycles()));
    report.add_meta("dropped_windows",
                    std::to_string(wins.dropped_windows()));

    // Per-superstep occupancy series become heatmap rows (dev<N>. for
    // cluster runs, unprefixed for a one-device cluster); every other
    // windowed series gets a sparkline.
    constexpr std::string_view kHeatSuffix = "superstep.occupancy";
    util::ReportHeatmap hm;
    hm.title = "Occupancy heatmap (rows: devices, columns: supersteps)";
    for (const std::string& name : wins.series_names()) {
      const std::vector<simt::WindowSample> points = wins.series(name);
      if (name.ends_with(kHeatSuffix)) {
        hm.rows.push_back(name.size() > kHeatSuffix.size()
                              ? name.substr(0, name.find('.'))
                              : "dev0");
        hm.values.emplace_back();
        for (const simt::WindowSample& s : points) {
          hm.values.back().push_back(static_cast<double>(s.value));
        }
        if (hm.col_starts.empty()) {
          for (const simt::WindowSample& s : points) {
            hm.col_starts.push_back(static_cast<double>(s.start));
          }
        }
        continue;
      }
      util::ReportSeries rs;
      rs.name = name;
      rs.points.reserve(points.size());
      for (const simt::WindowSample& s : points) {
        rs.points.emplace_back(static_cast<double>(s.start),
                               static_cast<double>(s.value));
      }
      report.add_series(std::move(rs));
    }
    if (hm.rows.empty()) {
      // Single-device run: the per-window occupancy series still gives
      // the heatmap section one row, so the dashboard shape is stable.
      const std::vector<simt::WindowSample> occ =
          wins.series(tel::kOccupancy);
      if (!occ.empty()) {
        hm.title = "Occupancy heatmap (single device, columns: windows)";
        hm.rows.push_back("dev0");
        hm.values.emplace_back();
        for (const simt::WindowSample& s : occ) {
          hm.col_starts.push_back(static_cast<double>(s.start));
          hm.values.back().push_back(static_cast<double>(s.value));
        }
      }
    }
    report.set_heatmap(std::move(hm));

    if (!attribution_columns_.empty()) {
      util::ReportTable table;
      table.title = "Critical-path attribution (cycles, % of summed "
                    "task latency)";
      table.columns.push_back("phase");
      for (const auto& column : attribution_columns_) {
        table.columns.push_back(column.first);
      }
      char cell[64];
      for (unsigned b = 0; b < simt::kNumPhaseBuckets; ++b) {
        const auto bucket = static_cast<simt::PhaseBucket>(b);
        table.rows.push_back({simt::to_string(bucket)});
        for (const auto& column : attribution_columns_) {
          const simt::AttributionSummary& summary = column.second;
          const simt::Cycle total = summary.attr.total();
          const simt::Cycle cycles = summary.attr[bucket];
          std::snprintf(cell, sizeof(cell), "%llu (%.1f%%)",
                        static_cast<unsigned long long>(cycles),
                        total > 0 ? 100.0 * static_cast<double>(cycles) /
                                        static_cast<double>(total)
                                  : 0.0);
          table.rows.back().emplace_back(cell);
        }
      }
      report.set_attribution(std::move(table));
    }

    if (!task_stats_.rows.empty()) report.set_task_stats(task_stats_);

    if (profiler_.events() > 0) {
      char buf[64];
      std::vector<std::pair<std::string, std::string>> stats;
      stats.emplace_back("events", std::to_string(profiler_.events()));
      std::snprintf(buf, sizeof(buf), "%.3g", profiler_.events_per_sec());
      stats.emplace_back("events/sec", buf);
      std::snprintf(buf, sizeof(buf), "%.1f",
                    profiler_.wall_seconds() * 1e3);
      stats.emplace_back("wall ms", buf);
      std::vector<util::ReportBar> bars;
      const simt::SimProfiler::SubsystemShares sub =
          profiler_.subsystem_shares();
      bars.push_back({"heap", sub.heap});
      bars.push_back({"telemetry", sub.telemetry});
      bars.push_back({"memory model", sub.memory_model});
      bars.push_back({"dispatch", sub.dispatch});
      for (unsigned i = 0; i < simt::SimProfiler::kOps; ++i) {
        const auto op = static_cast<simt::TraceOp>(i);
        if (profiler_.op_count(op) == 0) continue;
        bars.push_back({std::string("op: ") + simt::to_string(op),
                        profiler_.op_share(op)});
      }
      report.set_profiler(std::move(bars), std::move(stats));
    }

    if (!black_box_.empty()) {
      const std::optional<util::JsonValue> doc = util::parse_json(black_box_);
      if (doc) {
        report.set_postmortem(util::analyze_black_box(*doc).render());
      } else {
        report.set_postmortem("== post-mortem ==\nINVALID DUMP: not JSON\n");
      }
    }
    return report;
  }

  // --baseline: diff the bench's own metrics (or, when the bench
  // recorded none, the telemetry summary) against the checked-in file.
  [[nodiscard]] bool check_baseline() {
    const std::optional<util::JsonValue> base_doc =
        util::parse_json_file(baseline_path_);
    if (!base_doc) {
      std::fprintf(stderr, "cannot read or parse baseline %s\n",
                   baseline_path_.c_str());
      return false;
    }
    std::map<std::string, double> current = metrics_;
    if (current.empty()) {
      const std::optional<util::JsonValue> own =
          util::parse_json(telemetry_.to_json());
      if (own) current = util::flatten_metrics(*own);
    }
    const util::DiffResult diff =
        util::diff_metrics(util::flatten_metrics(*base_doc), current,
                           diff_tolerance_, diff_abs_tolerance_);
    std::printf("\nbaseline diff vs %s (tolerance %.2f%%):\n%s",
                baseline_path_.c_str(), diff_tolerance_,
                util::render_diff(diff, false).c_str());
    if (!diff.ok()) {
      std::fprintf(stderr, "FAIL: performance regressed past baseline %s\n",
                   baseline_path_.c_str());
      return false;
    }
    return true;
  }

  static std::string strip_json_suffix(const std::string& path) {
    constexpr std::string_view kSuffix = ".json";
    if (path.size() > kSuffix.size() && path.ends_with(kSuffix)) {
      return path.substr(0, path.size() - kSuffix.size());
    }
    return path;
  }

  simt::Telemetry telemetry_;
  simt::TraceRecorder trace_;
  simt::TaskTrace task_trace_;
  simt::SimProfiler profiler_;
  std::string black_box_;
  std::string bench_name_;
  std::string telemetry_path_;
  std::string trace_path_;
  std::string task_trace_path_;
  std::string report_path_;
  std::string json_path_;
  std::string baseline_path_;
  double diff_tolerance_ = 0.0;
  double diff_abs_tolerance_ = 0.0;
  std::uint64_t sim_seed_ = 0;
  simt::Cycle sim_jitter_ = 0;
  std::uint32_t device_count_ = 1;
  std::map<std::string, double> metrics_;
  util::ReportTable task_stats_;
  std::vector<std::pair<std::string, simt::AttributionSummary>>
      attribution_columns_;
  std::vector<simt::TaskRecord> last_records_;
};

}  // namespace scq::bench
