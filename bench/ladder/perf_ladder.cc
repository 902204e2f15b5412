// perf_ladder — the repository benchmark (see README.md in this
// directory).
//
//   perf_ladder --workload bfs-social [--seed 1] [--seconds 15]
//               [--trace 0|1] [--spans spans.json] [--json report.json]
//               [--quick]
//   perf_ladder --compare A.json... -- B.json...
//
// One process runs one workload, so peak_rss_mb covers that workload
// alone. The run builds the inputs and their serial references from
// --seed and runs one untimed warm-up pass of the job list; that set-up
// repeats three times and setup_s is its median. It then runs whole
// passes of the job list until --seconds have elapsed, timing every
// front-end call and validating every output. --trace 1 adds one pass
// with the simulator self-profiler and the task trace attached, checks
// that its deterministic counts equal the untraced ones, and reports the
// per-layer metrics instead of the end-to-end ones.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit code 1 when any job failed (abort, wrong output, or simulated
// cycles / counts that differ from the same job's first run).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "core/black_box.h"
#include "ladder.h"
#include "sim/critical_path.h"
#include "sim/sim_profiler.h"
#include "sim/task_trace.h"
#include "util/args.h"

namespace scq::ladder {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics{
      {"jobs_per_s", "jobs/s", "higher", 0.18},
      {"job_ms_p50", "ms", "lower", 0.22},
      {"job_ms_p90", "ms", "lower", 0.22},
      {"sim_ms", "ms", "lower", 0.10},
      {"setup_s", "s", "lower", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.10},
      {"fail_ratio", "ratio", "lower", 0.0},
  };
  return kMetrics;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Per-layer metrics, named after the modules (graph, sim, core, bfs,
// tasks, cluster). The traced run reports every one of them; a metric a
// workload does not exercise reads 0.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* better;
};

const std::vector<LayerSpec>& layer_metrics() {
  static const std::vector<LayerSpec> kLayers{
      {"graph.generate_s", "s", "lower"},
      {"graph.reference_s", "s", "lower"},
      {"graph.validate_ms", "ms", "lower"},
      {"sim.global_loads", "count", "lower"},
      {"sim.global_stores", "count", "lower"},
      {"sim.lines_touched", "count", "lower"},
      {"sim.afa_ops", "count", "lower"},
      {"sim.cas_attempts", "count", "lower"},
      {"sim.cas_failures", "count", "lower"},
      {"sim.lds_ops", "count", "lower"},
      {"sim.compute_cycles", "cycles", "lower"},
      {"sim.idle_cycles", "cycles", "lower"},
      {"sim.events", "count", "lower"},
      {"sim.ns_per_event", "ns", "lower"},
      {"sim.launch_share", "share", "lower"},
      {"sim.heap_share", "share", "lower"},
      {"sim.dispatch_share", "share", "lower"},
      {"sim.resume.compute_share", "share", "lower"},
      {"sim.resume.idle_share", "share", "lower"},
      {"sim.resume.load_share", "share", "lower"},
      {"sim.resume.store_share", "share", "lower"},
      {"sim.resume.vload_share", "share", "lower"},
      {"sim.resume.vstore_share", "share", "lower"},
      {"sim.resume.atomic_share", "share", "lower"},
      {"sim.resume.vatomic_share", "share", "lower"},
      {"sim.resume.lds_share", "share", "lower"},
      {"sim.trace_overhead_pct", "%", "lower"},
      {"core.queue_atomics", "count", "lower"},
      {"core.queue_cas_failures", "count", "lower"},
      {"core.queue_retry_ratio", "ratio", "lower"},
      {"core.polls", "count", "lower"},
      {"core.empty_retries", "count", "lower"},
      {"core.publish_stalls", "count", "lower"},
      {"core.stale_skips", "count", "lower"},
      {"core.band_closes", "count", "lower"},
      {"core.capacity_retries", "count", "lower"},
      {"core.phase.reserve_wait_share", "share", "lower"},
      {"core.phase.publish_wait_share", "share", "lower"},
      {"core.phase.queue_wait_share", "share", "lower"},
      {"core.phase.dna_spin_share", "share", "lower"},
      {"core.phase.dispatch_share", "share", "lower"},
      {"core.phase.execute_share", "share", "higher"},
      {"bfs.work_cycles", "count", "lower"},
      {"bfs.tasks_processed", "count", "lower"},
      {"bfs.edges_relaxed", "count", "lower"},
      {"bfs.tokens_enqueued", "count", "lower"},
      {"bfs.dup_enqueues", "count", "lower"},
      {"bfs.useful_ratio", "ratio", "higher"},
      {"tasks.executions", "count", "lower"},
      {"tasks.spawns", "count", "lower"},
      {"tasks.respawns", "count", "lower"},
      {"tasks.credits", "count", "lower"},
      {"tasks.phase_closes", "count", "lower"},
      {"tasks.amplification", "ratio", "lower"},
      {"cluster.supersteps", "count", "lower"},
      {"cluster.xfer_tokens", "count", "lower"},
      {"cluster.delivered", "count", "lower"},
      {"cluster.stolen", "count", "lower"},
      {"cluster.inject_retries", "count", "lower"},
      {"cluster.cut_edges", "count", "lower"},
      {"cluster.task_imbalance", "ratio", "lower"},
  };
  return kLayers;
}

// The phase names of simt::PhaseBucket, as metric-name fragments.
constexpr const char* kPhaseNames[simt::kNumPhaseBuckets] = {
    "reserve_wait", "publish_wait", "queue_wait",
    "dna_spin",     "dispatch",     "execute"};

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

// Spans from the benchmark's own code, kept in memory and written as
// Chrome trace-event JSON at the end of a traced run. A job's root span
// and its job.call / job.validate children carry the same job id.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void add(const char* name, Clock::time_point begin, Clock::time_point end,
           std::uint64_t job = 0, const std::string& type = {}) {
    if (!enabled_) return;
    spans_.push_back({name, begin, end, job, type});
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
      };
      out += i == 0 ? "\n" : ",\n";
      out += "{\"name\":" + json_string(s.name) +
             ",\"cat\":\"perf_ladder\",\"ph\":\"X\",\"pid\":1,\"tid\":1" +
             ",\"ts\":" + json_number(us(s.begin)) +
             ",\"dur\":" + json_number(us(s.end) - us(s.begin)) + ",\"args\":{";
      if (s.job != 0) {
        out += "\"job\":" + std::to_string(s.job) +
               ",\"type\":" + json_string(s.type);
      }
      out += "}}";
    }
    out += "\n]}\n";
    std::ofstream f(path, std::ios::binary);
    f << out;
    f.close();
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point begin, end;
    std::uint64_t job;
    std::string type;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool quick = false;
  std::string spans;
  std::string json;
};

// Sums of SimProfiler readings over the traced single-device jobs.
struct ProfileSums {
  double events = 0.0;
  double wall_ns = 0.0;
  double call_ns = 0.0;  // the same jobs' call walls, timed from outside
  double sampled_ns = 0.0;
  double section_ns[static_cast<unsigned>(simt::SimSection::kCount)] = {};
  double op_ns[simt::SimProfiler::kOps] = {};

  void add(const simt::SimProfiler& p, double call_ms) {
    events += static_cast<double>(p.events());
    wall_ns += p.wall_seconds() * 1e9;
    call_ns += call_ms * 1e6;
    sampled_ns += p.sampled_total_ns();
    for (unsigned s = 0; s < std::size(section_ns); ++s) {
      section_ns[s] += p.section_ns(static_cast<simt::SimSection>(s));
    }
    for (unsigned op = 0; op < simt::SimProfiler::kOps; ++op) {
      op_ns[op] += p.op_ns(static_cast<simt::TraceOp>(op));
    }
  }
};

// Everything recorded for one entry of the job list.
struct JobRecord {
  std::string name;  // job type
  Outcome first;     // the first run: reference for cycles and counts
  std::vector<double> call_ms;
  double traced_ms = 0.0;
  std::uint64_t trace_dropped = 0;
};

// The records of one job type (one per input graph), folded together.
struct TypeSummary {
  std::string name;
  std::vector<double> call_ms;
  double sim_ms = 0.0;
  simt::Cycle cycles = 0;
  Counts counts;
  double traced_ms = 0.0;
  double untraced_p50_ms = 0.0;  // sum over the type's jobs
  std::uint64_t trace_dropped = 0;
};

std::vector<TypeSummary> summarize(const std::vector<JobRecord>& records) {
  std::vector<TypeSummary> types;
  for (const JobRecord& r : records) {
    auto it = std::find_if(types.begin(), types.end(),
                           [&](const TypeSummary& t) { return t.name == r.name; });
    if (it == types.end()) {
      it = types.insert(types.end(), TypeSummary());
      it->name = r.name;
    }
    it->call_ms.insert(it->call_ms.end(), r.call_ms.begin(), r.call_ms.end());
    it->sim_ms += r.first.sim_ms;
    it->cycles += r.first.cycles;
    for (const auto& [name, value] : r.first.counts) it->counts[name] += value;
    it->traced_ms += r.traced_ms;
    it->untraced_p50_ms += median(r.call_ms);
    it->trace_dropped += r.trace_dropped;
  }
  return types;
}

struct JobRun {
  Outcome outcome;
  std::string failure;
  double call_ms = 0.0;
  double validate_ms = 0.0;
};

class Harness {
 public:
  Harness(const WorkloadSpec& spec, const Options& opt)
      : spec_(spec), opt_(opt), spans_(opt.trace) {}

  int run();

 private:
  void set_up();
  void measure();
  void traced_pass();
  JobRun run_job(std::size_t index, const Sinks& sinks);
  void print_result(bool correct);
  bool write_report(const std::string& path) const;
  std::map<std::string, double> end_to_end() const;
  std::map<std::string, double> per_layer() const;

  const WorkloadSpec& spec_;
  Options opt_;
  SpanLog spans_;
  std::vector<JobType> jobs_;
  std::vector<JobRecord> records_;
  std::uint64_t next_job_ = 1;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool observer_mismatch_ = false;
  std::vector<std::string> failures_;
  std::vector<double> setup_s_, generate_s_, reference_s_;
  std::vector<double> pass_call_ms_, validate_pass_ms_;  // per measured pass
  double peak_rss_mb_ = 0.0;
  ProfileSums profile_;
  simt::Attribution attribution_;
};

JobRun Harness::run_job(std::size_t index, const Sinks& sinks) {
  const JobType& job = jobs_[index];
  JobRecord& rec = records_[index];
  const std::uint64_t id = next_job_++;
  JobRun r;
  const Clock::time_point t0 = Clock::now();
  try {
    r.outcome = job.call(sinks);
    r.failure = r.outcome.error;
  } catch (const std::exception& e) {
    r.failure = std::string("threw: ") + e.what();
  }
  const Clock::time_point t1 = Clock::now();
  if (r.failure.empty()) r.failure = r.outcome.validate();
  const Clock::time_point t2 = Clock::now();
  r.call_ms = ms_between(t0, t1);
  r.validate_ms = ms_between(t1, t2);
  spans_.add("job", t0, t2, id, job.name);
  spans_.add("job.call", t0, t1, id, job.name);
  spans_.add("job.validate", t1, t2, id, job.name);

  // The schedule seed is 0, so a job's simulated cycles and counts are a
  // pure function of its inputs: any drift is a failure.
  if (r.failure.empty()) {
    if (rec.first.counts.empty()) {
      rec.first = r.outcome;
    } else if (r.outcome.cycles != rec.first.cycles) {
      r.failure = "simulated cycles " + std::to_string(r.outcome.cycles) +
                  " differ from the first run's " +
                  std::to_string(rec.first.cycles);
    } else if (r.outcome.counts != rec.first.counts) {
      r.failure = "deterministic counts differ from the first run";
    }
  }
  ++attempted_;
  if (!r.failure.empty()) {
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(job.name + ": " + r.failure);
    std::fprintf(stderr, "FAIL %s: %s\n", job.name.c_str(), r.failure.c_str());
  }
  return r;
}

void Harness::set_up() {
  const double scale = opt_.quick ? 0.125 : 1.0;
  const int setups = opt_.quick ? 1 : 3;
  for (int s = 0; s < setups; ++s) {
    std::map<std::string, double> phase_s;
    const PhaseTimer phase = [&](const char* name,
                                 const std::function<void()>& body) {
      const Clock::time_point b = Clock::now();
      body();
      const Clock::time_point e = Clock::now();
      spans_.add(name, b, e);
      phase_s[name] += ms_between(b, e) * 1e-3;
    };
    const Clock::time_point t0 = Clock::now();
    jobs_ = spec_.build(opt_.seed, scale, phase);
    if (records_.empty()) {
      for (const JobType& j : jobs_) records_.push_back({j.name, {}, {}, 0.0, 0});
    }
    const Clock::time_point w0 = Clock::now();
    for (std::size_t i = 0; i < jobs_.size(); ++i) (void)run_job(i, {});
    const Clock::time_point t1 = Clock::now();
    spans_.add("setup.warmup", w0, t1);
    setup_s_.push_back(ms_between(t0, t1) * 1e-3);
    generate_s_.push_back(phase_s["setup.generate"]);
    reference_s_.push_back(phase_s["setup.reference"]);
  }
}

void Harness::measure() {
  const Clock::time_point start = Clock::now();
  do {
    double call_ms = 0.0, validate_ms = 0.0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const JobRun r = run_job(i, {});
      records_[i].call_ms.push_back(r.call_ms);
      call_ms += r.call_ms;
      validate_ms += r.validate_ms;
    }
    pass_call_ms_.push_back(call_ms);
    validate_pass_ms_.push_back(validate_ms);
  } while (!opt_.quick && ms_between(start, Clock::now()) < opt_.seconds * 1e3);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One pass with the self-profiler and the task trace attached.
// run_job's determinism check doubles as the observer check: a sink that
// changed the schedule changes the counts.
void Harness::traced_pass() {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    simt::SimProfiler profiler;
    simt::TaskTrace task_trace;
    const Sinks sinks{&profiler, &task_trace};
    const std::uint64_t failed_before = failed_;
    const JobRun r = run_job(i, sinks);
    if (failed_ != failed_before) observer_mismatch_ = true;
    JobRecord& rec = records_[i];
    rec.traced_ms = r.call_ms;
    // run_cluster_bfs takes no profiler, which then counts no events.
    if (profiler.events() > 0) profile_.add(profiler, r.call_ms);
    // A trace that hit its capacity would attribute only the run's
    // beginning; such jobs are left out of the phase shares.
    rec.trace_dropped = task_trace.dropped();
    if (rec.trace_dropped == 0) {
      attribution_.add(
          simt::total_attribution(simt::build_task_records(task_trace.snapshot()))
              .attr);
    }
  }
}

std::map<std::string, double> Harness::end_to_end() const {
  std::vector<double> calls;
  double sim_ms = 0.0;
  for (const JobRecord& t : records_) {
    calls.insert(calls.end(), t.call_ms.begin(), t.call_ms.end());
    sim_ms += t.first.sim_ms;
  }
  // Throughput of the median pass: a load burst from another process
  // that slows a few passes does not move it.
  return {
      {"jobs_per_s", ratio(static_cast<double>(jobs_.size()),
                           median(pass_call_ms_) * 1e-3)},
      {"job_ms_p50", percentile(calls, 0.50)},
      {"job_ms_p90", percentile(calls, 0.90)},
      {"sim_ms", sim_ms},
      {"setup_s", median(setup_s_)},
      {"peak_rss_mb", peak_rss_mb_},
      {"fail_ratio", ratio(static_cast<double>(failed_),
                           static_cast<double>(attempted_))},
  };
}

std::map<std::string, double> Harness::per_layer() const {
  // Deterministic counts, summed over one pass of the job list.
  std::map<std::string, double> m;
  for (const JobRecord& t : records_) {
    for (const auto& [name, value] : t.first.counts) m[name] += value;
  }
  m["core.queue_retry_ratio"] =
      ratio(m["core.queue_cas_failures"], m["core.queue_atomics"]);
  m["bfs.useful_ratio"] = ratio(m["bfs.reached"], m["bfs.tasks_processed"]);
  m["tasks.amplification"] = ratio(m["tasks.executions"], m["tasks.useful"]);
  m["cluster.task_imbalance"] = ratio(m["cluster.max_device_tasks"],
                                      m["cluster.mean_device_tasks"]);
  m["graph.generate_s"] = median(generate_s_);
  m["graph.reference_s"] = median(reference_s_);
  m["graph.validate_ms"] = median(validate_pass_ms_);
  if (!opt_.trace) return m;

  const ProfileSums& p = profile_;
  m["sim.events"] = p.events;
  m["sim.ns_per_event"] = ratio(p.wall_ns, p.events);
  m["sim.launch_share"] = ratio(p.wall_ns, p.call_ns);
  m["sim.heap_share"] = ratio(
      p.section_ns[static_cast<unsigned>(simt::SimSection::kHeap)], p.sampled_ns);
  m["sim.dispatch_share"] = ratio(
      p.section_ns[static_cast<unsigned>(simt::SimSection::kDispatch)],
      p.sampled_ns);
  for (unsigned op = 0; op < simt::SimProfiler::kOps; ++op) {
    m[std::string("sim.resume.") + simt::to_string(static_cast<simt::TraceOp>(op)) +
      "_share"] = ratio(p.op_ns[op], p.sampled_ns);
  }
  double traced = 0.0, untraced = 0.0;
  for (const TypeSummary& t : summarize(records_)) {
    traced += t.traced_ms;
    untraced += t.untraced_p50_ms;
  }
  m["sim.trace_overhead_pct"] = 100.0 * (ratio(traced, untraced) - 1.0);
  const double total = static_cast<double>(attribution_.total());
  for (unsigned b = 0; b < simt::kNumPhaseBuckets; ++b) {
    m[std::string("core.phase.") + kPhaseNames[b] + "_share"] =
        ratio(static_cast<double>(attribution_.cycles[b]), total);
  }
  return m;
}

bool Harness::write_report(const std::string& path) const {
  const std::map<std::string, double> e2e = end_to_end();
  std::string out = "{\n  \"bench\": \"perf_ladder\",\n  \"workload\": " +
                    json_string(spec_.name) +
                    ",\n  \"device\": " + json_string(spec_.device) +
                    ",\n  \"seed\": " + std::to_string(opt_.seed) +
                    ",\n  \"quick\": " + (opt_.quick ? "true" : "false") +
                    ",\n  \"traced\": " + (opt_.trace ? "true" : "false") +
                    ",\n  \"passes\": " + std::to_string(pass_call_ms_.size()) +
                    ",\n  \"attempted\": " + std::to_string(attempted_) +
                    ",\n  \"failed\": " + std::to_string(failed_) +
                    ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + json_string(failures_[i]);
  }
  out += "],\n  \"end_to_end\": {";
  bool first = true;
  for (const MetricSpec& s : end_to_end_metrics()) {
    out += std::string(first ? "\n" : ",\n") + "    " + json_string(s.name) +
           ": {\"value\": " + json_number(e2e.at(s.name)) +
           ", \"unit\": " + json_string(s.unit) +
           ", \"better\": " + json_string(s.better) +
           ", \"bound\": " + json_number(s.bound) + "}";
    first = false;
  }
  out += "\n  },\n  \"per_layer\": {";
  first = true;
  for (const auto& [name, value] : per_layer()) {
    out += std::string(first ? "\n" : ",\n") + "    " + json_string(name) +
           ": " + json_number(value);
    first = false;
  }
  out += "\n  },\n  \"job_types\": {";
  first = true;
  for (const TypeSummary& t : summarize(records_)) {
    out += std::string(first ? "\n" : ",\n") + "    " + json_string(t.name) +
           ": {\"jobs\": " + std::to_string(t.call_ms.size()) +
           ", \"p50_ms\": " + json_number(percentile(t.call_ms, 0.5)) +
           ", \"p90_ms\": " + json_number(percentile(t.call_ms, 0.9)) +
           ", \"cycles\": " + std::to_string(t.cycles) +
           ", \"sim_ms\": " + json_number(t.sim_ms);
    if (opt_.trace) {
      out += ", \"traced_ms\": " + json_number(t.traced_ms) +
             ", \"trace_overhead_pct\": " +
             json_number(100.0 * (ratio(t.traced_ms, t.untraced_p50_ms) - 1.0)) +
             ", \"task_trace_dropped\": " + std::to_string(t.trace_dropped);
    }
    out += ", \"counts\": {";
    bool first_count = true;
    for (const auto& [name, value] : t.counts) {
      out += std::string(first_count ? "" : ", ") + json_string(name) + ": " +
             json_number(value);
      first_count = false;
    }
    out += "}}";
    first = false;
  }
  out += "\n  }\n}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  f.close();
  return static_cast<bool>(f);
}

void Harness::print_result(bool correct) {
  std::string metrics;
  const auto add = [&](const char* name, const char* unit, double value) {
    metrics += std::string(metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  if (opt_.trace) {
    const std::map<std::string, double> layer = per_layer();
    for (const LayerSpec& s : layer_metrics()) {
      const auto it = layer.find(s.name);
      add(s.name, s.unit, it == layer.end() ? 0.0 : it->second);
    }
  } else {
    const std::map<std::string, double> e2e = end_to_end();
    for (const MetricSpec& s : end_to_end_metrics()) {
      // failed / attempted carry the fail ratio on this line.
      if (std::strcmp(s.name, "fail_ratio") != 0) add(s.name, s.unit, e2e.at(s.name));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

int Harness::run() {
  set_up();
  measure();
  if (opt_.trace) traced_pass();

  const std::map<std::string, double> e2e = end_to_end();
  std::printf("perf_ladder %s on %s, seed %llu: %zu passes x %zu jobs, "
              "%llu/%llu jobs failed\n",
              spec_.name, spec_.device,
              static_cast<unsigned long long>(opt_.seed), pass_call_ms_.size(),
              records_.size(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const TypeSummary& t : summarize(records_)) {
    std::printf("  %-20s p50 %9.3f ms  sim %9.3f ms  cycles %llu\n",
                t.name.c_str(), percentile(t.call_ms, 0.5), t.sim_ms,
                static_cast<unsigned long long>(t.cycles));
  }
  for (const MetricSpec& s : end_to_end_metrics()) {
    std::printf("  %-12s %14.6g %s\n", s.name, e2e.at(s.name), s.unit);
  }

  bool io_ok = true;
  if (!opt_.json.empty() && !write_report(opt_.json)) {
    std::fprintf(stderr, "error: cannot write %s\n", opt_.json.c_str());
    io_ok = false;
  }
  if (!opt_.spans.empty() && !spans_.write(opt_.spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", opt_.spans.c_str());
    io_ok = false;
  }
  if (observer_mismatch_) {
    std::fprintf(stderr, "FATAL: attaching the profiler / task trace changed "
                         "a job's deterministic counts\n");
  }
  const bool correct = failed_ == 0;
  print_result(correct);
  return correct && io_ok ? 0 : 1;
}

}  // namespace
}  // namespace scq::ladder

int main(int argc, char** argv) {
  using namespace scq::ladder;
  if (argc > 1 && std::string_view(argv[1]) == "--compare") {
    std::vector<std::string> before, after;
    bool seen_separator = false;
    for (int i = 2; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--") {
        seen_separator = true;
      } else {
        (seen_separator ? after : before).emplace_back(argv[i]);
      }
    }
    if (!seen_separator || before.empty() || after.empty()) {
      std::fprintf(stderr, "usage: perf_ladder --compare A.json... -- B.json...\n");
      return 2;
    }
    return compare_reports(before, after);
  }

  scq::util::ArgParser args("perf_ladder",
                            "the repository benchmark: one workload per "
                            "process, every job validated");
  std::string names;
  for (const WorkloadSpec& w : workloads()) {
    names += std::string(names.empty() ? "" : "|") + w.name;
  }
  args.add_string("workload", names, "");
  args.add_int("seed", "seeds every graph generator and weight draw", 1);
  args.add_double("seconds", "measure whole passes for this long", 15.0);
  args.add_int("trace", "1 = add a traced pass and report per-layer metrics",
               0);
  args.add_string("spans", "write the run's spans here (Chrome JSON)", "");
  args.add_string("json", "write the full report here", "");
  args.add_flag("quick", "1/8-size inputs, one set-up, one pass", false);
  if (!args.parse(argc, argv)) return 2;

  const WorkloadSpec* spec = find_workload(args.get_string("workload"));
  const std::int64_t seed = args.get_int("seed");
  const std::int64_t trace = args.get_int("trace");
  const double seconds = args.get_double("seconds");
  if (spec == nullptr || seed < 0 || (trace != 0 && trace != 1) ||
      !(seconds > 0.0)) {
    std::fprintf(stderr, "error: need --workload %s, --seed >= 0, --trace 0|1 "
                         "and --seconds > 0\n",
                 names.c_str());
    return 2;
  }
  Options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.seconds = seconds;
  opt.trace = trace == 1;
  opt.quick = args.get_flag("quick");
  opt.spans = args.get_string("spans");
  opt.json = args.get_string("json");
  if (!opt.spans.empty() && !opt.trace) {
    std::fprintf(stderr, "error: --spans needs --trace 1\n");
    return 2;
  }
  return Harness(*spec, opt).run();
}
