// perf_ladder: the repository benchmark. One process runs one workload:
// a closed loop with one client that calls the public front-ends
// (run_pt_bfs, run_pt_sssp, run_pt_sssp_delta, the task-framework
// workloads, run_cluster_bfs) back to back as *jobs*, times each call
// from outside, and validates each output against its serial
// reference. README.md lists the workloads, the metrics and which layer
// metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/config.h"

namespace simt {
class SimProfiler;
class TaskTrace;
}  // namespace simt

namespace scq::ladder {

// Deterministic per-layer counts of one job, keyed by metric name
// ("sim.afa_ops", "core.polls", ...). Summed per pass of the job list.
using Counts = std::map<std::string, double>;

// Sinks the traced run attaches to a job; untraced runs pass none.
struct Sinks {
  simt::SimProfiler* profiler = nullptr;
  simt::TaskTrace* task_trace = nullptr;
};

// One front-end call, reduced to what the harness measures.
struct Outcome {
  std::string error;       // abort reason; empty for a clean run
  simt::Cycle cycles = 0;  // simulated makespan
  double sim_ms = 0.0;     // cycles / device clock
  Counts counts;
  // Compares the output with its serial reference; empty when it matches.
  std::function<std::string()> validate;
};

struct JobType {
  std::string name;
  std::function<Outcome(const Sinks&)> call;
};

// Runs one set-up phase ("setup.generate", "setup.reference") under the
// harness's timer and span recorder.
using PhaseTimer =
    std::function<void(const char* phase, const std::function<void()>& body)>;

struct WorkloadSpec {
  const char* name;
  const char* device;
  // Builds the inputs from `seed` at `scale` (1 = full size) and returns
  // the job list: an odd number of job types, each run once per pass.
  std::vector<JobType> (*build)(std::uint64_t seed, double scale,
                                const PhaseTimer& phase);
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
  double bound;        // share of the baseline median; 0 = must not move
};

// End-to-end metrics, reported with tracing off. BENCHMARK.json at the
// repository root mirrors this table (minus fail_ratio, which the
// result line carries as failed / attempted).
const std::vector<MetricSpec>& end_to_end_metrics();

double median(std::vector<double> v);  // 0 for an empty sample

// `perf_ladder --compare A.json... -- B.json...`; returns the exit code.
int compare_reports(const std::vector<std::string>& before,
                    const std::vector<std::string>& after);

}  // namespace scq::ladder
