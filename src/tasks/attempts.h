// The attempt harness shared by every front-end.
//
// A front-end run is a loop of attempts under one retry policy
// (retry_doubling): if the publish-deadlock detector aborts an attempt
// (the in-flight working set outgrew the ring — §4.4's exception path),
// the attempt leaves a black box and the next one runs with every ring
// capacity doubled, up to kMaxAttempts. The cluster front-end
// (bfs/cluster_bfs.h) drives retry_doubling directly; the single-device
// front-ends (run_pt_bfs, run_pt_sssp, run_pt_sssp_delta,
// run_task_graph) go through run_attempts, which also gives each
// attempt a fresh Device, a queue sized from the plan, the caller's
// observability sinks re-attached against the new objects, and an
// always-on flight recorder. Front-ends supply only the queue
// construction and the seed/launch/readback step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/queue.h"
#include "sim/device.h"

namespace scq::tasks {

// Optional observability sinks (not owned; nullptr disables), attached
// to every attempt's device. Telemetry data accumulates across attempts
// and runs (the caller owns Telemetry::reset_data), while the trace,
// history and task trace are cleared per attempt and so hold exactly
// the attempt that produced the reported result. When both telemetry
// and trace are given, closed telemetry windows are mirrored into the
// trace as Perfetto counter tracks. The profiler accumulates across
// attempts and runs (the caller owns reset()). The flight recorder is
// the harness's own, one per attempt, so an aborted attempt always
// leaves a black box.
struct RunSinks {
  simt::Telemetry* telemetry = nullptr;
  simt::TraceRecorder* trace = nullptr;
  simt::OpHistory* history = nullptr;
  simt::TaskTrace* task_trace = nullptr;
  simt::SimProfiler* profiler = nullptr;
};

inline constexpr std::uint32_t kMaxAttempts = 8;

// One attempt with every ring capacity multiplied by `scale`: nullopt
// when it finished, or the aborted attempt's black-box JSON.
using Attempt = std::function<std::optional<std::string>(std::uint64_t scale)>;

struct RetryResult {
  std::uint32_t attempts = 0;
  // Black-box JSON from the most recent aborted attempt ("" if none).
  std::string black_box;
};

// The retry policy: runs attempt(scale) for scale 1, 2, 4, ... until an
// attempt finishes or kMaxAttempts have run.
RetryResult retry_doubling(const Attempt& attempt);

// Queue sizing at retry scale s: capacity = base_count * (headroom * s)
// + kWaveWidth, or the explicit capacity * s when non-zero.
struct AttemptPlan {
  std::uint64_t base_count = 0;
  double headroom = 1.0;
  std::uint64_t capacity = 0;
  // Run with no flight recorder at all (bench/sim_throughput prices the
  // always-on recorder against a bare event loop this way). An attempt
  // without a recorder cannot dump a black box.
  bool detach_recorder = false;
};

struct AttemptsResult {
  simt::RunResult run;  // the final attempt's launch
  std::uint32_t attempts = 0;
  // Black-box JSON from the most recent aborted attempt ("" if none).
  std::string black_box;
};

// Builds the attempt's queue with the planned capacity. Device buffers
// the front-end allocates here (before the queue) keep their addresses
// from attempt to attempt.
using BuildQueue = std::function<std::unique_ptr<DeviceQueue>(
    simt::Device& dev, std::uint64_t capacity)>;
// Seeds the queue and launches with every sink attached; reads results
// back from the device when the launch did not abort.
using LaunchAttempt =
    std::function<simt::RunResult(simt::Device& dev, DeviceQueue& queue)>;

AttemptsResult run_attempts(const simt::DeviceConfig& config,
                            const RunSinks& sinks, const AttemptPlan& plan,
                            const BuildQueue& build,
                            const LaunchAttempt& launch);

// Copies the harness outcome into a front-end result (any struct with
// run / attempts / black_box members).
template <class Result>
Result with_attempts(Result r, AttemptsResult a) {
  r.run = a.run;
  r.attempts = a.attempts;
  r.black_box = std::move(a.black_box);
  return r;
}

}  // namespace scq::tasks
