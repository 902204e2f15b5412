// The attempt harness shared by every single-device front-end
// (run_pt_bfs, run_pt_sssp, run_pt_sssp_delta, run_task_graph).
//
// A front-end run is a loop of attempts. Each attempt gets a fresh
// Device, a queue sized from the plan, the caller's observability sinks
// re-attached against the new objects, and an always-on flight
// recorder. If the publish-deadlock detector aborts the attempt (the
// in-flight working set outgrew the ring — §4.4's exception path), the
// harness dumps a black box and retries with double the capacity, up to
// kMaxAttempts. Front-ends supply only the queue construction and the
// seed/launch/readback step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/queue.h"
#include "sim/device.h"

namespace scq::tasks {

// Optional observability sinks (not owned; nullptr disables), attached
// to every attempt's device. Telemetry data accumulates across attempts
// and runs (the caller owns Telemetry::reset_data), while the trace,
// history, task trace and recorder are cleared per attempt and so hold
// exactly the attempt that produced the reported result. When both
// telemetry and trace are given, sampled telemetry series are mirrored
// into the trace as Perfetto counter tracks. The profiler accumulates
// across attempts and runs (the caller owns reset()). Without a
// recorder the harness attaches an internal one, so an aborted attempt
// always leaves a black box.
struct RunSinks {
  simt::Telemetry* telemetry = nullptr;
  simt::TraceRecorder* trace = nullptr;
  simt::OpHistory* history = nullptr;
  simt::TaskTrace* task_trace = nullptr;
  simt::SimProfiler* profiler = nullptr;
  simt::FlightRecorder* recorder = nullptr;
};

inline constexpr std::uint32_t kMaxAttempts = 8;

// Queue sizing: capacity = base_count * headroom + kWaveWidth, or the
// explicit capacity when non-zero. A deadlocked attempt doubles
// whichever of the two was set.
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
