#include "tasks/attempts.h"

#include "core/black_box.h"
#include "core/task_probes.h"
#include "core/telemetry_probes.h"

namespace scq::tasks {

AttemptsResult run_attempts(const simt::DeviceConfig& config,
                            const RunSinks& sinks, const AttemptPlan& plan,
                            const BuildQueue& build,
                            const LaunchAttempt& launch) {
  double headroom = plan.headroom;
  std::uint64_t explicit_capacity = plan.capacity;
  std::string last_black_box;
  for (std::uint32_t attempt = 1;; ++attempt) {
    simt::Device dev(config);
    const std::uint64_t capacity =
        explicit_capacity != 0
            ? explicit_capacity
            : static_cast<std::uint64_t>(
                  static_cast<double>(plan.base_count) * headroom) +
                  kWaveWidth;
    const std::unique_ptr<DeviceQueue> queue = build(dev, capacity);

    // A fresh device per attempt: every probe re-registers against the
    // new (device, queue) pair.
    if (sinks.trace) {
      sinks.trace->clear();
      dev.attach_tracer(sinks.trace);
    }
    if (sinks.history) {
      sinks.history->clear();
      dev.attach_op_history(sinks.history);
    }
    if (sinks.task_trace) {
      sinks.task_trace->clear();
      stamp_task_meta(*sinks.task_trace, *queue);
      dev.attach_task_trace(sinks.task_trace);
    }
    if (sinks.telemetry) {
      sinks.telemetry->clear_probes();
      sinks.telemetry->mirror_counters_to(sinks.trace);
      register_scheduler_probes(*sinks.telemetry, dev, *queue);
      dev.attach_telemetry(sinks.telemetry);
    }
    if (sinks.profiler) dev.attach_profiler(sinks.profiler);
    simt::FlightRecorder local_recorder;
    simt::FlightRecorder* recorder =
        sinks.recorder != nullptr ? sinks.recorder : &local_recorder;
    recorder->clear();
    dev.attach_flight_recorder(plan.detach_recorder ? nullptr : recorder);

    const simt::RunResult run = launch(dev, *queue);
    if (run.aborted) {
      last_black_box = dump_black_box(dev, queue.get(), run.abort_reason);
      if (attempt < kMaxAttempts) {
        if (explicit_capacity != 0) {
          explicit_capacity *= 2;
        } else {
          headroom *= 2.0;
        }
        continue;
      }
    }
    return {run, attempt, std::move(last_black_box)};
  }
}

}  // namespace scq::tasks
