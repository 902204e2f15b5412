#include "tasks/attempts.h"

#include "core/black_box.h"

namespace scq::tasks {

RetryResult retry_doubling(const Attempt& attempt) {
  RetryResult result;
  for (std::uint64_t scale = 1;; scale *= 2) {
    ++result.attempts;
    std::optional<std::string> black_box = attempt(scale);
    if (!black_box) return result;
    result.black_box = std::move(*black_box);
    if (result.attempts == kMaxAttempts) return result;
  }
}

AttemptsResult run_attempts(const simt::DeviceConfig& config,
                            const RunSinks& sinks, const AttemptPlan& plan,
                            const BuildQueue& build,
                            const LaunchAttempt& launch) {
  AttemptsResult result;
  RetryResult retry = retry_doubling(
      [&](std::uint64_t scale) -> std::optional<std::string> {
        simt::Device dev(config);
        const std::uint64_t capacity =
            plan.capacity != 0
                ? plan.capacity * scale
                : static_cast<std::uint64_t>(
                      static_cast<double>(plan.base_count) *
                      (plan.headroom * static_cast<double>(scale))) +
                      kWaveWidth;
        const std::unique_ptr<DeviceQueue> queue = build(dev, capacity);

        // A fresh device per attempt: every probe re-registers against
        // the new (device, queue) pair.
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
          sinks.telemetry->mirror_counters_to(sinks.trace);
          dev.attach_telemetry(sinks.telemetry);
        }
        if (sinks.profiler) dev.attach_profiler(sinks.profiler);
        simt::FlightRecorder recorder;
        dev.attach_flight_recorder(plan.detach_recorder ? nullptr : &recorder);

        result.run = launch(dev, *queue);
        if (!result.run.aborted) return std::nullopt;
        return dump_black_box(dev, queue.get(), result.run.abort_reason);
      });
  result.attempts = retry.attempts;
  result.black_box = std::move(retry.black_box);
  return result;
}

}  // namespace scq::tasks
