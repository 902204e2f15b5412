#include "sim/device.h"

#include <algorithm>

namespace simt {

Device::Device(DeviceConfig config)
    : config_(std::move(config)),
      atomic_unit_(config_.atomic_service),
      sched_(config_) {
  cus_.resize(config_.num_cus);
  for (std::uint32_t i = 0; i < config_.num_cus; ++i) cus_[i].id = i;
  const std::uint32_t resident = config_.resident_waves();
  waves_.reserve(resident);
  for (std::uint32_t s = 0; s < resident; ++s) {
    // Slot s -> CU s % num_cus: consecutive workgroups spread across CUs
    // first, matching how a GPU fills CUs before stacking occupancy.
    waves_.push_back(std::make_unique<Wave>(*this, cus_[s % config_.num_cus], s));
  }
}

Device::~Device() = default;

void Device::request_abort(std::string reason) {
  if (!abort_) {
    abort_ = true;
    abort_reason_ = std::move(reason);
  }
}

void Device::on_wave_complete(Wave& wave) {
  finished_waves_.push_back(&wave);
}

void Device::teardown_frames() {
  events_.clear();
  for (auto& w : waves_) w->release_kernel();
  finished_waves_.clear();
}

void Device::scrub_abort_state() {
  abort_ = false;
  abort_reason_.clear();
}

void Device::reset_clock_and_stats() {
  now_ = 0;
  stats_ = DeviceStats{};
  atomic_unit_ = AtomicUnit(config_.atomic_service);
  for (auto& cu : cus_) cu.port_free = 0;
  // Rewind the schedule stream too: tie_key(next_seq_) and the jitter
  // draw counter must restart from zero or a relaunch on a reset device
  // diverges from a fresh one under nonzero sched_seed (the replay
  // tooling relies on the two being bit-identical).
  next_seq_ = 0;
  sched_ = SchedulePolicy(config_);
}

void Device::dispatch_wave(Wave& wave, Cycle at) {
  const std::uint32_t wg = next_workgroup_++;
  wave.workgroup_id_ = wg;  // visible to the factory
  wave.bind(wg, factory_(wave), at);
}

void Device::launch_begin(std::uint32_t num_workgroups, KernelFactory factory) {
  if (launch_active_) {
    throw SimError("launch_begin: a launch is already active on device " +
                   config_.name);
  }
  stats_.kernel_launches += 1;
  launch_before_ = stats_;
  launch_begin_cycle_ = now_;
  launch_active_ = true;
  kernel_error_ = nullptr;
  events_processed_ = 0;
  scrub_abort_state();
  if (profiler_) profiler_->begin_run();
  factory_ = std::move(factory);
  total_workgroups_ = num_workgroups;
  next_workgroup_ = 0;
  completed_workgroups_ = 0;
  finished_waves_.clear();
  launch_start_ = now_;
  launch_end_time_ = now_;
  if (num_workgroups == 0) return;

  atomic_unit_.prune(now_);
  launch_start_ = now_ + config_.kernel_launch_overhead;
  launch_end_time_ = launch_start_;
  for (auto& cu : cus_) cu.port_free = std::max(cu.port_free, launch_start_);

  const std::uint32_t initial =
      std::min(num_workgroups, config_.resident_waves());
  for (std::uint32_t s = 0; s < initial; ++s) {
    dispatch_wave(*waves_[s], launch_start_);
  }
}

StepStatus Device::step_until(Cycle horizon) {
  if (!launch_active_) {
    throw SimError("step_until: no active launch on device " + config_.name);
  }
  // Pick the loop instantiation once: the per-event probe null tests
  // (profiler_, telemetry_) become compile-time constants inside it.
  switch ((profiler_ ? 1 : 0) | (telemetry_ ? 2 : 0)) {
    case 1:
      return step_loop<true, false>(horizon);
    case 2:
      return step_loop<false, true>(horizon);
    case 3:
      return step_loop<true, true>(horizon);
    default:
      return step_loop<false, false>(horizon);
  }
}

template <bool kProfiled, bool kTelemetry>
StepStatus Device::step_loop(Cycle horizon) {
  const Cycle deadline = launch_start_ + config_.max_cycles_per_launch;
  while (!events_.empty() && !abort_ && !kernel_error_) {
    // Sampled self-profiling: time one iteration in 2^k, split into
    // event-queue / telemetry / resume sections. The clock calls only
    // happen on sampled iterations, so an attached profiler stays cheap.
    bool timed = false;
    SimProfiler::clock::time_point t0;
    if constexpr (kProfiled) {
      timed = profiler_->sample_due(events_processed_);
      if (timed) t0 = SimProfiler::clock::now();
    }
    if (events_.top().t > horizon) return StepStatus::kRanToHorizon;
    const Event ev = events_.pop();
    if (ev.t > deadline) {
      throw SimError("kernel exceeded max_cycles_per_launch on device " +
                     config_.name);
    }
    if (ev.t > now_) now_ = ev.t;
    if constexpr (kProfiled) {
      if (timed) {
        const auto t1 = SimProfiler::clock::now();
        profiler_->add_section(SimSection::kHeap, t1 - t0);
        t0 = t1;
      }
    }
    if constexpr (kTelemetry) {
      telemetry_->on_advance(now_);
      if constexpr (kProfiled) {
        if (timed) {
          const auto t1 = SimProfiler::clock::now();
          profiler_->add_section(SimSection::kTelemetry, t1 - t0);
          t0 = t1;
        }
      }
    }
    if constexpr (kProfiled) {
      if (timed) profiler_->begin_resume();
    }
    ev.h.resume();
    if constexpr (kProfiled) {
      if (timed) profiler_->end_resume(SimProfiler::clock::now() - t0);
    }

    if ((++events_processed_ & ((1u << 22) - 1)) == 0) atomic_unit_.prune(now_);

    if (!finished_waves_.empty()) handle_finished_waves();
  }
  return (abort_ || kernel_error_) ? StepStatus::kDead : StepStatus::kDrained;
}

// Waves whose top-level kernel just finished: account, surface errors,
// free the frame, and re-bind the slot to the next queued workgroup.
void Device::handle_finished_waves() {
  for (Wave* w : finished_waves_) {
    launch_end_time_ = std::max(launch_end_time_, w->now_);
    stats_.waves_completed += 1;
    completed_workgroups_ += 1;
    if (w->top_.promise().error && !kernel_error_) {
      kernel_error_ = w->top_.promise().error;
    }
    w->release_kernel();
    if (!kernel_error_ && next_workgroup_ < total_workgroups_) {
      dispatch_wave(*w, w->now_);
    }
  }
  finished_waves_.clear();
}

RunResult Device::launch_end() {
  if (!launch_active_) {
    throw SimError("launch_end: no active launch on device " + config_.name);
  }
  launch_active_ = false;
  factory_ = nullptr;

  RunResult result;
  if (total_workgroups_ == 0) {
    result.stats = stats_ - launch_before_;
    if (profiler_) profiler_->end_run(events_processed_, 0);
    return result;
  }

  if (abort_ || kernel_error_) {
    // Stop the machine: drop pending events, then tear down every
    // still-suspended kernel frame.
    teardown_frames();
    if (kernel_error_) {
      // Scrub abort state before rethrowing: post-throw inspection of
      // the device must not report this launch's (or a previous one's)
      // abort as if it were still pending.
      scrub_abort_state();
      const std::exception_ptr err = kernel_error_;
      kernel_error_ = nullptr;
      std::rethrow_exception(err);
    }
    launch_end_time_ = std::max(launch_end_time_, now_);
  } else if (!events_.empty()) {
    throw SimError("launch_end: events still pending on device " +
                   config_.name + " — step the launch to completion first");
  } else if (completed_workgroups_ != total_workgroups_) {
    throw SimError("simulation deadlock: event queue drained with " +
                   std::to_string(total_workgroups_ - completed_workgroups_) +
                   " workgroups outstanding");
  }

  now_ = std::max(now_, launch_end_time_);
  if (telemetry_) {
    telemetry_->flush_windows(now_);  // close the partial tail window
    // Ring-bound window loss becomes visible in the trace export's
    // dropped-metadata record, alongside the recorder's own drops.
    if (tracer_) {
      tracer_->note_dropped_windows(telemetry_->windows().dropped_windows());
    }
  }
  result.cycles = now_ - launch_begin_cycle_;
  result.seconds = config_.seconds(result.cycles);
  result.stats = stats_ - launch_before_;
  result.aborted = abort_;
  result.abort_reason = abort_reason_;
  scrub_abort_state();
  if (profiler_) profiler_->end_run(events_processed_, result.cycles);
  return result;
}

RunResult Device::launch(std::uint32_t num_workgroups, const KernelFactory& factory) {
  launch_begin(num_workgroups, factory);
  try {
    while (step_until(~Cycle{0}) == StepStatus::kRanToHorizon) {
    }
  } catch (...) {
    // Guard throws (max_cycles, internal errors) must leave the device
    // relaunchable AND inspectable: drop pending events and suspended
    // kernel frames, and scrub every piece of launch-scoped state —
    // a stale abort_reason_ here would make post-throw inspection
    // report a previous launch's abort.
    teardown_frames();
    scrub_abort_state();
    launch_active_ = false;
    factory_ = nullptr;
    kernel_error_ = nullptr;
    throw;
  }
  return launch_end();
}

}  // namespace simt
