// The simulated device: memory, compute units, resident waves, and the
// discrete-event engine that drives kernel coroutines.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/memory.h"
#include "sim/protocol_stream.h"
#include "sim/sched_policy.h"
#include "sim/sim_profiler.h"
#include "sim/stats.h"
#include "sim/telemetry.h"
#include "sim/trace.h"
#include "sim/wave.h"

namespace simt {

// Result of one kernel launch.
struct RunResult {
  Cycle cycles = 0;           // launch begin -> last wave completion
  double seconds = 0.0;       // cycles / clock
  DeviceStats stats{};        // stats delta for this launch only
  bool aborted = false;       // kernel called abort_kernel()
  std::string abort_reason;
};

// Builds the kernel coroutine for one workgroup. Called once per
// workgroup as it is bound to a resident wave slot; the wave's
// workgroup_id() is already set.
using KernelFactory = std::function<Kernel<void>(Wave&)>;

// What a step_until() call ran into. A drained queue is NOT death: a
// cluster device idling between router injections drains its queue
// every superstep and keeps going once tokens arrive.
enum class StepStatus : std::uint8_t {
  kRanToHorizon,  // events remain past the horizon; progress possible
  kDrained,       // event queue empty — idle, waiting for external input
  kDead,          // aborted or kernel error; only launch_end() is useful
};

class Device {
 public:
  explicit Device(DeviceConfig config);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // ---- Host-side memory management (pre-launch, §3.1) ----
  Buffer alloc(std::uint64_t words) { return mem_.alloc(words); }
  void fill(Buffer b, std::uint64_t v) { mem_.fill(b, v); }
  void write(Buffer b, std::span<const std::uint64_t> vals) { mem_.write(b, vals); }
  [[nodiscard]] std::vector<std::uint64_t> read(Buffer b) const { return mem_.read(b); }
  [[nodiscard]] std::uint64_t read_word(Addr a) const { return mem_.load(a); }
  void write_word(Addr a, std::uint64_t v) { mem_.store(a, v); }

  // ---- Execution ----
  // Launches `num_workgroups` workgroups (one wave each). Workgroups
  // beyond the resident capacity queue and dispatch as slots free (this
  // is how grid-sized, non-persistent launches like Rodinia's work).
  RunResult launch(std::uint32_t num_workgroups, const KernelFactory& factory);

  // Incremental stepping: the same launch, split into begin / advance /
  // collect so a host loop can drive several devices in lock-step from
  // one shared cycle clock (the cluster runtime's superstep barriers).
  // launch() is implemented as launch_begin + step_until(∞) +
  // launch_end, so a stepped launch is bit-identical to a monolithic
  // one. The factory is stored by value and must stay callable until
  // launch_end.
  void launch_begin(std::uint32_t num_workgroups, KernelFactory factory);
  // Processes every pending event with timestamp <= horizon and reports
  // why it stopped: kRanToHorizon (events remain, call again with a
  // later horizon), kDrained (queue empty — more events may appear if
  // the host injects work), or kDead (abort or kernel error; further
  // calls are no-ops and launch_end() collects the result).
  StepStatus step_until(Cycle horizon);
  // Finishes the launch begun by launch_begin: tears down on abort or
  // kernel error (rethrowing the latter), runs the deadlock check
  // otherwise, and returns the RunResult exactly as launch() would.
  RunResult launch_end();
  [[nodiscard]] bool launch_active() const { return launch_active_; }
  // Cycle at which the current launch's first waves start: launch_begin
  // plus the kernel launch overhead. No wave runs before it.
  [[nodiscard]] Cycle launch_start() const { return launch_start_; }

  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  [[nodiscard]] GlobalMemory& mem() { return mem_; }
  [[nodiscard]] DeviceStats& stats() { return stats_; }
  [[nodiscard]] Cycle now() const { return now_; }

  // Clears device clock and stats (memory contents are kept).
  void reset_clock_and_stats();

  // ---- Engine internals (used by Wave awaitables) ----
  void schedule(Cycle t, std::coroutine_handle<> h) {
    events_.push(t, sched_.tie_key(next_seq_), next_seq_, h);
    ++next_seq_;
  }
  Cycle atomic_unit_service(Addr addr, Cycle arrival) {
    return atomic_unit_.service(addr, arrival);
  }
  [[nodiscard]] AtomicUnit& atomic_unit() { return atomic_unit_; }
  // Optional execution tracing (not owned; nullptr disables).
  void attach_tracer(TraceRecorder* tracer) { tracer_ = tracer; }
  [[nodiscard]] TraceRecorder* tracer() { return tracer_; }
  // Optional telemetry (not owned; nullptr disables). The event loop
  // drives its window clock, and it is the fourth view of the protocol
  // stream.
  void attach_telemetry(Telemetry* telemetry) {
    telemetry_ = telemetry;
    protocol_.attach_telemetry(telemetry);
  }
  [[nodiscard]] Telemetry* telemetry() { return telemetry_; }
  // Optional simulator self-profiling (not owned; nullptr disables):
  // host wall-clock attribution of the event loop itself. Counts every
  // wave op; times 1-in-2^k loop iterations (sim/sim_profiler.h).
  void attach_profiler(SimProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] SimProfiler* profiler() { return profiler_; }
  // The device's queue-protocol event stream (sim/protocol_stream.h):
  // queues, transfer rings, the router and the task-engine clients emit
  // every protocol step into it. Its views are optional (not owned;
  // nullptr disables): the operation history the fuzz checker consumes,
  // the per-task causal trace sim/critical_path.h consumes, the
  // black-box flight recorder (core/black_box.h snapshots it on abort
  // paths) and the telemetry attached above.
  [[nodiscard]] ProtocolStream& protocol() { return protocol_; }
  void attach_op_history(OpHistory* history) {
    protocol_.attach_history(history);
  }
  void attach_task_trace(TaskTrace* trace) {
    protocol_.attach_task_trace(trace);
  }
  void attach_flight_recorder(FlightRecorder* recorder) {
    protocol_.attach_recorder(recorder);
  }
  // Seeded schedule perturbation (identity when sched_seed == 0).
  [[nodiscard]] SchedulePolicy& sched() { return sched_; }
  void request_abort(std::string reason);
  [[nodiscard]] bool abort_requested() const { return abort_; }
  [[nodiscard]] const std::string& abort_reason() const {
    return abort_reason_;
  }

 private:
  friend void detail::notify_wave_complete(Wave& wave);
  void on_wave_complete(Wave& wave);

  DeviceConfig config_;
  GlobalMemory mem_;
  AtomicUnit atomic_unit_;
  DeviceStats stats_{};
  Cycle now_ = 0;
  TraceRecorder* tracer_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  SimProfiler* profiler_ = nullptr;
  ProtocolStream protocol_;
  SchedulePolicy sched_;

  std::vector<ComputeUnit> cus_;
  std::vector<std::unique_ptr<Wave>> waves_;
  EventQueue events_;
  std::uint64_t next_seq_ = 0;

  void dispatch_wave(Wave& wave, Cycle at);
  // The hot loop, monomorphized over which probes are attached so the
  // per-event null tests vanish from the unprofiled configurations.
  // step_until() picks the instantiation once per call.
  template <bool kProfiled, bool kTelemetry>
  StepStatus step_loop(Cycle horizon);
  void handle_finished_waves();
  // Shared teardown helpers for the abort / kernel-error / guard-throw
  // paths: drop pending events and suspended kernel frames, and scrub
  // every piece of launch-scoped abort state (a stale abort_reason_
  // would make post-throw inspection report a previous launch's abort).
  void teardown_frames();
  void scrub_abort_state();

  // Launch-scoped state.
  std::uint32_t next_workgroup_ = 0;
  std::uint32_t total_workgroups_ = 0;
  std::uint32_t completed_workgroups_ = 0;
  std::vector<Wave*> finished_waves_;  // drained after each resume
  KernelFactory factory_;
  bool abort_ = false;
  std::string abort_reason_;
  bool launch_active_ = false;
  Cycle launch_begin_cycle_ = 0;  // device clock at launch_begin
  Cycle launch_start_ = 0;        // begin + kernel_launch_overhead
  Cycle launch_end_time_ = 0;     // latest wave completion seen so far
  DeviceStats launch_before_{};
  std::uint64_t events_processed_ = 0;
  std::exception_ptr kernel_error_{};
};

}  // namespace simt
