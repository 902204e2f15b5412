// Dynamic task framework over the persistent-thread scheduler (the
// Atos-style task-parallel layer named in ROADMAP.md).
//
// Two layers share one wave loop:
//
//   TaskWaveClient / task_wave_kernel / run_task_waves — the kernel-side
//     interface, and the only persistent work loop of every run. The
//     engine owns the work cycle (Algorithm 1: all-done check, slot
//     acquisition, arrival polling, backpressure throttle, publish,
//     completion credits) and delegates exactly two things to the
//     client: the prolog for arrived lanes and one work step over the
//     running lanes. Two optional client seams cover runs whose work
//     leaves the device: a host-written stop word in place of the
//     all-done check, and side channels published ahead of the main
//     queue. Completions are reported per ticket, so the banded
//     multi-queue's closure frontier works unchanged, and on banded
//     queues slot acquisition also runs for assigned-only waves (the
//     closed-band rescue). The label-correcting BFS / SSSP /
//     delta-stepping drivers (bfs/pt_relax.cc), the cluster kernel
//     (bfs/cluster_bfs.cc) and the host-callback layer below are its
//     clients.
//
//   TaskContext / run_host_tasks / run_task_graph — the host-callback
//     task API. User tasks are host functions handed a TaskContext:
//     spawn(payload, band) publishes a child token (packed with the
//     cluster token convention so the band rides the cost bits any
//     BucketedMultiQueue cost map understands), defer(...) registers a
//     task held back by a dependency counter, credit(...) pays one
//     dependency down (the final credit releases the deferred task,
//     parented to the crediting task), and respawn() re-enqueues the
//     current task (conflict-retry workloads). Phases are bands:
//     nothing ever barriers, a phase is over when its band closes via
//     the multi-queue closure-frontier rule, and the engine watches the
//     frontier for monotonicity as it advances.
//
// Soundness constraints enforced at runtime (SimError, loudly):
//   - spawn monotonicity on banded queues: a task may only spawn into
//     its own band or higher (the closure-frontier stability contract);
//   - dependency-counter underflow: crediting a released (or foreign)
//     deferred task is a bug, not a race;
//   - unreleased deferred tasks at termination (a dependency that can
//     never resolve would otherwise silently vanish);
//   - spawn depth: max_spawn_depth (when non-zero) bounds parent-chain
//     depth, tracked at reservation time through the WaveQueueState
//     on_reserve hook (host-side, schedule-neutral).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/queue.h"
#include "sim/device.h"
#include "tasks/attempts.h"
#include "tasks/task_token.h"

namespace scq::tasks {

// ---- Kernel-side layer ----

// Per-wave client: one instance per persistent wave, created by the
// factory below, holding whatever per-lane registers the application
// needs (the relax client keeps cursor/row-end/cost arrays).
class TaskWaveClient {
 public:
  virtual ~TaskWaveClient() = default;

  // Prolog for lanes whose token just arrived. `tokens` is valid at the
  // arrived lanes; st.deliver_ticket carries each lane's trace id. Runs
  // before the work phase of the same cycle, and must not push children
  // (the publish buffer is reset after it). Returns the lanes whose task
  // already finished here (delta-stepping's stale-token skip): the
  // engine reports their tickets complete in this cycle, ahead of the
  // work-step finishers, and they never enter a work step — nor the
  // kTasksProcessed count.
  virtual Kernel<LaneMask> on_arrival(
      Wave& w, WaveQueueState& st, LaneMask arrived,
      std::span<const std::uint64_t> tokens) = 0;

  // One work step over `run`. Push children with st.push_token (at most
  // the engine's work_budget per lane per step — the backpressure
  // throttle's sizing assumption). Returns the lanes whose task
  // finished this step; unfinished lanes run again next cycle.
  virtual Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                                     LaneMask run) = 0;

  // ---- Optional seams; the defaults are those of a single-device run.

  // Termination seam: a host-written stop word. When a client names
  // one, the engine loads it where it would otherwise check Completed
  // == Rear, and the wave exits once the word is non-zero — for runs
  // whose quiescence only the host can see (the cluster kernel).
  [[nodiscard]] virtual std::optional<simt::Addr> stop_word() const {
    return std::nullopt;
  }

  // Side-channel seam: rings the client publishes to besides the main
  // queue (the cluster's transfer rings). In a cycle where side_pending()
  // holds (tokens staged or parked), publish_side() runs ahead of the
  // main-queue publish and before completions are credited, so a task's
  // children are reserved everywhere before its completion counts. While
  // side_parked() holds, the work phase runs no lane: each side channel
  // is sized, like the main queue's parked buffer, for one work step of
  // every lane, so it takes new tokens only while nothing waits in it.
  [[nodiscard]] virtual bool side_pending() const { return false; }
  [[nodiscard]] virtual bool side_parked() const { return false; }
  virtual Kernel<void> publish_side(Wave&) { co_return; }
};

using TaskWaveClientFactory =
    std::function<std::unique_ptr<TaskWaveClient>(Wave& w)>;

// Host-side reservation observer type (WaveQueueState::on_reserve).
using ReserveHook = std::function<void(std::uint64_t ticket,
                                       std::uint64_t token,
                                       std::uint64_t parent)>;

struct TaskEngineOptions {
  // Worst-case children per lane per work step: the publish-
  // backpressure throttle denominator.
  unsigned work_budget = 4;
  // Wait between polls when a work cycle makes no progress.
  simt::Cycle poll_interval = 240;
  // 0 = all resident wave slots (persistent-thread launch).
  std::uint32_t num_workgroups = 0;
  // Optional reservation observer, forwarded into every wave's
  // WaveQueueState (host-side; never costs simulated cycles).
  const ReserveHook* on_reserve = nullptr;
};

// The engine's wave kernel: each wave gets a client from `factory` and
// runs the work cycle over `queue` until it terminates. For launchers
// that step the launch themselves (cluster::Cluster::run), which also
// pick the workgroup count; options.num_workgroups is not read here.
// SimError unless work_budget is in [1, kMaxWorkBudget].
simt::KernelFactory task_wave_kernel(DeviceQueue& queue,
                                     TaskWaveClientFactory factory,
                                     const TaskEngineOptions& options = {});

// Launches task_wave_kernel to termination over an already-seeded queue.
// The caller owns device construction, seeding, and any observability
// attachment; this registers the scheduler probes
// (core/telemetry_probes.h) on the device's telemetry, if any, for every
// single-device run.
simt::RunResult run_task_waves(simt::Device& dev, DeviceQueue& queue,
                               const TaskWaveClientFactory& factory,
                               const TaskEngineOptions& options = {});

// ---- Host-callback layer ----

struct TaskSeed {
  std::uint64_t payload = 0;
  std::uint64_t band = 0;
};

// Aggregate framework statistics for one run (host-side bookkeeping;
// the benches report these per queue variant).
struct TaskStats {
  std::uint64_t executions = 0;   // task callbacks run
  std::uint64_t spawns = 0;       // spawn() calls (respawns included)
  std::uint64_t respawns = 0;     // respawn() calls among them
  std::uint64_t deferred = 0;     // defer() registrations
  std::uint64_t credits = 0;      // credit() calls
  std::uint64_t released = 0;     // deferred tasks whose counter hit 0
  std::uint64_t max_depth = 0;    // deepest spawn chain observed
  std::uint64_t phase_closes = 0; // closure-frontier advances observed
};

class HostTaskClient;

// Handed to each task callback. Valid only for the duration of the
// callback (it borrows the executing lane's publish buffers).
class TaskContext {
 public:
  [[nodiscard]] std::uint64_t payload() const { return payload_; }
  [[nodiscard]] std::uint64_t band() const { return band_; }
  // Spawn depth of the running task (seeds are depth 0).
  [[nodiscard]] std::uint64_t depth() const { return depth_; }
  // Trace id of the running task (kNoTask for untraceable schedulers).
  [[nodiscard]] std::uint64_t ticket() const { return ticket_; }

  // Publishes a child task. On banded queues the child's band must be
  // >= the current band (closure-frontier monotonicity) — SimError
  // otherwise.
  void spawn(std::uint64_t payload, std::uint64_t band);
  // Re-enqueues the current task unchanged (conflict-retry idiom).
  void respawn();

  // Registers a task that must not run until `credits` dependencies
  // resolve. Returns a handle for credit(). credits == 0 spawns
  // immediately.
  [[nodiscard]] std::uint64_t defer(std::uint64_t payload,
                                    std::uint64_t band,
                                    std::uint64_t credits);
  // Pays one dependency down; the final credit releases the task,
  // parented to the crediting task. Crediting past zero (or a bogus
  // handle) throws SimError — the underflow guard.
  void credit(std::uint64_t handle);

 private:
  friend class HostTaskClient;
  HostTaskClient* client_ = nullptr;
  unsigned lane_ = 0;
  std::uint64_t payload_ = 0;
  std::uint64_t band_ = 0;
  std::uint64_t depth_ = 0;
  std::uint64_t ticket_ = kNoTask;
  WaveQueueState* st_ = nullptr;
};

using HostTask = std::function<void(TaskContext&)>;

struct HostTaskOptions {
  // Modeled ALU cost of one batch of task callbacks per work cycle.
  simt::Cycle task_compute = 16;
  simt::Cycle poll_interval = 240;
  std::uint32_t num_workgroups = 0;
  // 0 = unbounded; otherwise the deepest allowed spawn chain (SimError
  // past it — runaway-recursion guard).
  std::uint64_t max_spawn_depth = 0;
};

// Runs host-callback tasks on an existing device + queue (for callers
// that bring their own, such as the fuzz harness with its schedule-
// perturbed device and deliberately tiny ring). Seeds the queue itself.
// `stats` (optional) receives the run's framework statistics.
simt::RunResult run_host_tasks(simt::Device& dev, DeviceQueue& queue,
                               std::span<const TaskSeed> seeds,
                               const HostTask& task,
                               const HostTaskOptions& options = {},
                               TaskStats* stats = nullptr);

// High-level front-end on the attempt harness (tasks/attempts.h): sizes
// and constructs the queue variant per attempt (mq gets one ring per
// band and the cluster cost map) and retries with doubled capacity if
// the publish-deadlock detector fires.
struct TaskGraphOptions : RunSinks {
  QueueVariant variant = QueueVariant::kRfan;
  // Bands for QueueVariant::kMq, in [1, kMaxBands] (SimError otherwise;
  // ignored for the other variants).
  std::uint32_t num_bands = 4;
  // Auto sizing: capacity = max(seeds, payload_hint) * headroom +
  // kWaveWidth; banded queues additionally guarantee every band a ring
  // at least seed-batch wide. payload_hint is the expected live-task
  // bound (the workloads pass their vertex count).
  double queue_headroom = 1.3;
  std::uint64_t payload_hint = 0;
  // Non-zero overrides auto sizing; deadlock retries double it.
  std::uint64_t queue_capacity = 0;
  HostTaskOptions host;
  // Invoked at the start of every attempt, before seeding. Capacity
  // retries re-run the whole task graph, so workloads with host-side
  // state (labels, residuals, colors) MUST reset it here or a retried
  // attempt starts from a half-mutated world.
  std::function<void()> on_attempt;
};

struct TaskGraphResult {
  simt::RunResult run;
  TaskStats stats;
  std::uint32_t attempts = 0;
  // Black-box dump of the last aborted attempt ("" if none aborted).
  std::string black_box;
};

TaskGraphResult run_task_graph(const simt::DeviceConfig& config,
                               std::span<const TaskSeed> seeds,
                               const HostTask& task,
                               const TaskGraphOptions& options = {});

}  // namespace scq::tasks
