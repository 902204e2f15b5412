#include "tasks/task_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>
#include <vector>

#include "core/bucketed_queue.h"
#include "core/counters.h"
#include "core/ext_schedulers.h"
#include "core/telemetry_probes.h"

namespace scq::tasks {

namespace {

// The persistent-thread work cycle (Algorithm 1). Completion reporting
// carries the finished tickets (a no-op refinement for single-band
// queues, the closure-frontier requirement for banded ones), and banded
// queues run slot acquisition for assigned-only waves too (closed-band
// rescue). The wave's frame owns its client.
Kernel<void> engine_wave(Wave& w, DeviceQueue& queue,
                         std::unique_ptr<TaskWaveClient> owned_client,
                         TaskEngineOptions opt) {
  TaskWaveClient& client = *owned_client;
  const std::optional<simt::Addr> stop_word = client.stop_word();
  WaveQueueState st{};
  st.on_reserve = opt.on_reserve;
  std::array<std::uint64_t, kWaveWidth> tokens{};
  std::array<std::uint64_t, kWaveWidth> lane_ticket = filled_lanes(kNoTask);
  // Tickets finished in the current cycle, [0, finished): lanes finished
  // at arrival first, then work-step finishers (disjoint lanes).
  std::array<std::uint64_t, kWaveWidth> done_tickets{};
  LaneMask working = 0;
  const bool banded = queue.num_bands() > 1;

  for (;;) {  // Algorithm 1: one iteration per work cycle
    w.bump(kWorkCycles);
    if (stop_word) {
      if (co_await w.load(*stop_word) != 0) break;
    } else if (co_await queue.all_done(w)) {
      break;
    }

    bool progress = false;
    std::uint32_t finished = 0;

    // Dequeue phase 1: lanes that neither hold a task nor monitor a
    // slot (nor sit on an eagerly delivered token) ask for work.
    st.hungry = ~(working | st.assigned | st.ready);
    // Guarded: every scheduler no-ops on an empty hungry mask, and the
    // skipped child-coroutine frame is measurable at this call rate.
    // Banded queues also acquire for assigned-only waves so lanes
    // monitoring a closed band get rescued (stranded claim-ahead).
    if (st.hungry || (banded && st.assigned)) {
      co_await queue.acquire_slots(w, st);
    }

    w.device().protocol().lanes(w, st.hungry, st.assigned);

    // Dequeue phase 2: non-atomic arrival check; arrived lanes run the
    // client's prolog.
    if (st.assigned || st.ready) {
      const LaneMask arrived = co_await queue.check_arrival(w, st, tokens);
      if (arrived) {
        progress = true;
        for_lanes(arrived, [&](unsigned lane) {
          lane_ticket[lane] = st.deliver_ticket[lane];
        });
        const LaneMask done = co_await client.on_arrival(w, st, arrived, tokens);
        for_lanes(done, [&](unsigned lane) {
          done_tickets[finished++] = lane_ticket[lane];
        });
        working |= arrived & ~done;
      }
    }

    // Work phase; production throttles, consumption never does. While a
    // side channel holds parked tokens no lane runs. Otherwise, while
    // main-queue tokens wait for ring slots to recycle, only as many
    // lanes run as the parked buffer can absorb in the worst case
    // (work_budget children per lane); a side channel with nothing
    // parked has room for every lane's work step.
    st.clear_produce();
    LaneMask run = working;
    if (client.side_parked()) {
      run = 0;
    } else if (st.has_parked()) {
      std::uint32_t allow =
          (WaveQueueState::kMaxParked - st.n_parked) / opt.work_budget;
      run = 0;
      for_lanes(working, [&](unsigned lane) {
        if (allow > 0) {
          run |= bit(lane);
          --allow;
        }
      });
    }
    if (run) {
      progress = true;
      const LaneMask done = co_await client.work_step(w, st, run);
      for_lanes(done, [&](unsigned lane) {
        done_tickets[finished++] = lane_ticket[lane];
      });
      working &= ~done;
      w.bump(kTasksProcessed, static_cast<std::uint64_t>(std::popcount(done)));
    }

    // Publish before crediting completions: a task's children must be
    // reserved — in the side channels first, then in the main queue —
    // before its completion can close the termination (and, banded, the
    // closure) accounting.
    if (client.side_pending()) co_await client.publish_side(w);
    if (st.total_new() != 0 || st.has_parked()) co_await queue.publish(w, st);
    if (finished) {
      co_await queue.report_complete_tickets(
          w, std::span<const std::uint64_t>(done_tickets.data(), finished));
    }

    if (!progress) co_await w.idle(opt.poll_interval);
  }
}

}  // namespace

simt::KernelFactory task_wave_kernel(DeviceQueue& queue,
                                     TaskWaveClientFactory factory,
                                     const TaskEngineOptions& options) {
  if (options.work_budget == 0 || options.work_budget > kMaxWorkBudget) {
    throw simt::SimError(
        "task engine: work_budget must be in [1, kMaxWorkBudget]");
  }
  return [&queue, factory = std::move(factory), options](Wave& w) {
    return engine_wave(w, queue, factory(w), options);
  };
}

simt::RunResult run_task_waves(simt::Device& dev, DeviceQueue& queue,
                               const TaskWaveClientFactory& factory,
                               const TaskEngineOptions& options) {
  const std::uint32_t workgroups = options.num_workgroups != 0
                                       ? options.num_workgroups
                                       : dev.config().resident_waves();
  // Standard gauges against this (device, queue) pair, replacing any
  // probes from a previous run whose objects may be gone.
  if (simt::Telemetry* telemetry = dev.telemetry()) {
    telemetry->clear_probes();
    register_scheduler_probes(*telemetry, dev, queue);
  }
  return dev.launch(workgroups, task_wave_kernel(queue, factory, options));
}

// ---- Host-callback layer ----

namespace {

struct PendingChild {
  std::uint64_t token = 0;
  std::uint64_t parent = kNoTask;
};

// State shared by every wave's client: the user callback, the deferred-
// task table, spawn-depth bookkeeping, and the run statistics. The
// simulation loop is single-threaded, so none of this needs locking.
class HostTaskShared {
 public:
  HostTaskShared(simt::Device& dev, DeviceQueue& queue, const HostTask& task,
                 const HostTaskOptions& opt)
      : dev_(dev),
        queue_(queue),
        task_(task),
        opt_(opt),
        banded_(queue.num_bands() > 1) {
    hook_ = [this](std::uint64_t ticket, std::uint64_t token,
                   std::uint64_t parent) {
      (void)token;
      this->note_reservation(ticket, parent);
    };
  }

  [[nodiscard]] const ReserveHook* hook() const { return &hook_; }
  [[nodiscard]] const HostTaskOptions& opt() const { return opt_; }
  [[nodiscard]] bool banded() const { return banded_; }
  [[nodiscard]] TaskStats& stats() { return stats_; }

  [[nodiscard]] std::uint64_t depth_of(std::uint64_t ticket) const {
    const auto it = depth_.find(ticket);
    return it == depth_.end() ? 0 : it->second;  // seeds are depth 0
  }

  // WaveQueueState::on_reserve target: a child's depth is fixed the
  // instant its reservation binds a ticket to the parent edge.
  void note_reservation(std::uint64_t ticket, std::uint64_t parent) {
    const std::uint64_t d =
        parent == kNoTask ? 0 : depth_of(parent) + 1;
    if (ticket != kNoTask) depth_[ticket] = d;
    stats_.max_depth = std::max(stats_.max_depth, d);
    if (opt_.max_spawn_depth != 0 && d > opt_.max_spawn_depth) {
      throw simt::SimError(
          "task framework: spawn depth exceeded max_spawn_depth (runaway "
          "spawn chain?)");
    }
  }

  // Publishing into a band below the producer's would let a closed band
  // see a new reservation — the exact instability the closure-frontier
  // rule forbids. Enforced only on banded queues; FIFO rings have no
  // closure to protect.
  void check_band(std::uint64_t producer_band, std::uint64_t child_band) {
    if (banded_ && child_band < producer_band) {
      throw simt::SimError(
          "task framework: spawn into a lower band breaks closure-frontier "
          "monotonicity");
    }
  }

  [[nodiscard]] std::uint64_t defer_task(std::uint64_t payload,
                                         std::uint64_t band,
                                         std::uint64_t credits) {
    (void)pack_task_checked(payload, band);  // validate fields loudly now
    ++stats_.deferred;
    deferred_.push_back({payload, band, credits});
    return deferred_.size() - 1;
  }

  struct Deferred {
    std::uint64_t payload = 0;
    std::uint64_t band = 0;
    std::uint64_t remaining = 0;
  };
  [[nodiscard]] Deferred& deferred_at(std::uint64_t handle) {
    if (handle >= deferred_.size()) {
      throw simt::SimError("task framework: credit() on an unknown "
                           "deferred-task handle");
    }
    return deferred_[handle];
  }

  // Watches the banded queue's closure frontier as phases retire. The
  // frontier is the phase clock: it may only advance, and each advance
  // is one phase close.
  void observe_frontier() {
    if (!banded_) return;
    const std::uint32_t frontier = queue_.snapshot(dev_).closure_frontier;
    if (frontier < last_frontier_) {
      throw simt::SimError(
          "task framework: closure frontier regressed (phase-close "
          "monotonicity violated)");
    }
    stats_.phase_closes += frontier - last_frontier_;
    last_frontier_ = frontier;
  }

  // Post-run check: a deferred task whose credits never resolved would
  // silently vanish — that is a workload bug, reported loudly.
  void check_unreleased() const {
    std::uint64_t unreleased = 0;
    for (const Deferred& d : deferred_) unreleased += d.remaining != 0;
    if (unreleased != 0) {
      throw simt::SimError(
          "task framework: " + std::to_string(unreleased) +
          " deferred task(s) never released — missing credits");
    }
  }

 private:
  simt::Device& dev_;
  DeviceQueue& queue_;

 public:
  const HostTask& task() const { return task_; }

 private:
  const HostTask& task_;
  HostTaskOptions opt_;
  bool banded_;
  ReserveHook hook_;
  TaskStats stats_;
  std::vector<Deferred> deferred_;
  std::unordered_map<std::uint64_t, std::uint64_t> depth_;
  std::uint32_t last_frontier_ = 0;
};

}  // namespace

// Per-wave client running host callbacks. A task executes in one work
// step; children that overflow the lane's per-cycle publish buffer are
// stashed and drained on later steps, and the lane's completion credit
// is withheld until the stash is empty — so termination (Completed ==
// Rear) can never fire while spawned-but-unpublished children exist.
class HostTaskClient final : public TaskWaveClient {
 public:
  explicit HostTaskClient(HostTaskShared& shared) : shared_(shared) {}

  Kernel<LaneMask> on_arrival(Wave& w, WaveQueueState& st, LaneMask arrived,
                              std::span<const std::uint64_t> tokens) override {
    (void)w;
    for_lanes(arrived, [&](unsigned lane) {
      token_[lane] = tokens[lane];
      ticket_[lane] = st.deliver_ticket[lane];
    });
    co_return 0;
  }

  Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                             LaneMask run) override {
    simt::ProtocolStream& events = w.device().protocol();
    LaneMask done = 0;
    LaneMask executed = 0;
    for_lanes(run, [&](unsigned lane) {
      if (!stash_[lane].empty()) {
        // A previous step's overflow is still draining: publish more
        // children, run nothing new, and complete once the stash is dry.
        drain(lane, st);
        if (stash_[lane].empty()) done |= bit(lane);
        return;
      }
      events.exec_start(w, ticket_[lane], token_[lane]);
      run_task(lane, st);
      executed |= bit(lane);
      if (stash_[lane].empty()) done |= bit(lane);
    });
    shared_.observe_frontier();
    if (executed) co_await w.compute(shared_.opt().task_compute);
    // Stamped after the compute await, so exec-end lands at the cycle
    // the batch actually retired.
    for_lanes(executed,
              [&](unsigned lane) { events.exec_end(w, ticket_[lane]); });
    co_return done;
  }

  // Child emission shared by spawn/respawn/release: straight into the
  // lane's publish buffer while it has room, stashed past that.
  void emit(unsigned lane, WaveQueueState& st, std::uint64_t token,
            std::uint64_t parent) {
    if (st.n_new[lane] < kMaxWorkBudget) {
      st.push_token(lane, token, parent);
    } else {
      stash_[lane].push_back({token, parent});
    }
  }

  void credit(TaskContext& ctx, std::uint64_t handle) {
    ++shared_.stats().credits;
    HostTaskShared::Deferred& d = shared_.deferred_at(handle);
    if (d.remaining == 0) {
      throw simt::SimError(
          "task framework: dependency-counter underflow (deferred task "
          "already released)");
    }
    if (--d.remaining == 0) release(ctx, d);
  }

  void release(TaskContext& ctx, const HostTaskShared::Deferred& d) {
    shared_.check_band(ctx.band_, d.band);
    ++shared_.stats().released;
    emit(ctx.lane_, *ctx.st_, pack_task(d.payload, d.band), ctx.ticket_);
  }

  void spawn(TaskContext& ctx, std::uint64_t payload, std::uint64_t band) {
    shared_.check_band(ctx.band_, band);
    ++shared_.stats().spawns;
    emit(ctx.lane_, *ctx.st_, pack_task_checked(payload, band), ctx.ticket_);
  }

  HostTaskShared& shared() { return shared_; }

 private:
  void run_task(unsigned lane, WaveQueueState& st) {
    TaskContext ctx;
    ctx.client_ = this;
    ctx.lane_ = lane;
    ctx.payload_ = task_payload(token_[lane]);
    ctx.band_ = task_band(token_[lane]);
    ctx.depth_ = shared_.depth_of(ticket_[lane]);
    ctx.ticket_ = ticket_[lane];
    ctx.st_ = &st;
    ++shared_.stats().executions;
    shared_.task()(ctx);
  }

  void drain(unsigned lane, WaveQueueState& st) {
    std::vector<PendingChild>& stash = stash_[lane];
    std::size_t i = 0;
    while (i < stash.size() && st.n_new[lane] < kMaxWorkBudget) {
      st.push_token(lane, stash[i].token, stash[i].parent);
      ++i;
    }
    stash.erase(stash.begin(), stash.begin() + static_cast<std::ptrdiff_t>(i));
  }

  HostTaskShared& shared_;
  std::array<std::uint64_t, kWaveWidth> token_{};
  std::array<std::uint64_t, kWaveWidth> ticket_ = filled_lanes(kNoTask);
  std::array<std::vector<PendingChild>, kWaveWidth> stash_;
};

void TaskContext::spawn(std::uint64_t payload, std::uint64_t band) {
  client_->spawn(*this, payload, band);
}

void TaskContext::respawn() {
  ++client_->shared().stats().respawns;
  client_->spawn(*this, payload_, band_);
}

std::uint64_t TaskContext::defer(std::uint64_t payload, std::uint64_t band,
                                 std::uint64_t credits) {
  const std::uint64_t handle =
      client_->shared().defer_task(payload, band, credits);
  if (credits == 0) {
    client_->release(*this, client_->shared().deferred_at(handle));
  }
  return handle;
}

void TaskContext::credit(std::uint64_t handle) { client_->credit(*this, handle); }

simt::RunResult run_host_tasks(simt::Device& dev, DeviceQueue& queue,
                               std::span<const TaskSeed> seeds,
                               const HostTask& task,
                               const HostTaskOptions& options,
                               TaskStats* stats) {
  std::vector<std::uint64_t> tokens;
  tokens.reserve(seeds.size());
  for (const TaskSeed& s : seeds) {
    tokens.push_back(pack_task_checked(s.payload, s.band));
  }
  queue.seed(dev, tokens);

  HostTaskShared shared(dev, queue, task, options);
  TaskEngineOptions eng;
  // Host tasks may emit up to a full publish buffer per step, so the
  // backpressure throttle must assume the worst case.
  eng.work_budget = kMaxWorkBudget;
  eng.poll_interval = options.poll_interval;
  eng.num_workgroups = options.num_workgroups;
  eng.on_reserve = shared.hook();
  const simt::RunResult run = run_task_waves(
      dev, queue,
      [&shared](Wave&) { return std::make_unique<HostTaskClient>(shared); },
      eng);

  // Final frontier sample (the last closes can land after the last
  // work step), then the leak check — but only for clean runs: an
  // aborted run legitimately strands dependencies.
  shared.observe_frontier();
  if (!run.aborted) shared.check_unreleased();
  if (stats != nullptr) *stats = shared.stats();
  return run;
}

TaskGraphResult run_task_graph(const simt::DeviceConfig& config,
                               std::span<const TaskSeed> seeds,
                               const HostTask& task,
                               const TaskGraphOptions& options) {
  const bool banded = options.variant == QueueVariant::kMq;
  if (banded && (options.num_bands == 0 ||
                 options.num_bands > BucketedMultiQueue::kMaxBands)) {
    throw simt::SimError("run_task_graph: num_bands out of range");
  }
  const AttemptPlan plan{
      .base_count = std::max<std::uint64_t>(
          {seeds.size(), options.payload_hint, std::uint64_t{1}}),
      .headroom = options.queue_headroom,
      .capacity = options.queue_capacity};
  TaskGraphResult result;
  AttemptsResult a = run_attempts(
      config, options, plan,
      [&](simt::Device& dev,
          std::uint64_t capacity) -> std::unique_ptr<DeviceQueue> {
        if (!banded) return make_scheduler(dev, options.variant, capacity);
        // Capacity splits evenly across bands, and band routing is
        // workload-defined, so give every band the full auto-sized ring
        // unless the caller pinned the total explicitly.
        if (options.queue_capacity == 0) capacity *= options.num_bands;
        return std::make_unique<BucketedMultiQueue>(
            dev, capacity, options.num_bands,
            BucketedMultiQueue::cost_band_map());
      },
      [&](simt::Device& dev, DeviceQueue& queue) {
        if (options.on_attempt) options.on_attempt();
        return run_host_tasks(dev, queue, seeds, task, options.host,
                              &result.stats);
      });
  return with_attempts(std::move(result), std::move(a));
}

}  // namespace scq::tasks
