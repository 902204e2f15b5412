// Dynamic task framework (src/tasks) unit tests: the engine's
// arrival-finished lanes and its two client seams (stop word, side
// channels), the soundness guards (spawn depth,
// dependency-counter underflow, unreleased dependencies, band
// monotonicity), the overflow stash, phase-close accounting on the
// banded multi-queue, and the shared retry policy. The front-ends'
// schedules are pinned by driver_golden_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bucketed_queue.h"
#include "core/counters.h"
#include "core/ext_schedulers.h"
#include "tasks/task_engine.h"

namespace scq::tasks {
namespace {

simt::DeviceConfig small_device() {
  simt::DeviceConfig cfg = simt::spectre_config();
  cfg.name = "small";
  cfg.num_cus = 2;
  cfg.waves_per_cu = 2;
  return cfg;
}

// ---- Token packing ----

TEST(TaskToken, RoundTripsPayloadAndBand) {
  const std::uint64_t t = pack_task_checked(123456, 7);
  EXPECT_EQ(task_payload(t), 123456u);
  EXPECT_EQ(task_band(t), 7u);
}

TEST(TaskToken, BandZeroTokensAreBarePayloads) {
  // The BFS client relies on this: its tokens are bare vertex ids, and
  // they must round-trip the framework packing unchanged.
  EXPECT_EQ(pack_task(4242, 0), 4242u);
}

TEST(TaskToken, ChecksFieldOverflow) {
  EXPECT_THROW((void)pack_task_checked(kMaxPayload + 1, 0), simt::SimError);
  EXPECT_THROW((void)pack_task_checked(0, kMaxBand + 1), simt::SimError);
}

// ---- Kernel-side engine ----

// RF/AN ring that records every ticket the engine reports complete.
class RecordingQueue final : public RfanQueue {
 public:
  using RfanQueue::RfanQueue;

  Kernel<void> report_complete_tickets(
      Wave& w, std::span<const std::uint64_t> tickets) override {
    for (const std::uint64_t t : tickets) ++reported[t];
    co_await report_complete(w, static_cast<std::uint32_t>(tickets.size()));
  }

  std::map<std::uint64_t, int> reported;  // ticket -> completion reports
};

// Token t finishes at arrival when t % 3 == 0. Otherwise seeds (t < n)
// take two work steps and push one child t + n + 1 in the first; every
// other token finishes in one work step.
class ArrivalFinishClient final : public TaskWaveClient {
 public:
  explicit ArrivalFinishClient(std::uint64_t n) : n_(n) {}

  Kernel<LaneMask> on_arrival(Wave&, WaveQueueState& st, LaneMask arrived,
                              std::span<const std::uint64_t> tokens) override {
    LaneMask done = 0;
    for_lanes(arrived, [&](unsigned lane) {
      token_[lane] = tokens[lane];
      ticket_[lane] = st.deliver_ticket[lane];
      steps_[lane] = 0;
      if (tokens[lane] % 3 == 0) done |= bit(lane);
    });
    co_return done;
  }

  Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                             LaneMask run) override {
    LaneMask done = 0;
    for_lanes(run, [&](unsigned lane) {
      const bool seed = token_[lane] < n_;
      if (seed && steps_[lane] == 0) {
        st.push_token(lane, token_[lane] + n_ + 1, ticket_[lane]);
      }
      if (++steps_[lane] == (seed ? 2 : 1)) done |= bit(lane);
    });
    co_await w.compute(4);
    co_return done;
  }

 private:
  std::uint64_t n_;
  std::array<std::uint64_t, kWaveWidth> token_{};
  std::array<std::uint64_t, kWaveWidth> ticket_{};
  std::array<unsigned, kWaveWidth> steps_{};
};

TEST(TaskEngine, ArrivalFinishedLanesReportEachTicketOnce) {
  constexpr std::uint64_t kSeeds = 96;
  simt::Device dev(small_device());
  RecordingQueue queue(dev, 256);
  std::vector<std::uint64_t> seeds(kSeeds);
  for (std::uint64_t t = 0; t < kSeeds; ++t) seeds[t] = t;
  queue.seed(dev, seeds);

  const simt::RunResult run = run_task_waves(dev, queue, [&](Wave&) {
    return std::make_unique<ArrivalFinishClient>(kSeeds);
  });
  ASSERT_FALSE(run.aborted) << run.abort_reason;

  // Every token ever enqueued: the seeds plus one child per seed that
  // reached a work step.
  std::uint64_t tokens = kSeeds, work_step_finishers = 0;
  for (std::uint64_t t = 0; t < kSeeds; ++t) {
    if (t % 3 == 0) continue;
    ++work_step_finishers;  // the seed itself
    ++tokens;               // its child
    if ((t + kSeeds + 1) % 3 != 0) ++work_step_finishers;
  }
  const std::uint64_t rear = dev.read_word(queue.rear_of(0));
  EXPECT_EQ(rear, tokens);
  EXPECT_EQ(dev.read_word(queue.completed_of(0)), rear);
  ASSERT_EQ(queue.reported.size(), tokens);
  for (const auto& [ticket, count] : queue.reported) {
    EXPECT_LT(ticket, rear);
    EXPECT_EQ(count, 1) << "ticket " << ticket;
  }
  // Arrival finishers completed without ever running a work step.
  EXPECT_EQ(run.stats.user[kTasksProcessed], work_step_finishers);
}

// Every task finishes in one work step; the run ends on a host-written
// stop word instead of Completed == Rear.
class StopWordClient final : public TaskWaveClient {
 public:
  explicit StopWordClient(simt::Addr stop) : stop_(stop) {}

  [[nodiscard]] std::optional<simt::Addr> stop_word() const override {
    return stop_;
  }
  Kernel<LaneMask> on_arrival(Wave&, WaveQueueState&, LaneMask,
                              std::span<const std::uint64_t>) override {
    co_return 0;
  }
  Kernel<LaneMask> work_step(Wave& w, WaveQueueState&, LaneMask run) override {
    co_await w.compute(4);
    co_return run;
  }

 private:
  simt::Addr stop_;
};

TEST(TaskEngine, StopWordKeepsWavesRunningPastCompletedEqualsRear) {
  constexpr std::uint64_t kSeeds = 40;
  simt::Device dev(small_device());
  const std::unique_ptr<DeviceQueue> queue =
      make_scheduler(dev, QueueVariant::kRfan, 128);
  std::vector<std::uint64_t> seeds(kSeeds);
  for (std::uint64_t t = 0; t < kSeeds; ++t) seeds[t] = t;
  queue->seed(dev, seeds);
  const simt::Addr stop = dev.alloc(1).base;
  dev.write_word(stop, 0);

  const std::uint32_t waves = dev.config().resident_waves();
  dev.launch_begin(waves, task_wave_kernel(*queue, [stop](Wave&) {
    return std::make_unique<StopWordClient>(stop);
  }));
  const auto all_done = [&] {
    return queue->unfinished(dev) == 0;
  };
  simt::Cycle horizon = 0;
  while (!all_done()) {
    horizon += 10000;
    ASSERT_EQ(dev.step_until(horizon), simt::StepStatus::kRanToHorizon);
    ASSERT_LT(horizon, simt::Cycle{10000000}) << "tasks never completed";
  }

  // Every task is done, yet the waves keep cycling until the host writes
  // the word.
  const std::uint64_t cycles_at_done = dev.stats().user[kWorkCycles];
  horizon += 100000;
  EXPECT_EQ(dev.step_until(horizon), simt::StepStatus::kRanToHorizon);
  EXPECT_GT(dev.stats().user[kWorkCycles], cycles_at_done);

  dev.write_word(stop, 1);
  EXPECT_EQ(dev.step_until(~simt::Cycle{0}), simt::StepStatus::kDrained);
  const simt::RunResult run = dev.launch_end();
  ASSERT_FALSE(run.aborted) << run.abort_reason;
  EXPECT_EQ(run.stats.waves_completed, waves);
  EXPECT_EQ(run.stats.user[kTasksProcessed], kSeeds);
}

// One wave. Its side channel stays parked for its first kSideFlushes
// publish_side() calls. Seeds (t < n) run kSeedSteps work steps and push
// kFanout leaf children (t >= n) per step; leaves finish in one step.
class SideChannelClient final : public TaskWaveClient {
 public:
  static constexpr int kSideFlushes = 12;
  static constexpr unsigned kSeedSteps = 2;
  static constexpr unsigned kFanout = 16;

  struct Log {
    int side_publishes = 0;
    int froze_with_work = 0;     // parked cycles with lanes holding tasks
    int steps_while_parked = 0;  // work steps run while parked (must be 0)
    int throttled_steps = 0;     // steps that ran fewer lanes than working
    int wrong_allowance = 0;     // steps not matching the proportional rule
    std::uint64_t children = 0;
  };

  SideChannelClient(std::uint64_t n, unsigned work_budget, Log& log)
      : n_(n), work_budget_(work_budget), log_(log) {}

  [[nodiscard]] bool side_pending() const override { return flushes_ > 0; }
  [[nodiscard]] bool side_parked() const override { return flushes_ > 0; }
  Kernel<void> publish_side(Wave&) override {
    ++log_.side_publishes;
    if (working_ != 0) ++log_.froze_with_work;
    --flushes_;
    co_return;
  }

  Kernel<LaneMask> on_arrival(Wave&, WaveQueueState& st, LaneMask arrived,
                              std::span<const std::uint64_t> tokens) override {
    for_lanes(arrived, [&](unsigned lane) {
      token_[lane] = tokens[lane];
      ticket_[lane] = st.deliver_ticket[lane];
      steps_[lane] = 0;
    });
    working_ |= arrived;
    co_return 0;
  }

  Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                             LaneMask run) override {
    if (flushes_ > 0) ++log_.steps_while_parked;
    const auto lanes = [](LaneMask m) {
      return static_cast<std::uint32_t>(std::popcount(m));
    };
    if (st.has_parked()) {
      // The main queue's proportional throttle: as many lanes as the
      // parked buffer can absorb at work_budget children each.
      const std::uint32_t allow =
          (WaveQueueState::kMaxParked - st.n_parked) / work_budget_;
      if (lanes(run) != std::min(lanes(working_), allow)) {
        ++log_.wrong_allowance;
      }
      if (run != working_) ++log_.throttled_steps;
    }
    LaneMask done = 0;
    for_lanes(run, [&](unsigned lane) {
      if (token_[lane] >= n_) {
        done |= bit(lane);
        return;
      }
      for (unsigned c = 0; c < kFanout; ++c) {
        st.push_token(lane, n_ + log_.children++, ticket_[lane]);
      }
      if (++steps_[lane] == kSeedSteps) done |= bit(lane);
    });
    working_ &= ~done;
    co_await w.compute(4);
    co_return done;
  }

 private:
  std::uint64_t n_;
  unsigned work_budget_;
  Log& log_;
  int flushes_ = kSideFlushes;
  LaneMask working_ = 0;
  std::array<std::uint64_t, kWaveWidth> token_{};
  std::array<std::uint64_t, kWaveWidth> ticket_{};
  std::array<unsigned, kWaveWidth> steps_{};
};

TEST(TaskEngine, ParkedSideChannelFreezesWorkThenMainThrottleResumes) {
  constexpr std::uint64_t kSeeds = kWaveWidth;
  simt::Device dev(small_device());
  // A ring only as deep as the seed batch: the first work step's
  // children overflow it and park on the main queue.
  const std::unique_ptr<DeviceQueue> queue =
      make_scheduler(dev, QueueVariant::kRfan, kSeeds);
  std::vector<std::uint64_t> seeds(kSeeds);
  for (std::uint64_t t = 0; t < kSeeds; ++t) seeds[t] = t;
  queue->seed(dev, seeds);

  SideChannelClient::Log log;
  const TaskEngineOptions opt{.work_budget = kMaxWorkBudget,
                              .num_workgroups = 1};
  const simt::RunResult run = run_task_waves(
      dev, *queue,
      [&](Wave&) {
        return std::make_unique<SideChannelClient>(kSeeds, opt.work_budget,
                                                   log);
      },
      opt);
  ASSERT_FALSE(run.aborted) << run.abort_reason;

  // While the side channel was parked, lanes held tasks and none ran.
  EXPECT_EQ(log.side_publishes, SideChannelClient::kSideFlushes);
  EXPECT_GT(log.froze_with_work, 0);
  EXPECT_EQ(log.steps_while_parked, 0);
  // Once it cleared, main-queue parking throttled proportionally: some
  // lanes ran, fewer than were working, exactly as many as allowed.
  EXPECT_GT(log.throttled_steps, 0);
  EXPECT_EQ(log.wrong_allowance, 0);
  const std::uint64_t children =
      kSeeds * SideChannelClient::kSeedSteps * SideChannelClient::kFanout;
  EXPECT_EQ(log.children, children);
  EXPECT_EQ(run.stats.user[kTasksProcessed], kSeeds + children);
}

// ---- Host-task engine ----

TEST(TaskFramework, RunsSeedOnlyBatchAndCountsExecutions) {
  std::uint64_t sum = 0;
  TaskGraphOptions opt;
  opt.on_attempt = [&] { sum = 0; };
  const std::vector<TaskSeed> seeds = {{1, 0}, {2, 0}, {3, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) { sum += ctx.payload(); }, opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.executions, 3u);
  EXPECT_EQ(r.stats.spawns, 0u);
  EXPECT_EQ(sum, 6u);
}

TEST(TaskFramework, TracksSpawnDepthAlongChains) {
  constexpr std::uint64_t kDepth = 12;
  TaskGraphOptions opt;
  const std::vector<TaskSeed> seeds = {{0, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        EXPECT_EQ(ctx.depth(), ctx.payload());  // chain: depth == position
        if (ctx.payload() < kDepth) ctx.spawn(ctx.payload() + 1, 0);
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.executions, kDepth + 1);
  EXPECT_EQ(r.stats.max_depth, kDepth);
}

TEST(TaskFramework, SpawnDepthBoundAbortsRunawayChains) {
  TaskGraphOptions opt;
  opt.host.max_spawn_depth = 5;
  const std::vector<TaskSeed> seeds = {{0, 0}};
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          // Unbounded self-perpetuating chain: only the guard stops it.
          [&](TaskContext& ctx) { ctx.spawn(ctx.payload() + 1, 0); }, opt),
      simt::SimError);
}

TEST(TaskFramework, DependencyCreditsReleaseDeferredTasks) {
  std::vector<std::uint64_t> order;
  std::uint64_t handle = 0;
  TaskGraphOptions opt;
  opt.on_attempt = [&] { order.clear(); };
  const std::vector<TaskSeed> seeds = {{0, 0}, {1, 0}, {2, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        order.push_back(ctx.payload());
        if (ctx.payload() == 0) {
          // Held back until both other seeds credit it.
          handle = ctx.defer(99, 0, 2);
        } else if (ctx.payload() != 99) {
          ctx.credit(handle);
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.back(), 99u);  // released strictly after both credits
  EXPECT_EQ(r.stats.deferred, 1u);
  EXPECT_EQ(r.stats.credits, 2u);
  EXPECT_EQ(r.stats.released, 1u);
}

// Seeds 0 must run before the crediting seed for the handle to exist;
// queue delivery is FIFO from the seed batch, so seed order suffices.
TEST(TaskFramework, CreditUnderflowThrows) {
  std::uint64_t handle = 0;
  TaskGraphOptions opt;
  const std::vector<TaskSeed> seeds = {{0, 0}, {1, 0}};
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          [&](TaskContext& ctx) {
            if (ctx.payload() == 0) {
              handle = ctx.defer(99, 0, 1);
            } else {
              ctx.credit(handle);
              ctx.credit(handle);  // pays past zero: underflow
            }
          },
          opt),
      simt::SimError);
}

TEST(TaskFramework, UnreleasedDeferredTaskThrows) {
  TaskGraphOptions opt;
  const std::vector<TaskSeed> seeds = {{0, 0}};
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          [&](TaskContext& ctx) {
            // Deferred behind a credit nobody ever pays.
            (void)ctx.defer(99, 0, 1);
          },
          opt),
      simt::SimError);
}

TEST(TaskFramework, OverflowStashDeliversWideFanouts) {
  // One seed spawns far past the per-cycle publish budget
  // (kMaxWorkBudget); the stash must deliver every child and hold the
  // parent's completion until the last one is published.
  constexpr std::uint64_t kChildren = 100;
  std::uint64_t executed_children = 0;
  TaskGraphOptions opt;
  opt.on_attempt = [&] { executed_children = 0; };
  const std::vector<TaskSeed> seeds = {{kChildren + 1, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        if (ctx.payload() == kChildren + 1) {
          for (std::uint64_t c = 0; c < kChildren; ++c) ctx.spawn(c, 0);
        } else {
          ++executed_children;
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(executed_children, kChildren);
  EXPECT_EQ(r.stats.executions, kChildren + 1);
}

TEST(TaskFramework, RespawnReenqueuesCurrentTask) {
  std::vector<int> runs(3, 0);
  TaskGraphOptions opt;
  opt.on_attempt = [&] { runs.assign(3, 0); };
  const std::vector<TaskSeed> seeds = {{0, 0}, {1, 0}, {2, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        // Each task retries once.
        if (runs[ctx.payload()]++ == 0) ctx.respawn();
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.respawns, 3u);
  EXPECT_EQ(r.stats.executions, 6u);
}

// ---- Banded (multi-queue) behavior ----

TEST(TaskFramework, PhaseClosesTrackClosureFrontier) {
  TaskGraphOptions opt;
  opt.variant = QueueVariant::kMq;
  opt.num_bands = 2;
  std::vector<TaskSeed> seeds;
  for (std::uint64_t v = 0; v < 24; ++v) seeds.push_back({v, 0});
  std::uint64_t phase1 = 0;
  opt.on_attempt = [&] { phase1 = 0; };
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        if (ctx.band() == 0) {
          ctx.spawn(ctx.payload(), 1);
        } else {
          ++phase1;
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(phase1, 24u);
  // Both bands ran dry, so the closure frontier swept the whole queue:
  // one observed close per band, and never a regression (the engine
  // throws on one).
  EXPECT_EQ(r.stats.phase_closes, 2u);
}

TEST(TaskFramework, SpawnIntoLowerBandThrowsOnBandedQueues) {
  TaskGraphOptions opt;
  opt.variant = QueueVariant::kMq;
  opt.num_bands = 2;
  const std::vector<TaskSeed> seeds = {{0, 1}};  // starts in band 1
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          [&](TaskContext& ctx) { ctx.spawn(1, 0); },  // band 1 -> band 0
          opt),
      simt::SimError);
}

TEST(TaskFramework, OutOfRangeBandCountThrows) {
  const std::vector<TaskSeed> seeds = {{0, 0}};
  for (const std::uint32_t bands : {0u, BucketedMultiQueue::kMaxBands + 1}) {
    TaskGraphOptions opt;
    opt.variant = QueueVariant::kMq;
    opt.num_bands = bands;
    EXPECT_THROW(
        run_task_graph(small_device(), seeds, [](TaskContext&) {}, opt),
        simt::SimError)
        << bands << " bands";
  }
}

TEST(TaskFramework, LowerBandSpawnAllowedOnSingleBandQueues) {
  // FIFO rings have no closure to protect: band bits are inert metadata.
  TaskGraphOptions opt;
  opt.variant = QueueVariant::kRfan;
  const std::vector<TaskSeed> seeds = {{0, 1}};
  std::uint64_t executed = 0;
  opt.on_attempt = [&] { executed = 0; };
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        ++executed;
        if (ctx.band() == 1) ctx.spawn(1, 0);
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(executed, 2u);
}

// ---- The retry policy (tasks/attempts.h) ----

// An attempt that aborts its first `aborts` runs, logging each scale
// and handing back "box<k>" as the k-th aborted run's black box.
struct ScriptedAttempt {
  std::uint32_t aborts = 0;
  std::vector<std::uint64_t> scales;
  std::optional<std::string> operator()(std::uint64_t scale) {
    scales.push_back(scale);
    if (scales.size() > aborts) return std::nullopt;
    return "box" + std::to_string(scales.size());
  }
};

TEST(RetryPolicy, AbortedAttemptsRetryAtDoubledScale) {
  for (std::uint32_t k = 1; k < kMaxAttempts; ++k) {
    ScriptedAttempt script;
    script.aborts = k;
    const RetryResult r = retry_doubling(std::ref(script));
    EXPECT_EQ(r.attempts, k + 1);
    ASSERT_EQ(script.scales.size(), k + 1);
    for (std::uint32_t i = 0; i <= k; ++i) {
      EXPECT_EQ(script.scales[i], std::uint64_t{1} << i);
    }
    EXPECT_EQ(r.black_box, "box" + std::to_string(k));
  }
}

TEST(RetryPolicy, StopsAtMaxAttempts) {
  ScriptedAttempt script;
  script.aborts = ~std::uint32_t{0};
  const RetryResult r = retry_doubling(std::ref(script));
  EXPECT_EQ(r.attempts, kMaxAttempts);
  EXPECT_EQ(script.scales.size(), kMaxAttempts);
  EXPECT_EQ(script.scales.back(), std::uint64_t{1} << (kMaxAttempts - 1));
  EXPECT_EQ(r.black_box, "box" + std::to_string(kMaxAttempts));
}

TEST(RetryPolicy, CleanAttemptRunsOnceWithoutABlackBox) {
  ScriptedAttempt script;
  const RetryResult r = retry_doubling(std::ref(script));
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(script.scales, std::vector<std::uint64_t>{1});
  EXPECT_TRUE(r.black_box.empty());
}

}  // namespace
}  // namespace scq::tasks
