// Dynamic task framework (src/tasks) unit tests: the engine's
// arrival-finished lanes, the soundness guards (spawn depth,
// dependency-counter underflow, unreleased dependencies, band
// monotonicity), the overflow stash, and phase-close accounting on the
// banded multi-queue. The front-ends' schedules are pinned by
// driver_golden_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bucketed_queue.h"
#include "core/counters.h"
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

// RF/AN ring that records every ticket the engine reports complete. The
// ring protocol runs in the wrapped queue; arrival checks run on this
// object over the same layout (its residency counter is unused here).
class RecordingQueue final : public DeviceQueue {
 public:
  RecordingQueue(simt::Device& dev, std::uint64_t capacity)
      : DeviceQueue(make_device_queue(dev, capacity)), ring_(layout()) {}

  [[nodiscard]] QueueVariant variant() const override {
    return QueueVariant::kRfan;
  }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override {
    co_await ring_.acquire_slots(w, st);
  }
  Kernel<void> publish(Wave& w, WaveQueueState& st) override {
    co_await ring_.publish(w, st);
  }
  Kernel<void> report_complete(Wave& w, std::uint32_t count) override {
    co_await ring_.report_complete(w, count);
  }
  Kernel<void> report_complete_tickets(
      Wave& w, std::span<const std::uint64_t> tickets) override {
    for (const std::uint64_t t : tickets) ++reported[t];
    co_await report_complete(w, static_cast<std::uint32_t>(tickets.size()));
  }

  std::map<std::uint64_t, int> reported;  // ticket -> completion reports

 private:
  RfanQueue ring_;
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
  const std::uint64_t rear = dev.read_word(queue.layout().rear_addr());
  EXPECT_EQ(rear, tokens);
  EXPECT_EQ(dev.read_word(queue.layout().completed_addr()), rear);
  ASSERT_EQ(queue.reported.size(), tokens);
  for (const auto& [ticket, count] : queue.reported) {
    EXPECT_LT(ticket, rear);
    EXPECT_EQ(count, 1) << "ticket " << ticket;
  }
  // Arrival finishers completed without ever running a work step.
  EXPECT_EQ(run.stats.user[kTasksProcessed], work_step_finishers);
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

}  // namespace
}  // namespace scq::tasks
