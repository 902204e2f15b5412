// Tests for the extension schedulers (LockedStack, DistributedQueue):
// LIFO semantics, lock serialization, stealing, termination detection,
// and end-to-end BFS correctness through the same driver as the paper's
// variants.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "bfs/pt_bfs.h"
#include "core/counters.h"
#include "core/ext_schedulers.h"
#include "graph/bfs_ref.h"
#include "graph/generators.h"
#include "tasks/task_engine.h"

namespace scq {
namespace {

using simt::Device;
using simt::DeviceConfig;
using simt::Kernel;
using simt::Wave;

DeviceConfig test_config(std::uint32_t cus = 4, std::uint32_t waves = 2) {
  DeviceConfig cfg;
  cfg.name = "ext";
  cfg.num_cus = cus;
  cfg.waves_per_cu = waves;
  cfg.mem_latency = 100;
  cfg.atomic_latency = 40;
  cfg.atomic_service = 4;
  cfg.lds_latency = 8;
  cfg.issue_cost = 2;
  cfg.kernel_launch_overhead = 500;
  return cfg;
}

TEST(MakeSchedulerTest, BuildsEveryVariant) {
  for (const auto v :
       {QueueVariant::kBase, QueueVariant::kAn, QueueVariant::kRfan,
        QueueVariant::kStack, QueueVariant::kDistrib}) {
    Device dev(test_config());
    auto q = make_scheduler(dev, v, 1024);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->variant(), v);
  }
}

TEST(MakeSchedulerTest, NamesForNewVariants) {
  EXPECT_EQ(to_string(QueueVariant::kStack), "LOCK-STACK");
  EXPECT_EQ(to_string(QueueVariant::kDistrib), "DISTRIB");
}

TEST(MakeQueueVariantTest, RejectsExtensionVariants) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 64);
  EXPECT_THROW((void)make_queue_variant(QueueVariant::kStack, layout),
               simt::SimError);
}

// ---- LockedStack ----

TEST(LockedStackTest, SeedThenPopDeliversLifoEagerly) {
  Device dev(test_config());
  LockedStack stack(make_device_queue(dev, 64));
  const std::vector<std::uint64_t> tokens{10, 11, 12};
  stack.seed(dev, tokens);

  std::array<std::uint64_t, kWaveWidth> got{};
  LaneMask arrived = 0;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.hungry = 0b11;  // two hungry lanes, three tokens
    co_await stack.acquire_slots(w, st);
    EXPECT_EQ(st.ready, 0b11u) << "stack delivers eagerly under its lock";
    arrived = co_await stack.check_arrival(w, st, got);
  });
  EXPECT_EQ(arrived, 0b11u);
  // LIFO: top-most tokens first.
  EXPECT_EQ(got[0], 12u);
  EXPECT_EQ(got[1], 11u);
  EXPECT_EQ(dev.read_word(stack.layout().ctrl.at(0)), 1u) << "top shrank by 2";
}

TEST(LockedStackTest, PushThenPopRoundTrips) {
  Device dev(test_config());
  LockedStack stack(make_device_queue(dev, 256));
  std::array<std::uint64_t, kWaveWidth> got{};
  LaneMask arrived = 0;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    st.push_token(0, 5);
    st.push_token(0, 6);
    st.push_token(3, 7);
    co_await stack.publish(w, st);
    st.hungry = 0b111;
    co_await stack.acquire_slots(w, st);
    arrived = co_await stack.check_arrival(w, st, got);
  });
  EXPECT_EQ(std::popcount(arrived), 3);
  const std::set<std::uint64_t> seen{got[0], got[1], got[2]};
  EXPECT_EQ(seen, (std::set<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(dev.read_word(stack.layout().ctrl.at(1)), 3u) << "pushed counter";
}

TEST(LockedStackTest, ContendedLockSerializes) {
  Device dev(test_config(8, 4));
  LockedStack stack(make_device_queue(dev, 1 << 14));
  // Every wave pushes a batch; the lock forces one wave at a time.
  const auto result = dev.launch(32, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    for (unsigned lane = 0; lane < 4; ++lane) {
      st.push_token(lane, w.workgroup_id() * 100 + lane);
    }
    co_await stack.publish(w, st);
  });
  EXPECT_EQ(dev.read_word(stack.layout().ctrl.at(0)), 32u * 4);
  EXPECT_GT(result.stats.cas_failures, 0u) << "lock contention must show up";
}

TEST(LockedStackTest, OverflowParksInsteadOfAborting) {
  // The former abort site: 16 tokens into a capacity-8 stack. The stack
  // fills, the remainder parks in the wave, and `pushed` covers the
  // whole batch so termination stays open for the parked half.
  Device dev(test_config());
  LockedStack stack(make_device_queue(dev, 8));
  WaveQueueState st{};
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    st.clear_produce();
    for (unsigned lane = 0; lane < 16; ++lane) st.push_token(lane, lane);
    co_await stack.publish(w, st);
  });
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(dev.read_word(stack.layout().ctrl.at(0)), 8u) << "top at capacity";
  EXPECT_EQ(dev.read_word(stack.layout().ctrl.at(1)), 16u)
      << "pushed counts the parked remainder too";
  EXPECT_EQ(st.n_parked, 8u);
  EXPECT_EQ(result.stats.user[kTokensEnqueued], 8u);
}

TEST(LockedStackTest, ParkedTokensDrainAfterPops) {
  // Overflow then consume: parked leftovers land on the next publish
  // once pops free stack space, and every token is delivered once.
  Device dev(test_config());
  LockedStack stack(make_device_queue(dev, 8));

  std::set<std::uint64_t> seen;
  bool drained = false;
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    for (unsigned lane = 0; lane < 16; ++lane) st.push_token(lane, 50 + lane);
    co_await stack.publish(w, st);  // 8 land, 8 park

    std::array<std::uint64_t, kWaveWidth> recv{};
    for (int round = 0; round < 50 && seen.size() < 16; ++round) {
      st.hungry = 0xffff & ~(st.assigned | st.ready);
      co_await stack.acquire_slots(w, st);
      const LaneMask arrived = co_await stack.check_arrival(w, st, recv);
      for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
        if ((arrived >> lane) & 1u) seen.insert(recv[lane]);
      }
      st.clear_produce();
      co_await stack.publish(w, st);  // flushes parked into freed space
      co_await stack.report_complete(
          w, static_cast<std::uint32_t>(std::popcount(arrived)));
    }
    drained = !st.has_parked();
  });

  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_TRUE(drained);
  EXPECT_EQ(seen.size(), 16u) << "every token delivered exactly once";
  for (unsigned i = 0; i < 16; ++i) EXPECT_TRUE(seen.count(50 + i));
  EXPECT_EQ(dev.read_word(stack.layout().ctrl.at(0)), 0u) << "stack empty";
}

TEST(LockedStackTest, PublishDeadlockAbortsViaDetector) {
  // A stack that stays full with no consumer anywhere must eventually
  // trip the shared deadlock detector rather than spin forever.
  Device dev(test_config());
  LockedStack stack(make_device_queue(dev, 8));
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    for (unsigned lane = 0; lane < 16; ++lane) st.push_token(lane, lane);
    co_await stack.publish(w, st);
    for (std::uint32_t i = 0; i < kPublishDeadlockRounds + 8; ++i) {
      st.clear_produce();
      co_await stack.publish(w, st);
    }
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("queue full"), std::string::npos);
}

// ---- DistributedQueue ----

TEST(DistributedQueueTest, PartitionsCapacity) {
  Device dev(test_config(4, 2));
  DistributedQueue q(dev, 1000, 4);
  EXPECT_EQ(q.num_queues(), 4u);
  EXPECT_EQ(q.per_queue_capacity(), 250u);
  EXPECT_EQ(q.layout().capacity, 1000u);
}

TEST(DistributedQueueTest, RejectsBadQueueCounts) {
  Device dev(test_config());
  EXPECT_THROW((DistributedQueue{dev, 100, 0}), simt::SimError);
  EXPECT_THROW((DistributedQueue{dev, 100, 64}), simt::SimError);
}

TEST(DistributedQueueTest, PublishGoesToOwnCuQueue) {
  Device dev(test_config(4, 1));
  DistributedQueue q(dev, 1024, 4);
  // Each of 4 waves (one per CU) publishes 2 tokens.
  (void)dev.launch(4, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    st.push_token(0, w.cu_id() * 10);
    st.push_token(1, w.cu_id() * 10 + 1);
    co_await q.publish(w, st);
  });
  // Every sub-queue rear advanced by 2 and holds its own CU's tokens.
  const std::uint64_t per = q.per_queue_capacity();
  for (std::uint32_t cu = 0; cu < 4; ++cu) {
    EXPECT_EQ(dev.read_word(q.layout().slot_addr(cu * per)),
              slot_full_word(0, cu * 10));
    EXPECT_EQ(dev.read_word(q.layout().slot_addr(cu * per + 1)),
              slot_full_word(0, cu * 10 + 1));
  }
}

TEST(DistributedQueueTest, StealingFindsRemoteWork) {
  Device dev(test_config(4, 1));
  DistributedQueue q(dev, 1024, 4);
  const std::vector<std::uint64_t> tokens{42, 43};
  q.seed(dev, tokens);  // seeds sub-queue 0 only

  // A wave on CU 3 must steal within a few cycles.
  std::array<std::uint64_t, kWaveWidth> got{};
  LaneMask total_arrived = 0;
  (void)dev.launch(4, [&](Wave& w) -> Kernel<void> {
    if (w.cu_id() != 3) co_return;
    WaveQueueState st{};
    st.hungry = 0b11;
    for (int tries = 0; tries < 10 && st.hungry; ++tries) {
      co_await q.acquire_slots(w, st);
    }
    total_arrived = co_await q.check_arrival(w, st, got);
  });
  EXPECT_EQ(std::popcount(total_arrived), 2);
  EXPECT_EQ(got[0], 42u);
  EXPECT_EQ(got[1], 43u);
}

TEST(DistributedQueueTest, AllDoneSumsEveryRear) {
  Device dev(test_config(4, 1));
  DistributedQueue q(dev, 1024, 4);
  q.seed(dev, std::vector<std::uint64_t>{1, 2, 3});
  bool before = true, after = false;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    before = co_await q.all_done(w);
    co_await q.report_complete(w, 3);
    after = co_await q.all_done(w);
  });
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(DistributedQueueTest, SeedBeyondSubQueueThrows) {
  Device dev(test_config(4, 1));
  DistributedQueue q(dev, 16, 4);  // 4 slots per sub-queue
  const std::vector<std::uint64_t> many(5, 1);
  EXPECT_THROW(q.seed(dev, many), simt::SimError);
}

// ---- End-to-end: the PT driver and BFS run on the new schedulers ----

class ExtVariantE2E : public ::testing::TestWithParam<QueueVariant> {};

TEST_P(ExtVariantE2E, TreeConservationThroughPtDriver) {
  Device dev(test_config(4, 2));
  auto queue = make_scheduler(dev, GetParam(), 1 << 14);
  std::uint64_t next_id = 1, visits = 0;
  const std::vector<tasks::TaskSeed> seeds{{0, 0}};
  const auto run = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        ++visits;
        if ((token & 0xff) < 5) {
          for (int i = 0; i < 3; ++i) {
            ctx.spawn((next_id++ << 8) | ((token & 0xff) + 1), 0);
          }
        }
      });
  EXPECT_FALSE(run.aborted) << run.abort_reason;
  // Complete ternary tree of depth 5.
  EXPECT_EQ(visits, (std::uint64_t{243} * 3 - 1) / 2);
  EXPECT_EQ(run.stats.user[kTasksProcessed], visits);
}

TEST_P(ExtVariantE2E, BfsMatchesReference) {
  const graph::Graph g = graph::rodinia_random({.n_vertices = 2000, .seed = 17});
  const auto ref = graph::bfs_levels(g, 0);
  bfs::PtBfsOptions opt;
  opt.variant = GetParam();
  const bfs::BfsResult result = bfs::run_pt_bfs(test_config(), g, 0, opt);
  ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
  EXPECT_TRUE(bfs::matches_reference(result.levels, ref))
      << bfs::first_mismatch(result.levels, ref);
}

TEST_P(ExtVariantE2E, DeepGraphBfs) {
  // LIFO processing order stresses label correcting the hardest.
  const graph::Graph g = graph::road_network({.n_vertices = 1500, .seed = 23});
  const auto ref = graph::bfs_levels(g, 0);
  bfs::PtBfsOptions opt;
  opt.variant = GetParam();
  const bfs::BfsResult result = bfs::run_pt_bfs(test_config(), g, 0, opt);
  ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
  EXPECT_TRUE(bfs::matches_reference(result.levels, ref))
      << bfs::first_mismatch(result.levels, ref);
}

INSTANTIATE_TEST_SUITE_P(Ext, ExtVariantE2E,
                         ::testing::Values(QueueVariant::kStack,
                                           QueueVariant::kDistrib),
                         [](const auto& i) {
                           return i.param == QueueVariant::kStack
                                      ? std::string("Stack")
                                      : std::string("Distrib");
                         });

}  // namespace
}  // namespace scq
