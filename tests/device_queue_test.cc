// Tests for the three device-side queue variants (BASE / AN / RF/AN):
// slot assignment, epoch-tagged sentinel discipline, circular slot
// reuse, enqueue backpressure (parking instead of queue-full aborts),
// retry accounting, and token-conservation invariants under the
// generic persistent-thread driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <vector>

#include "core/counters.h"
#include "core/queue.h"
#include "sim/device.h"
#include "tasks/task_engine.h"

namespace scq {
namespace {

using simt::Device;
using simt::DeviceConfig;
using simt::Kernel;
using simt::RunResult;
using simt::Wave;

DeviceConfig test_config(std::uint32_t cus = 4, std::uint32_t waves = 2) {
  DeviceConfig cfg;
  cfg.name = "qtest";
  cfg.num_cus = cus;
  cfg.waves_per_cu = waves;
  cfg.clock_ghz = 1.0;
  cfg.mem_latency = 100;
  cfg.line_extra = 4;
  cfg.atomic_latency = 40;
  cfg.atomic_service = 4;
  cfg.lds_latency = 8;
  cfg.issue_cost = 2;
  cfg.kernel_launch_overhead = 500;
  return cfg;
}

TEST(QueueLayoutTest, MakeInitializesSentinels) {
  Device dev(test_config());
  const QueueLayout q = make_device_queue(dev, 16);
  EXPECT_EQ(q.capacity, 16u);
  EXPECT_EQ(dev.read_word(q.front_addr()), 0u);
  EXPECT_EQ(dev.read_word(q.rear_addr()), 0u);
  EXPECT_EQ(dev.read_word(q.completed_addr()), 0u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(dev.read_word(q.slot_addr(i)), slot_empty_word(0));
  }
}

TEST(QueueLayoutTest, SlotWordEncodingRoundTrips) {
  // The epoch-tagged sentinel encoding: empty words carry the exact
  // epoch, full words an epoch tag plus the 48-bit payload.
  EXPECT_TRUE(slot_is_empty(slot_empty_word(0)));
  EXPECT_TRUE(slot_is_empty(slot_empty_word(12345)));
  EXPECT_FALSE(slot_is_empty(slot_full_word(0, 0)));
  EXPECT_FALSE(slot_is_empty(slot_full_word(7, kMaxToken)));
  EXPECT_EQ(slot_payload(slot_full_word(3, 42)), 42u);
  EXPECT_EQ(slot_payload(slot_full_word(9, kMaxToken)), kMaxToken);
  EXPECT_EQ(slot_epoch_tag(slot_full_word(3, 42)), 3u);
  // The tag wraps mod 2^15; adjacent epochs never collide.
  EXPECT_EQ(slot_epoch_tag(slot_full_word((1u << 15) + 5, 42)), 5u);
  EXPECT_NE(slot_epoch_tag(slot_full_word(4, 42)),
            slot_epoch_tag(slot_full_word(5, 42)));
}

TEST(QueueLayoutTest, SeedWritesTokensAndRear) {
  Device dev(test_config());
  const QueueLayout q = make_device_queue(dev, 8);
  const std::vector<std::uint64_t> tokens{10, 11, 12};
  seed_device_queue(dev, q, tokens);
  EXPECT_EQ(dev.read_word(q.rear_addr()), 3u);
  EXPECT_EQ(dev.read_word(q.slot_addr(0)), slot_full_word(0, 10));
  EXPECT_EQ(dev.read_word(q.slot_addr(2)), slot_full_word(0, 12));
  EXPECT_EQ(dev.read_word(q.slot_addr(3)), slot_empty_word(0));
}

TEST(QueueLayoutTest, SeedResetsControlBlockOnReuse) {
  // Re-seeding a used layout must not leak Front/Completed (or stale
  // ring contents) into the next run's termination detection.
  Device dev(test_config());
  const QueueLayout q = make_device_queue(dev, 8);
  dev.write_word(q.front_addr(), 5);
  dev.write_word(q.rear_addr(), 9);
  dev.write_word(q.completed_addr(), 7);
  for (std::uint64_t i = 0; i < 8; ++i) {
    dev.write_word(q.slot_addr(i), slot_full_word(1, 99));
  }
  seed_device_queue(dev, q, std::vector<std::uint64_t>{4, 5});
  EXPECT_EQ(dev.read_word(q.front_addr()), 0u);
  EXPECT_EQ(dev.read_word(q.rear_addr()), 2u);
  EXPECT_EQ(dev.read_word(q.completed_addr()), 0u);
  EXPECT_EQ(dev.read_word(q.slot_addr(0)), slot_full_word(0, 4));
  EXPECT_EQ(dev.read_word(q.slot_addr(1)), slot_full_word(0, 5));
  for (std::uint64_t i = 2; i < 8; ++i) {
    EXPECT_EQ(dev.read_word(q.slot_addr(i)), slot_empty_word(0));
  }
}

TEST(QueueLayoutTest, SeedRejectsOversizeBatchAndToken) {
  Device dev(test_config());
  const QueueLayout q = make_device_queue(dev, 4);
  EXPECT_THROW(seed_device_queue(dev, q, std::vector<std::uint64_t>(5, 1)),
               simt::SimError);
  EXPECT_THROW(
      seed_device_queue(dev, q, std::vector<std::uint64_t>{kMaxToken + 1}),
      simt::SimError);
}

TEST(QueueVariantNames, ToString) {
  EXPECT_EQ(to_string(QueueVariant::kBase), "BASE");
  EXPECT_EQ(to_string(QueueVariant::kAn), "AN");
  EXPECT_EQ(to_string(QueueVariant::kRfan), "RF/AN");
}

// ---- Single-wave micro tests per variant ----

class VariantTest : public ::testing::TestWithParam<QueueVariant> {};

TEST_P(VariantTest, SixtyFourHungryLanesConsumeSixtyFourTokens) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 128);
  auto queue = make_queue_variant(GetParam(), layout);
  std::vector<std::uint64_t> tokens(kWaveWidth);
  std::iota(tokens.begin(), tokens.end(), 100);
  seed_device_queue(dev, layout, tokens);

  std::array<std::uint64_t, kWaveWidth> got{};
  LaneMask got_mask = 0;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    std::array<std::uint64_t, kWaveWidth> recv{};
    // Keep asking until every lane has a token (BASE claims at most one
    // per work cycle and backs off after failures).
    for (int cycle = 0; cycle < 2000 && got_mask != simt::kAllLanes; ++cycle) {
      st.hungry = ~(st.assigned | got_mask);
      co_await queue->acquire_slots(w, st);
      const LaneMask arrived = co_await queue->check_arrival(w, st, recv);
      for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
        if ((arrived >> lane) & 1u) {
          got[lane] = recv[lane];
          got_mask |= LaneMask{1} << lane;
        }
      }
    }
  });

  EXPECT_EQ(got_mask, simt::kAllLanes);
  std::vector<std::uint64_t> sorted(got.begin(), got.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, tokens) << "each token delivered exactly once";
  // Every consumed slot must have its sentinel restored — recycled for
  // the *next* ring epoch, so the former producer can never double-fill.
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    EXPECT_EQ(dev.read_word(layout.slot_addr(i)), slot_empty_word(1));
  }
}

TEST_P(VariantTest, PublishWritesTokensAndAdvancesRear) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 1024);
  auto queue = make_queue_variant(GetParam(), layout);

  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    // Lane i publishes i % 3 tokens.
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (unsigned k = 0; k < lane % 3; ++k) {
        st.push_token(lane, lane * 10 + k);
      }
    }
    co_await queue->publish(w, st);
  });

  std::uint64_t expected_total = 0;
  for (unsigned lane = 0; lane < kWaveWidth; ++lane) expected_total += lane % 3;
  EXPECT_EQ(dev.read_word(layout.rear_addr()), expected_total);
  EXPECT_EQ(result.stats.user[kTokensEnqueued], expected_total);

  // All published tokens present (order depends on variant), no sentinel
  // left inside [0, rear), none clobbered beyond. First epoch: every
  // full word carries tag 0.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < expected_total; ++i) {
    const std::uint64_t v = dev.read_word(layout.slot_addr(i));
    ASSERT_FALSE(slot_is_empty(v)) << "slot " << i;
    EXPECT_EQ(slot_epoch_tag(v), 0u);
    seen.push_back(slot_payload(v));
  }
  EXPECT_EQ(dev.read_word(layout.slot_addr(expected_total)), slot_empty_word(0));
  std::vector<std::uint64_t> expected;
  for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
    for (unsigned k = 0; k < lane % 3; ++k) expected.push_back(lane * 10 + k);
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST_P(VariantTest, QueueFullParksInsteadOfAborting) {
  // The former abort site: 64 tokens into a capacity-8 ring with no
  // consumer. The ring accepts what fits and parks the rest; nothing
  // aborts and no token is lost.
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 8);
  auto queue = make_queue_variant(GetParam(), layout);

  WaveQueueState st{};
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    st.clear_produce();
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) st.push_token(lane, lane);
    co_await queue->publish(w, st);  // 64 tokens into capacity 8
  });
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  // All 64 tickets are reserved (termination stays open for parked
  // tokens), exactly capacity tokens are resident, the rest wait in the
  // wave's parked buffer.
  EXPECT_EQ(dev.read_word(layout.rear_addr()), 64u);
  EXPECT_EQ(queue->resident_tokens(dev), 8u);
  EXPECT_EQ(queue->resident_tokens_scan(dev), 8u)
      << "incremental residency accounting must match the memory contents";
  EXPECT_EQ(result.stats.user[kTokensEnqueued], 8u);
  EXPECT_EQ(st.n_parked, 64u - 8u);
}

TEST_P(VariantTest, ParkedTokensDrainThroughConsumersAcrossEpochs) {
  // Full producer/consumer round trip through a ring 8x smaller than
  // the burst: publish 64, then alternate consume/flush until every
  // token has been delivered exactly once. Exercises 8 ring epochs.
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 8);
  auto queue = make_queue_variant(GetParam(), layout);

  std::vector<std::uint64_t> got;
  bool drained = false;
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      st.push_token(lane, 100 + lane);
    }
    co_await queue->publish(w, st);

    std::array<std::uint64_t, kWaveWidth> recv{};
    for (int cycle = 0; cycle < 4000 && got.size() < kWaveWidth; ++cycle) {
      st.hungry = ~st.assigned;
      co_await queue->acquire_slots(w, st);
      const LaneMask arrived = co_await queue->check_arrival(w, st, recv);
      for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
        if ((arrived >> lane) & 1u) got.push_back(recv[lane]);
      }
      st.clear_produce();
      co_await queue->publish(w, st);  // retries parked leftovers
      co_await queue->report_complete(
          w, static_cast<std::uint32_t>(std::popcount(arrived)));
    }
    drained = !st.has_parked();
  });

  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_TRUE(drained) << "publish retries must eventually land every token";
  ASSERT_EQ(got.size(), kWaveWidth);
  std::sort(got.begin(), got.end());
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    EXPECT_EQ(got[i], 100 + i) << "token lost or duplicated at " << i;
  }
  EXPECT_EQ(dev.read_word(layout.rear_addr()), 64u);
  EXPECT_EQ(dev.read_word(layout.completed_addr()), 64u);
  EXPECT_EQ(queue->resident_tokens(dev), 0u);
  EXPECT_EQ(queue->resident_tokens_scan(dev), 0u)
      << "a drained ring must scan clean after 8 epochs of slot recycling";
  EXPECT_GT(result.stats.user[kPublishStalls], 0u)
      << "a burst 8x the ring must register publish backpressure";
}

TEST_P(VariantTest, PublishDeadlockAbortsViaDetector) {
  // With no consumer anywhere, a parked token can never land: after
  // kPublishDeadlockRounds fully-stalled retries with every progress
  // counter frozen, the detector (the only remaining queue-full abort
  // site) must fire.
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 8);
  auto queue = make_queue_variant(GetParam(), layout);

  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.clear_produce();
    for (unsigned lane = 0; lane < 16; ++lane) st.push_token(lane, lane);
    co_await queue->publish(w, st);  // 8 land, 8 park forever
    for (std::uint32_t i = 0; i < kPublishDeadlockRounds + 8; ++i) {
      st.clear_produce();
      co_await queue->publish(w, st);  // abort_kernel never resumes
    }
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("queue full"), std::string::npos);
}

TEST_P(VariantTest, ReportCompleteAccumulates) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 8);
  auto queue = make_queue_variant(GetParam(), layout);
  (void)dev.launch(2, [&](Wave& w) -> Kernel<void> {
    co_await queue->report_complete(w, 5);
    co_await queue->report_complete(w, 0);  // no-op
    co_await queue->report_complete(w, 2);
  });
  EXPECT_EQ(dev.read_word(layout.completed_addr()), 14u);
}

TEST_P(VariantTest, AllDoneSnapshot) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 8);
  auto queue = make_queue_variant(GetParam(), layout);
  seed_device_queue(dev, layout, std::vector<std::uint64_t>{1, 2});
  bool before = true, after = false;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    before = co_await queue->all_done(w);
    co_await queue->report_complete(w, 2);
    after = co_await queue->all_done(w);
  });
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantTest,
                         ::testing::Values(QueueVariant::kBase, QueueVariant::kAn,
                                           QueueVariant::kRfan),
                         [](const auto& i) {
                           switch (i.param) {
                             case QueueVariant::kBase:
                               return "BASE";
                             case QueueVariant::kAn:
                               return "AN";
                             default:
                               return "RFAN";
                           }
                         });

// ---- Variant-specific behaviours ----

TEST(RfanQueueTest, HungryLanesOvershootAndDataArrivesLater) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 64);
  RfanQueue queue(layout);
  seed_device_queue(dev, layout, std::vector<std::uint64_t>{7, 8});

  LaneMask first_arrival = 0, second_arrival = 0;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    std::array<std::uint64_t, kWaveWidth> recv{};
    st.hungry = 0b1111;  // four hungry lanes, two tokens
    co_await queue.acquire_slots(w, st);
    EXPECT_EQ(st.assigned, 0b1111u);  // RF/AN assigns unconditionally
    first_arrival = co_await queue.check_arrival(w, st, recv);
    // Now publish two more tokens; the waiting monitors must see them.
    st.clear_produce();
    st.push_token(0, 9);
    st.push_token(0, 10);
    co_await queue.publish(w, st);
    second_arrival = co_await queue.check_arrival(w, st, recv);
  });
  EXPECT_EQ(first_arrival, 0b0011u);   // slots 0,1 had data
  EXPECT_EQ(second_arrival, 0b1100u);  // late data hit the waiting monitors
  // Front advanced once by 4: retry-free.
  EXPECT_EQ(dev.read_word(layout.front_addr()), 4u);
}

TEST(RfanQueueTest, NoCasEverIssued) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 256);
  RfanQueue queue(layout);
  std::vector<tasks::TaskSeed> seeds(64);
  for (std::uint64_t i = 0; i < seeds.size(); ++i) seeds[i] = {i, 0};

  const RunResult result =
      tasks::run_host_tasks(dev, queue, seeds, [](tasks::TaskContext&) {});
  EXPECT_EQ(result.stats.cas_attempts, 0u) << "retry-free property violated";
  EXPECT_FALSE(result.aborted);
}

TEST(AnQueueTest, EmptyQueueLeavesLanesHungryAndCountsRetry) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 64);
  AnQueue queue(layout);

  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.hungry = 0b111;
    co_await queue.acquire_slots(w, st);
    EXPECT_EQ(st.hungry, 0b111u);
    EXPECT_EQ(st.assigned, 0u);
  });
  EXPECT_EQ(result.stats.user[kEmptyRetries], 3u);
  EXPECT_EQ(dev.read_word(layout.front_addr()), 0u) << "empty dequeue must not move Front";
}

TEST(AnQueueTest, PartialAvailabilityServesSubsetInLaneOrder) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 64);
  AnQueue queue(layout);
  seed_device_queue(dev, layout, std::vector<std::uint64_t>{40, 41});

  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.hungry = 0b10110;  // lanes 1, 2, 4 hungry; only 2 tokens
    co_await queue.acquire_slots(w, st);
    EXPECT_EQ(st.assigned, 0b00110u);  // first two hungry lanes served
    EXPECT_EQ(st.hungry, 0b10000u);
    EXPECT_EQ(st.slot[1], 0u);
    EXPECT_EQ(st.slot[2], 1u);
  });
  EXPECT_EQ(dev.read_word(layout.front_addr()), 2u);
}

TEST(BaseQueueTest, LockStepCasAttemptHasOneWinner) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 256);
  BaseQueue queue(layout);
  std::vector<std::uint64_t> tokens(kWaveWidth);
  std::iota(tokens.begin(), tokens.end(), 0);
  seed_device_queue(dev, layout, tokens);

  std::array<std::uint64_t, kWaveWidth> slots{};
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.hungry = simt::kAllLanes;
    co_await queue.acquire_slots(w, st);
    // All 64 CAS loops eventually claim, but they serialize against one
    // another at the atomic unit and absorb failed attempts on the way
    // (the Fig. 1 pathology).
    EXPECT_EQ(st.assigned, simt::kAllLanes);
    slots = st.slot;
  });
  std::sort(slots.begin(), slots.end());
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    EXPECT_EQ(slots[i], i) << "claims must be distinct and contiguous";
  }
  EXPECT_GE(result.stats.cas_attempts, 64u);
  EXPECT_GT(result.stats.cas_failures, 64u)
      << "lock-step retry storm must show up as folded CAS failures";
}

TEST(BaseQueueTest, FailedLanesBackOffBeforeRetrying) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 256);
  BaseQueue queue(layout);
  std::vector<std::uint64_t> tokens(kWaveWidth);
  std::iota(tokens.begin(), tokens.end(), 0);
  seed_device_queue(dev, layout, tokens);

  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.hungry = simt::kAllLanes;
    co_await queue.acquire_slots(w, st);  // 63 losers back off
    const auto& before = w.stats();
    const std::uint64_t attempts_before = before.cas_attempts;
    co_await queue.acquire_slots(w, st);  // most lanes still waiting
    EXPECT_LT(w.stats().cas_attempts - attempts_before, 32u)
        << "backoff must keep most failed lanes out of the next attempt";
  });
}

TEST(BaseQueueTest, EmptyQueueCountsRetriesPerLane) {
  Device dev(test_config());
  const QueueLayout layout = make_device_queue(dev, 64);
  BaseQueue queue(layout);
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    WaveQueueState st{};
    st.hungry = simt::kAllLanes;
    co_await queue.acquire_slots(w, st);
    EXPECT_EQ(st.assigned, 0u);
  });
  EXPECT_EQ(result.stats.user[kEmptyRetries], 64u);
  EXPECT_EQ(result.stats.cas_attempts, 0u) << "no CAS without visible work";
}

// ---- Integration: token conservation through the PT driver ----

struct TreeParams {
  std::uint64_t fanout;
  std::uint64_t depth;
  [[nodiscard]] std::uint64_t expected_tasks() const {
    // Nodes of a complete fanout-ary tree of given depth (root = depth 0).
    std::uint64_t total = 0, level = 1;
    for (std::uint64_t d = 0; d <= depth; ++d) {
      total += level;
      level *= fanout;
    }
    return total;
  }
};

class TreeConservation
    : public ::testing::TestWithParam<std::tuple<QueueVariant, int, int>> {};

TEST_P(TreeConservation, EveryTaskProcessedExactlyOnce) {
  const auto [variant, fanout, depth] = GetParam();
  const TreeParams tree{static_cast<std::uint64_t>(fanout),
                        static_cast<std::uint64_t>(depth)};

  Device dev(test_config());
  const QueueLayout layout =
      make_device_queue(dev, tree.expected_tasks() + 4 * kWaveWidth * 8);
  auto queue = make_queue_variant(variant, layout);

  // Token encodes its depth in the low bits; host map counts visits.
  std::map<std::uint64_t, int> visits;
  std::uint64_t next_id = 1;
  const std::vector<tasks::TaskSeed> seeds{{0, 0}};  // root: id 0, depth 0

  const RunResult result = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        visits[token] += 1;
        const std::uint64_t token_depth = token & 0xff;
        if (token_depth < tree.depth) {
          for (std::uint64_t i = 0; i < tree.fanout; ++i) {
            ctx.spawn((next_id++ << 8) | (token_depth + 1), 0);
          }
        }
      });

  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(visits.size(), tree.expected_tasks());
  for (const auto& [token, count] : visits) {
    EXPECT_EQ(count, 1) << "token " << token << " processed " << count << " times";
  }
  EXPECT_EQ(result.stats.user[kTasksProcessed], tree.expected_tasks());
  EXPECT_EQ(dev.read_word(layout.rear_addr()), tree.expected_tasks());
  EXPECT_EQ(dev.read_word(layout.completed_addr()), tree.expected_tasks());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeConservation,
    ::testing::Combine(::testing::Values(QueueVariant::kBase, QueueVariant::kAn,
                                         QueueVariant::kRfan),
                       ::testing::Values(1, 3, 8),  // fanout
                       ::testing::Values(2, 5)),    // depth
    [](const auto& i) {
      std::string name;
      switch (std::get<0>(i.param)) {
        case QueueVariant::kBase: name = "BASE"; break;
        case QueueVariant::kAn: name = "AN"; break;
        default: name = "RFAN"; break;
      }
      return name + "_f" + std::to_string(std::get<1>(i.param)) + "_d" +
             std::to_string(std::get<2>(i.param));
    });

TEST(PtDriverTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Device dev(test_config());
    const QueueLayout layout = make_device_queue(dev, 4096);
    RfanQueue queue(layout);
    const std::vector<tasks::TaskSeed> seeds{{0, 0}};
    std::uint64_t next = 1;
    return tasks::run_host_tasks(
        dev, queue, seeds, [&](tasks::TaskContext& ctx) {
          const std::uint64_t token = ctx.payload();
          if ((token & 0xff) < 4) {
            for (int i = 0; i < 3; ++i) {
              ctx.spawn((next++ << 8) | ((token & 0xff) + 1), 0);
            }
          }
        });
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stats.afa_ops, b.stats.afa_ops);
  EXPECT_EQ(a.stats.user[kWorkCycles], b.stats.user[kWorkCycles]);
}

TEST(PtDriverTest, RfanUsesFewerAtomicsThanBase) {
  auto run = [](QueueVariant variant) {
    Device dev(test_config(8, 4));
    const QueueLayout layout = make_device_queue(dev, 1 << 16);
    auto queue = make_queue_variant(variant, layout);
    const std::vector<tasks::TaskSeed> seeds{{0, 0}};
    std::uint64_t next = 1;
    return tasks::run_host_tasks(
        dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
          const std::uint64_t token = ctx.payload();
          if ((token & 0xff) < 6) {
            for (int i = 0; i < 4; ++i) {
              ctx.spawn((next++ << 8) | ((token & 0xff) + 1), 0);
            }
          }
        });
  };
  const RunResult base = run(QueueVariant::kBase);
  const RunResult rfan = run(QueueVariant::kRfan);
  EXPECT_GT(base.stats.total_global_atomics(),
            4 * rfan.stats.total_global_atomics())
      << "arbitrary-n + retry-free should collapse atomic traffic";
  EXPECT_LT(rfan.cycles, base.cycles);
}

}  // namespace
}  // namespace scq
