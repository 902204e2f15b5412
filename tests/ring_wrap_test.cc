// Wrap-around property tests: every scheduler variant is pushed through
// several full ring epochs at capacities far below the total token
// volume — including capacities smaller than the wave width and rings
// that start completely full — asserting that no token is lost or
// duplicated, that ring residency never exceeds capacity, and that
// termination detection stays exact while tokens are parked in flight.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/counters.h"
#include "core/ext_schedulers.h"
#include "core/queue.h"
#include "sim/device.h"
#include "sim/telemetry.h"
#include "tasks/task_engine.h"

namespace scq {
namespace {

using simt::Device;
using simt::DeviceConfig;
using simt::RunResult;

DeviceConfig test_config(std::uint32_t cus = 4, std::uint32_t waves = 2) {
  DeviceConfig cfg;
  cfg.name = "ring";
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

std::string variant_name(QueueVariant v) {
  switch (v) {
    case QueueVariant::kBase: return "BASE";
    case QueueVariant::kAn: return "AN";
    case QueueVariant::kRfan: return "RFAN";
    case QueueVariant::kStack: return "Stack";
    default: return "Distrib";
  }
}

// Asserts the windowed ring-residency series never exceeded capacity.
void expect_residency_bounded(const simt::Telemetry& telemetry,
                              std::uint64_t capacity) {
  const std::vector<simt::WindowSample> series =
      telemetry.windows().series(tel::kResidentTokens);
  ASSERT_FALSE(series.empty()) << "resident-tokens gauge must be sampled";
  for (const simt::WindowSample& sample : series) {
    ASSERT_LE(sample.value, capacity)
        << "ring residency exceeded capacity at the close of the window "
           "starting at cycle "
        << sample.start;
  }
}

class RingWrapTest
    : public ::testing::TestWithParam<std::tuple<QueueVariant, int>> {};

TEST_P(RingWrapTest, TreeWorkloadSurvivesManyEpochs) {
  const auto [variant, capacity] = GetParam();
  Device dev(test_config());
  simt::Telemetry telemetry(simt::Telemetry::Options{.window_cycles = 256});
  dev.attach_telemetry(&telemetry);
  auto queue = make_scheduler(dev, variant, capacity);

  // Complete ternary tree of depth 5: 364 tokens, far beyond every
  // tested capacity (>= 3 full ring epochs even at the largest).
  constexpr std::uint64_t kFanout = 3, kDepth = 5, kTotal = 364;
  std::map<std::uint64_t, int> visits;
  std::uint64_t next_id = 1;
  const std::vector<tasks::TaskSeed> seeds{{0, 0}};
  const RunResult result = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        visits[token] += 1;
        const std::uint64_t depth = token & 0xff;
        if (depth < kDepth) {
          for (std::uint64_t i = 0; i < kFanout; ++i) {
            ctx.spawn((next_id++ << 8) | (depth + 1), 0);
          }
        }
      });

  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(visits.size(), kTotal);
  for (const auto& [token, count] : visits) {
    EXPECT_EQ(count, 1) << "token " << token << " delivered " << count
                        << " times";
  }
  EXPECT_EQ(result.stats.user[kTasksProcessed], kTotal);
  EXPECT_EQ(queue->resident_tokens(dev), 0u) << "ring fully drained";
  if (variant != QueueVariant::kStack) {
    // Pin the incremental residency counter to the memory ground truth
    // (the stack leaves popped words in place, so the scan is
    // meaningless there).
    EXPECT_EQ(queue->resident_tokens_scan(dev), 0u);
  }
  expect_residency_bounded(telemetry, queue->layout().capacity);

  if (variant == QueueVariant::kBase || variant == QueueVariant::kAn ||
      variant == QueueVariant::kRfan) {
    // The shared ring reserved one ticket per token: Rear / capacity
    // full epochs were traversed.
    EXPECT_EQ(dev.read_word(queue->layout().rear_addr()), kTotal);
    EXPECT_GE(kTotal / queue->layout().capacity, 3u);
  }
  if (static_cast<std::uint64_t>(capacity) <= 8) {
    EXPECT_GT(result.stats.user[kPublishStalls], 0u)
        << "a ring this small must exercise publish backpressure";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingWrapTest,
    ::testing::Combine(::testing::Values(QueueVariant::kBase, QueueVariant::kAn,
                                         QueueVariant::kRfan,
                                         QueueVariant::kStack,
                                         QueueVariant::kDistrib),
                       // 8 < wave width; 48 < one wave's worth of lanes.
                       ::testing::Values(8, 48)),
    [](const auto& i) {
      return variant_name(std::get<0>(i.param)) + "_cap" +
             std::to_string(std::get<1>(i.param));
    });

class RingWrapVariantTest : public ::testing::TestWithParam<QueueVariant> {};

TEST_P(RingWrapVariantTest, SeedFillingTheRingStillTerminates) {
  // Capacity-vs-seed interplay: the ring starts completely full (for the
  // distributed scheduler, sub-queue 0 starts full), so the very first
  // generation of children must already ride the backpressure path.
  const QueueVariant variant = GetParam();
  Device dev(test_config());
  auto queue = make_scheduler(dev, variant, 16);

  std::uint64_t n_seeds = queue->layout().capacity;
  if (auto* d = dynamic_cast<DistributedQueue*>(queue.get())) {
    n_seeds = d->per_queue_capacity();
  }
  std::vector<tasks::TaskSeed> seeds;
  for (std::uint64_t i = 0; i < n_seeds; ++i) {
    seeds.push_back({i << 8, 0});  // id << 8 | depth
  }

  constexpr std::uint64_t kDepth = 3;
  std::map<std::uint64_t, int> visits;
  std::uint64_t next_id = n_seeds;
  const RunResult result = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        visits[token] += 1;
        const std::uint64_t depth = token & 0xff;
        if (depth < kDepth) {
          for (int i = 0; i < 2; ++i) ctx.spawn((next_id++ << 8) | (depth + 1), 0);
        }
      });

  // Each seed heads a complete binary tree of depth 3: 15 tokens.
  const std::uint64_t expected = n_seeds * 15;
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(visits.size(), expected);
  for (const auto& [token, count] : visits) {
    EXPECT_EQ(count, 1) << "token " << token;
  }
  EXPECT_EQ(result.stats.user[kTasksProcessed], expected);
  EXPECT_EQ(queue->resident_tokens(dev), 0u);
  if (variant != QueueVariant::kStack) {
    EXPECT_EQ(queue->resident_tokens_scan(dev), 0u);
  }
}

TEST_P(RingWrapVariantTest, SequentialChainWrapsWithoutLossOrDup) {
  // A single dependency chain through a capacity-8 ring: almost no
  // parallelism, >25 sequential wrap-arounds, every link seen once and
  // in spite of 64-lane waves monitoring slots many epochs ahead.
  const QueueVariant variant = GetParam();
  Device dev(test_config());
  auto queue = make_scheduler(dev, variant, 8);

  constexpr std::uint64_t kChain = 200;
  std::vector<int> visits(kChain, 0);
  const std::vector<tasks::TaskSeed> seeds{{0, 0}};
  const RunResult result = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        ASSERT_LT(token, kChain);
        visits[token] += 1;
        if (token + 1 < kChain) ctx.spawn(token + 1, 0);
      });

  EXPECT_FALSE(result.aborted) << result.abort_reason;
  for (std::uint64_t i = 0; i < kChain; ++i) {
    EXPECT_EQ(visits[i], 1) << "link " << i;
  }
  EXPECT_EQ(result.stats.user[kTasksProcessed], kChain);
  EXPECT_EQ(queue->resident_tokens(dev), 0u);
  if (variant != QueueVariant::kStack) {
    EXPECT_EQ(queue->resident_tokens_scan(dev), 0u)
        << ">25 wrap epochs must recycle every slot back to a sentinel";
  }
}

TEST(RingWrapTelemetryTest, PublishStallHistogramReachesJsonExport) {
  // Backpressure is observable: a run through a tiny ring must record
  // non-zero publish-stall samples, and the histogram (plus the
  // resident-tokens series) must appear in the JSON artifact.
  Device dev(test_config());
  simt::Telemetry telemetry(simt::Telemetry::Options{.window_cycles = 256});
  dev.attach_telemetry(&telemetry);
  auto queue = make_scheduler(dev, QueueVariant::kRfan, 8);

  std::uint64_t next_id = 1;
  const std::vector<tasks::TaskSeed> seeds{{0, 0}};
  const RunResult result = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        if ((token & 0xff) < 5) {
          for (int i = 0; i < 3; ++i) {
            ctx.spawn((next_id++ << 8) | ((token & 0xff) + 1), 0);
          }
        }
      });
  ASSERT_FALSE(result.aborted) << result.abort_reason;

  const simt::Histogram* stall = telemetry.find_histogram("queue.publish_stall");
  ASSERT_NE(stall, nullptr);
  EXPECT_GT(stall->count(), 0u)
      << "stalled publishes must land in the stall histogram";
  const std::string json = telemetry.to_json();
  EXPECT_NE(json.find("queue.publish_stall"), std::string::npos);
  EXPECT_NE(json.find(tel::kResidentTokens), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, RingWrapVariantTest,
                         ::testing::Values(QueueVariant::kBase,
                                           QueueVariant::kAn,
                                           QueueVariant::kRfan,
                                           QueueVariant::kStack,
                                           QueueVariant::kDistrib),
                         [](const auto& i) { return variant_name(i.param); });

}  // namespace
}  // namespace scq
