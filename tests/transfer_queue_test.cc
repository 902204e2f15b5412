// Transfer-queue wrap-around tests (the cluster twin of ring_wrap_test):
// device-side producers push far more tokens than the sub-rings hold
// through the core's fetch-add enqueue while the host pops them with
// DeviceQueue::host_pop between step_until horizons — several full
// epochs of slot recycling, exercising reservation, parking under
// backpressure, flush, owner routing and FIFO host consumption.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/transfer.h"
#include "core/counters.h"
#include "sim/device.h"

namespace scq::cluster {
namespace {

using simt::Addr;
using simt::Device;
using simt::DeviceConfig;
using simt::Wave;

DeviceConfig test_config(std::uint32_t cus, std::uint32_t waves) {
  DeviceConfig cfg;
  cfg.name = "xfer";
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

// Device 0 of three: even vertices belong to device 1, odd ones to
// device 2, so a producer's batch splits over both sub-rings.
std::vector<std::uint32_t> alternating_owner(std::uint64_t vertices) {
  std::vector<std::uint32_t> owner(vertices);
  for (std::uint64_t v = 0; v < vertices; ++v) owner[v] = 1 + v % 2;
  return owner;
}

// Stages up to eight tokens per work cycle (one per lane, values
// base+0, base+1, ... in lane order, so each sub-ring's tickets follow
// value order) and publishes until the host raises `stop`. Production
// freezes while anything is parked — the same contract cluster kernels
// follow.
Kernel<void> producer(Wave& w, DeviceQueue& xfer, Addr stop,
                      std::uint64_t per_wave) {
  WaveQueueState st{};
  const std::uint64_t base = w.slot_id() * per_wave;
  std::uint64_t next = 0;
  for (;;) {
    if (co_await w.load(stop) != 0) break;
    if (!st.has_parked()) {
      for (unsigned lane = 0; lane < 8 && next < per_wave; ++lane) {
        st.push_token(lane, base + next++);
      }
    }
    co_await xfer.publish(w, st);
    co_await w.idle(40);
  }
}

// Publishes one token and exits.
Kernel<void> publish_one(Wave& w, DeviceQueue& xfer, std::uint64_t token) {
  WaveQueueState st{};
  st.push_token(0, token);
  co_await xfer.publish(w, st);
}

// Pops every sub-ring of `xfer` into popped[destination], FIFO.
void pop_all(Device& dev, TransferQueue& xfer,
             std::vector<std::vector<std::uint64_t>>& popped) {
  for (std::uint32_t k = 0; k < xfer.rings(); ++k) {
    while (const std::optional<std::uint64_t> t = xfer.host_pop(dev, k)) {
      popped[xfer.destination(k)].push_back(*t);
    }
  }
}

// Runs `waves` producer waves of `per_wave` tokens each through device
// 0's transfer queue of `capacity` slots per destination, popping on
// the host between horizons. Returns the popped tokens per destination
// device in pop (ticket) order.
std::vector<std::vector<std::uint64_t>> run_producers(
    std::uint32_t cus, std::uint32_t waves_per_cu, std::uint64_t capacity,
    std::uint64_t per_wave) {
  Device dev(test_config(cus, waves_per_cu));
  const std::uint32_t n_waves = cus * waves_per_cu;
  const std::uint64_t total = n_waves * per_wave;
  const std::vector<std::uint32_t> owner = alternating_owner(total);
  TransferQueue xfer(dev, 0, 3, capacity, owner);
  const Addr stop = dev.alloc(1).base;
  dev.write_word(stop, 0);

  dev.launch_begin(n_waves, [&](Wave& w) -> Kernel<void> {
    return producer(w, xfer, stop, per_wave);
  });

  std::vector<std::vector<std::uint64_t>> popped(3);
  const auto count = [&popped] { return popped[1].size() + popped[2].size(); };
  simt::Cycle horizon = 0;
  while (count() < total) {
    horizon += 1000;
    const simt::StepStatus status = dev.step_until(horizon);
    pop_all(dev, xfer, popped);
    // Drained or dead: the producers finished (or died) — any tokens
    // still in the rings are collected after the stop-flag drain below.
    if (status != simt::StepStatus::kRanToHorizon) break;
    if (horizon >= simt::Cycle{50'000'000}) {
      ADD_FAILURE() << "transfer drain livelocked";
      break;
    }
  }
  dev.write_word(stop, 1);
  while (dev.step_until(~simt::Cycle{0}) == simt::StepStatus::kRanToHorizon) {
  }
  pop_all(dev, xfer, popped);
  const simt::RunResult run = dev.launch_end();
  EXPECT_FALSE(run.aborted) << run.abort_reason;
  EXPECT_EQ(xfer.occupancy(dev), 0u);
  EXPECT_EQ(xfer.resident_tokens(dev), 0u);
  EXPECT_EQ(xfer.resident_tokens_scan(dev), 0u);
  EXPECT_EQ(run.stats.user[kXferTokens], total);
  EXPECT_EQ(run.stats.user[kTokensEnqueued], 0u);
  EXPECT_TRUE(popped[0].empty()) << "no ring leads back to the source";
  return popped;
}

TEST(TransferQueueTest, SingleWaveFifoAcrossManyEpochs) {
  // Capacity 2 per destination with batches of 4 each: every publish
  // overflows both sub-rings, so parking/backpressure is always active;
  // 100 tokens = 25 full epochs per sub-ring.
  const auto popped = run_producers(1, 1, 2, 100);
  for (const std::uint32_t dst : {1u, 2u}) {
    ASSERT_EQ(popped[dst].size(), 50u);
    for (std::uint64_t i = 0; i < popped[dst].size(); ++i) {
      EXPECT_EQ(popped[dst][i], 2 * i + dst - 1)
          << "host pops must preserve ticket order toward dev" << dst;
    }
  }
}

TEST(TransferQueueTest, MultiWaveExactlyOnceAcrossEpochs) {
  // 4 waves x 50 tokens through 4 slots per destination: 25 epochs,
  // interleaved producers. Delivery is exactly-once, to the owner, and
  // per-producer FIFO within each sub-ring.
  const std::uint64_t per_wave = 50;
  const auto popped = run_producers(2, 2, 4, per_wave);
  std::vector<std::uint64_t> all = popped[1];
  all.insert(all.end(), popped[2].begin(), popped[2].end());
  ASSERT_EQ(all.size(), 4 * per_wave);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "tokens must arrive exactly once";
  }
  for (const std::uint32_t dst : {1u, 2u}) {
    for (const std::uint64_t v : popped[dst]) {
      EXPECT_EQ(1 + v % 2, dst) << "token " << v << " reached the wrong owner";
    }
    // Each wave's values were staged in increasing order, so they hold
    // increasing tickets of each sub-ring and pop in increasing order.
    for (std::uint32_t wave = 0; wave < 4; ++wave) {
      std::vector<std::uint64_t> mine;
      for (const std::uint64_t v : popped[dst]) {
        if (v / per_wave == wave) mine.push_back(v);
      }
      EXPECT_TRUE(std::is_sorted(mine.begin(), mine.end()));
    }
  }
}

TEST(TransferQueueTest, RejectsOversizedTokensAndZeroCapacity) {
  WaveQueueState st;
  EXPECT_THROW(st.push_token(0, kMaxToken + 1), simt::SimError);
  st.push_token(0, kMaxToken);  // the largest representable payload is fine
  EXPECT_EQ(st.total_new(), 1u);

  Device dev(test_config(1, 1));
  const std::vector<std::uint32_t> owner = alternating_owner(4);
  EXPECT_THROW(TransferQueue(dev, 0, 3, 0, owner), simt::SimError);
  EXPECT_THROW(TransferQueue(dev, 0, 1, 4, owner), simt::SimError);
  EXPECT_THROW(TransferQueue(dev, 0, 0, 4, owner), simt::SimError);
  EXPECT_THROW(TransferQueue(dev, 3, 3, 4, owner), simt::SimError);

  // An empty sub-ring pops nothing.
  TransferQueue xfer(dev, 0, 3, 4, owner);
  EXPECT_FALSE(xfer.host_pop(dev, 0).has_value());
  EXPECT_EQ(xfer.destination(0), 1u);
  EXPECT_EQ(xfer.ring_to(2), 1u);
}

TEST(TransferQueueTest, RejectsTokensWithoutARemoteOwner) {
  // Vertex 0 belongs to the source device itself and vertex 9 is past
  // the owner table: neither has a sub-ring, and publishing either one
  // fails the kernel loudly instead of misrouting it.
  for (const std::uint64_t vertex : {0ull, 9ull}) {
    Device dev(test_config(1, 1));
    const std::vector<std::uint32_t> owner = {0, 1, 2, 1};
    TransferQueue xfer(dev, 0, 3, 4, owner);
    EXPECT_THROW(dev.launch(1,
                            [&](Wave& w) -> Kernel<void> {
                              return publish_one(w, xfer, vertex);
                            }),
                 simt::SimError)
        << "vertex " << vertex;
  }
}

}  // namespace
}  // namespace scq::cluster
