// Tests for the host-side queues: single-threaded semantics, the
// claim/poll monitor API, wraparound, and real-thread stress invariants
// (token-sum conservation, exactly-once delivery).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/host_queue.h"

namespace scq {
namespace {

TEST(HostBrokerQueueTest, CapacityRoundsUpToPowerOfTwo) {
  HostBrokerQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  HostBrokerQueue<int> tiny(1);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(HostBrokerQueueTest, FifoSingleThread) {
  HostBrokerQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.enqueue(i));
  EXPECT_EQ(q.size_approx(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size_approx(), 0u);
}

TEST(HostBrokerQueueTest, BatchEnqueueDequeue) {
  HostBrokerQueue<int> q(16);
  const std::vector<int> in{1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(q.enqueue_batch(in));
  std::vector<int> out(7);
  ASSERT_TRUE(q.dequeue_batch(out));
  EXPECT_EQ(out, in);
}

TEST(HostBrokerQueueTest, WraparoundManyTimes) {
  HostBrokerQueue<int> q(4);  // tiny ring, forced wraps
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(q.enqueue(round));
    ASSERT_TRUE(q.enqueue(round + 1000));
    EXPECT_EQ(q.dequeue().value(), round);
    EXPECT_EQ(q.dequeue().value(), round + 1000);
  }
}

TEST(HostBrokerQueueTest, TryDequeueEmptyReturnsNothing) {
  HostBrokerQueue<int> q(8);
  EXPECT_FALSE(q.try_dequeue().has_value());
  ASSERT_TRUE(q.enqueue(42));
  EXPECT_EQ(q.try_dequeue().value(), 42);
  EXPECT_FALSE(q.try_dequeue().has_value());
}

TEST(HostBrokerQueueTest, TryEnqueueFullReturnsFalse) {
  HostBrokerQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_enqueue(i));
  EXPECT_FALSE(q.try_enqueue(99));
  EXPECT_EQ(q.try_dequeue().value(), 0);
  EXPECT_TRUE(q.try_enqueue(99));
}

TEST(HostBrokerQueueTest, ClaimPollMonitorsArrival) {
  HostBrokerQueue<int> q(16);
  // Claim before any data exists: the retry-free "monitor a unique slot"
  // dequeue. Poll finds nothing, then everything after data arrives.
  auto ticket = q.claim_slots(3);
  std::vector<int> out(3);
  EXPECT_EQ(q.poll(ticket, out), 0u);
  ASSERT_TRUE(q.enqueue(7));
  EXPECT_EQ(q.poll(ticket, out), 1u);
  EXPECT_EQ(out[0], 7);
  const std::vector<int> more{8, 9};
  ASSERT_TRUE(q.enqueue_batch(more));
  EXPECT_EQ(q.poll(ticket, std::span<int>(out).subspan(1)), 2u);
  EXPECT_TRUE(ticket.done());
  EXPECT_EQ(out[1], 8);
  EXPECT_EQ(out[2], 9);
}

// Every queue step reaches the op history and the task trace once per
// ticket, as a host step: actor kHostActor, slot t % capacity and epoch
// t / capacity in the history (cycle 0: the host has no clock), and
// steady-clock stamps that never run backwards in the trace.
TEST(HostBrokerQueueTest, HistoryAndTaskTraceRecordEveryStepOnce) {
  HostBrokerQueue<std::uint64_t> q(8);
  simt::OpHistory history;
  simt::TaskTrace trace;
  q.attach_history(&history);
  q.attach_task_trace(&trace);
  const std::vector<std::uint64_t> items = {10, 11, 12};
  ASSERT_TRUE(q.enqueue_batch(items));
  std::vector<std::uint64_t> out(2);
  ASSERT_TRUE(q.dequeue_batch(out));
  auto ticket = q.claim_slots(1);
  std::uint64_t one = 0;
  ASSERT_EQ(q.poll(ticket, std::span<std::uint64_t>(&one, 1)), 1u);
  ASSERT_TRUE(q.try_enqueue(13));
  ASSERT_EQ(q.try_dequeue(), std::optional<std::uint64_t>(13));

  using simt::QueueOp;
  using simt::TaskPhase;
  struct Step {
    QueueOp op;
    TaskPhase phase;
    std::uint64_t ticket;
    std::uint64_t payload;
  };
  const std::vector<Step> want = {
      {QueueOp::kEnqueueReserve, TaskPhase::kReserve, 0, 10},
      {QueueOp::kEnqueueReserve, TaskPhase::kReserve, 1, 11},
      {QueueOp::kEnqueueReserve, TaskPhase::kReserve, 2, 12},
      {QueueOp::kEnqueueWrite, TaskPhase::kPayloadWrite, 0, 10},
      {QueueOp::kEnqueueWrite, TaskPhase::kPayloadWrite, 1, 11},
      {QueueOp::kEnqueueWrite, TaskPhase::kPayloadWrite, 2, 12},
      {QueueOp::kDequeueClaim, TaskPhase::kClaim, 0, 0},
      {QueueOp::kDequeueClaim, TaskPhase::kClaim, 1, 0},
      {QueueOp::kDequeueDeliver, TaskPhase::kArrival, 0, 10},
      {QueueOp::kDequeueDeliver, TaskPhase::kArrival, 1, 11},
      {QueueOp::kDequeueClaim, TaskPhase::kClaim, 2, 0},
      {QueueOp::kDequeueDeliver, TaskPhase::kArrival, 2, 12},
      {QueueOp::kEnqueueReserve, TaskPhase::kReserve, 3, 13},
      {QueueOp::kEnqueueWrite, TaskPhase::kPayloadWrite, 3, 13},
      {QueueOp::kDequeueClaim, TaskPhase::kClaim, 3, 0},
      {QueueOp::kDequeueDeliver, TaskPhase::kArrival, 3, 13},
  };
  const std::vector<simt::OpRecord> records = history.snapshot();
  const std::vector<simt::TaskEvent> events = trace.snapshot();
  ASSERT_EQ(records.size(), want.size());
  ASSERT_EQ(events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(records[i].op, want[i].op);
    EXPECT_EQ(records[i].actor, simt::kHostActor);
    EXPECT_EQ(records[i].ticket, want[i].ticket);
    EXPECT_EQ(records[i].slot, want[i].ticket % 8);
    EXPECT_EQ(records[i].epoch, want[i].ticket / 8);
    EXPECT_EQ(records[i].payload, want[i].payload);
    EXPECT_EQ(records[i].cycle, 0u);
    EXPECT_EQ(records[i].band, 0u);
    EXPECT_EQ(events[i].phase, want[i].phase);
    EXPECT_EQ(events[i].ticket, want[i].ticket);
    EXPECT_EQ(events[i].parent, simt::kNoTask);
    EXPECT_EQ(events[i].payload, want[i].payload);
    EXPECT_EQ(events[i].actor, simt::kHostActor);
    EXPECT_EQ(events[i].cu, 0u);
    if (i > 0) {
      EXPECT_GE(events[i].cycle, events[i - 1].cycle);
    }
  }
}

TEST(HostBrokerQueueTest, CloseWakesBlockedDequeue) {
  HostBrokerQueue<int> q(8);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    auto v = q.dequeue();  // blocks: queue empty
    EXPECT_FALSE(v.has_value());
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(HostBrokerQueueTest, CloseInterruptedBatchAbandonsTicketsDeterministically) {
  // Regression: close() racing an in-flight enqueue_batch used to
  // strand the batch's claimed-but-unpublished tickets — their
  // consumers spun on slots that would never fill. The interrupted
  // producer now abandons those tickets by moving each producer-ready
  // slot straight to the recycled state, which poll() reports as a dead
  // ticket.
  HostBrokerQueue<int> q(4);
  // Fill the ring, then consume ticket 1 out of order via the monitor
  // API so exactly one next-epoch slot is producer-ready at close time.
  ASSERT_TRUE(q.enqueue_batch(std::vector<int>{10, 11, 12, 13}));
  auto t0 = q.claim_slots(1);
  auto t1 = q.claim_slots(1);
  std::vector<int> out(1);
  ASSERT_EQ(q.poll(t1, out), 1u);
  EXPECT_EQ(out[0], 11);

  // This batch claims tickets 4 and 5; ticket 4's slot still holds the
  // unconsumed item 10, so the producer blocks there until close().
  std::atomic<bool> returned{false};
  bool ok = true;
  std::thread producer([&] {
    ok = q.enqueue_batch(std::vector<int>{100, 101});
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "producer should block on the full ring";
  q.close();
  producer.join();
  EXPECT_FALSE(ok);

  // Tickets 2 and 3: their data was published before the batch; still
  // consumable after close.
  auto t2 = q.claim_slots(1);
  ASSERT_EQ(q.poll(t2, out), 1u);
  EXPECT_EQ(out[0], 12);
  auto t3 = q.claim_slots(1);
  ASSERT_EQ(q.poll(t3, out), 1u);
  EXPECT_EQ(out[0], 13);
  // Ticket 4 was abandoned while its slot still held old data, so the
  // marker could not land; its consumer falls back to the closed flag.
  auto t4 = q.claim_slots(1);
  EXPECT_EQ(q.poll(t4, out), 0u);
  EXPECT_FALSE(t4.done());
  EXPECT_TRUE(q.closed());
  // Ticket 5's slot was producer-ready: the abandon marker landed and
  // poll() reports the ticket dead — deterministic, no spinning.
  auto t5 = q.claim_slots(1);
  EXPECT_EQ(q.poll(t5, out), 0u);
  EXPECT_TRUE(t5.dead);
  EXPECT_TRUE(t5.done());
  // Ticket 0 was never consumed; its data is intact and still readable.
  ASSERT_EQ(q.poll(t0, out), 1u);
  EXPECT_EQ(out[0], 10);
}

TEST(HostBrokerQueueTest, RacingCloseUnblocksEveryThread) {
  // Stress the close() race from every side: blocked producers, blocked
  // batch consumers and a poll-based monitor must all terminate (the
  // join *is* the assertion), and nothing is delivered twice.
  for (int iter = 0; iter < 10; ++iter) {
    HostBrokerQueue<int> q(64);
    std::atomic<int> produced{0};
    std::atomic<int> consumed{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < 3; ++p) {
      threads.emplace_back([&] {
        const std::vector<int> batch(8, 1);
        while (q.enqueue_batch(batch)) {
          produced.fetch_add(8, std::memory_order_relaxed);
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&] {
        while (q.dequeue().has_value()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    threads.emplace_back([&] {
      std::vector<int> out(4);
      auto ticket = q.claim_slots(4);
      for (;;) {
        consumed.fetch_add(static_cast<int>(q.poll(ticket, out)),
                           std::memory_order_relaxed);
        if (ticket.done()) {
          if (ticket.dead || q.closed()) break;
          ticket = q.claim_slots(4);
        } else if (q.closed()) {
          break;  // stranded ticket: the documented fallback
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.close();
    for (auto& t : threads) t.join();
    // Every delivery came from a published item; interrupted batches may
    // have published a prefix, hence the per-producer slack.
    EXPECT_LE(consumed.load(), produced.load() + 3 * 8);
  }
}

TEST(HostBrokerQueueTest, MpmcStressConservesTokens) {
  // N producers each push a disjoint range; M consumers drain. Every
  // value must be seen exactly once (checked via sum + per-value marks).
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 20'000;
  constexpr int kTotal = kProducers * kPerProducer;

  HostBrokerQueue<int> q(1024);
  std::vector<std::atomic<std::uint8_t>> seen(kTotal);
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<int> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        batch.push_back(p * kPerProducer + i);
        if (batch.size() == 16 || i + 1 == kPerProducer) {
          ASSERT_TRUE(q.enqueue_batch(batch));
          batch.clear();
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load(std::memory_order_relaxed) < kTotal) {
        // Mix batch dequeues and single try-dequeues.
        if (auto v = q.try_dequeue()) {
          ASSERT_EQ(seen[*v].fetch_add(1), 0) << "duplicate delivery";
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(consumed.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  }
}

TEST(HostBrokerQueueTest, BatchClaimsAreContiguousUnderConcurrency) {
  // Two threads each claim batches; the union of claimed tickets must
  // partition [0, total) — i.e. one fetch_add per batch is linearizable.
  HostBrokerQueue<int> q(1 << 14);
  constexpr int kBatches = 1000;
  constexpr int kBatch = 5;
  std::vector<std::uint64_t> starts_a, starts_b;
  std::thread a([&] {
    for (int i = 0; i < kBatches; ++i) starts_a.push_back(q.claim_slots(kBatch).first);
  });
  std::thread b([&] {
    for (int i = 0; i < kBatches; ++i) starts_b.push_back(q.claim_slots(kBatch).first);
  });
  a.join();
  b.join();
  std::vector<std::uint64_t> all = starts_a;
  all.insert(all.end(), starts_b.begin(), starts_b.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i * kBatch) << "claims must tile the ticket space";
  }
}

// ---- HostCasQueue (BASE comparator) ----

TEST(HostCasQueueTest, FifoSingleThread) {
  HostCasQueue<int> q(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.try_enqueue(i));
  EXPECT_FALSE(q.try_enqueue(8));  // full
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q.try_dequeue().value(), i);
  EXPECT_FALSE(q.try_dequeue().has_value());
}

TEST(HostCasQueueTest, StressConservesAndCountsRetries) {
  constexpr int kThreads = 4;
  constexpr int kPer = 25'000;
  HostCasQueue<int> q(256);
  std::atomic<long long> sum_out{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        while (!q.try_enqueue(t * kPer + i)) std::this_thread::yield();
      }
    });
    threads.emplace_back([&] {
      while (consumed.load(std::memory_order_relaxed) < kThreads * kPer) {
        if (auto v = q.try_dequeue()) {
          sum_out.fetch_add(*v);
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const long long n = static_cast<long long>(kThreads) * kPer;
  EXPECT_EQ(sum_out.load(), n * (n - 1) / 2);
}

// Property sweep: broker queue conserves across capacities/batch sizes.
class BrokerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BrokerPropertyTest, ProducerConsumerPairConserves) {
  const auto [capacity, batch] = GetParam();
  HostBrokerQueue<std::uint64_t> q(static_cast<std::size_t>(capacity));
  constexpr std::uint64_t kCount = 50'000;

  std::thread producer([&] {
    std::vector<std::uint64_t> buf;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      buf.push_back(i);
      if (buf.size() == static_cast<std::size_t>(batch) || i + 1 == kCount) {
        ASSERT_TRUE(q.enqueue_batch(buf));
        buf.clear();
      }
    }
  });

  std::uint64_t sum = 0, received = 0;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(batch));
  while (received < kCount) {
    const std::size_t want =
        std::min<std::uint64_t>(out.size(), kCount - received);
    ASSERT_TRUE(q.dequeue_batch(std::span<std::uint64_t>(out).first(want)));
    for (std::size_t i = 0; i < want; ++i) sum += out[i];
    received += want;
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BrokerPropertyTest,
                         ::testing::Combine(::testing::Values(4, 64, 4096),
                                            ::testing::Values(1, 7, 64)),
                         [](const auto& i) {
                           return "cap" + std::to_string(std::get<0>(i.param)) +
                                  "_batch" + std::to_string(std::get<1>(i.param));
                         });

}  // namespace
}  // namespace scq
