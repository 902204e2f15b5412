#include "core/ext_schedulers.h"

#include <algorithm>
#include <bit>

#include "core/bucketed_queue.h"
#include "core/counters.h"

namespace scq {

namespace {

constexpr int kMaxLockRounds = 1 << 20;

}  // namespace

// ---------------------------------------------------------------------
// LockedStack
// ---------------------------------------------------------------------

Kernel<void> LockedStack::acquire_slots(Wave& w, WaveQueueState& st) {
  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  if (n == 0) co_return;

  // One lock attempt per work cycle; a busy lock is this design's
  // "retry next cycle".
  w.bump(kQueueAtomics);
  const simt::CasResult got = co_await w.atomic_cas(lock_addr(), 0, 1);
  if (!got.success) {
    w.bump(kQueueCasFailures);
    co_return;
  }

  const std::uint64_t top = co_await w.load(top_addr());
  const std::uint64_t take = std::min<std::uint64_t>(n, top);
  if (take == 0) {
    w.bump(kEmptyRetries, n);
  } else {
    // Pop [top-take, top), highest index first, and deliver eagerly —
    // under the lock the payloads are guaranteed present, and restoring
    // the sentinels before release keeps index reuse race-free. The
    // stack reuses indices under mutual exclusion, so it stays in ring
    // epoch 0 forever: occupied slots hold full(0, token), free slots
    // the epoch-0 empty sentinel.
    LaneMask served = 0;
    std::array<Addr, kWaveWidth> addrs{};
    std::uint64_t index = top;
    for_lanes(st.hungry, [&](unsigned lane) {
      if (index == top - take) return;
      --index;
      served |= bit(lane);
      addrs[lane] = layout_.slots.base + index;
    });
    std::array<std::uint64_t, kWaveWidth> values{};
    co_await w.load_lanes(served, addrs, values);
    std::array<std::uint64_t, kWaveWidth> empty{};
    empty.fill(slot_empty_word(0));
    co_await w.store_lanes(served, addrs, empty);
    co_await w.store(top_addr(), top - take);

    for_lanes(served, [&](unsigned lane) {
      st.ready_tokens[lane] = slot_payload(values[lane]);
      st.ready_tickets[lane] = kNoTask;  // LIFO pops carry no task identity
    });
    st.ready |= served;
    st.hungry &= ~served;
  }
  co_await w.store(lock_addr(), 0);
}

Kernel<void> LockedStack::publish(Wave& w, WaveQueueState& st) {
  const std::uint32_t total = st.total_new();
  if (total == 0 && !st.has_parked()) co_return;

  // Producers must move their batch out of registers this cycle, so they
  // spin for the lock. The holder always releases, so the wait is
  // bounded in practice.
  for (int round = 0;; ++round) {
    w.bump(kQueueAtomics);
    const simt::CasResult got = co_await w.atomic_cas(lock_addr(), 0, 1);
    if (got.success) break;
    w.bump(kQueueCasFailures);
    if (round > kMaxLockRounds) {
      co_await w.abort_kernel("locked stack: lock livelock (simulator bug?)");
      co_return;
    }
    co_await w.idle(80);
  }

  const std::uint64_t top = co_await w.load(top_addr());
  std::uint64_t space = layout_.capacity - top;
  std::uint64_t index = top;
  bool wrote_any = false;

  // A full stack is no longer an abort: write what fits — parked
  // leftovers from earlier cycles first — and park the remainder for
  // the next work cycle's retry. `pushed` is bumped for the whole batch
  // at publish time (parked included) so all_done cannot report true
  // while a token sits in a register file instead of the stack.
  const std::uint32_t flush = std::min<std::uint64_t>(st.n_parked, space);
  for (std::uint32_t base = 0; base < flush; base += kWaveWidth) {
    const std::uint32_t chunk =
        std::min<std::uint32_t>(flush - base, kWaveWidth);
    LaneMask mask = 0;
    std::array<Addr, kWaveWidth> addrs{};
    std::array<std::uint64_t, kWaveWidth> vals{};
    for (std::uint32_t i = 0; i < chunk; ++i) {
      mask |= bit(i);
      addrs[i] = layout_.slots.base + index++;
      vals[i] = slot_full_word(0, st.parked[base + i].token);
    }
    co_await w.store_lanes(mask, addrs, vals);
  }
  if (flush > 0) {
    w.bump(kTokensEnqueued, flush);
    for (std::uint32_t i = 0; i < flush; ++i) {
      if (st.parked[i].stalled) {
        w.device().protocol().stall_end(w, *this, kNoTask, st.parked[i].since);
      }
    }
    std::uint32_t out = 0;
    for (std::uint32_t i = flush; i < st.n_parked; ++i) {
      st.parked[out++] = st.parked[i];
    }
    st.n_parked = out;
    space -= flush;
    wrote_any = true;
  }

  if (total > 0) {
    const std::uint32_t write_new = std::min<std::uint64_t>(total, space);
    std::uint32_t written = 0;
    LaneMask mask = 0;
    std::array<Addr, kWaveWidth> addrs{};
    std::array<std::uint64_t, kWaveWidth> vals{};
    unsigned chunk = 0;
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        if (written < write_new) {
          mask |= bit(chunk);
          addrs[chunk] = layout_.slots.base + index++;
          vals[chunk] = slot_full_word(0, st.new_tokens[lane][t]);
          ++written;
          if (++chunk == kWaveWidth) {
            co_await w.store_lanes(mask, addrs, vals);
            mask = 0;
            chunk = 0;
          }
        } else {
          // A push has no ticket: the LIFO reuses its indices.
          park(w, st, kNoTask, st.new_tokens[lane][t]);
        }
      }
    }
    if (mask) co_await w.store_lanes(mask, addrs, vals);
    if (written > 0) {
      w.bump(kTokensEnqueued, written);
      wrote_any = true;
    }
    st.clear_produce();
    co_await w.atomic_add(pushed_addr(), total);
  }

  co_await w.store(top_addr(), index);
  co_await w.store(lock_addr(), 0);
  if (stall_note(w, st, wrote_any)) {
    co_await w.abort_kernel(kPublishDeadlockMessage);
  }
}

void LockedStack::seed(simt::Device& dev, std::span<const std::uint64_t> tokens) {
  if (tokens.size() > layout_.capacity) {
    throw simt::SimError("LockedStack: seed exceeds capacity");
  }
  // Full reset: Top/pushed/Completed/lock and every slot sentinel, so a
  // reused layout cannot corrupt termination detection.
  dev.fill(layout_.ctrl, 0);
  dev.fill(layout_.slots, slot_empty_word(0));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] > kMaxToken) {
      throw simt::SimError("LockedStack: seed token exceeds kMaxToken");
    }
    dev.write_word(layout_.slot_addr(i), slot_full_word(0, tokens[i]));
  }
  dev.write_word(top_addr(), tokens.size());
  dev.write_word(pushed_addr(), tokens.size());
}

// ---------------------------------------------------------------------
// DistributedQueue
// ---------------------------------------------------------------------

namespace {

QueueLayout make_distributed_layout(simt::Device& dev, std::uint64_t capacity,
                                    std::uint32_t num_queues) {
  if (num_queues == 0 || num_queues >= kWaveWidth) {
    throw simt::SimError("DistributedQueue: need 1..63 sub-queues");
  }
  QueueLayout layout;
  layout.ctrl = dev.alloc(4);  // completed lives in the counter block instead
  const std::uint64_t per = std::max<std::uint64_t>(capacity / num_queues, 1);
  layout.slots = dev.alloc(per * num_queues);
  layout.capacity = per * num_queues;
  dev.fill(layout.ctrl, 0);
  dev.fill(layout.slots, slot_empty_word(0));
  return layout;
}

}  // namespace

DistributedQueue::DistributedQueue(simt::Device& dev, std::uint64_t capacity,
                                   std::uint32_t num_queues)
    : DeviceQueue(make_distributed_layout(dev, capacity, num_queues)),
      num_queues_(num_queues),
      per_queue_(layout_.capacity / num_queues) {
  // [fronts | rears | completed]: rears and completed are contiguous so
  // all_done can snapshot them with a single vector load.
  counters_ = dev.alloc(2ull * num_queues_ + 1);
  dev.fill(counters_, 0);
}

std::uint64_t DistributedQueue::progress_signature(simt::Device& dev) const {
  std::uint64_t sig = 0;
  for (std::uint64_t i = 0; i < 2ull * num_queues_ + 1; ++i) {
    sig += dev.read_word(counters_.at(i));
  }
  const auto& u = dev.stats().user;
  return sig + u[kTasksProcessed] + u[kTokensEnqueued] + u[kEdgesRelaxed];
}

Kernel<std::uint64_t> DistributedQueue::claim_from(Wave& w, WaveQueueState& st,
                                                   std::uint32_t q) {
  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  // Snapshot this sub-queue's (Front, Rear).
  std::array<Addr, kWaveWidth> sa{};
  sa[0] = front_of(q);
  sa[1] = rear_of(q);
  std::array<std::uint64_t, kWaveWidth> snap{};
  co_await w.load_lanes(LaneMask{0b11}, sa, snap);
  if (snap[0] >= snap[1]) co_return std::uint64_t{0};

  const simt::CasResult r = co_await w.atomic_bounded_add(front_of(q), n, snap[1]);
  w.bump(kQueueAtomics, 1 + r.retries);
  w.bump(kQueueCasFailures, r.retries);
  const std::uint64_t claimed = std::min<std::uint64_t>(
      n, snap[1] > r.old_value ? snap[1] - r.old_value : 0);
  if (claimed == 0) co_return std::uint64_t{0};

  // The bounded add claimed `claimed` contiguous tickets.
  bind_claim_run(w, st, encode_ticket(q, r.old_value), claimed);
  co_return claimed;
}

Kernel<void> DistributedQueue::acquire_slots(Wave& w, WaveQueueState& st) {
  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  if (n == 0) co_return;
  co_await w.lds_ops(n + 1);  // proxy aggregation, as in AN/RF-AN

  const std::uint32_t own = w.cu_id() % num_queues_;
  std::uint64_t got = co_await claim_from(w, st, own);

  // Own queue dry: steal from one rotating victim per work cycle.
  if (st.hungry && num_queues_ > 1) {
    const std::uint32_t victim =
        (own + 1 + steal_rotor_++ % (num_queues_ - 1)) % num_queues_;
    got += co_await claim_from(w, st, victim);
  }
  if (got == 0) {
    w.bump(kEmptyRetries, static_cast<std::uint64_t>(std::popcount(st.hungry)));
  }
}

Kernel<void> DistributedQueue::publish(Wave& w, WaveQueueState& st) {
  const std::uint32_t total = st.total_new();
  if (total == 0 && !st.has_parked()) co_return;

  if (total > 0) {
    unsigned producers = 0;
    for (auto k : st.n_new) producers += k > 0;
    co_await w.lds_ops(producers + 1);

    // RF/AN-style reservation: one non-failing AFA on the home
    // sub-queue's (unbounded) Rear; the ring writes go through the
    // shared backpressure path with per-sub-queue slot mapping.
    const std::uint32_t own = w.cu_id() % num_queues_;
    w.bump(kQueueAtomics);
    const simt::CasResult r = co_await w.atomic_add(rear_of(own), total);

    std::uint64_t local = r.old_value;
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        park(w, st, encode_ticket(own, local++), st.new_tokens[lane][t],
             st.new_parents[lane][t]);
      }
    }
    st.clear_produce();
  }

  co_await flush_parked(w, st);
}

Kernel<bool> DistributedQueue::all_done(Wave& w) {
  // One vector load over [rears..., completed]: K+1 contiguous words.
  // Rears count reservations, so parked tokens hold termination open.
  const unsigned lanes = num_queues_ + 1;
  std::array<Addr, kWaveWidth> addrs{};
  for (unsigned i = 0; i < lanes; ++i) addrs[i] = counters_.at(num_queues_ + i);
  std::array<std::uint64_t, kWaveWidth> values{};
  const LaneMask mask =
      lanes >= kWaveWidth ? simt::kAllLanes : ((LaneMask{1} << lanes) - 1);
  co_await w.load_lanes(mask, addrs, values);
  std::uint64_t pushed = 0;
  for (unsigned q = 0; q < num_queues_; ++q) pushed += values[q];
  co_return values[num_queues_] == pushed;
}

void DistributedQueue::seed(simt::Device& dev,
                            std::span<const std::uint64_t> tokens) {
  if (tokens.size() > per_queue_) {
    throw simt::SimError("DistributedQueue: seed exceeds sub-queue capacity");
  }
  // Full reset of every sub-queue's counters and sentinels.
  dev.fill(counters_, 0);
  dev.fill(layout_.slots, slot_empty_word(0));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] > kMaxToken) {
      throw simt::SimError("DistributedQueue: seed token exceeds kMaxToken");
    }
    dev.write_word(layout_.slot_addr(i),
                   slot_full_word(0, tokens[i]));  // sub-queue 0
  }
  dev.write_word(rear_of(0), tokens.size());
  resident_ = tokens.size();
  // Sub-queue 0, local tickets 0..n-1: encode_ticket(0, i) == i.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    dev.protocol().host_publish(*this, simt::HostOrigin::kSeed, i, tokens[i],
                                dev.now());
  }
}

// ---------------------------------------------------------------------

std::unique_ptr<DeviceQueue> make_scheduler(simt::Device& dev,
                                            QueueVariant variant,
                                            std::uint64_t capacity) {
  switch (variant) {
    case QueueVariant::kBase:
    case QueueVariant::kAn:
    case QueueVariant::kRfan:
      return make_queue_variant(variant, make_device_queue(dev, capacity));
    case QueueVariant::kStack:
      return std::make_unique<LockedStack>(make_device_queue(dev, capacity));
    case QueueVariant::kDistrib:
      return std::make_unique<DistributedQueue>(dev, capacity,
                                                dev.config().num_cus);
    case QueueVariant::kMq:
      // Default banding reads the cluster token cost bits (plain small
      // tokens all land in band 0); priority front-ends construct the
      // queue directly with their own map and band count.
      return std::make_unique<BucketedMultiQueue>(
          dev, capacity, 8, BucketedMultiQueue::cost_band_map());
  }
  return nullptr;
}

}  // namespace scq
