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
      addrs[lane] = slots_.base + index;
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
  std::uint64_t space = capacity() - top;
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
      addrs[i] = slots_.base + index++;
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
          addrs[chunk] = slots_.base + index++;
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
  if (tokens.size() > capacity()) {
    throw simt::SimError("LockedStack: seed exceeds capacity");
  }
  // Full reset: Top/pushed/Completed/lock and every slot sentinel, so a
  // reused stack cannot corrupt termination detection.
  dev.fill(ctrl_, 0);
  dev.fill(slots_, slot_empty_word(0));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] > kMaxToken) {
      throw simt::SimError("LockedStack: seed token exceeds kMaxToken");
    }
    dev.write_word(slot_addr(i), slot_full_word(0, tokens[i]));
  }
  dev.write_word(top_addr(), tokens.size());
  dev.write_word(pushed_addr(), tokens.size());
}

// ---------------------------------------------------------------------
// DistributedQueue
// ---------------------------------------------------------------------

DistributedQueue::DistributedQueue(simt::Device& dev, std::uint64_t capacity,
                                   std::uint32_t num_queues)
    : DeviceQueue(dev, capacity, RingSplit::kHomes, num_queues) {}

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

  const std::uint32_t queues = rings();
  const std::uint32_t own = w.cu_id() % queues;
  std::uint64_t got = co_await claim_from(w, st, own);

  // Own queue dry: steal from one rotating victim per work cycle.
  if (st.hungry && queues > 1) {
    const std::uint32_t victim =
        (own + 1 + steal_rotor_++ % (queues - 1)) % queues;
    got += co_await claim_from(w, st, victim);
  }
  if (got == 0) {
    w.bump(kEmptyRetries, static_cast<std::uint64_t>(std::popcount(st.hungry)));
  }
}

// ---------------------------------------------------------------------

std::unique_ptr<DeviceQueue> make_scheduler(simt::Device& dev,
                                            QueueVariant variant,
                                            std::uint64_t capacity) {
  switch (variant) {
    case QueueVariant::kBase:
      return std::make_unique<BaseQueue>(dev, capacity);
    case QueueVariant::kAn:
      return std::make_unique<AnQueue>(dev, capacity);
    case QueueVariant::kRfan:
      return std::make_unique<RfanQueue>(dev, capacity);
    case QueueVariant::kStack:
      return std::make_unique<LockedStack>(dev, capacity);
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
