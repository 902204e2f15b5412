#include "core/queue.h"

#include <algorithm>
#include <bit>
#include <string>

#include "core/counters.h"

namespace scq {

namespace {

constexpr std::uint64_t kNoBound = ~std::uint64_t{0};

}  // namespace

std::string_view to_string(QueueVariant v) {
  switch (v) {
    case QueueVariant::kBase:
      return "BASE";
    case QueueVariant::kAn:
      return "AN";
    case QueueVariant::kRfan:
      return "RF/AN";
    case QueueVariant::kStack:
      return "LOCK-STACK";
    case QueueVariant::kDistrib:
      return "DISTRIB";
    case QueueVariant::kMq:
      return "MQ";
  }
  return "?";
}

QueueLayout make_device_queue(simt::Device& dev, std::uint64_t capacity) {
  if (capacity == 0) {
    throw simt::SimError("make_device_queue: capacity must be positive");
  }
  QueueLayout q;
  q.ctrl = dev.alloc(4);
  q.slots = dev.alloc(capacity);
  q.capacity = capacity;
  reset_device_queue(dev, q);
  return q;
}

void reset_device_queue(simt::Device& dev, const QueueLayout& q) {
  dev.fill(q.ctrl, 0);
  dev.fill(q.slots, slot_empty_word(0));
}

void seed_device_queue(simt::Device& dev, const QueueLayout& q,
                       std::span<const std::uint64_t> tokens) {
  if (tokens.size() > q.capacity) {
    throw simt::SimError("seed_device_queue: seed batch exceeds queue capacity");
  }
  // Full reset first: a reused layout must not carry Front/Completed (or
  // stale ring contents) into the new run's termination detection.
  reset_device_queue(dev, q);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] > kMaxToken) {
      throw simt::SimError(
          "seed_device_queue: token exceeds the 48-bit ring payload");
    }
    dev.write_word(q.slot_addr(i), slot_full_word(0, tokens[i]));
  }
  dev.write_word(q.rear_addr(), tokens.size());
}

// ---- Shared dequeue phase 2: data arrival (paper Listing 2) ----

Kernel<LaneMask> DeviceQueue::check_arrival(Wave& w, WaveQueueState& st,
                                            std::span<std::uint64_t> tokens) {
  // Drain eagerly delivered tokens first (no memory traffic: they were
  // read during acquisition).
  LaneMask eager = 0;
  if (st.ready) {
    eager = st.ready;
    for_lanes(eager, [&](unsigned lane) {
      tokens[lane] = st.ready_tokens[lane];
      st.deliver_ticket[lane] = st.ready_tickets[lane];
    });
    st.ready = 0;
  }
  if (!st.assigned) co_return eager;

  // Every ticket maps into the ring, so every assigned lane monitors a
  // real slot (an RF/AN claim past Rear simply waits for the epoch's
  // producer — or for termination — like any other not-yet-arrived slot).
  std::array<Addr, kWaveWidth> addrs{};
  for_lanes(st.assigned, [&](unsigned lane) {
    addrs[lane] = layout_.slots.base + st.slot[lane];
  });
  std::array<std::uint64_t, kWaveWidth> values{};
  co_await w.load_lanes(st.assigned, addrs, values);

  // Data has arrived when the slot holds a full word of the lane's own
  // ring epoch; a full word with another tag is a previous epoch's token
  // this lane must not consume (the ABA the tag exists to prevent).
  LaneMask arrived = 0;
  for_lanes(st.assigned, [&](unsigned lane) {
    if (!slot_is_empty(values[lane]) &&
        slot_epoch_tag(values[lane]) == (st.epoch[lane] & kEpochTagMask)) {
      arrived |= bit(lane);
      tokens[lane] = slot_payload(values[lane]);
      st.deliver_ticket[lane] = st.ticket[lane];
    }
  });
  const unsigned missed = static_cast<unsigned>(std::popcount(st.assigned & ~arrived));
  if (missed) w.bump(kPolls, missed);
  w.device().protocol().poll(w, *this, st.assigned, arrived, st.ticket, tokens,
                             st.assign_cycle, st.miss_noted);

  if (arrived) {
    // Pick up the token and recycle the slot for the next ring epoch; no
    // atomics are needed because this lane is the slot's only consumer
    // this epoch, and the next-epoch producer keys on the sentinel we
    // store here.
    std::array<std::uint64_t, kWaveWidth> next{};
    for_lanes(arrived, [&](unsigned lane) {
      next[lane] = slot_empty_word(st.epoch[lane] + 1);
    });
    resident_ -= static_cast<std::uint64_t>(std::popcount(arrived));
    co_await w.store_lanes(arrived, addrs, next);
    st.assigned &= ~arrived;
  }
  co_return arrived | eager;
}

void DeviceQueue::seed(simt::Device& dev, std::span<const std::uint64_t> tokens) {
  seed_device_queue(dev, layout_, tokens);
  resident_ = tokens.size();
  // Seed tokens occupy tickets 0..n-1 of epoch 0.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    dev.protocol().host_publish(*this, simt::HostOrigin::kSeed, i, tokens[i],
                                dev.now());
  }
}

bool DeviceQueue::host_push(simt::Device& dev, std::uint64_t token) {
  const std::uint64_t rear = dev.read_word(layout_.rear_addr());
  const SlotRef at = slot_of(rear);
  const Addr slot = layout_.slot_addr(at.index);
  if (dev.read_word(slot) != slot_empty_word(at.epoch)) return false;
  dev.write_word(slot, slot_full_word(at.epoch, token));
  dev.write_word(layout_.rear_addr(), rear + 1);
  ++resident_;
  dev.protocol().host_publish(*this, simt::HostOrigin::kRouter, rear, token,
                              dev.now());
  return true;
}

std::uint64_t DeviceQueue::unfinished(const simt::Device& dev) const {
  const std::uint64_t rear = dev.read_word(layout_.rear_addr());
  const std::uint64_t done = dev.read_word(layout_.completed_addr());
  return rear > done ? rear - done : 0;
}

Kernel<void> DeviceQueue::report_complete(Wave& w, std::uint32_t count) {
  if (count == 0) co_return;
  co_await w.lds_ops(std::min<std::uint32_t>(count, kWaveWidth) + 1);
  w.bump(kQueueAtomics);
  co_await w.atomic_add(completion_counter(), count);
  w.device().protocol().complete(w, count, 0);
}

Kernel<void> DeviceQueue::report_complete_tickets(
    Wave& w, std::span<const std::uint64_t> tickets) {
  // Single-band queues only need the count; forwarding keeps the
  // simulated event stream identical to a direct report_complete call.
  co_await report_complete(w, static_cast<std::uint32_t>(tickets.size()));
}

std::uint64_t DeviceQueue::occupancy(const simt::Device& dev) const {
  const std::uint64_t front = dev.read_word(layout_.front_addr());
  const std::uint64_t rear = dev.read_word(layout_.rear_addr());
  return rear > front ? rear - front : 0;
}

std::uint64_t DeviceQueue::resident_tokens(const simt::Device&) const {
  return resident_;
}

QueueSnapshot DeviceQueue::snapshot(const simt::Device& dev) const {
  QueueSnapshot s;
  s.variant = std::string(to_string(variant()));
  s.capacity = layout_.capacity;
  s.per_band_capacity = layout_.capacity;
  s.resident = resident_tokens(dev);
  QueueBandSnapshot b;
  b.front = dev.read_word(layout_.front_addr());
  b.rear = dev.read_word(layout_.rear_addr());
  b.completed = dev.read_word(layout_.completed_addr());
  b.occupancy = b.rear > b.front ? b.rear - b.front : 0;
  s.bands.push_back(b);
  return s;
}

std::uint64_t DeviceQueue::resident_tokens_scan(const simt::Device& dev) const {
  std::uint64_t n = 0;
  for (std::uint64_t i = 0; i < layout_.capacity; ++i) {
    if (!slot_is_empty(dev.read_word(layout_.slot_addr(i)))) ++n;
  }
  return n;
}

Kernel<bool> DeviceQueue::all_done(Wave& w) {
  // One coalesced snapshot of (Completed, Rear). Completed == Rear means
  // every token ever enqueued has been fully processed, which (since a
  // task's children are enqueued before its completion is reported)
  // implies no further work can appear. Rear counts ticket reservations,
  // so parked (reserved-but-unwritten) tokens hold termination open.
  std::array<Addr, kWaveWidth> addrs{};
  addrs[0] = layout_.completed_addr();
  addrs[1] = layout_.rear_addr();
  std::array<std::uint64_t, kWaveWidth> values{};
  co_await w.load_lanes(LaneMask{0b11}, addrs, values);
  co_return values[0] == values[1];
}

std::uint64_t DeviceQueue::progress_signature(simt::Device& dev) const {
  // Sum of monotone counters: any claim, reservation, completion,
  // processed task, enqueued token or relaxed edge anywhere on the
  // device changes it. Deliberately excludes poll/idle counters, which
  // keep ticking in a genuine deadlock.
  const auto& u = dev.stats().user;
  return dev.read_word(layout_.front_addr()) +
         dev.read_word(layout_.rear_addr()) +
         dev.read_word(layout_.completed_addr()) + u[kTasksProcessed] +
         u[kTokensEnqueued] + u[kEdgesRelaxed];
}

// ---- Shared dequeue phase 1 tail: claimed tickets become monitors ----

void DeviceQueue::bind_claims(Wave& w, WaveQueueState& st, LaneMask lanes) {
  for_lanes(lanes, [&](unsigned lane) {
    const SlotRef ref = slot_of(st.ticket[lane]);
    st.slot[lane] = ref.index;
    st.epoch[lane] = ref.epoch;
    st.assign_cycle[lane] = w.now();
  });
  st.assigned |= lanes;
  st.hungry &= ~lanes;
  w.device().protocol().claim(w, *this, lanes, st.ticket);
}

void DeviceQueue::bind_claim_run(Wave& w, WaveQueueState& st,
                                 std::uint64_t first, std::uint64_t count) {
  LaneMask lanes = 0;
  for_lanes(st.hungry, [&](unsigned lane) {
    if (count == 0) return;
    st.ticket[lane] = first++;
    lanes |= bit(lane);
    --count;
  });
  bind_claims(w, st, lanes);
}

// ---- Shared enqueue tail: backpressured ring writes ----

void DeviceQueue::park(Wave& w, WaveQueueState& st, std::uint64_t ticket,
                       std::uint64_t token, std::uint64_t parent) {
  if (st.n_parked >= WaveQueueState::kMaxParked) {
    throw simt::SimError(
        "device queue: parked-token overflow — the driver must gate "
        "production while publishes are backpressured");
  }
  st.parked[st.n_parked++] = {ticket, token, w.now(), false, parent};
  // A fresh reservation is not yet a wait: stall_note() reports the ones
  // that survive a failed flush round.
  w.device().protocol().reserve(w, *this, ticket, token, parent);
  // Host-side spawn observer (the src/tasks engine's depth/credit
  // bookkeeping hooks in here): same birth instant, no simulated cost.
  if (st.on_reserve != nullptr) (*st.on_reserve)(ticket, token, parent);
}

bool DeviceQueue::stall_note(Wave& w, WaveQueueState& st, bool wrote_any) {
  if (st.n_parked == 0) {
    st.stall_rounds = 0;
    return false;
  }
  // A reservation becomes a wait the first round it fails to flush.
  for (std::uint32_t i = 0; i < st.n_parked; ++i) {
    if (st.parked[i].stalled) continue;
    st.parked[i].stalled = true;
    w.device().protocol().stall(w, *this, st.parked[i].ticket,
                                st.parked[i].token);
  }
  w.bump(kPublishStalls, st.n_parked);

  const std::uint64_t sig = progress_signature(w.device());
  if (wrote_any || sig != st.stall_signature) {
    st.stall_signature = sig;
    st.stall_rounds = 0;
    return false;
  }
  // Provable deadlock once the counter hits kPublishDeadlockRounds: this
  // wave's publish has been stalled for that many attempts while *no*
  // counter on the device moved — nobody is consuming, so the in-flight
  // working set genuinely exceeds the ring. The host reacts by retrying
  // the kernel with a larger capacity (§4.4's exception path, now the
  // last resort instead of the first).
  return ++st.stall_rounds >= kPublishDeadlockRounds;
}

Kernel<void> DeviceQueue::flush_parked(Wave& w, WaveQueueState& st) {
  if (st.n_parked == 0) {
    st.stall_rounds = 0;
    co_return;
  }
  simt::ProtocolStream& events = w.device().protocol();
  bool wrote_any = false;

  // Attempt every parked entry, oldest ticket first, in wave-sized
  // rounds: load the current slot words, store full words over exactly
  // the matching epoch's empty sentinel. Entries whose slot has not been
  // recycled yet (previous epoch's token unconsumed) stay parked. Rounds
  // repeat while they make progress, so a burst spanning several ring
  // epochs drains as fast as consumers recycle.
  for (;;) {
    const std::uint32_t n = std::min<std::uint32_t>(st.n_parked, kWaveWidth);
    LaneMask mask = 0;
    std::array<Addr, kWaveWidth> addrs{};
    std::array<std::uint64_t, kWaveWidth> want{}, full{}, ticket{}, token{};
    for (std::uint32_t i = 0; i < n; ++i) {
      ticket[i] = st.parked[i].ticket;
      token[i] = st.parked[i].token;
      const SlotRef ref = slot_of(ticket[i]);
      mask |= bit(i);
      addrs[i] = layout_.slots.base + ref.index;
      want[i] = slot_empty_word(ref.epoch);
      full[i] = slot_full_word(ref.epoch, token[i]);
    }
    std::array<std::uint64_t, kWaveWidth> cur{};
    co_await w.load_lanes(mask, addrs, cur);

    LaneMask writable = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (cur[i] == want[i]) writable |= bit(i);
    }
    if (!writable) break;

    // Emitted in the same event-processing slice as the stores below,
    // so the write records land before any matching deliver record.
    // Stalled entries form a prefix of the parked array (stall_note
    // marks every current entry; fresh parks append unmarked, and
    // compaction preserves order): their writes retire a wait.
    LaneMask waited = 0;
    for (std::uint32_t i = 0; i < n && st.parked[i].stalled; ++i) {
      waited |= bit(i);
    }
    events.write(w, *this, writable, waited, ticket, token);
    resident_ += static_cast<std::uint64_t>(std::popcount(writable));
    co_await w.store_lanes(writable, addrs, full);
    w.bump(kTokensEnqueued, static_cast<std::uint64_t>(std::popcount(writable)));
    for_lanes(writable & waited, [&](unsigned i) {
      events.stall_end(w, *this, ticket[i], st.parked[i].since);
    });

    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < st.n_parked; ++i) {
      if (i < n && (writable & bit(i))) continue;
      st.parked[out++] = st.parked[i];
    }
    st.n_parked = out;
    wrote_any = true;
    if (st.n_parked == 0) break;
  }

  if (stall_note(w, st, wrote_any)) {
    co_await w.abort_kernel(kPublishDeadlockMessage);
  }
}

// ---- RF/AN: retry-free, arbitrary-n (the proposed queue, §4) ----

Kernel<void> RfanQueue::acquire_slots(Wave& w, WaveQueueState& st) {
  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  if (n == 0) co_return;
  const simt::Cycle t0 = w.now();

  // Listing 1: the proxy zeroes the LDS counter; every hungry lane
  // atomically increments it to learn its wave-relative slot. Local
  // atomics never fail and their latency is hidden.
  co_await w.lds_ops(n + 1);

  // One non-failing AFA reserves n tickets for the whole wavefront.
  w.bump(kQueueAtomics);
  const simt::CasResult r = co_await w.atomic_add(layout_.front_addr(), n);
  bind_claim_run(w, st, r.old_value, n);
  co_await w.compute(2);  // ticket -> (slot, epoch) conversion
  w.device().protocol().acquire_end(w, t0, n);
}

Kernel<void> RfanQueue::publish(Wave& w, WaveQueueState& st) {
  const std::uint32_t total = st.total_new();
  if (total == 0 && !st.has_parked()) co_return;
  const simt::Cycle t0 = w.now();
  simt::ProtocolStream& events = w.device().protocol();

  if (total > 0) {
    unsigned producers = 0;
    for (auto k : st.n_new) producers += k > 0;
    co_await w.lds_ops(producers + 1);

    // One AFA reserves tickets for every newly discovered token in the
    // wave; the writes themselves go through the backpressured ring.
    w.bump(kQueueAtomics);
    const simt::CasResult r = co_await w.atomic_add(layout_.rear_addr(), total);

    std::uint64_t ticket = r.old_value;
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        park(w, st, ticket++, st.new_tokens[lane][t], st.new_parents[lane][t]);
      }
    }
    st.clear_produce();
    events.publish_batch(w, total);
  }

  co_await flush_parked(w, st);
  if (total > 0) events.publish_end(w, t0);
}

// ---- AN: arbitrary-n via proxy thread, but CAS-based (retries) ----

Kernel<void> AnQueue::acquire_slots(Wave& w, WaveQueueState& st) {
  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  if (n == 0) co_return;
  const simt::Cycle t0 = w.now();
  co_await w.lds_ops(n + 1);

  // One coalesced snapshot of (Front, Rear) — adjacent words — gates the
  // queue-empty exception before any atomic is issued.
  std::array<Addr, kWaveWidth> snap_addr{};
  snap_addr[0] = layout_.front_addr();
  snap_addr[1] = layout_.rear_addr();
  std::array<std::uint64_t, kWaveWidth> snap{};
  co_await w.load_lanes(LaneMask{0b11}, snap_addr, snap);
  if (snap[0] >= snap[1]) {
    // Queue-empty exception: every hungry lane must retry next cycle.
    w.bump(kEmptyRetries, n);
    co_return;
  }

  // The proxy runs a CAS loop claiming up to n entries bounded by the
  // Rear it read; folded-in failed attempts surface as retries.
  const simt::CasResult r =
      co_await w.atomic_bounded_add(layout_.front_addr(), n, snap[1]);
  // Every claim that landed between our snapshot and our service would
  // have failed one CAS of this loop; pay those retries as round trips.
  const std::uint64_t drift =
      std::min<std::uint64_t>(r.old_value > snap[0] ? r.old_value - snap[0] : 0, 16);
  if (drift > 0) {
    co_await w.idle(drift * (2 * w.config().atomic_latency +
                             w.config().atomic_service));
  }
  w.bump(kQueueAtomics, 1 + r.retries + drift);
  w.bump(kQueueCasFailures, r.retries + drift);
  w.device().protocol().cas_run(w, r.retries + drift);
  const std::uint64_t claimed =
      std::min<std::uint64_t>(n, snap[1] > r.old_value ? snap[1] - r.old_value : 0);
  if (claimed == 0) {
    w.bump(kEmptyRetries, n);
    co_return;
  }
  // The capped CAS claimed `claimed` contiguous tickets.
  bind_claim_run(w, st, r.old_value, claimed);
  w.device().protocol().acquire_end(w, t0, claimed);
}

Kernel<void> AnQueue::publish(Wave& w, WaveQueueState& st) {
  const std::uint32_t total = st.total_new();
  if (total == 0 && !st.has_parked()) co_return;
  const simt::Cycle t0 = w.now();
  simt::ProtocolStream& events = w.device().protocol();

  if (total > 0) {
    unsigned producers = 0;
    for (auto k : st.n_new) producers += k > 0;
    co_await w.lds_ops(producers + 1);

    // Proxy CAS loop reserving `total` tickets. Rear is an unbounded
    // counter now — the loop cannot fail on capacity — but claims racing
    // in ahead of ours are still failed attempts, paid as round trips.
    const std::uint64_t rear_before = co_await w.load(layout_.rear_addr());
    const simt::CasResult r =
        co_await w.atomic_bounded_add(layout_.rear_addr(), total, kNoBound);
    const std::uint64_t drift = std::min<std::uint64_t>(
        r.old_value > rear_before ? r.old_value - rear_before : 0, 16);
    if (drift > 0) {
      co_await w.idle(drift * (2 * w.config().atomic_latency +
                               w.config().atomic_service));
    }
    w.bump(kQueueAtomics, 1 + r.retries + drift);
    w.bump(kQueueCasFailures, r.retries + drift);
    events.cas_run(w, r.retries + drift);

    std::uint64_t ticket = r.old_value;
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        park(w, st, ticket++, st.new_tokens[lane][t], st.new_parents[lane][t]);
      }
    }
    st.clear_produce();
    events.publish_batch(w, total);
  }

  co_await flush_parked(w, st);
  if (total > 0) events.publish_end(w, t0);
}

// ---- BASE: traditional lock-free queue, one CAS loop per thread ----

Kernel<void> BaseQueue::acquire_slots(Wave& w, WaveQueueState& st) {
  // Every hungry lane runs its own CAS loop on Front (one bounded claim
  // per work cycle). Lock-step execution sends all of these loops to
  // the atomic unit together, where they serialize and fail against one
  // another — the Fig. 1 pathology. Lanes whose loop absorbed many
  // failures back off a growing number of cycles (standard contention
  // management; without it the storm grows quadratically).
  if (!st.hungry) co_return;
  LaneMask trying = 0;
  for_lanes(st.hungry, [&](unsigned lane) {
    if (st.backoff_wait[lane] == 0) {
      trying |= bit(lane);
    } else {
      st.backoff_wait[lane] -= 1;
    }
  });
  if (!trying) co_return;
  const simt::Cycle t0 = w.now();

  // Coalesced (Front, Rear) snapshot for the queue-empty check.
  std::array<Addr, kWaveWidth> snap_addr{};
  snap_addr[0] = layout_.front_addr();
  snap_addr[1] = layout_.rear_addr();
  std::array<std::uint64_t, kWaveWidth> snap{};
  co_await w.load_lanes(LaneMask{0b11}, snap_addr, snap);
  const std::uint64_t rear = snap[1];
  if (snap[0] >= rear) {
    // Queue-empty exception: every hungry lane retries next work cycle.
    w.bump(kEmptyRetries, static_cast<std::uint64_t>(std::popcount(trying)));
    co_return;
  }

  std::array<Addr, kWaveWidth> addrs{};
  std::array<std::uint64_t, kWaveWidth> ones{};
  std::array<std::uint64_t, kWaveWidth> bound{};
  std::array<std::uint64_t, kWaveWidth> old{};
  std::array<std::uint64_t, kWaveWidth> retries{};
  for_lanes(trying, [&](unsigned lane) {
    addrs[lane] = layout_.front_addr();
    ones[lane] = 1;
    bound[lane] = rear;
  });
  const LaneMask claimed = co_await w.atomic_lanes(
      simt::AtomicKind::kBoundedAdd, trying, addrs, ones, bound, old, retries);

  std::uint64_t attempts = 0, failures = 0;
  simt::ProtocolStream& events = w.device().protocol();
  for_lanes(trying, [&](unsigned lane) {
    attempts += 1 + retries[lane];
    failures += retries[lane];
    // One CAS loop per lane: its folded failure count is the run length.
    events.cas_run(w, retries[lane]);
  });
  w.bump(kQueueAtomics, attempts);
  w.bump(kQueueCasFailures, failures);
  w.bump(kEmptyRetries,
         static_cast<std::uint64_t>(std::popcount(trying & ~claimed)));

  for_lanes(claimed, [&](unsigned lane) { st.ticket[lane] = old[lane]; });
  bind_claims(w, st, claimed);
  if (claimed) events.acquire_end(w, t0, 0);
  for_lanes(trying, [&](unsigned lane) {
    // Contention-managed retry pacing: a loop that absorbed failures
    // backs off whether or not it finally claimed.
    constexpr std::uint64_t kThreshold = 2;
    constexpr std::uint8_t kMaxExp = 4;
    if (retries[lane] > kThreshold) {
      st.backoff_exp[lane] =
          std::min<std::uint8_t>(st.backoff_exp[lane] + 1, kMaxExp);
      st.backoff_wait[lane] = static_cast<std::uint8_t>(
          ((1u << st.backoff_exp[lane]) - 1) + (lane & 3u));
    } else {
      st.backoff_exp[lane] = 0;
    }
  });
}

Kernel<void> BaseQueue::publish(Wave& w, WaveQueueState& st) {
  std::array<std::uint32_t, kWaveWidth> cursor{};
  LaneMask pending = 0;
  for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
    if (st.n_new[lane] > 0) pending |= bit(lane);
  }
  if (!pending && !st.has_parked()) co_return;
  const simt::Cycle t0 = w.now();
  simt::ProtocolStream& events = w.device().protocol();
  const bool produced = pending != 0;

  // Each producing lane CAS-loops one ticket per token out of Rear; all
  // pending lanes issue together in lock-step. Rear is unbounded, so the
  // loop always lands — contention still surfaces as folded retries —
  // and the ring write itself goes through the backpressure path.
  while (pending) {
    std::array<Addr, kWaveWidth> addrs{};
    std::array<std::uint64_t, kWaveWidth> ones{};
    std::array<std::uint64_t, kWaveWidth> bound{};
    std::array<std::uint64_t, kWaveWidth> old{};
    std::array<std::uint64_t, kWaveWidth> retries{};
    for_lanes(pending, [&](unsigned lane) {
      addrs[lane] = layout_.rear_addr();
      ones[lane] = 1;
      bound[lane] = kNoBound;
    });
    co_await w.atomic_lanes(simt::AtomicKind::kBoundedAdd, pending, addrs, ones,
                            bound, old, retries);
    std::uint64_t attempts = 0, failures = 0;
    for_lanes(pending, [&](unsigned lane) {
      attempts += 1 + retries[lane];
      failures += retries[lane];
      events.cas_run(w, retries[lane]);
    });
    w.bump(kQueueAtomics, attempts);
    w.bump(kQueueCasFailures, failures);

    for_lanes(pending, [&](unsigned lane) {
      park(w, st, old[lane], st.new_tokens[lane][cursor[lane]],
           st.new_parents[lane][cursor[lane]]);
      if (++cursor[lane] == st.n_new[lane]) pending &= ~bit(lane);
    });
  }
  st.clear_produce();

  co_await flush_parked(w, st);
  if (produced) events.publish_end(w, t0);
}

Kernel<void> BaseQueue::report_complete(Wave& w, std::uint32_t count) {
  if (count == 0) co_return;
  // No proxy aggregation in the traditional design: each finishing lane
  // issues its own AFA on the completion counter.
  std::array<Addr, kWaveWidth> addrs{};
  std::array<std::uint64_t, kWaveWidth> ones{};
  const unsigned lanes = std::min<std::uint32_t>(count, kWaveWidth);
  LaneMask mask = lanes >= kWaveWidth ? simt::kAllLanes : (bit(lanes) - 1);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    addrs[lane] = layout_.completed_addr();
    ones[lane] = 1;
  }
  // A lane can finish more than one token per cycle only with budget >
  // out-degree; fold the remainder into lane 0.
  if (count > kWaveWidth) ones[0] += count - kWaveWidth;
  w.bump(kQueueAtomics, lanes);
  co_await w.atomic_lanes(simt::AtomicKind::kAdd, mask, addrs, ones);
  w.device().protocol().complete(w, count, 0);
}

void stamp_task_meta(simt::TaskTrace& trace, const DeviceQueue& queue) {
  trace.set_meta("variant", std::string(to_string(queue.variant())));
  trace.set_meta("capacity", std::to_string(queue.layout().capacity));
}

std::unique_ptr<DeviceQueue> make_queue_variant(QueueVariant variant,
                                                QueueLayout layout) {
  switch (variant) {
    case QueueVariant::kBase:
      return std::make_unique<BaseQueue>(layout);
    case QueueVariant::kAn:
      return std::make_unique<AnQueue>(layout);
    case QueueVariant::kRfan:
      return std::make_unique<RfanQueue>(layout);
    default:
      throw simt::SimError(
          "make_queue_variant handles the paper's three variants; use "
          "make_scheduler for the extension schedulers");
  }
}

}  // namespace scq
