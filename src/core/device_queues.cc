#include "core/queue.h"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

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

// ---- The ring core: control block, seeding and host reads ----

DeviceQueue::DeviceQueue(simt::Device& dev, std::uint64_t capacity)
    : DeviceQueue(dev, capacity, RingSplit::kNone, 1) {}

DeviceQueue::DeviceQueue(simt::Device& dev, std::uint64_t capacity,
                         RingSplit split, std::uint32_t rings)
    : split_(split),
      rings_(rings),
      completion_words_(split == RingSplit::kBands ? rings : 1) {
  if (capacity == 0) {
    throw simt::SimError("DeviceQueue: capacity must be positive");
  }
  // In 64 bits: a ring count near 2^32 must not wrap past the limit.
  if (rings == 0 || std::uint64_t{rings} + completion_words_ > kWaveWidth) {
    throw simt::SimError(
        "DeviceQueue: need 1..63 sub-rings whose Rears and Completeds fit "
        "one vector load");
  }
  per_ring_ = std::max<std::uint64_t>(capacity / rings, 1);
  capacity_ = per_ring_ * rings;
  ctrl_ = dev.alloc(4);
  slots_ = dev.alloc(capacity_);
  block_ = split == RingSplit::kNone ? ctrl_ : dev.alloc(block_words());
  dev.fill(ctrl_, 0);
  dev.fill(slots_, slot_empty_word(0));
  dev.fill(block_, 0);
}

void DeviceQueue::seed(simt::Device& dev, std::span<const std::uint64_t> tokens) {
  // Check the whole batch before touching anything, so a rejected seed
  // leaves the queue, its resident count and the protocol stream as
  // they were.
  std::vector<std::uint32_t> ring(tokens.size());
  std::vector<std::uint64_t> share(rings_, 0);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] > kMaxToken) {
      throw simt::SimError("seed: token exceeds the 48-bit ring payload");
    }
    ring[i] = route(tokens[i], static_cast<std::uint32_t>(i));
    if (++share[ring[i]] > per_ring_) {
      throw simt::SimError("seed: batch exceeds a ring's capacity");
    }
  }
  // Full reset: a reused queue must not carry counters (or stale ring
  // contents) into the new run's termination detection.
  dev.fill(ctrl_, 0);
  dev.fill(block_, 0);
  dev.fill(slots_, slot_empty_word(0));
  resident_ = tokens.size();
  std::vector<std::uint64_t> rear(rings_, 0);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Every seed lands in epoch 0 of its sub-ring.
    const std::uint64_t ticket = encode_ticket(ring[i], rear[ring[i]]++);
    dev.write_word(slot_addr(slot_of(ticket).index),
                   slot_full_word(0, tokens[i]));
    dev.protocol().host_publish(*this, simt::HostOrigin::kSeed, ticket,
                                tokens[i], dev.now());
  }
  for (std::uint32_t k = 0; k < rings_; ++k) dev.write_word(rear_of(k), rear[k]);
}

bool DeviceQueue::host_push(simt::Device& dev, std::uint64_t token) {
  const std::uint64_t rear = dev.read_word(rear_of(0));
  const SlotRef at = slot_of(rear);
  const Addr slot = slot_addr(at.index);
  if (dev.read_word(slot) != slot_empty_word(at.epoch)) return false;
  dev.write_word(slot, slot_full_word(at.epoch, token));
  dev.write_word(rear_of(0), rear + 1);
  ++resident_;
  dev.protocol().host_publish(*this, simt::HostOrigin::kRouter, rear, token,
                              dev.now());
  return true;
}

std::optional<std::uint64_t> DeviceQueue::host_pop(simt::Device& dev,
                                                   std::uint32_t k) {
  const std::uint64_t local = dev.read_word(front_of(k));
  if (local == dev.read_word(rear_of(k))) return std::nullopt;
  const SlotRef at = slot_of(encode_ticket(k, local));
  const Addr slot = slot_addr(at.index);
  const std::uint64_t word = dev.read_word(slot);
  if (slot_is_empty(word) || slot_epoch_tag(word) != (at.epoch & kEpochTagMask)) {
    return std::nullopt;  // reserved, still parked on the device
  }
  dev.write_word(slot, slot_empty_word(at.epoch + 1));
  dev.write_word(front_of(k), local + 1);
  --resident_;
  return slot_payload(word);
}

std::uint64_t DeviceQueue::unfinished(const simt::Device& dev) const {
  std::uint64_t rear = 0, done = 0;
  for (std::uint32_t k = 0; k < rings_; ++k) rear += dev.read_word(rear_of(k));
  for (std::uint32_t k = 0; k < completion_words_; ++k) {
    done += dev.read_word(completed_of(k));
  }
  return rear > done ? rear - done : 0;
}

std::uint64_t DeviceQueue::occupancy(const simt::Device& dev) const {
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < rings_; ++k) {
    const std::uint64_t front = dev.read_word(front_of(k));
    const std::uint64_t rear = dev.read_word(rear_of(k));
    total += rear > front ? rear - front : 0;
  }
  return total;
}

std::uint64_t DeviceQueue::band_occupancy(const simt::Device& dev,
                                          std::uint32_t band) const {
  if (split_ != RingSplit::kBands) return band == 0 ? occupancy(dev) : 0;
  const std::uint64_t front = dev.read_word(front_of(band));
  const std::uint64_t rear = dev.read_word(rear_of(band));
  return rear > front ? rear - front : 0;
}

std::uint64_t DeviceQueue::resident_tokens(const simt::Device&) const {
  return resident_;
}

std::uint64_t DeviceQueue::resident_tokens_scan(const simt::Device& dev) const {
  std::uint64_t n = 0;
  for (std::uint64_t i = 0; i < capacity_; ++i) {
    if (!slot_is_empty(dev.read_word(slot_addr(i)))) ++n;
  }
  return n;
}

QueueSnapshot DeviceQueue::snapshot(const simt::Device& dev) const {
  QueueSnapshot s;
  s.variant = std::string(to_string(variant()));
  s.capacity = capacity_;
  s.per_band_capacity = split_ == RingSplit::kBands ? per_ring_ : capacity_;
  s.resident = resident_tokens(dev);
  // One entry per band. The dump schema has one Completed per entry, so
  // a queue whose sub-rings share one completion word sums them into one.
  const bool banded = split_ == RingSplit::kBands;
  const std::uint32_t entries = banded ? rings_ : 1;
  s.bands.resize(entries);
  for (std::uint32_t k = 0; k < rings_; ++k) {
    QueueBandSnapshot& b = s.bands[banded ? k : 0];
    b.front += dev.read_word(front_of(k));
    b.rear += dev.read_word(rear_of(k));
  }
  for (std::uint32_t k = 0; k < completion_words_; ++k) {
    s.bands[k].completed = dev.read_word(completed_of(k));
  }
  for (std::uint32_t b = 0; b < entries; ++b) {
    s.bands[b].band = b;
    s.bands[b].occupancy =
        s.bands[b].rear > s.bands[b].front ? s.bands[b].rear - s.bands[b].front
                                           : 0;
  }
  if (banded) {
    // Host-side recomputation of the closure frontier (the prefix rule
    // the banded multi-queue applies in acquire_slots — stable once
    // observed).
    while (s.closure_frontier < entries &&
           s.bands[s.closure_frontier].completed ==
               s.bands[s.closure_frontier].rear) {
      ++s.closure_frontier;
    }
  }
  return s;
}

std::uint64_t DeviceQueue::progress_signature(simt::Device& dev) const {
  std::uint64_t sig = 0;
  for (std::uint64_t i = 0; i < block_words(); ++i) {
    sig += dev.read_word(block_.at(i));
  }
  const auto& u = dev.stats().user;
  return sig + u[kTasksProcessed] + u[kTokensEnqueued] + u[kEdgesRelaxed];
}

Kernel<bool> DeviceQueue::all_done(Wave& w) {
  // One coalesced snapshot of every Rear and Completed. Completed ==
  // Rear means every token ever enqueued has been fully processed,
  // which (since a task's children are enqueued before its completion
  // is reported) implies no further work can appear. Rears count ticket
  // reservations, so parked (reserved-but-unwritten) tokens hold
  // termination open; a claim past Rear never does (Fronts are not
  // consulted). The single ring loads (Completed, Rear); a split queue
  // loads [Rears | Completeds], contiguous in its block.
  std::array<Addr, kWaveWidth> addrs{};
  std::array<std::uint64_t, kWaveWidth> values{};
  if (split_ == RingSplit::kNone) {
    addrs[0] = completed_of(0);
    addrs[1] = rear_of(0);
    co_await w.load_lanes(LaneMask{0b11}, addrs, values);
    co_return values[0] == values[1];
  }
  const unsigned words = rings_ + completion_words_;
  for (unsigned i = 0; i < words; ++i) addrs[i] = rear_of(0) + i;
  const LaneMask mask =
      words >= kWaveWidth ? simt::kAllLanes : ((LaneMask{1} << words) - 1);
  co_await w.load_lanes(mask, addrs, values);
  std::uint64_t pushed = 0, done = 0;
  for (unsigned i = 0; i < rings_; ++i) pushed += values[i];
  for (unsigned i = rings_; i < words; ++i) done += values[i];
  co_return done == pushed;
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
    addrs[lane] = slots_.base + st.slot[lane];
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

Kernel<void> DeviceQueue::report_complete(Wave& w, std::uint32_t count) {
  if (count == 0) co_return;
  co_await w.lds_ops(std::min<std::uint32_t>(count, kWaveWidth) + 1);
  w.bump(kQueueAtomics);
  co_await w.atomic_add(completed_of(0), count);
  w.device().protocol().complete(w, count, 0);
}

Kernel<void> DeviceQueue::report_complete_tickets(
    Wave& w, std::span<const std::uint64_t> tickets) {
  // Single-band queues only need the count; forwarding keeps the
  // simulated event stream identical to a direct report_complete call.
  co_await report_complete(w, static_cast<std::uint32_t>(tickets.size()));
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
  if (transfers()) return false;  // waits on the host, see the header

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
  // epochs drains as fast as consumers recycle. The lane words live in
  // st.flush: each round writes lanes [0, n) before reading them, and
  // lane 0 is always among them, so a vector load's jitter salt (lane
  // 0's address) never reads a stale lane.
  auto& [addrs, want, full, ticket, token, cur] = st.flush;
  for (;;) {
    const std::uint32_t n = std::min<std::uint32_t>(st.n_parked, kWaveWidth);
    LaneMask mask = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      ticket[i] = st.parked[i].ticket;
      token[i] = st.parked[i].token;
      const SlotRef ref = slot_of(ticket[i]);
      mask |= bit(i);
      addrs[i] = slots_.base + ref.index;
      want[i] = slot_empty_word(ref.epoch);
      full[i] = slot_full_word(ref.epoch, token[i]);
    }
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
    w.bump(transfers() ? kXferTokens : kTokensEnqueued,
           static_cast<std::uint64_t>(std::popcount(writable)));
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

// ---- Shared fetch-add enqueue (RF/AN, MQ, DISTRIB) ----

Kernel<void> DeviceQueue::publish(Wave& w, WaveQueueState& st) {
  const std::uint32_t total = st.total_new();
  if (total == 0 && !st.has_parked()) co_return;
  const simt::Cycle t0 = w.now();
  simt::ProtocolStream& events = w.device().protocol();

  if (total > 0) {
    unsigned producers = 0;
    for (auto k : st.n_new) producers += k > 0;
    // Proxy aggregation; with sub-rings it also buckets the batch by
    // destination (per-ring sub-counters in LDS — same one-pass cost).
    co_await w.lds_ops(producers + 1);

    // One non-failing AFA per destination sub-ring reserves that ring's
    // share of the batch; the writes themselves go through the
    // backpressured ring. `next` counts each ring's share, then holds
    // its next ticket.
    const std::uint32_t cu = w.cu_id();
    std::array<std::uint64_t, kMaxRings> next{};
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        ++next[route(st.new_tokens[lane][t], cu)];
      }
    }
    for (std::uint32_t k = 0; k < rings_; ++k) {
      if (next[k] == 0) continue;
      w.bump(kQueueAtomics);
      const simt::CasResult r = co_await w.atomic_add(rear_of(k), next[k]);
      next[k] = encode_ticket(k, r.old_value);
    }
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        const std::uint64_t token = st.new_tokens[lane][t];
        const std::uint32_t k = route(token, cu);
        park(w, st, next[k]++, token, st.new_parents[lane][t]);
      }
    }
    st.clear_produce();
    events.publish_batch(w, *this, total);
  }

  co_await flush_parked(w, st);
  if (total > 0) events.publish_end(w, *this, t0);
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
  const simt::CasResult r = co_await w.atomic_add(front_of(0), n);
  bind_claim_run(w, st, r.old_value, n);
  co_await w.compute(2);  // ticket -> (slot, epoch) conversion
  w.device().protocol().acquire_end(w, t0, n);
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
  snap_addr[0] = front_of(0);
  snap_addr[1] = rear_of(0);
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
      co_await w.atomic_bounded_add(front_of(0), n, snap[1]);
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
    const std::uint64_t rear_before = co_await w.load(rear_of(0));
    const simt::CasResult r =
        co_await w.atomic_bounded_add(rear_of(0), total, kNoBound);
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
    events.publish_batch(w, *this, total);
  }

  co_await flush_parked(w, st);
  if (total > 0) events.publish_end(w, *this, t0);
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
  snap_addr[0] = front_of(0);
  snap_addr[1] = rear_of(0);
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
    addrs[lane] = front_of(0);
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
      addrs[lane] = rear_of(0);
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
  if (produced) events.publish_end(w, *this, t0);
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
    addrs[lane] = completed_of(0);
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
  trace.set_meta("capacity", std::to_string(queue.capacity()));
}

}  // namespace scq
