#include "core/bucketed_queue.h"

#include <algorithm>
#include <bit>

#include "core/counters.h"
#include "core/task_probes.h"

namespace scq {

namespace {

QueueLayout make_banded_layout(simt::Device& dev, std::uint64_t capacity,
                               std::uint32_t num_bands) {
  if (num_bands == 0 || num_bands > BucketedMultiQueue::kMaxBands) {
    throw simt::SimError("BucketedMultiQueue: need 1..16 bands");
  }
  QueueLayout layout;
  layout.ctrl = dev.alloc(4);  // counters live in the per-band block instead
  const std::uint64_t per = std::max<std::uint64_t>(capacity / num_bands, 1);
  layout.slots = dev.alloc(per * num_bands);
  layout.capacity = per * num_bands;
  dev.fill(layout.ctrl, 0);
  dev.fill(layout.slots, slot_empty_word(0));
  return layout;
}

}  // namespace

BucketedMultiQueue::BucketedMultiQueue(simt::Device& dev,
                                       std::uint64_t capacity,
                                       std::uint32_t num_bands,
                                       BandMap band_map)
    : DeviceQueue(make_banded_layout(dev, capacity, num_bands)),
      bands_(num_bands),
      per_band_(layout_.capacity / num_bands),
      band_map_(std::move(band_map)),
      close_recorded_(num_bands, false) {
  if (!band_map_) {
    throw simt::SimError("BucketedMultiQueue: band map must be callable");
  }
  counters_ = dev.alloc(3ull * bands_);
  dev.fill(counters_, 0);
}

BandMap BucketedMultiQueue::cost_band_map() {
  return [](std::uint64_t token) { return (token >> kCostShift) & kCostMask; };
}

std::uint64_t BucketedMultiQueue::mapped_band(std::uint64_t token) const {
  return std::min<std::uint64_t>(band_map_(token), bands_ - 1);
}

DeviceQueue::SlotRef BucketedMultiQueue::slot_of(std::uint64_t ticket) const {
  const std::uint64_t band = ticket >> kTokenBits;
  const std::uint64_t local = ticket & kMaxToken;
  return {band * per_band_ + local % per_band_, local / per_band_};
}

std::uint64_t BucketedMultiQueue::ticket_of(std::uint64_t slot,
                                            std::uint64_t epoch) const {
  const std::uint64_t band = slot / per_band_;
  return encode_ticket(band, epoch * per_band_ + slot % per_band_);
}

std::uint64_t BucketedMultiQueue::progress_signature(simt::Device& dev) const {
  std::uint64_t sig = 0;
  for (std::uint64_t i = 0; i < 3ull * bands_; ++i) {
    sig += dev.read_word(counters_.at(i));
  }
  const auto& u = dev.stats().user;
  return sig + u[kTasksProcessed] + u[kTokensEnqueued] + u[kEdgesRelaxed];
}

std::uint64_t BucketedMultiQueue::occupancy(const simt::Device& dev) const {
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < bands_; ++b) total += band_occupancy(dev, b);
  return total;
}

std::uint64_t BucketedMultiQueue::band_occupancy(const simt::Device& dev,
                                                 std::uint32_t band) const {
  const std::uint64_t front = dev.read_word(front_of(band));
  const std::uint64_t rear = dev.read_word(rear_of(band));
  return rear > front ? rear - front : 0;
}

QueueSnapshot BucketedMultiQueue::snapshot(const simt::Device& dev) const {
  QueueSnapshot s;
  s.variant = std::string(to_string(variant()));
  s.capacity = layout_.capacity;
  s.per_band_capacity = per_band_;
  s.resident = resident_tokens(dev);
  for (std::uint32_t b = 0; b < bands_; ++b) {
    QueueBandSnapshot band;
    band.band = b;
    band.front = dev.read_word(front_of(b));
    band.rear = dev.read_word(rear_of(b));
    band.completed = dev.read_word(completed_of(b));
    band.occupancy = band.rear > band.front ? band.rear - band.front : 0;
    s.bands.push_back(band);
  }
  // Host-side recomputation of the closure frontier (same prefix rule
  // the device applies in acquire_slots — stable once observed).
  std::uint32_t frontier = 0;
  while (frontier < bands_ &&
         s.bands[frontier].completed == s.bands[frontier].rear) {
    ++frontier;
  }
  s.closure_frontier = frontier;
  return s;
}

Kernel<void> BucketedMultiQueue::acquire_slots(Wave& w, WaveQueueState& st) {
  // Runs even with no hungry lanes: assigned lanes may be monitoring a
  // band that has since closed and need rescuing (the driver calls this
  // every work cycle regardless).
  if (st.hungry == 0 && st.assigned == 0) co_return;
  const simt::Cycle t0 = w.now();

  // One coalesced snapshot of the whole counter block
  // [fronts | rears | completed] (3*bands contiguous words).
  const unsigned words = 3u * bands_;
  std::array<Addr, kWaveWidth> addrs{};
  for (unsigned i = 0; i < words; ++i) addrs[i] = counters_.at(i);
  std::array<std::uint64_t, kWaveWidth> snap{};
  const LaneMask snap_mask = (LaneMask{1} << words) - 1;
  co_await w.load_lanes(snap_mask, addrs, snap);

  // Closure frontier: the largest prefix of bands with Completed ==
  // Rear. Counters only grow and a band's Completed can never catch a
  // Rear that still has unwritten (parked) or undelivered tokens, so
  // the condition is stable once observed — the band map's spawn
  // monotonicity guarantees no later reservation reopens the prefix.
  std::uint32_t frontier = 0;
  while (frontier < bands_ &&
         snap[2u * bands_ + frontier] == snap[bands_ + frontier]) {
    ++frontier;
  }
  if (frontier > 0) {
    // Rescue stranded claim-ahead monitors: a lane waiting in a closed
    // band will never see its producer. Dropping the monitor is safe —
    // its ticket lies past the band's final Rear, so the slot's epoch
    // sentinel can never be overwritten (claims past Rear are legally
    // never delivered, exactly as in single-ring RF/AN termination).
    LaneMask dropped = 0;
    for_lanes(st.assigned, [&](unsigned lane) {
      if (st.slot[lane] / per_band_ < frontier) dropped |= bit(lane);
    });
    if (dropped) {
      st.assigned &= ~dropped;
      st.hungry |= dropped;  // rescued lanes rejoin this cycle's claim
    }
    simt::OpHistory* hist = history_sink(w);
    simt::FlightRecorder* frec = recorder_sink(w);
    for (std::uint32_t b = 0; b < frontier; ++b) {
      if (close_recorded_[b]) continue;
      close_recorded_[b] = true;
      w.bump(kBandCloses);
      if (hist) {
        hist->record({simt::QueueOp::kBandClose, w.slot_id(),
                      snap[bands_ + b], 0, 0, 0, w.now(), b});
      }
      if (frec) {
        frec->record({simt::FlightKind::kBandClose, w.slot_id(), 0,
                      snap[bands_ + b], 0, b, w.now()});
      }
    }
  }

  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  if (n == 0) co_return;

  // Target band: the lowest open band with visible backlog (Rear >
  // Front), else the lowest open band at all — the frontier band, where
  // in-flight producers must publish next, so claim-ahead waits in the
  // highest-priority place work can appear. All bands closed means the
  // run is over; the driver's all_done poll exits.
  std::uint32_t target = bands_;
  for (std::uint32_t b = frontier; b < bands_; ++b) {
    if (snap[bands_ + b] > snap[b]) {
      target = b;
      break;
    }
  }
  if (target == bands_) target = frontier;
  if (target >= bands_) {
    w.bump(kEmptyRetries, n);
    co_return;
  }

  // Per-band RF/AN hot path: proxy aggregation in LDS, then ONE
  // non-failing AFA claims the whole wave's batch in the target band.
  // No CAS, no bound check, no retry — the retry-free property holds
  // within the band.
  co_await w.lds_ops(n + 1);
  w.bump(kQueueAtomics);
  const simt::CasResult r = co_await w.atomic_add(front_of(target), n);

  simt::OpHistory* hist = history_sink(w);
  const bool tasks = task_sink(w) != nullptr;
  if (simt::FlightRecorder* rec = recorder_sink(w)) {
    // One AFA claimed n contiguous tickets in the band: one batch.
    rec->log_steps(simt::FlightKind::kClaim, w.slot_id(), 0,
                   encode_ticket(target, r.old_value), target, w.now(), n);
  }
  unsigned k = 0;
  for_lanes(st.hungry, [&](unsigned lane) {
    const std::uint64_t ticket = encode_ticket(target, r.old_value + k++);
    const SlotRef ref = slot_of(ticket);
    st.slot[lane] = ref.index;
    st.epoch[lane] = ref.epoch;
    st.assign_cycle[lane] = w.now();
    if (hist) {
      hist->record({simt::QueueOp::kDequeueClaim, w.slot_id(), ticket,
                    ref.index, ref.epoch, 0, w.now(), target});
    }
    if (tasks) trace_task(w, simt::TaskPhase::kClaim, ticket);
  });
  st.assigned |= st.hungry;
  st.hungry = 0;
  co_await w.compute(2);  // ticket -> (band, slot, epoch) conversion

  if (simt::Telemetry* probes = probe_sink(w)) {
    probes->histogram(tel::kAggWidthDequeue).add(n);
    probes->histogram(tel::kDequeueLatency).add(w.now() - t0);
  }
}

Kernel<void> BucketedMultiQueue::publish(Wave& w, WaveQueueState& st) {
  const std::uint32_t total = st.total_new();
  if (total == 0 && !st.has_parked()) co_return;
  const simt::Cycle t0 = w.now();
  simt::Telemetry* probes = probe_sink(w);

  if (total > 0) {
    unsigned producers = 0;
    for (auto k : st.n_new) producers += k > 0;
    // Proxy aggregation also buckets the batch by destination band
    // (per-band sub-counters in LDS — same one-pass cost).
    co_await w.lds_ops(producers + 1);

    std::array<std::uint32_t, kMaxBands> counts{};
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        ++counts[mapped_band(st.new_tokens[lane][t])];
      }
    }
    // One non-failing AFA per destination band reserves that band's
    // share of the batch (AFA-only enqueue hot path, like RF/AN's
    // single Rear AFA fanned out across bands).
    std::array<std::uint64_t, kMaxBands> base{};
    for (std::uint32_t b = 0; b < bands_; ++b) {
      if (counts[b] == 0) continue;
      w.bump(kQueueAtomics);
      const simt::CasResult r = co_await w.atomic_add(rear_of(b), counts[b]);
      base[b] = r.old_value;
    }
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        const std::uint64_t band = mapped_band(st.new_tokens[lane][t]);
        park(w, st, encode_ticket(band, base[band]++),
             st.new_tokens[lane][t], st.new_parents[lane][t]);
      }
    }
    st.clear_produce();
    if (probes) probes->histogram(tel::kAggWidthEnqueue).add(total);
  }

  co_await flush_parked(w, st);
  if (probes && total > 0) {
    probes->histogram(tel::kEnqueueLatency).add(w.now() - t0);
  }
}

Kernel<void> BucketedMultiQueue::report_complete(Wave&, std::uint32_t count) {
  if (count == 0) co_return;
  throw simt::SimError(
      "BucketedMultiQueue: count-only report_complete cannot credit a "
      "band; drivers must call report_complete_tickets");
}

Kernel<void> BucketedMultiQueue::report_complete_tickets(
    Wave& w, std::span<const std::uint64_t> tickets) {
  if (tickets.empty()) co_return;
  co_await w.lds_ops(
      std::min<std::uint32_t>(static_cast<std::uint32_t>(tickets.size()),
                              kWaveWidth) +
      1);
  std::array<std::uint32_t, kMaxBands> counts{};
  for (const std::uint64_t t : tickets) ++counts[band_of(t)];
  simt::FlightRecorder* rec = recorder_sink(w);
  for (std::uint32_t b = 0; b < bands_; ++b) {
    if (counts[b] == 0) continue;
    w.bump(kQueueAtomics);
    co_await w.atomic_add(completed_of(b), counts[b]);
    if (rec) {
      rec->record({simt::FlightKind::kComplete, w.slot_id(), 0, 0, counts[b],
                   b, w.now()});
    }
  }
}

Kernel<bool> BucketedMultiQueue::all_done(Wave& w) {
  // One vector load over [rears | completed] (2*bands contiguous
  // words). Rears count reservations, so parked tokens hold
  // termination open; stranded claim-ahead never does (Front is not
  // consulted).
  const unsigned words = 2u * bands_;
  std::array<Addr, kWaveWidth> addrs{};
  for (unsigned i = 0; i < words; ++i) addrs[i] = counters_.at(bands_ + i);
  std::array<std::uint64_t, kWaveWidth> values{};
  const LaneMask mask = (LaneMask{1} << words) - 1;
  co_await w.load_lanes(mask, addrs, values);
  std::uint64_t pushed = 0, done = 0;
  for (std::uint32_t b = 0; b < bands_; ++b) {
    pushed += values[b];
    done += values[bands_ + b];
  }
  co_return done == pushed;
}

void BucketedMultiQueue::seed(simt::Device& dev,
                              std::span<const std::uint64_t> tokens) {
  // Full reset: counters, sentinels and closure bookkeeping.
  dev.fill(counters_, 0);
  dev.fill(layout_.ctrl, 0);
  dev.fill(layout_.slots, slot_empty_word(0));
  std::fill(close_recorded_.begin(), close_recorded_.end(), false);

  // Route each seed to its band, preserving order within a band.
  std::vector<std::uint64_t> rear(bands_, 0);
  simt::OpHistory* hist = dev.op_history();
  simt::TaskTrace* trace = dev.task_trace();
  for (const std::uint64_t token : tokens) {
    if (token > kMaxToken) {
      throw simt::SimError(
          "BucketedMultiQueue: seed token exceeds the 48-bit ring payload");
    }
    const std::uint64_t band = mapped_band(token);
    const std::uint64_t local = rear[band]++;
    if (local >= per_band_) {
      throw simt::SimError(
          "BucketedMultiQueue: seed batch exceeds a band's capacity");
    }
    const std::uint64_t ticket = encode_ticket(band, local);
    const SlotRef ref = slot_of(ticket);
    dev.write_word(layout_.slot_addr(ref.index), slot_full_word(0, token));
    if (hist) {
      hist->record({simt::QueueOp::kEnqueueReserve, simt::kHostActor, ticket,
                    ref.index, ref.epoch, token, dev.now(), band});
      hist->record({simt::QueueOp::kEnqueueWrite, simt::kHostActor, ticket,
                    ref.index, ref.epoch, token, dev.now(), band});
    }
    if (trace != nullptr) {
      trace->record({simt::TaskPhase::kReserve, ticket, simt::kNoTask, token,
                     simt::kHostActor, 0, dev.now()});
      trace->record({simt::TaskPhase::kPayloadWrite, ticket, simt::kNoTask,
                     token, simt::kHostActor, 0, dev.now()});
    }
    if (simt::FlightRecorder* rec = dev.flight_recorder()) {
      rec->record({simt::FlightKind::kWrite, simt::kHostActor, 0, ticket,
                   token, band, dev.now()});
    }
  }
  for (std::uint32_t b = 0; b < bands_; ++b) {
    dev.write_word(rear_of(b), rear[b]);
  }
  resident_ = tokens.size();
}

}  // namespace scq
