#include "core/bucketed_queue.h"

#include <algorithm>
#include <bit>

#include "core/counters.h"

namespace scq {

namespace {

std::uint32_t checked_bands(std::uint32_t num_bands) {
  if (num_bands == 0 || num_bands > BucketedMultiQueue::kMaxBands) {
    throw simt::SimError("BucketedMultiQueue: need 1..16 bands");
  }
  return num_bands;
}

}  // namespace

BucketedMultiQueue::BucketedMultiQueue(simt::Device& dev,
                                       std::uint64_t capacity,
                                       std::uint32_t num_bands,
                                       BandMap band_map)
    : DeviceQueue(dev, capacity, RingSplit::kBands, checked_bands(num_bands)),
      band_map_(std::move(band_map)),
      close_recorded_(num_bands, false) {
  if (!band_map_) {
    throw simt::SimError("BucketedMultiQueue: band map must be callable");
  }
}

BandMap BucketedMultiQueue::cost_band_map() {
  return [](std::uint64_t token) { return (token >> kCostShift) & kCostMask; };
}

std::uint32_t BucketedMultiQueue::route(std::uint64_t token,
                                        std::uint32_t /*cu*/) const {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(band_map_(token), rings() - 1));
}

void BucketedMultiQueue::seed(simt::Device& dev,
                              std::span<const std::uint64_t> tokens) {
  DeviceQueue::seed(dev, tokens);
  std::fill(close_recorded_.begin(), close_recorded_.end(), false);
}

Kernel<void> BucketedMultiQueue::acquire_slots(Wave& w, WaveQueueState& st) {
  // Runs even with no hungry lanes: assigned lanes may be monitoring a
  // band that has since closed and need rescuing (the driver calls this
  // every work cycle regardless).
  if (st.hungry == 0 && st.assigned == 0) co_return;
  const simt::Cycle t0 = w.now();

  // One coalesced snapshot of the whole counter block
  // [fronts | rears | completed] (3*bands contiguous words).
  const std::uint32_t bands = rings();
  const unsigned words = 3u * bands;
  std::array<Addr, kWaveWidth> addrs{};
  for (unsigned i = 0; i < words; ++i) addrs[i] = front_of(0) + i;
  std::array<std::uint64_t, kWaveWidth> snap{};
  const LaneMask snap_mask = (LaneMask{1} << words) - 1;
  co_await w.load_lanes(snap_mask, addrs, snap);

  // Closure frontier: the largest prefix of bands with Completed ==
  // Rear. Counters only grow and a band's Completed can never catch a
  // Rear that still has unwritten (parked) or undelivered tokens, so
  // the condition is stable once observed — the band map's spawn
  // monotonicity guarantees no later reservation reopens the prefix.
  std::uint32_t frontier = 0;
  while (frontier < bands &&
         snap[2u * bands + frontier] == snap[bands + frontier]) {
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
      if (st.slot[lane] / per_ring_capacity() < frontier) dropped |= bit(lane);
    });
    if (dropped) {
      st.assigned &= ~dropped;
      st.hungry |= dropped;  // rescued lanes rejoin this cycle's claim
    }
    for (std::uint32_t b = 0; b < frontier; ++b) {
      if (close_recorded_[b]) continue;
      close_recorded_[b] = true;
      w.bump(kBandCloses);
      w.device().protocol().band_close(w, b, snap[bands + b]);
    }
  }

  const unsigned n = static_cast<unsigned>(std::popcount(st.hungry));
  if (n == 0) co_return;

  // Target band: the lowest open band with visible backlog (Rear >
  // Front), else the lowest open band at all — the frontier band, where
  // in-flight producers must publish next, so claim-ahead waits in the
  // highest-priority place work can appear. All bands closed means the
  // run is over; the driver's all_done poll exits.
  std::uint32_t target = bands;
  for (std::uint32_t b = frontier; b < bands; ++b) {
    if (snap[bands + b] > snap[b]) {
      target = b;
      break;
    }
  }
  if (target == bands) target = frontier;
  if (target >= bands) {
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
  bind_claim_run(w, st, encode_ticket(target, r.old_value), n);
  co_await w.compute(2);  // ticket -> (band, slot, epoch) conversion
  w.device().protocol().acquire_end(w, t0, n);
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
  for (std::uint32_t b = 0; b < rings(); ++b) {
    if (counts[b] == 0) continue;
    w.bump(kQueueAtomics);
    co_await w.atomic_add(completed_of(b), counts[b]);
    w.device().protocol().complete(w, counts[b], b);
  }
}

}  // namespace scq
