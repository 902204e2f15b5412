// BucketedMultiQueue: a priority-banded generalization of the RF/AN
// queue (delta-stepping / A* support, ROADMAP's priority dimension).
//
// One epoch-tagged ring per priority band, each with its own unbounded
// Front/Rear/Completed ticket counters; tokens are routed to a band by
// a host-side cost-to-bucket map evaluated at publish time. Within a
// band the protocol is exactly RF/AN: demand is aggregated per wave,
// one non-failing Atomic Fetch-Add claims the whole batch, and hungry
// lanes monitor epoch-tagged dna sentinels — the retry-free property is
// preserved per band (no CAS, no queue-empty exception, no claim
// retry). Across bands, consumers always target the lowest band that
// still has work, which is what turns the FIFO queue into an
// approximate priority queue (cf. "Accelerating Concurrent Heap on
// GPUs" and Atos' priority variants in PAPERS.md).
//
// The new failure mode priority introduces is *stranded claim-ahead*:
// RF/AN lanes legally claim past Rear and wait for a producer that, in
// a banded queue, may never come — all future work can land in higher
// bands, leaving the lane monitoring a band that is finished forever.
// The rescue is the closure frontier: band b is CLOSED once every band
// a <= b has Completed == Rear. Closure is stable provided the band map
// is monotone along the spawn relation (a task delivered from band a
// only publishes children into bands >= a — true for delta-stepping and
// A* by distance monotonicity, and for the fuzz workloads by id-
// monotone maps): once closed, a band can never see another
// reservation, so waves drop their monitors in closed bands and rejoin
// the hungry pool. Each first observation of a closure is recorded as a
// QueueOp::kBandClose so the fuzz checker can verify the contract (no
// reserve/write/deliver in a band at or below a recorded closure).
#pragma once

#include <functional>
#include <vector>

#include "core/queue.h"

namespace scq {

// Host-side cost-to-bucket mapping evaluated once per published token
// (the result is clamped to the band count). Must be monotone along the
// spawn relation — see the closure-frontier contract above.
using BandMap = std::function<std::uint64_t(std::uint64_t token)>;

class BucketedMultiQueue final : public DeviceQueue {
 public:
  // 3*kMaxBands counter words must fit one coalesced vector load.
  static constexpr std::uint32_t kMaxBands = 16;
  static_assert(3 * kMaxBands <= kWaveWidth);

  // `capacity` is the total slot budget, split evenly across bands
  // (at least one slot per band).
  BucketedMultiQueue(simt::Device& dev, std::uint64_t capacity,
                     std::uint32_t num_bands, BandMap band_map);

  // Default map for cost-carrying tokens packed with the cluster token
  // convention (cost in bits 45..24 — cluster/token.h static-asserts
  // the layout against these constants): band = min(cost, bands - 1).
  // Plain small tokens (< 2^24) all map to band 0, degenerating to a
  // single RF/AN ring.
  static constexpr unsigned kCostShift = 24;
  static constexpr std::uint64_t kCostMask = (std::uint64_t{1} << 22) - 1;
  static BandMap cost_band_map();

  [[nodiscard]] QueueVariant variant() const override {
    return QueueVariant::kMq;
  }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  // Count-only completion cannot credit the right band's Completed
  // counter (closure would mis-fire); throws SimError. Drivers must use
  // report_complete_tickets.
  Kernel<void> report_complete(Wave& w, std::uint32_t count) override;
  Kernel<void> report_complete_tickets(
      Wave& w, std::span<const std::uint64_t> tickets) override;
  Kernel<bool> all_done(Wave& w) override;
  void seed(simt::Device& dev, std::span<const std::uint64_t> tokens) override;

  [[nodiscard]] std::uint64_t occupancy(const simt::Device& dev) const override;
  [[nodiscard]] std::uint32_t num_bands() const override { return bands_; }
  [[nodiscard]] std::uint64_t band_of(std::uint64_t ticket) const override {
    return ticket >> kTokenBits;
  }
  [[nodiscard]] std::uint64_t band_occupancy(const simt::Device& dev,
                                             std::uint32_t band) const override;
  // Per-band counters plus the host-recomputed closure frontier.
  [[nodiscard]] QueueSnapshot snapshot(const simt::Device& dev) const override;

  [[nodiscard]] std::uint64_t per_band_capacity() const { return per_band_; }

  [[nodiscard]] SlotRef slot_of(std::uint64_t ticket) const override;

 protected:
  [[nodiscard]] std::uint64_t progress_signature(simt::Device& dev) const override;

 private:
  [[nodiscard]] std::uint64_t mapped_band(std::uint64_t token) const;
  [[nodiscard]] Addr front_of(std::uint32_t b) const { return counters_.at(b); }
  [[nodiscard]] Addr rear_of(std::uint32_t b) const {
    return counters_.at(bands_ + b);
  }
  [[nodiscard]] Addr completed_of(std::uint32_t b) const {
    return counters_.at(2ull * bands_ + b);
  }
  [[nodiscard]] static constexpr std::uint64_t encode_ticket(
      std::uint64_t band, std::uint64_t local) {
    return (band << kTokenBits) | local;
  }

  std::uint32_t bands_;
  std::uint64_t per_band_;
  BandMap band_map_;
  // [fronts | rears | completed], one word per band per counter; rears
  // and completed contiguous so all_done snapshots them in one load.
  simt::Buffer counters_;
  // Host-side closure bookkeeping: bands whose kBandClose has been
  // recorded (deduplicates the per-wave observations).
  std::vector<bool> close_recorded_;
};

}  // namespace scq
