// Extension schedulers beyond the paper's three-way study, implementing
// designs its related-work section discusses (§2.1, §2.3):
//
//   LockedStack — a bounded LIFO stack guarded by a device spinlock:
//     the mutual-exclusion strawman concurrent-data-structure research
//     moved away from. Push and pop compete for a single shared access
//     location (the paper's argument against stacks), and every
//     operation serializes on the lock. Tokens are consumed *under* the
//     lock and delivered eagerly, so the LIFO index reuse cannot race
//     with the sentinel protocol.
//
//   DistributedQueue — per-CU RF/AN-style sub-queues with work stealing
//     (Tzeng et al.'s distributed queuing): a wave publishes to its own
//     CU's queue and, when that runs dry, claims from a rotating victim.
//     The sub-queues are the ring core's per-CU home rings
//     (RingSplit::kHomes), so the enqueue is the core's fetch-add
//     aimed at the wave's home ring. Claims are bounded (no cross-queue
//     monitors), so hungry waves poll like AN; termination snapshots
//     every sub-queue tail at once.
//
// `make_scheduler` builds any of the six variants against one device.
#pragma once

#include <memory>

#include "core/queue.h"

namespace scq {

class LockedStack final : public DeviceQueue {
 public:
  // Reinterprets the single ring's ctrl header: ctrl[0] = Top (next
  // free slot), ctrl[1] = total pushed (monotone; it is the core's Rear,
  // so it pairs with ctrl[2] Completed for the inherited all_done and
  // host reads), ctrl[3] = spinlock word.
  using DeviceQueue::DeviceQueue;

  [[nodiscard]] QueueVariant variant() const override {
    return QueueVariant::kStack;
  }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  void seed(simt::Device& dev, std::span<const std::uint64_t> tokens) override;
  [[nodiscard]] std::uint64_t occupancy(const simt::Device& dev) const override {
    return dev.read_word(top_addr());  // LIFO: Top == resident tokens
  }
  // The LIFO's live slots are exactly [0, Top); pops leave the word in
  // place and bypass the inherited write/recycle accounting, so Top is
  // the residency.
  [[nodiscard]] std::uint64_t resident_tokens(
      const simt::Device& dev) const override {
    return dev.read_word(top_addr());
  }

 private:
  [[nodiscard]] Addr top_addr() const { return ctrl_.at(0); }
  [[nodiscard]] Addr pushed_addr() const { return ctrl_.at(1); }
  [[nodiscard]] Addr lock_addr() const { return ctrl_.at(3); }
};

class DistributedQueue final : public DeviceQueue {
 public:
  // Builds `num_queues` (1..63) home rings of capacity/num_queues slots
  // each. Home ring q owns slots [q*per, (q+1)*per) of the shared slot
  // array, and the core's counter block [Fronts | Rears | Completed]
  // lets termination snapshot every Rear plus Completed with one vector
  // load.
  DistributedQueue(simt::Device& dev, std::uint64_t capacity,
                   std::uint32_t num_queues);

  [[nodiscard]] QueueVariant variant() const override {
    return QueueVariant::kDistrib;
  }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;

 protected:
  // A wave publishes to its own CU's home ring (host seeds: ring 0).
  [[nodiscard]] std::uint32_t route(std::uint64_t /*token*/,
                                    std::uint32_t cu) const override {
    return cu % rings();
  }

 private:
  // Claim up to popcount(st.hungry) entries from sub-queue q; assigns
  // monitors on success. Returns claimed count.
  Kernel<std::uint64_t> claim_from(Wave& w, WaveQueueState& st, std::uint32_t q);

  // Host-side rotor decorrelating steal victims (deterministic).
  std::uint64_t steal_rotor_ = 0;
};

// Builds any scheduler variant with its buffers allocated on `dev`:
// `capacity` ring slots in total, split evenly across MQ's 8 cost bands
// or DISTRIB's per-CU home rings.
std::unique_ptr<DeviceQueue> make_scheduler(simt::Device& dev,
                                            QueueVariant variant,
                                            std::uint64_t capacity);

}  // namespace scq
