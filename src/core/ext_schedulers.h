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
//     Claims are bounded (no cross-queue monitors), so hungry waves poll
//     like AN; termination snapshots every sub-queue tail at once.
//
// `make_scheduler` builds any of the five variants against one device.
#pragma once

#include <memory>

#include "core/queue.h"

namespace scq {

class LockedStack final : public DeviceQueue {
 public:
  // Layout reinterpretation: ctrl[0] = Top (next free slot), ctrl[1] =
  // total pushed (monotone; pairs with ctrl[2] Completed for the
  // inherited all_done), ctrl[3] = spinlock word.
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
  [[nodiscard]] Addr top_addr() const { return layout_.ctrl.at(0); }
  [[nodiscard]] Addr pushed_addr() const { return layout_.ctrl.at(1); }
  [[nodiscard]] Addr lock_addr() const { return layout_.ctrl.at(3); }
};

class DistributedQueue final : public DeviceQueue {
 public:
  // Builds `num_queues` sub-queues of capacity/num_queues slots each.
  // Sub-queue q owns slots [q*per, (q+1)*per) of the shared slot array;
  // its Front/Rear live in a dedicated counter block laid out as
  // [fronts(0..K) | rears(0..K) | completed] so that termination can
  // snapshot every Rear plus Completed with one vector load.
  DistributedQueue(simt::Device& dev, std::uint64_t capacity,
                   std::uint32_t num_queues);

  [[nodiscard]] QueueVariant variant() const override {
    return QueueVariant::kDistrib;
  }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  Kernel<bool> all_done(Wave& w) override;
  void seed(simt::Device& dev, std::span<const std::uint64_t> tokens) override;
  [[nodiscard]] std::uint64_t occupancy(const simt::Device& dev) const override {
    std::uint64_t total = 0;
    for (std::uint32_t q = 0; q < num_queues_; ++q) {
      const std::uint64_t front = dev.read_word(front_of(q));
      const std::uint64_t rear = dev.read_word(rear_of(q));
      total += rear > front ? rear - front : 0;
    }
    return total;
  }

  [[nodiscard]] std::uint32_t num_queues() const { return num_queues_; }
  [[nodiscard]] std::uint64_t per_queue_capacity() const { return per_queue_; }

  // Tickets are encoded (sub-queue << kTokenBits) | local ticket; each
  // sub-queue is its own circular ring of per_queue_ slots.
  [[nodiscard]] SlotRef slot_of(std::uint64_t ticket) const override {
    const std::uint64_t q = ticket >> kTokenBits;
    const std::uint64_t local = ticket & kMaxToken;
    return {q * per_queue_ + local % per_queue_, local / per_queue_};
  }

 protected:
  [[nodiscard]] Addr completion_counter() const override {
    return completed_of();
  }
  [[nodiscard]] std::uint64_t progress_signature(simt::Device& dev) const override;

 private:
  [[nodiscard]] static std::uint64_t encode_ticket(std::uint32_t q,
                                                   std::uint64_t local) {
    return (std::uint64_t{q} << kTokenBits) | local;
  }
  [[nodiscard]] Addr front_of(std::uint32_t q) const { return counters_.at(q); }
  [[nodiscard]] Addr rear_of(std::uint32_t q) const {
    return counters_.at(num_queues_ + q);
  }
  [[nodiscard]] Addr completed_of() const {
    return counters_.at(2ull * num_queues_);
  }
  // Claim up to popcount(st.hungry) entries from sub-queue q; assigns
  // monitors on success. Returns claimed count.
  Kernel<std::uint64_t> claim_from(Wave& w, WaveQueueState& st, std::uint32_t q);

  std::uint32_t num_queues_;
  std::uint64_t per_queue_;
  simt::Buffer counters_;
  // Host-side rotor decorrelating steal victims (deterministic).
  std::uint64_t steal_rotor_ = 0;
};

// Builds any scheduler variant with its buffers allocated on `dev`.
std::unique_ptr<DeviceQueue> make_scheduler(simt::Device& dev,
                                            QueueVariant variant,
                                            std::uint64_t capacity);

}  // namespace scq
