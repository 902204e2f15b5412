// Inter-device transfer queues: bounded single-producer rings through
// which one device's persistent-thread driver hands frontier work to
// the host router for delivery to another device.
//
// The ring reuses the main queue's epoch-tagged slot-word format
// (core/queue.h) and the RF/AN enqueue discipline: per wavefront, the
// proxy thread aggregates the batch with LDS atomics and reserves all
// tickets with one non-failing atomic fetch-add on Rear; the slot
// writes go through the same park/flush backpressure path, so a full
// ring throttles the producer instead of aborting the kernel. The
// consumer is the *host* router (cluster superstep barriers), which
// costs no simulated cycles: it pops arrived tokens in ticket order,
// recycles each slot with the next epoch's empty sentinel, and
// publishes its progress through Front.
//
// Ctrl block: [0]=Front (host-consumed count) [1]=Rear (device-reserved
// count). Rear counts *reservations*, so parked-but-unwritten tokens
// keep the ring non-quiescent — the cluster's termination detector
// relies on that, exactly as the main queue's does.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/queue.h"

namespace scq::cluster {

namespace tel {
// Per-device windowed gauge (prefixed dev<N>. by the cluster sink).
inline constexpr const char kXferBacklog[] = "xfer.backlog";
// Windowed series recorded at each superstep barrier (one window per
// superstep, stamped with the barrier horizon). The router series live
// on the unprefixed sink; the occupancy series is per-device (the
// dashboard's heatmap rows).
inline constexpr const char kRouterStolen[] = "router.stolen";
inline constexpr const char kRouterDelivered[] = "router.delivered";
inline constexpr const char kRouterDrained[] = "router.drained";
inline constexpr const char kClusterImbalance[] = "cluster.imbalance_pct";
inline constexpr const char kSuperstepOccupancy[] = "superstep.occupancy";
}  // namespace tel

// Per-wave, per-destination enqueue registers (the enqueue half of
// WaveQueueState; transfers have no dequeue side on the device).
struct XferWaveState {
  std::array<std::uint32_t, kWaveWidth> n_new{};
  std::array<std::array<std::uint64_t, kMaxWorkBudget>, kWaveWidth> new_tokens{};

  struct Parked {
    std::uint64_t ticket = 0;
    std::uint64_t token = 0;
  };
  static constexpr std::uint32_t kMaxParked = kWaveWidth * kMaxWorkBudget;
  std::uint32_t n_parked = 0;
  std::array<Parked, kMaxParked> parked{};

  void push(unsigned lane, std::uint64_t token) {
    if (token > kMaxToken) {
      throw simt::SimError(
          "transfer ring: token exceeds the 48-bit ring payload");
    }
    new_tokens[lane][n_new[lane]++] = token;
  }
  [[nodiscard]] std::uint32_t total_new() const {
    std::uint32_t n = 0;
    for (auto k : n_new) n += k;
    return n;
  }
  [[nodiscard]] bool has_parked() const { return n_parked != 0; }
};

class TransferRing {
 public:
  TransferRing() = default;

  // Allocates ctrl + slots on the producing (source) device.
  static TransferRing create(simt::Device& src, std::uint64_t capacity);

  // Device side (source kernel, once per work cycle per destination):
  // reserves tickets for the staged batch with one AFA and writes every
  // outstanding token whose slot has recycled; the rest stay parked in
  // `st` for later cycles. Token production must stop while anything
  // is parked: the task engine freezes its work phase while a client's
  // side channel reports parked tokens.
  Kernel<void> publish(Wave& w, XferWaveState& st) const;

  // Host side: pops every arrived token in ticket order into `out`,
  // recycles the slots, and advances Front. Stops at the first
  // not-yet-written slot (a parked reservation); the next drain picks
  // it up after the producer's flush lands.
  void drain(simt::Device& src, std::vector<std::uint64_t>& out) const;

  // Front == Rear: nothing reserved remains undelivered.
  [[nodiscard]] bool quiescent(const simt::Device& src) const;

  // Rear - Front: reserved tokens the host has not consumed yet.
  [[nodiscard]] std::uint64_t backlog(const simt::Device& src) const;

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  // Control-block reads for black-box dumps (host side, zero cost).
  [[nodiscard]] std::uint64_t front(const simt::Device& src) const {
    return src.read_word(front_addr());
  }
  [[nodiscard]] std::uint64_t rear(const simt::Device& src) const {
    return src.read_word(rear_addr());
  }

  // Flight-recorder unit tag: 0 is reserved for the main queue, so the
  // cluster labels the ring to destination d as unit 1 + d. Events the
  // producer records (kXferReserve/kXferWrite) carry this tag so the
  // post-mortem analyzer can tell rings apart.
  void set_tag(std::uint32_t tag) { tag_ = tag; }
  [[nodiscard]] std::uint32_t tag() const { return tag_; }

 private:
  [[nodiscard]] simt::Addr front_addr() const { return ctrl_.at(0); }
  [[nodiscard]] simt::Addr rear_addr() const { return ctrl_.at(1); }

  simt::Buffer ctrl_;   // [0]=Front  [1]=Rear
  simt::Buffer slots_;  // capacity words, slot_empty_word(0)-initialized
  std::uint64_t capacity_ = 0;
  std::uint32_t tag_ = 0;
};

}  // namespace scq::cluster
