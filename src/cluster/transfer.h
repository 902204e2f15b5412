// Inter-device transfer rings on the ring core: the queue through
// which one device's persistent-thread driver hands frontier work to
// the host router for delivery to the other devices.
//
// One TransferQueue per source device splits its slot array into one
// sub-ring of `per_pair` slots per *other* device (no self-ring, so
// K = devices - 1 <= 63 sub-rings). A producing wave stages its remote
// children in one WaveQueueState and publishes them with the core's
// fetch-add enqueue (DeviceQueue::publish): the proxy aggregates the
// batch in LDS, one non-failing atomic add per destination reserves its
// share, and the writes land over epoch-tagged empty sentinels, parking
// while the host has not recycled a slot. route() sends each token to
// the sub-ring of its vertex's owner.
//
// The consumer is the host router: at every superstep barrier it pops
// each sub-ring through DeviceQueue::host_pop, which costs no simulated
// cycles. Rears count reservations, so a parked-but-unwritten token
// keeps its sub-ring's Front below Rear — the cluster's termination
// detector relies on that, exactly as a main queue's does.
//
// Sub-ring k carries recorder unit 1 + its destination device, so a
// black box names the device a parked transfer waits for. Transfer
// steps reach only the flight recorder and the xfer.* telemetry, their
// writes count as kXferTokens, and a transfer queue never trips the
// publish-deadlock abort: its producers wait on the host, which drains
// only between quanta.
#pragma once

#include <cstdint>
#include <span>

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

class TransferQueue final : public DeviceQueue {
 public:
  // Device `src`'s outgoing rings toward the other `devices - 1`
  // devices (2..64), `per_pair` slots each (> 0). `owner[v]` is the
  // device that owns vertex v; not copied, must outlive the queue.
  TransferQueue(simt::Device& dev, std::uint32_t src, std::uint32_t devices,
                std::uint64_t per_pair, std::span<const std::uint32_t> owner);

  // The enqueue is RF/AN's fetch-add.
  [[nodiscard]] QueueVariant variant() const override {
    return QueueVariant::kRfan;
  }
  // The host is the only consumer.
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;

  // Sub-ring k's destination device, and the sub-ring toward `dst`.
  [[nodiscard]] std::uint32_t destination(std::uint32_t k) const {
    return k + (k >= src_ ? 1 : 0);
  }
  [[nodiscard]] std::uint32_t ring_to(std::uint32_t dst) const {
    return dst - (dst > src_ ? 1 : 0);
  }

 protected:
  // The sub-ring toward the owner of the token's vertex. SimError for a
  // vertex outside the owner table or owned by the source itself.
  [[nodiscard]] std::uint32_t route(std::uint64_t token,
                                    std::uint32_t cu) const override;

 private:
  std::uint32_t src_;
  std::span<const std::uint32_t> owner_;
};

}  // namespace scq::cluster
