#include "cluster/transfer.h"

#include "cluster/token.h"

namespace scq::cluster {

TransferQueue::TransferQueue(simt::Device& dev, std::uint32_t src,
                             std::uint32_t devices, std::uint64_t per_pair,
                             std::span<const std::uint32_t> owner)
    : DeviceQueue(dev, per_pair * (devices - 1), RingSplit::kHomes,
                  devices - 1),
      src_(src),
      owner_(owner) {
  if (src >= devices) {
    throw simt::SimError("TransferQueue: source device out of range");
  }
  units_.resize(rings());
  for (std::uint32_t k = 0; k < rings(); ++k) units_[k] = 1 + destination(k);
}

Kernel<void> TransferQueue::acquire_slots(Wave&, WaveQueueState&) {
  throw simt::SimError("TransferQueue: the host router is the only consumer");
}

std::uint32_t TransferQueue::route(std::uint64_t token,
                                   std::uint32_t /*cu*/) const {
  const std::uint64_t v = token_vertex(token);
  if (v >= owner_.size() || owner_[v] == src_) {
    throw simt::SimError(
        "TransferQueue: token's vertex has no owner on another device");
  }
  return ring_to(owner_[v]);
}

}  // namespace scq::cluster
