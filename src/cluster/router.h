// Host-side router/balancer: the glue that runs at every cluster
// superstep barrier.
//
//   collect   pops every transfer sub-ring through DeviceQueue::host_pop
//             (source-major, then destination order, so the schedule is
//             deterministic) into per-destination pending FIFOs.
//   balance   (kSteal only) splits candidates queued for overloaded
//             owners: the enumeration half goes to an under-loaded
//             thief as kStolen, the authority half stays with the owner
//             as kUpdate so its cost array still converges. kOwnerOnly
//             leaves every candidate with its owner.
//   deliver   injects pending tokens into the owning devices' main
//             queues through DeviceQueue::host_push: a token is written
//             only over the matching epoch's empty sentinel at Rear's
//             slot; if the slot has not recycled (ring momentarily
//             full), the remainder stays pending and retries next
//             barrier.
//
// Host reads/writes cost no simulated cycles, so the router is "free"
// in device time — the cost model for cross-device traffic is the
// superstep latency itself (work emitted in quantum k is executable at
// the earliest in quantum k+1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/transfer.h"
#include "core/queue.h"

namespace scq::cluster {

enum class BalancePolicy {
  kOwnerOnly,  // every candidate executes on its owner
  kSteal,      // overloaded owners' candidates enumerate elsewhere
  // Priority-aware steal: same overload trigger and dedup gate as
  // kSteal, but the FIFO-order walk becomes a cost-order walk — the
  // lowest-cost (lowest-band) candidates are redirected first, so
  // thieves receive the work delta-stepping most wants expanded early —
  // and deliver() injects each device's pending tokens in ascending
  // cost order (a banded main queue re-sorts anyway; a single-band
  // queue gets priority order only through injection order).
  kStealPriority,
};

// kSteal and kStealPriority share the balance/backlog machinery.
[[nodiscard]] constexpr bool steals(BalancePolicy policy) {
  return policy == BalancePolicy::kSteal ||
         policy == BalancePolicy::kStealPriority;
}

[[nodiscard]] std::string_view to_string(BalancePolicy policy);
// Parses "owner-only" / "steal" / "steal-priority"; throws
// std::invalid_argument otherwise.
[[nodiscard]] BalancePolicy balance_policy_from_string(std::string_view name);

struct RouterStats {
  std::uint64_t drained = 0;         // tokens taken out of transfer rings
  std::uint64_t delivered = 0;       // tokens injected into main queues
  std::uint64_t stolen = 0;          // enumerations redirected by balance
  std::uint64_t inject_retries = 0;  // deliveries deferred to a later barrier
};

class Router {
 public:
  Router(std::uint32_t num_devices, BalancePolicy policy, double steal_trigger)
      : pending_(num_devices),
        policy_(policy),
        steal_trigger_(steal_trigger) {}

  // Pops every sub-ring of xfers[s], device s's transfer queue, into
  // pending_ of the sub-ring's destination.
  void collect(std::span<const std::unique_ptr<simt::Device>> devices,
               std::span<const std::unique_ptr<TransferQueue>> xfers);

  // backlog[d] = incomplete tokens on device d's main queue. Converts
  // pending candidates of overloaded destinations into kStolen (for the
  // lightest under-loaded device) + kUpdate (for the owner) pairs.
  void balance(std::span<const std::uint64_t> backlog);

  // Injects pending_[d] into device d's main queue, FIFO order.
  void deliver(std::span<const std::unique_ptr<simt::Device>> devices,
               std::span<const std::unique_ptr<DeviceQueue>> queues);

  [[nodiscard]] bool pending_empty() const;
  // Pending token contents per destination, FIFO order (black-box dumps).
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> pending_snapshot()
      const;
  [[nodiscard]] const RouterStats& stats() const { return stats_; }

 private:
  std::vector<std::deque<std::uint64_t>> pending_;
  // Best (lowest) cost ever stolen per vertex: the steal dedup gate.
  std::unordered_map<std::uint64_t, std::uint64_t> stolen_best_;
  BalancePolicy policy_;
  double steal_trigger_;
  RouterStats stats_;
};

}  // namespace scq::cluster
