// Deliberately broken workloads that drive the runtime into each abort
// path and hand back the resulting black-box dump. Shared by the
// post-mortem tests (the dumps must name the true blocking wave / band)
// and by bench/postmortem's --force mode (the CI smoke step that proves
// the whole dump -> analyze pipeline end to end).
//
// Every scenario is fully deterministic: fixed device config, no
// schedule jitter, fixed seeds — two invocations produce byte-identical
// dump documents (asserted by tests).
#pragma once

#include <string>

namespace scq::fuzz {

struct ForcedDump {
  std::string reason;  // the abort reason the runtime produced
  std::string json;    // the black-box document
};

// Publish-backpressure deadlock on a single device: an RF/AN ring of 4
// slots is seeded full, then one wave publishes a 5th token without
// ever consuming. The reservation parks forever (slot 0 never
// recycles), the publish deadlock detector fires, and the dump's wait
// table shows wave 0 parked on ticket 4 blocked by the never-claimed
// ticket 0.
[[nodiscard]] ForcedDump forced_publish_deadlock_dump();

// Cluster quiescence stall: two devices, one seeded token on device 0,
// kernels that exit immediately without claiming anything. Every event
// queue drains while dev0's band 0 still has rear=1, completed=0 — the
// stall detector aborts the superstep loop and the dump names the
// device and band holding the orphaned work.
[[nodiscard]] ForcedDump forced_cluster_stall_dump();

// Parked transfers: device 1 of a three-device cluster publishes six
// tokens toward device 0 and six toward device 2 through 4-slot
// transfer sub-rings, and no barrier drains them. Two reservations per
// destination stall, and the snapshot's wait table shows device 1's
// wave parked on each ring, awaiting the host.
[[nodiscard]] ForcedDump forced_transfer_park_dump();

}  // namespace scq::fuzz
