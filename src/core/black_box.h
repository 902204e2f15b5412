// Black-box dump assembly: the deterministic JSON document written on
// any abort path (publish-backpressure deadlock, event-queue drain
// deadlock, cluster superstep guard / quiescence stall, or an explicit
// dump_now()).
//
// The document snapshots the full scheduler state at the moment of
// death — queue control blocks (Front/Rear/Completed per priority
// band), per-band occupancy and the closure frontier, ring residency,
// the attached flight recorder's last-N events and live wait tables,
// and (for clusters) transfer-ring residency plus the router's pending
// tokens. It is pure JSON over util/json.h-parsable primitives, so the
// post-mortem analyzer (util/postmortem.h) consumes it with no
// dependency on the simulator: dumps are replayable artifacts, not
// live pointers.
//
// Determinism: every field is read from deterministic simulator state
// in a fixed order — two bit-exact schedules that die the same way
// produce byte-identical documents (the same contract the telemetry
// and task-trace exporters honor).
//
// Document shape:
//   {"blackbox":1,"reason":"...","cycle":N,
//    "devices":[{"name":"dev0","cycle":N,
//                "queue":{"variant":...,"capacity":...,
//                         "per_band_capacity":...,"closure_frontier":...,
//                         "resident":...,"bands":[{"band":...,"front":...,
//                         "rear":...,"completed":...,"occupancy":...}]},
//                "recorder":{...FlightRecorder::to_json()...}}],
//    "rings":[{"src":0,"dst":1,"front":...,"rear":...,"backlog":...,
//              "capacity":...}],
//    "router":{"drained":...,"delivered":...,"stolen":...,
//              "inject_retries":...,"pending":[[tokens...],...]}}
// "rings" is always present (empty for single-device dumps); "router"
// is null unless the dump came from the cluster runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/queue.h"
#include "util/json.h"

namespace scq {

class BlackBoxBuilder {
 public:
  explicit BlackBoxBuilder(std::string reason) : reason_(std::move(reason)) {}

  void set_cycle(simt::Cycle cycle) { cycle_ = cycle; }

  // Snapshots one device: queue control blocks via DeviceQueue::
  // snapshot() plus the attached recorder's ring and wait tables.
  // `name` follows the cluster telemetry convention ("" single-device,
  // "dev<N>" in a cluster). Null queue / recorder emit JSON null.
  void add_device(const std::string& name, const simt::Device& dev,
                  const DeviceQueue* queue,
                  const simt::FlightRecorder* recorder);

  // Cluster extras: one transfer-ring residency entry per ordered
  // device pair, and the router's counters + pending tokens.
  void add_ring(std::uint32_t src, std::uint32_t dst, std::uint64_t front,
                std::uint64_t rear, std::uint64_t capacity);
  void set_router(std::uint64_t drained, std::uint64_t delivered,
                  std::uint64_t stolen, std::uint64_t inject_retries,
                  const std::vector<std::vector<std::uint64_t>>& pending);

  [[nodiscard]] std::string to_json() const;

 private:
  std::string reason_;
  simt::Cycle cycle_ = 0;
  std::vector<std::string> devices_;  // pre-rendered device objects
  std::vector<std::string> rings_;    // pre-rendered ring objects
  std::string router_;                // pre-rendered object, "" == null
};

// Single-device convenience: the queue's snapshot + the device's
// attached recorder under the default (unnamed) device entry.
[[nodiscard]] std::string dump_black_box(simt::Device& dev,
                                         const DeviceQueue* queue,
                                         const std::string& reason);

// Writes a dump document to `path`; false on any write failure (with a
// one-line stderr warning — dumps are emitted on already-failing paths,
// so a write error must not mask the original failure).
bool write_black_box(const std::string& json, const std::string& path);

// The shared JSON string escaper, for abort-reason text.
using util::json_escape;

}  // namespace scq
