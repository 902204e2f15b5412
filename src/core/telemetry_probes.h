// Standard scheduler telemetry probes.
//
// register_scheduler_probes wires the windowed series every persistent-
// thread run wants against one (device, queue) pair:
//
//   queue.occupancy         Rear - Front (tokens enqueued, unclaimed)
//   queue.resident_tokens   ring slots holding a token (≤ capacity)
//   atomic_unit.backlog     cycles of FIFO backlog on Front + Rear
//   queue.publish_stalls,   per-window deltas of the scheduler's
//   queue.cas_failures,     counters
//   queue.atomics
//   queue.band_occupancy.b<i>  per band, banded queues only
//   waves.utilization_pct   compute cycles issued per window, as % of
//                           resident-wave issue capacity
//
// The distributions and the lane census (lanes.hungry, lanes.assigned)
// come from the protocol stream's steps, so they need no registration.
// tasks::run_task_waves registers these for every single-device run and
// the cluster runtime for each of its devices.
//
// Gauges capture the device and queue by reference: they must be
// re-registered (after Telemetry::clear_probes) whenever the probed
// objects are rebuilt — e.g. the queue-full retry path constructing a
// fresh device.
#pragma once

#include "core/queue.h"
#include "sim/telemetry.h"

namespace scq {

void register_scheduler_probes(simt::Telemetry& telemetry, simt::Device& dev,
                               const DeviceQueue& queue);

}  // namespace scq
