// Application-level statistics counter indices (DeviceStats::user) and
// the names of the scheduler's windowed telemetry series.
#pragma once

namespace scq {

enum UserCounter : unsigned {
  kWorkCycles = 0,      // persistent-thread work cycles executed (per wave)
  kPolls = 1,           // arrival checks that found no data
  kEmptyRetries = 2,    // dequeue attempts that hit a queue-empty exception
  kTasksProcessed = 3,  // task tokens fully processed
  kEdgesRelaxed = 4,    // BFS edges examined
  kTokensEnqueued = 5,  // tokens published to the queue
  kDupEnqueues = 6,     // re-enqueues (label-correcting improvements)
  kLevelsOrSweeps = 7,  // level-synchronous baselines: levels executed
  // Scheduler-only atomic accounting (Fig. 5's retry ratio is computed
  // over the atomics the *task scheduler* issues, isolating the queue
  // from the application's per-edge traffic).
  kQueueAtomics = 8,     // atomic ops issued by queue operations
  kQueueCasFailures = 9, // failed CASes among them (retry driver)
  kPublishStalls = 10,   // parked-token publish retries (backpressure)
  kXferTokens = 11,      // tokens emitted into inter-device transfer rings
  // Priority scheduling (BucketedMultiQueue / delta-stepping drivers).
  kStaleSkips = 12,      // delivered tokens skipped as stale (better path won)
  kBandCloses = 13,      // priority bands observed closed by a wave
};

// Names of the windowed series register_scheduler_probes registers
// (core/telemetry_probes.h). The distributions behind the paper's
// figures — CAS retry run lengths and aggregation widths for Fig. 1 and
// Fig. 5's totals, slot-monitor waits for the dna polling cost, and the
// per-operation latencies — are named by the telemetry view of the
// protocol stream (sim/telemetry.h), which the queues feed by emitting
// steps.
namespace tel {

// Gauges, sampled at each window close.
inline constexpr const char kOccupancy[] = "queue.occupancy";
// Ring slots currently holding a token; ≤ capacity by construction (the
// O(capacity) memory-bound invariant, distinct from occupancy which
// counts reserved tickets and may transiently exceed capacity).
inline constexpr const char kResidentTokens[] = "queue.resident_tokens";
inline constexpr const char kAtomicBacklog[] = "atomic_unit.backlog";
inline constexpr const char kWaveUtilization[] = "waves.utilization_pct";
// Per-band occupancy gauges (BucketedMultiQueue only; suffixed ".b<i>").
inline constexpr const char kBandOccupancyPrefix[] = "queue.band_occupancy.b";

// Per-window increments of the DeviceStats counters.
inline constexpr const char kWinPublishStalls[] = "queue.publish_stalls";
inline constexpr const char kWinCasFailures[] = "queue.cas_failures";
inline constexpr const char kWinQueueAtomics[] = "queue.atomics";

}  // namespace tel

}  // namespace scq
