// Black-box flight recording: one of the three views of the
// queue-protocol event stream (sim/protocol_stream.h).
//
// A FlightRecorder keeps a bounded ring of the most recent scheduler /
// queue events — ticket reservations, ring writes, dequeue claims,
// deliveries, completions, band closures and host-router injections —
// each tagged with the device cycle, the acting wave slot, the ring
// unit (0 for a device's own queue; a transfer sub-ring's unit names
// its destination device), the ticket and its priority band. Unlike
// OpHistory (append-only, unbounded, consumed by the fuzz checker) the
// recorder is built for *failed* runs: it is cheap enough to leave
// attached on every run, overwrites its oldest events instead of
// growing, and its contents are snapshotted into the black-box dump
// (core/black_box.h) on any abort path.
//
// Alongside the ring the recorder maintains a live wait-state table,
// immune to ring wrap-around:
//
//   monitors  one entry per dequeue claim currently *waiting*: the wave
//             that claimed ticket t is monitoring t's slot for data
//             that has not arrived (inserted on kClaim, erased on
//             kDeliver).
//   parked    one entry per enqueue reservation currently *waiting*:
//             the wave that reserved ticket t is parked until t's ring
//             slot recycles (inserted on kReserve, erased on kWrite).
//
// At the instant of a deadlock these two tables ARE the wait-for graph
// material: the post-mortem analyzer (util/postmortem.h) joins parked
// reservations against the monitors of the tickets that block them.
//
// Cost discipline (the recorder is attached to every run): the protocol
// stream feeds the healthy path through log_steps(), which coalesces
// one wave's per-lane protocol steps into a single ring event and never
// touches the wait tables. Full record() calls — which do maintain the
// tables — happen only at wait *transitions*: a reservation's first
// stalled flush round, a claim's first missed poll, and the
// write/deliver that finally retires a waited ticket. Healthy tokens
// therefore cost a few ns of ring logging each; only actual waits pay
// for table upkeep, and the tables hold exactly the state a deadlock
// analysis needs.
//
// Determinism: events are recorded within the same event-processing
// slice as the simulated memory effect they describe, the ring and the
// tables are plain ordered containers, and to_json() is byte-stable —
// two bit-exact schedules produce two byte-identical recorder
// documents (the same contract TaskTrace::to_json honors).
//
// Cluster devices each record into their own recorder with source label
// "dev<N>" (empty for single-device runs); the black box lists every
// device's recorder side by side.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"

namespace simt {

enum class FlightKind : std::uint8_t {
  kReserve,    // enqueue ticket reserved (token parked until its slot clears)
  kWrite,      // payload written into the ring slot (reservation retired)
  kClaim,      // dequeue ticket claimed (wave now monitors the slot)
  kDeliver,    // payload observed by the consumer (monitor retired)
  kComplete,   // tasks reported complete (payload = count)
  kBandClose,  // priority band observed closed (ticket = final rear)
  kRouter,     // host router injected a token into the main queue
  kNote,       // free-form marker (payload/ticket caller-defined)
};

[[nodiscard]] constexpr const char* to_string(FlightKind k) {
  switch (k) {
    case FlightKind::kReserve: return "reserve";
    case FlightKind::kWrite: return "write";
    case FlightKind::kClaim: return "claim";
    case FlightKind::kDeliver: return "deliver";
    case FlightKind::kComplete: return "complete";
    case FlightKind::kBandClose: return "band-close";
    case FlightKind::kRouter: return "router";
    case FlightKind::kNote: return "note";
  }
  return "?";
}

struct FlightEvent {
  FlightKind kind = FlightKind::kNote;
  std::uint32_t actor = 0;    // wave slot id, or kHostActor
  std::uint32_t unit = 0;     // 0 = main queue; 1 + dst = transfer sub-ring
  std::uint64_t ticket = 0;   // scheduler ticket (band-encoded for mq)
  std::uint64_t payload = 0;  // token value (count for kComplete; batch
                              // width for coalesced log_step events)
  std::uint64_t band = 0;     // priority band (0 for single-band queues)
  Cycle cycle = 0;            // device clock at record time
  // Stamped by record(): the recorder's monotone event index (survives
  // ring wrap — event seq s was the (s+1)-th ever recorded).
  std::uint64_t seq = 0;
};

class FlightRecorder {
 public:
  // The default ring is small by design: the recorder targets "the last
  // few thousand scheduler decisions before the crash", not a full run
  // history (that is OpHistory's job).
  explicit FlightRecorder(std::size_t capacity = 4096);

  // Appends one event (stamping seq) and updates the wait tables.
  // Overwrites the oldest ring entry past capacity, counting the
  // overwrite as a drop. Mutex-protected like the sibling recorders.
  void record(const FlightEvent& e);

  // Coalescing fast path for the per-lane protocol steps (the always-on
  // hot steps: reserve/write/claim/deliver). Consecutive steps with the
  // same (kind, actor, unit, cycle) — one wave's batch within one
  // event-processing slice — fold into a single ring event whose ticket
  // and band are the first lane's and whose payload is the batch width.
  // The wait tables are NOT touched: the protocol stream record()s full
  // events at wait transitions instead (see the header comment).
  //
  // Lock-free by design (the budget is a few ns per lane): log_step
  // must only be called from the thread driving the simulator. The
  // pending batch is folded into the ring — under the mutex — when a
  // non-matching step begins, a full event is recorded, or any reader
  // snapshots the recorder.
  void log_step(FlightKind kind, std::uint32_t actor, std::uint32_t unit,
                std::uint64_t ticket, std::uint64_t band, Cycle cycle) {
    log_steps(kind, actor, unit, ticket, band, cycle, 1);
  }

  // Width-aware variant for steps that carry the whole batch (e.g. a
  // wave claiming `width` contiguous tickets with one AFA): one call logs
  // the entire batch, so the recorder costs one branch per wave instead
  // of one call per lane.
  void log_steps(FlightKind kind, std::uint32_t actor, std::uint32_t unit,
                 std::uint64_t ticket, std::uint64_t band, Cycle cycle,
                 std::uint32_t width) {
    if (width == 0) return;
    PendingStep& p = pending_;
    if (p.width != 0 && p.kind == kind && p.actor == actor &&
        p.unit == unit && p.cycle == cycle) {
      p.width += width;
      return;
    }
    begin_steps(kind, actor, unit, ticket, band, cycle, width);
  }

  // Source label for this recorder's events (the cluster sets "dev<N>"
  // per device; empty for single-device runs).
  void set_source_label(std::string label);
  [[nodiscard]] std::string source_label() const;

  // Events in recording order, oldest surviving entry first.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Events overwritten by ring wrap.
  [[nodiscard]] std::uint64_t dropped() const;
  // Total events ever recorded (ring survivors + dropped).
  [[nodiscard]] std::uint64_t recorded() const;

  // Live wait-state entries (see the header comment). Keys are
  // (unit, ticket); deterministic iteration order.
  struct MonitorWait {
    std::uint32_t actor = 0;
    std::uint64_t band = 0;
    Cycle since = 0;
  };
  struct ParkWait {
    std::uint32_t actor = 0;
    std::uint64_t band = 0;
    std::uint64_t token = 0;
    Cycle since = 0;
  };
  using WaitKey = std::pair<std::uint32_t, std::uint64_t>;
  [[nodiscard]] std::map<WaitKey, MonitorWait> monitors() const;
  [[nodiscard]] std::map<WaitKey, ParkWait> parked() const;

  // Drops all events, wait entries and the drop count (the label
  // survives: it describes configuration, not data).
  void clear();

  // Deterministic JSON object:
  //   {"flight_recorder":1,"capacity":C,"recorded":T,"dropped":D,
  //    "sources":[label],"events":[...],"monitors":[...],"parked":[...]}
  // Events in ring order; wait tables in key order. Every event and
  // wait entry carries "src":0, the index of its source in "sources"
  // (the post-mortem analyzer reads it). Embeddable as a value inside
  // the black-box document.
  [[nodiscard]] std::string to_json() const;

 private:
  // One coalesced wave batch not yet folded into the ring. Owner-thread
  // only; width == 0 means empty. Mutable (with the ring fields) so
  // const readers can fold it in before snapshotting.
  struct PendingStep {
    FlightKind kind = FlightKind::kNote;
    std::uint32_t actor = 0;
    std::uint32_t unit = 0;
    std::uint64_t ticket = 0;
    std::uint64_t band = 0;
    Cycle cycle = 0;
    std::uint32_t width = 0;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::string label_;
  mutable std::vector<FlightEvent> ring_;  // ring_[ (first_ + i) % capacity_ ]
  mutable std::size_t first_ = 0;          // index of the oldest surviving event
  mutable std::uint64_t recorded_ = 0;
  mutable std::uint64_t dropped_ = 0;
  mutable PendingStep pending_;
  std::map<WaitKey, MonitorWait> monitors_;
  std::map<WaitKey, ParkWait> parked_;

  void begin_steps(FlightKind kind, std::uint32_t actor, std::uint32_t unit,
                   std::uint64_t ticket, std::uint64_t band, Cycle cycle,
                   std::uint32_t width);
  void flush_step_locked() const;
  void append_locked(FlightEvent e) const;
  void apply_wait_locked(const FlightEvent& e);
};

}  // namespace simt
