// One stream of queue-protocol events, read by four views.
//
// Every token goes through the same steps: its enqueue ticket is
// reserved, its payload written into the ticket's slot, its dequeue
// ticket claimed, and its dna sentinel seen to clear. Completions, band
// closes, host publishes and task executions sit around them. Producers
// emit each step once and name no sink; the stream turns it into
// records of whichever views are attached — the op history (checker
// input), the flight recorder (always-on black box), the task trace
// (critical-path input) and telemetry (distributions and windowed
// series):
//
//   step          OpHistory          FlightRecorder            TaskTrace
//   reserve       enq-reserve        reserve, coalesced        reserve
//   stall         -                  reserve, full             -
//   write         enq-write          write, full if it waited  payload-write
//   claim         deq-claim          claim, coalesced          claim
//   poll          deq-deliver        claim, full on the first  arrival
//                                    miss; deliver, full if
//                                    it waited
//   complete      -                  complete                  -
//   band_close    band-close         band-close                -
//   host_publish  enq-reserve and    write (seed) or router    reserve and
//                 enq-write                                    payload-write
//                                                              (seed only)
//   exec_start/   -                  -                         exec-start/
//   exec_end                                                   exec-end
//
// Telemetry reads its own column (metric names are queue.* unless
// given in full; Telemetry owns them):
//
//   step           Telemetry
//   poll           slot_wait, one value per delivered lane
//   stall_end      publish_stall; band_stall.b<i> windows on banded rings
//   cas_run        cas_retry_run
//   acquire_end    dequeue_latency; agg_width_dequeue unless per-lane
//   publish_batch  agg_width_enqueue (xfer.agg_width on a transfer queue)
//   publish_end    enqueue_latency (xfer.enqueue_latency on a transfer
//                  queue)
//   lanes          lanes.hungry and lanes.assigned windows
//
// The last six steps feed telemetry only. Every recorder event carries
// its ring's unit (TicketSpace::unit_of): 0 on a device's own queues.
// A transfer queue's sub-rings, which the host drains toward other
// devices, carry non-zero units; their reserve, stall and write steps
// reach the recorder alone, and their stall_end reaches no view. A
// reservation without a ticket (kNoTask: the locked stack's pushes,
// whose LIFO indices are no identity) reaches no ticket-keyed view.
// The recorder rides every run, so a wave's batch of steps folds into
// one coalesced event (FlightRecorder::log_steps); the full records
// that keep its wait tables are written only at wait transitions. A
// lane-batch step carries the whole batch so each view keeps its own
// order: history and trace take a poll's deliveries in lane order, the
// recorder takes first-miss claims, then the never-missed deliveries,
// then the waited ones. Steps are emitted in the event-processing slice
// of their memory effect, so every view's append order is protocol
// order. A detached view costs one branch per step.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/flight_recorder.h"
#include "sim/op_history.h"
#include "sim/task_trace.h"
#include "sim/telemetry.h"
#include "sim/wave.h"

namespace simt {

// Where a ticket lives in its ring.
struct SlotRef {
  std::uint64_t index = 0;  // absolute index into the ring's slot array
  std::uint64_t epoch = 0;  // ring epoch (wrap count)
};

// A ticket's sub-ring index sits above this bit (the ring core's
// encoding, core/queue.h: (k << 48) | local).
inline constexpr unsigned kTicketRingShift = 48;

// A ring's ticket numbering as the views read it.
class TicketSpace {
 public:
  TicketSpace() = default;
  TicketSpace(const TicketSpace&) = delete;
  TicketSpace& operator=(const TicketSpace&) = delete;
  virtual ~TicketSpace() = default;
  [[nodiscard]] virtual SlotRef slot_of(std::uint64_t ticket) const = 0;
  // Number of priority bands, and the band of a ticket (one band 0 for
  // single-band rings).
  [[nodiscard]] virtual std::uint32_t num_bands() const { return 1; }
  [[nodiscard]] virtual std::uint64_t band_of(std::uint64_t /*ticket*/) const {
    return 0;
  }

  // A transfer queue's sub-rings are drained by the host toward other
  // devices; a device's own queues have no units.
  [[nodiscard]] bool transfers() const { return !units_.empty(); }
  // The recorder unit of a ticket's ring: 0 on a device's own queues,
  // units_[k] (non-zero) on sub-ring k of a transfer queue. A plain
  // table rather than a virtual call: every ring step reads it.
  [[nodiscard]] std::uint32_t unit_of(std::uint64_t ticket) const {
    return units_.empty() ? 0 : units_[ticket >> kTicketRingShift];
  }

 protected:
  std::vector<std::uint32_t> units_;
};

// Who took a step, and when.
struct StepActor {
  // A wave: its slot, its CU and the device clock. Implicit, so wave
  // context passes the wave itself.
  StepActor(const Wave& w)
      : id(w.slot_id()), cu(w.cu_id()), cycle(w.now()) {}
  constexpr StepActor(std::uint32_t i, std::uint32_t c, Cycle t)
      : id(i), cu(c), cycle(t) {}
  // The host (seeding, the router, host-queue threads) at cycle `t`.
  [[nodiscard]] static constexpr StepActor host(Cycle t) {
    return {kHostActor, 0, t};
  }

  std::uint32_t id;
  std::uint32_t cu;
  Cycle cycle;
};

// Who host-published a token: the host seeding a queue, or the cluster
// router injecting one between supersteps.
enum class HostOrigin : std::uint8_t { kSeed, kRouter };

// Per-lane values of a wave batch, indexed by lane.
using LaneWords = std::span<const std::uint64_t>;

class ProtocolStream {
 public:
  // ---- Views (not owned; nullptr detaches) ----
  void attach_history(OpHistory* view) { history_ = view; }
  void attach_recorder(FlightRecorder* view) { recorder_ = view; }
  void attach_task_trace(TaskTrace* view) { trace_ = view; }
  void attach_telemetry(Telemetry* view) { telemetry_ = view; }
  // Stamps task-trace events with steady-clock nanoseconds since this
  // call instead of the step's cycle: for host-thread producers with no
  // simulated clock.
  void trace_on_wall_clock() {
    wall_clock_ = true;
    wall_epoch_ = std::chrono::steady_clock::now();
  }
  [[nodiscard]] FlightRecorder* recorder() const { return recorder_; }

  // ---- Ring steps ----

  // Enqueue ticket reserved for `token`, spawned by task `parent`.
  void reserve(StepActor a, const TicketSpace& ring, std::uint64_t ticket,
               std::uint64_t token, std::uint64_t parent = kNoTask) {
    if (ticket == kNoTask) return;
    const bool own = !ring.transfers();
    if (history_ != nullptr && own) {
      to_history(QueueOp::kEnqueueReserve, a, ring, ticket, token);
    }
    if (recorder_ != nullptr) {
      recorder_->log_steps(FlightKind::kReserve, a.id, ring.unit_of(ticket),
                           ticket, ring.band_of(ticket), a.cycle, 1);
    }
    if (trace_ != nullptr && own) {
      to_trace(TaskPhase::kReserve, a, ticket, token, parent);
    }
  }

  // A reservation survived its first failed flush round: it now waits
  // for its slot to recycle (`since` in the recorder's parked table).
  void stall(StepActor a, const TicketSpace& ring, std::uint64_t ticket,
             std::uint64_t token) {
    if (recorder_ != nullptr && ticket != kNoTask) {
      to_recorder(FlightKind::kReserve, a, ring.unit_of(ticket), ticket, token,
                  ring.band_of(ticket));
    }
  }

  // Payloads written into their slots: each lane of `written` wrote
  // token[lane] for ticket[lane]; `waited` lanes had stalled first.
  void write(StepActor a, const TicketSpace& ring, LaneMask written,
             LaneMask waited, LaneWords ticket, LaneWords token) {
    if ((history_ != nullptr || trace_ != nullptr) && !ring.transfers()) {
      to_views(QueueOp::kEnqueueWrite, TaskPhase::kPayloadWrite, a, ring,
               written, ticket, token);
    }
    if (recorder_ == nullptr) return;
    for_lanes(written & waited, [&](unsigned i) {
      to_recorder(FlightKind::kWrite, a, ring.unit_of(ticket[i]), ticket[i],
                  token[i], ring.band_of(ticket[i]));
    });
    coalesce(FlightKind::kWrite, a, ring, written & ~waited, ticket);
  }

  // Dequeue tickets claimed: each lane of `claimed` now monitors
  // ticket[lane].
  void claim(StepActor a, const TicketSpace& ring, LaneMask claimed,
             LaneWords ticket) {
    if (history_ != nullptr || trace_ != nullptr) {
      to_views(QueueOp::kDequeueClaim, TaskPhase::kClaim, a, ring, claimed,
               ticket, {});
    }
    if (recorder_ != nullptr) {
      coalesce(FlightKind::kClaim, a, ring, claimed, ticket);
    }
  }

  // One arrival poll: every lane of `polled` read its monitored slot,
  // and the `arrived` ones found token[lane]; lane i had claimed its
  // ticket at cycle claimed_at[i]. `waiting` holds the lanes whose claim
  // has already missed a poll; the recorder keeps it.
  void poll(StepActor a, const TicketSpace& ring, LaneMask polled,
            LaneMask arrived, LaneWords ticket, LaneWords token,
            LaneWords claimed_at, LaneMask& waiting) {
    if (history_ != nullptr || trace_ != nullptr) {
      to_views(QueueOp::kDequeueDeliver, TaskPhase::kArrival, a, ring,
               arrived, ticket, token);
    }
    if (telemetry_ != nullptr) {
      for_lanes(arrived, [&](unsigned lane) {
        telemetry_->record(StepMetric::kSlotWait, a.cycle - claimed_at[lane]);
      });
    }
    if (recorder_ == nullptr) return;
    // A claim becomes a wait on its first missed poll: its full event
    // enters the monitor table, and its delivery retires the entry with
    // another. Never-missed deliveries fold into one batch.
    const LaneMask fresh_miss = polled & ~arrived & ~waiting;
    for_lanes(fresh_miss, [&](unsigned lane) {
      to_recorder(FlightKind::kClaim, a, 0, ticket[lane], 0,
                  ring.band_of(ticket[lane]));
    });
    waiting |= fresh_miss;
    coalesce(FlightKind::kDeliver, a, ring, arrived & ~waiting, ticket);
    for_lanes(arrived & waiting, [&](unsigned lane) {
      to_recorder(FlightKind::kDeliver, a, 0, ticket[lane], token[lane],
                  ring.band_of(ticket[lane]));
    });
    waiting &= ~arrived;
  }

  // Single-ticket forms for producers without lanes (HostBrokerQueue).
  void write(StepActor a, const TicketSpace& ring, std::uint64_t ticket,
             std::uint64_t token) {
    write(a, ring, 1, 0, {&ticket, 1}, {&token, 1});
  }
  void claim(StepActor a, const TicketSpace& ring, std::uint64_t ticket) {
    claim(a, ring, 1, {&ticket, 1});
  }
  void deliver(StepActor a, const TicketSpace& ring, std::uint64_t ticket,
               std::uint64_t token) {
    LaneMask waiting = 0;
    poll(a, ring, 1, 1, {&ticket, 1}, {&token, 1}, {&a.cycle, 1}, waiting);
  }

  // `count` tasks reported complete in `band`.
  void complete(StepActor a, std::uint64_t count, std::uint64_t band) {
    if (recorder_ != nullptr) {
      to_recorder(FlightKind::kComplete, a, 0, 0, count, band);
    }
  }

  // Priority band observed closed at final Rear `rear`.
  void band_close(StepActor a, std::uint64_t band, std::uint64_t rear) {
    if (history_ != nullptr) {
      history_->record(
          {QueueOp::kBandClose, a.id, rear, 0, 0, 0, a.cycle, band});
    }
    if (recorder_ != nullptr) {
      to_recorder(FlightKind::kBandClose, a, 0, rear, 0, band);
    }
  }

  // The host wrote `token` straight into `ticket`'s slot: reservation
  // and write in one step, at device cycle `cycle`.
  void host_publish(const TicketSpace& ring, HostOrigin origin,
                    std::uint64_t ticket, std::uint64_t token, Cycle cycle);

  // ---- Operation steps (telemetry only) ----

  // A stalled reservation's payload landed in its slot; it had been
  // parked since cycle `since`.
  void stall_end(StepActor a, const TicketSpace& ring, std::uint64_t ticket,
                 Cycle since) {
    if (telemetry_ == nullptr || ring.transfers()) return;
    telemetry_->record(StepMetric::kPublishStall, a.cycle - since);
    if (ring.num_bands() > 1) {
      telemetry_->record_band_stall(ring.band_of(ticket), a.cycle - since);
    }
  }
  // One CAS loop finished after `retries` failed attempts.
  void cas_run(StepActor /*a*/, std::uint64_t retries) {
    if (telemetry_ != nullptr) {
      telemetry_->record(StepMetric::kCasRetryRun, retries);
    }
  }
  // A slot acquisition that began at `start` claimed work. `width` is
  // the ticket count a wave's proxy claimed in one atomic; per-lane
  // claims pass 0 and record no width.
  void acquire_end(StepActor a, Cycle start, std::uint64_t width) {
    if (telemetry_ == nullptr) return;
    if (width != 0) telemetry_->record(StepMetric::kAggWidthDequeue, width);
    telemetry_->record(StepMetric::kDequeueLatency, a.cycle - start);
  }
  // A wave's proxy reserved `width` enqueue tickets in one batch.
  void publish_batch(StepActor /*a*/, const TicketSpace& ring,
                     std::uint64_t width) {
    if (telemetry_ != nullptr) {
      telemetry_->record(ring.transfers() ? StepMetric::kXferAggWidth
                                          : StepMetric::kAggWidthEnqueue,
                         width);
    }
  }
  // A publish that began at `start` with new tokens returned, its
  // flush included.
  void publish_end(StepActor a, const TicketSpace& ring, Cycle start) {
    if (telemetry_ != nullptr) {
      telemetry_->record(ring.transfers() ? StepMetric::kXferEnqueueLatency
                                          : StepMetric::kEnqueueLatency,
                         a.cycle - start);
    }
  }
  // A wave's lanes at one work cycle: those asking for work and those
  // monitoring a claimed slot.
  void lanes(StepActor a, LaneMask hungry, LaneMask assigned) {
    if (telemetry_ != nullptr) {
      telemetry_->note_lanes(a.id,
                             static_cast<std::uint64_t>(std::popcount(hungry)),
                             static_cast<std::uint64_t>(std::popcount(assigned)));
    }
  }

  // ---- Client steps ----
  void exec_start(StepActor a, std::uint64_t ticket, std::uint64_t payload) {
    if (trace_ != nullptr) to_trace(TaskPhase::kExecStart, a, ticket, payload);
  }
  void exec_end(StepActor a, std::uint64_t ticket) {
    if (trace_ != nullptr) to_trace(TaskPhase::kExecEnd, a, ticket, 0);
  }

 private:
  void to_history(QueueOp op, const StepActor& a, const TicketSpace& ring,
                  std::uint64_t ticket, std::uint64_t payload);
  void to_trace(TaskPhase phase, const StepActor& a, std::uint64_t ticket,
                std::uint64_t payload, std::uint64_t parent = kNoTask);
  // History and trace records of a lane batch, in lane order. An empty
  // `token` records payload 0.
  void to_views(QueueOp op, TaskPhase phase, const StepActor& a,
                const TicketSpace& ring, LaneMask mask, LaneWords ticket,
                LaneWords token);
  // A full recorder event: it updates the wait tables.
  void to_recorder(FlightKind kind, const StepActor& a, std::uint32_t unit,
                   std::uint64_t ticket, std::uint64_t payload,
                   std::uint64_t band) {
    recorder_->record({kind, a.id, unit, ticket, payload, band, a.cycle});
  }
  // One coalesced recorder event for a batch: the first lane's ticket
  // and band, the batch width as payload. A transfer queue's batch mixes
  // units, so its lanes fold per run of one unit instead.
  void coalesce(FlightKind kind, const StepActor& a, const TicketSpace& ring,
                LaneMask mask, LaneWords ticket) {
    if (mask == 0) return;
    if (ring.transfers()) {
      for_lanes(mask, [&](unsigned i) {
        recorder_->log_steps(kind, a.id, ring.unit_of(ticket[i]), ticket[i],
                             ring.band_of(ticket[i]), a.cycle, 1);
      });
      return;
    }
    const std::uint64_t t0 = ticket[std::countr_zero(mask)];
    recorder_->log_steps(kind, a.id, 0, t0, ring.band_of(t0), a.cycle,
                         static_cast<std::uint32_t>(std::popcount(mask)));
  }

  OpHistory* history_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  TaskTrace* trace_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  bool wall_clock_ = false;
  std::chrono::steady_clock::time_point wall_epoch_{};
};

}  // namespace simt
