// Device-side concurrent queues for persistent-thread task scheduling.
//
// Three variants, mirroring the paper's §5.3 study:
//
//   BaseQueue (BASE) — a traditional lock-free array queue: every hungry
//     thread runs its own CAS loop on Front (and every producing thread
//     on Rear). Suffers both retry sources: CAS failure and queue-empty
//     exceptions.
//   AnQueue (AN)     — adds the arbitrary-n property: a per-wavefront
//     proxy thread aggregates demand with local (LDS) atomics and issues
//     one CAS for n slots. Still retries on CAS failure and on empty.
//   RfanQueue (RF/AN) — the paper's proposed queue: the proxy issues a
//     single non-failing Atomic Fetch-Add, and the queue-empty exception
//     is refactored into a non-atomic "data-not-arrived" (dna) sentinel
//     check on a slot each hungry thread uniquely monitors (§4).
//
// The token array is a true circular ring: Front/Rear are unbounded
// ticket counters and ticket t lives in slot t % capacity during ring
// epoch t / capacity. The paper's single dna sentinel generalizes to an
// epoch-tagged sentinel (see slot-word encoding below), the enqueue-side
// mirror of the dequeue slot monitor: a producer whose slot has not been
// recycled by the previous epoch's consumer parks the token and retries
// on later work cycles instead of aborting the kernel. Queue-full is
// thereby no longer an exception — memory is O(capacity) instead of
// O(total tokens ever enqueued) — and the only remaining abort is a
// deadlock detector for capacities genuinely too small for the in-flight
// working set.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/device.h"

namespace scq {

using simt::Addr;
using simt::Kernel;
using simt::LaneMask;
using simt::Wave;
using simt::bit;
using simt::for_lanes;
using simt::kNoTask;
using simt::kWaveWidth;

// ---- Slot-word encoding (epoch-tagged dna sentinel) ----
//
// Each ring slot is one 64-bit word so that the dequeue monitor stays a
// single non-atomic load (§4.3). The word encodes both the paper's dna
// sentinel and the ring epoch, mirroring HostBrokerQueue's per-slot
// sequence numbers:
//
//   bit 63 = 1  EMPTY: bits 62..0 hold the epoch whose producer may
//               fill the slot next (exact, never wraps in practice).
//   bit 63 = 0  FULL:  bits 62..48 hold epoch mod 2^15 (an ABA tag: at
//               most two adjacent epochs can ever be confused at one
//               slot, so 15 bits are overkill by design), bits 47..0
//               hold the token payload.
//
// A consumer monitoring ticket t therefore cannot consume a token
// published for ticket t + k*capacity, and a producer positively
// identifies a not-yet-recycled slot without ABA.
inline constexpr std::uint64_t kSlotEmptyFlag = std::uint64_t{1} << 63;
inline constexpr unsigned kTokenBits = 48;
inline constexpr std::uint64_t kMaxToken = (std::uint64_t{1} << kTokenBits) - 1;
inline constexpr std::uint64_t kEpochTagMask =
    (std::uint64_t{1} << (63 - kTokenBits)) - 1;

[[nodiscard]] constexpr std::uint64_t slot_empty_word(std::uint64_t epoch) {
  return kSlotEmptyFlag | epoch;
}
[[nodiscard]] constexpr std::uint64_t slot_full_word(std::uint64_t epoch,
                                                     std::uint64_t token) {
  return ((epoch & kEpochTagMask) << kTokenBits) | token;
}
[[nodiscard]] constexpr bool slot_is_empty(std::uint64_t word) {
  return (word & kSlotEmptyFlag) != 0;
}
[[nodiscard]] constexpr std::uint64_t slot_payload(std::uint64_t word) {
  return word & kMaxToken;
}
[[nodiscard]] constexpr std::uint64_t slot_epoch_tag(std::uint64_t word) {
  return (word >> kTokenBits) & kEpochTagMask;
}

// Upper bound on tokens a single lane may publish per work cycle (the
// paper uses work cycles of 4 uniform sub-tasks; we allow sweeping the
// budget for the ablation bench).
inline constexpr unsigned kMaxWorkBudget = 32;

// Consecutive stalled publish retries (with every progress counter
// frozen) before the deadlock detector aborts the kernel. Generous:
// any consume, claim, reservation, completion or relaxed edge anywhere
// on the device resets the count.
inline constexpr std::uint32_t kPublishDeadlockRounds = 4096;

// Queue control block + slot array in device global memory.
struct QueueLayout {
  simt::Buffer ctrl;   // [0]=Front  [1]=Rear  [2]=Completed
  simt::Buffer slots;  // capacity words, initialized to slot_empty_word(0)
  std::uint64_t capacity = 0;

  [[nodiscard]] Addr front_addr() const { return ctrl.at(0); }
  [[nodiscard]] Addr rear_addr() const { return ctrl.at(1); }
  [[nodiscard]] Addr completed_addr() const { return ctrl.at(2); }
  [[nodiscard]] Addr slot_addr(std::uint64_t i) const { return slots.at(i); }
};

// Telemetry sink for scheduler probes: the device's attached telemetry,
// or nullptr (probes then cost nothing — they are host-side bookkeeping
// and never simulated cycles).
inline simt::Telemetry* probe_sink(Wave& w) { return w.device().telemetry(); }

// Operation-history sink for the fuzz checker: the device's attached
// OpHistory, or nullptr (recording then costs one branch). Records are
// appended within the same event-processing slice as the memory effect
// they describe, so append order is consistent with protocol order.
inline simt::OpHistory* history_sink(Wave& w) { return w.device().op_history(); }

// Flight-recorder sink for black-box dumps: the device's attached
// FlightRecorder, or nullptr (recording then costs one branch). Fed at
// the same sites as the operation history, so the recorder's last-N
// window is protocol-ordered too.
inline simt::FlightRecorder* recorder_sink(Wave& w) {
  return w.device().flight_recorder();
}

// Allocates and initializes a device queue (host side, pre-launch §3.1).
QueueLayout make_device_queue(simt::Device& dev, std::uint64_t capacity);

// Re-initializes an existing queue (all slots empty at epoch 0, counters
// zero).
void reset_device_queue(simt::Device& dev, const QueueLayout& q);

// Seeds initial task tokens (slot i = full(0, tokens[i]), Rear =
// tokens.size()) and resets the rest of the control block (Front,
// Completed) plus all remaining slots, so a reused layout cannot carry
// stale counters into termination detection. Throws SimError when the
// seed batch exceeds capacity or a token exceeds kMaxToken.
void seed_device_queue(simt::Device& dev, const QueueLayout& q,
                       std::span<const std::uint64_t> tokens);

[[nodiscard]] constexpr std::array<std::uint64_t, kWaveWidth> filled_lanes(
    std::uint64_t v) {
  std::array<std::uint64_t, kWaveWidth> a{};
  for (auto& x : a) x = v;
  return a;
}

// Per-wave queue registers, kept in the kernel coroutine frame.
struct WaveQueueState {
  // Dequeue side.
  LaneMask hungry = 0;    // lanes that want a slot assignment
  LaneMask assigned = 0;  // lanes monitoring a slot for data arrival
  std::array<std::uint64_t, kWaveWidth> slot{};   // ring slot index per lane
  std::array<std::uint64_t, kWaveWidth> epoch{};  // expected ring epoch per lane
  // Cycle at which each lane's slot was assigned (telemetry: the slot-
  // monitor wait histogram measures assignment -> sentinel clearing).
  std::array<simt::Cycle, kWaveWidth> assign_cycle{};
  // Lanes whose current claim has missed at least one arrival poll and
  // has therefore been entered into the flight recorder's monitor wait
  // table (check_arrival records the transition exactly once; delivery
  // clears the bit after retiring the table entry).
  LaneMask miss_noted = 0;

  // Eager delivery: schedulers that read payloads during acquisition
  // (e.g. the locked stack, which consumes under its lock) park tokens
  // here; check_arrival() drains them first.
  LaneMask ready = 0;
  std::array<std::uint64_t, kWaveWidth> ready_tokens{};
  std::array<std::uint64_t, kWaveWidth> ready_tickets = filled_lanes(kNoTask);

  // Causal task tracing: the trace id (enqueue ticket) of the token each
  // lane most recently received. Drivers read it as the parent id when
  // the lane's task spawns children, and for exec-start/exec-end events.
  // kNoTask for untraceable schedulers (the locked stack reuses
  // indices, so its tokens cannot carry identities).
  std::array<std::uint64_t, kWaveWidth> deliver_ticket = filled_lanes(kNoTask);

  // Enqueue side: lane i publishes n_new[i] tokens this cycle, each
  // carrying the trace id of the task that spawned it.
  std::array<std::uint32_t, kWaveWidth> n_new{};
  std::array<std::array<std::uint64_t, kMaxWorkBudget>, kWaveWidth> new_tokens{};
  std::array<std::array<std::uint64_t, kMaxWorkBudget>, kWaveWidth> new_parents{};

  // Enqueue backpressure (the enqueue-side mirror of the dequeue slot
  // monitor): tokens whose Rear ticket is reserved but whose ring slot
  // has not yet been recycled by the previous epoch's consumer wait
  // here; publish() retries them on every later work cycle, oldest
  // ticket first. Bounded because drivers freeze the work phase (no new
  // token production) while anything is parked, so at most one work
  // cycle's batch is ever outstanding.
  struct Parked {
    std::uint64_t ticket = 0;  // reserved Rear ticket (scheduler-specific)
    std::uint64_t token = 0;
    simt::Cycle since = 0;     // reservation cycle (publish-stall telemetry)
    bool stalled = false;      // survived at least one failed flush attempt
    std::uint64_t parent = kNoTask;  // spawning task's trace id
  };
  static constexpr std::uint32_t kMaxParked = kWaveWidth * kMaxWorkBudget;
  std::uint32_t n_parked = 0;
  std::array<Parked, kMaxParked> parked{};
  [[nodiscard]] bool has_parked() const { return n_parked != 0; }

  // Deadlock detector state: consecutive fully-stalled publish retries
  // and the device progress signature they were measured against.
  std::uint64_t stall_signature = 0;
  std::uint32_t stall_rounds = 0;

  // Host-side reservation observer (the src/tasks engine's spawn-depth
  // and credit accounting): park() invokes it at the instant a Rear
  // reservation binds (ticket, token) — where a task's identity is born
  // — with the spawning task's trace id. Pure host bookkeeping, no
  // simulated cycles, so attaching one cannot perturb the event
  // schedule. Not owned; must outlive the launch.
  const std::function<void(std::uint64_t ticket, std::uint64_t token,
                           std::uint64_t parent)>* on_reserve = nullptr;

  // CAS-retry state (BASE variant). A failing CAS returns the current
  // counter value; the retry uses that observation as its next expected
  // value instead of reloading (standard CAS-loop structure). Across
  // lanes and waves the observations scatter over recent values, so the
  // atomic unit can satisfy several of them as the counter advances —
  // without this, one retry round-trip bounds global throughput.
  LaneMask has_observation = 0;
  std::array<std::uint64_t, kWaveWidth> observed{};
  // Bounded exponential backoff (in work cycles) after a failed CAS.
  std::array<std::uint8_t, kWaveWidth> backoff_exp{};
  std::array<std::uint8_t, kWaveWidth> backoff_wait{};

  void clear_produce() { n_new.fill(0); }
  // `parent` is the trace id of the task whose execution discovered this
  // token (drivers pass the lane's deliver_ticket); it flows into the
  // child's kReserve task-trace event as the causal spawn edge.
  void push_token(unsigned lane, std::uint64_t token,
                  std::uint64_t parent = kNoTask) {
    if (token > kMaxToken) {
      throw simt::SimError(
          "push_token: token exceeds the 48-bit ring payload (kMaxToken)");
    }
    new_parents[lane][n_new[lane]] = parent;
    new_tokens[lane][n_new[lane]++] = token;
  }
  [[nodiscard]] std::uint32_t total_new() const {
    std::uint32_t n = 0;
    for (auto k : n_new) n += k;
    return n;
  }
};

// Host-side control-block snapshot for the black-box dump: one entry
// per priority band (single-band queues report exactly one), raw
// counters AND the derived occupancy so the post-mortem analyzer can
// cross-check the dump's internal consistency.
struct QueueBandSnapshot {
  std::uint64_t band = 0;
  std::uint64_t front = 0;      // claimed dequeue tickets
  std::uint64_t rear = 0;       // reserved enqueue tickets
  std::uint64_t completed = 0;  // reported task completions
  std::uint64_t occupancy = 0;  // rear - front, clamped at 0
};

struct QueueSnapshot {
  std::string variant;
  std::uint64_t capacity = 0;           // total ring slots
  std::uint64_t per_band_capacity = 0;  // ring slots per band
  std::uint32_t closure_frontier = 0;   // bands below it are closed (mq)
  std::uint64_t resident = 0;           // slots currently holding tokens
  std::vector<QueueBandSnapshot> bands;
};

enum class QueueVariant {
  kBase,   // traditional per-thread CAS queue
  kAn,     // proxy-aggregated CAS queue
  kRfan,   // the paper's retry-free / arbitrary-n queue
  // Extensions beyond the paper's three-way study (§2 related work):
  kStack,  // spinlock-guarded LIFO stack (mutual-exclusion strawman)
  kDistrib,// per-CU queues with work stealing (Tzeng-style)
  kMq      // priority-banded multi-queue (retry-free within each band)
};
[[nodiscard]] std::string_view to_string(QueueVariant v);

// Interface shared by the three variants so driver kernels (BFS) are
// variant-agnostic.
class DeviceQueue {
 public:
  explicit DeviceQueue(QueueLayout layout) : layout_(layout) {}
  virtual ~DeviceQueue() = default;
  DeviceQueue(const DeviceQueue&) = delete;
  DeviceQueue& operator=(const DeviceQueue&) = delete;

  [[nodiscard]] virtual QueueVariant variant() const = 0;

  // Dequeue, phase 1: assign queue slot indices to st.hungry lanes.
  // RF/AN assigns every hungry lane unconditionally (one AFA); BASE/AN
  // claim at most the published Front..Rear backlog and leave the rest
  // hungry (queue-empty exception -> retry next cycle).
  virtual Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) = 0;

  // Enqueue: reserve Rear tickets for all st.n_new tokens (arbitrary-n
  // variants reserve the whole wave's batch with one atomic; BASE loops
  // per token), then attempt to write every outstanding token — parked
  // leftovers from earlier cycles first. Tokens whose slot has not
  // recycled stay parked in st; callers must keep invoking publish()
  // (the persistent-thread drivers do so every work cycle) until
  // st.has_parked() clears.
  virtual Kernel<void> publish(Wave& w, WaveQueueState& st) = 0;

  // Reports `count` tasks finished (drives termination detection).
  virtual Kernel<void> report_complete(Wave& w, std::uint32_t count) = 0;

  // Per-ticket completion reporting. Single-band queues only need the
  // count (the default forwards, same simulated cost); the banded
  // multi-queue needs the tickets themselves to credit each band's
  // Completed counter — its closure-frontier termination depends on
  // knowing *which* band finished work, not just how much. The task
  // engine (tasks/task_engine.h) reports every completion through this
  // form. Entries may be kNoTask for untraceable schedulers.
  virtual Kernel<void> report_complete_tickets(
      Wave& w, std::span<const std::uint64_t> tickets);

  // Dequeue, phase 2 (shared): non-atomic data-arrival check on every
  // monitored slot. A slot has arrived when it holds a full word whose
  // epoch tag matches the lane's expected epoch. Arrived lanes receive
  // the payload and recycle the slot (sentinel for the next epoch) and
  // leave st.assigned. Returns the mask of lanes whose data arrived.
  Kernel<LaneMask> check_arrival(Wave& w, WaveQueueState& st,
                                 std::span<std::uint64_t> tokens);

  // True once every enqueued token has been fully processed (Completed
  // == Rear read in one coalesced snapshot). Rear counts *reserved*
  // tickets, so parked (reserved-but-unwritten) tokens keep this false
  // until they are published and processed. Virtual: distributed
  // schedulers snapshot several tails.
  virtual Kernel<bool> all_done(Wave& w);

  // Host-side seeding of initial task tokens (default: contiguous slots
  // from index 0 with Rear = count; resets the control block).
  virtual void seed(simt::Device& dev, std::span<const std::uint64_t> tokens);

  // Host-side backlog snapshot for the telemetry sampler: tickets
  // reserved but not yet claimed (Rear - Front). May transiently exceed
  // capacity, since Rear counts reservations, not written slots. Costs
  // no simulated cycles. Extension schedulers with other control
  // layouts override.
  [[nodiscard]] virtual std::uint64_t occupancy(const simt::Device& dev) const;

  // Host-side count of ring slots currently holding a token (full
  // words). Bounded by capacity by construction; exposed so tests and
  // the telemetry sampler can watch the O(capacity) residency
  // invariant. Maintained incrementally at the slot write/recycle sites
  // (O(1) per call — the sampler reads it thousands of times per run)
  // and exact whenever no fill/recycle store is in flight; see
  // resident_tokens_scan for the memory ground truth.
  [[nodiscard]] virtual std::uint64_t resident_tokens(const simt::Device& dev) const;

  // Ground-truth recount of full slots straight from ring memory
  // (O(capacity) host work). Tests use it to pin resident_tokens'
  // incremental accounting to the memory contents; not for the
  // sampler's hot path. Counts full words regardless of epoch, so it is
  // only meaningful for the ring variants (the locked stack leaves
  // popped words in place and overrides resident_tokens with Top).
  [[nodiscard]] std::uint64_t resident_tokens_scan(const simt::Device& dev) const;

  [[nodiscard]] const QueueLayout& layout() const { return layout_; }

  // True when tickets are globally unique for the life of a run and can
  // therefore serve as task-trace ids (BASE/AN/RF-AN: unbounded
  // counters; DISTRIB: sub-queue-encoded counters). The locked stack
  // reuses LIFO indices and overrides to false — it records no task
  // events.
  [[nodiscard]] virtual bool traceable_tickets() const { return true; }

  // Priority-band introspection. Single-band queues report one band and
  // map every ticket to it; BucketedMultiQueue overrides all three.
  // band_of decodes host-side (no simulated cost) — op-history records
  // and telemetry are its only consumers.
  [[nodiscard]] virtual std::uint32_t num_bands() const { return 1; }
  [[nodiscard]] virtual std::uint64_t band_of(std::uint64_t /*ticket*/) const {
    return 0;
  }
  // Host-side backlog of one band (reserved-but-unclaimed tickets),
  // for the per-band telemetry gauges.
  [[nodiscard]] virtual std::uint64_t band_occupancy(const simt::Device& dev,
                                                     std::uint32_t band) const {
    return band == 0 ? occupancy(dev) : 0;
  }

  // Host-side control-block snapshot for the black-box dump (no
  // simulated cost). The default reads the shared Front/Rear/Completed
  // block as one band; BucketedMultiQueue overrides with per-band
  // counters plus the closure frontier.
  [[nodiscard]] virtual QueueSnapshot snapshot(const simt::Device& dev) const;

 protected:
  // Ring placement of a Rear/Front ticket. The default is the single
  // shared ring; DistributedQueue overrides to decode its per-CU
  // sub-queue encoding. The locked stack's tickets are raw indices
  // below capacity, so the default maps them to epoch 0 unchanged.
  struct SlotRef {
    std::uint64_t index = 0;  // absolute index into layout_.slots
    std::uint64_t epoch = 0;  // ring epoch (wrap count)
  };
  [[nodiscard]] virtual SlotRef slot_of(std::uint64_t ticket) const {
    return {ticket % layout_.capacity, ticket / layout_.capacity};
  }

  // Inverse of slot_of: the ticket that maps to (slot index, epoch).
  // Used by check_arrival to reconstruct the delivered ticket for the
  // operation history; overridden alongside slot_of.
  [[nodiscard]] virtual std::uint64_t ticket_of(std::uint64_t slot,
                                                std::uint64_t epoch) const {
    return epoch * layout_.capacity + slot;
  }

  // Residency accounting behind resident_tokens: bumped where slot-full
  // words are stored (flush_parked, seeding) and debited where arrived
  // slots recycle to the next epoch's sentinel (check_arrival). Updated
  // when the store is issued, so it can lead the simulated memory
  // effect by a few cycles — exact at every quiescent point.
  std::uint64_t resident_ = 0;

  // Device progress signature for the deadlock detector: any change
  // anywhere (claims, reservations, completions, processed tasks,
  // relaxed edges) means the system is not deadlocked. Host-side reads,
  // no simulated cost. Extension schedulers with other counter blocks
  // override.
  [[nodiscard]] virtual std::uint64_t progress_signature(simt::Device& dev) const;

  // Appends (ticket, token) to st.parked (throws SimError past
  // kMaxParked — drivers freezing production while parked makes that
  // unreachable) and records the ticket reservation in the attached
  // operation history and task trace. `parent` is the spawning task's
  // trace id: reservation is where a task's identity is born, so the
  // causal edge is stamped here.
  void park(Wave& w, WaveQueueState& st, std::uint64_t ticket,
            std::uint64_t token, std::uint64_t parent = kNoTask);

  // Shared enqueue tail: attempt to write every parked entry into its
  // ring slot (oldest ticket first). An entry writes only over the
  // matching epoch's empty sentinel; others stay parked. Runs the
  // deadlock detector when an attempt makes no progress at all.
  Kernel<void> flush_parked(Wave& w, WaveQueueState& st);

  // Deadlock bookkeeping shared by flush_parked and schedulers with
  // bespoke publish paths (the locked stack): marks surviving parked
  // entries stalled and counts the retry. Returns true once the device
  // progress signature has been frozen for kPublishDeadlockRounds
  // consecutive stalled attempts — the caller must then
  // `co_await w.abort_kernel(kPublishDeadlockMessage)`. A plain function
  // rather than a child coroutine: it runs once per work cycle per wave
  // and almost always takes the no-parked-tokens early-out, where a
  // coroutine frame would be pure overhead.
  [[nodiscard]] bool stall_note(Wave& w, WaveQueueState& st, bool wrote_any);

  static constexpr const char* kPublishDeadlockMessage =
      "queue full: publish deadlocked, capacity below the in-flight "
      "working set";

  QueueLayout layout_;
};

// ---- Variants ----

class RfanQueue final : public DeviceQueue {
 public:
  using DeviceQueue::DeviceQueue;
  [[nodiscard]] QueueVariant variant() const override { return QueueVariant::kRfan; }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  Kernel<void> report_complete(Wave& w, std::uint32_t count) override;
};

class AnQueue final : public DeviceQueue {
 public:
  using DeviceQueue::DeviceQueue;
  [[nodiscard]] QueueVariant variant() const override { return QueueVariant::kAn; }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  Kernel<void> report_complete(Wave& w, std::uint32_t count) override;
};

class BaseQueue final : public DeviceQueue {
 public:
  using DeviceQueue::DeviceQueue;
  [[nodiscard]] QueueVariant variant() const override { return QueueVariant::kBase; }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  Kernel<void> report_complete(Wave& w, std::uint32_t count) override;
};

std::unique_ptr<DeviceQueue> make_queue_variant(QueueVariant variant,
                                                QueueLayout layout);

}  // namespace scq
