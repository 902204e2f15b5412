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
//
// All three, and the extension schedulers (ext_schedulers.h,
// bucketed_queue.h), are built on one ring core, DeviceQueue: one
// control block of K sub-rings over one slot array (K = 1 here), one
// ticket encoding, one host seed, one set of host-side reads and one
// fetch-add enqueue. Each scheduler keeps only its claim path and, for
// AN and BASE, its CAS reservation.
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
using simt::SlotRef;
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
  std::array<std::uint64_t, kWaveWidth> ticket{};  // claimed ticket per lane
  std::array<std::uint64_t, kWaveWidth> slot{};    // its ring slot index
  std::array<std::uint64_t, kWaveWidth> epoch{};   // its expected ring epoch
  // Cycle at which each lane's slot was assigned; the poll step carries
  // it, and telemetry's slot-monitor wait measures assignment ->
  // sentinel clearing.
  std::array<simt::Cycle, kWaveWidth> assign_cycle{};
  // Lanes whose current claim has missed at least one arrival poll: the
  // protocol stream's poll step keeps it for the flight recorder's
  // monitor wait table (the first miss enters the table, the delivery
  // retires the entry).
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
  // ticket first. Bounded because the task engine throttles the work
  // phase while anything is parked: only as many lanes run as the
  // remaining entries can absorb at work_budget children each.
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

// How a queue's slot array splits into sub-rings, and where their
// counters live. Sub-ring k owns slots [k * per_ring, (k + 1) * per_ring)
// and its own unbounded Front and Rear tickets.
enum class RingSplit : std::uint8_t {
  // One ring. [Front, Rear, Completed] are the first three words of the
  // 4-word ctrl header (LOCK-STACK reads the fourth as its lock).
  kNone,
  // Priority bands (the banded multi-queue): a block after the slots
  // holds [Fronts | Rears | Completeds], one Completed per band, and a
  // ticket's sub-ring is its band.
  kBands,
  // Per-CU home rings (the distributed queue): a block after the slots
  // holds [Fronts | Rears | Completed], one Completed shared by all.
  kHomes,
};

// The ring core every scheduler is built on: the control block of K
// sub-rings over one slot array, the ticket encoding, host seeding,
// every host-side read, the fetch-add enqueue and the shared claim and
// slot-monitor steps. A scheduler adds only what the paper's study
// varies: how it claims tickets and, for AN and BASE, its CAS
// reservation. As a simt::TicketSpace it tells the protocol stream's
// views where each ticket lives. The queues feed every view —
// telemetry included — by emitting protocol steps; none names a sink or
// a metric.
//
// Tickets are (k << kTokenBits) | local: sub-ring k's local ticket t
// lives in slot k * per_ring + t % per_ring during ring epoch
// t / per_ring. With one ring a ticket is the plain counter value.
class DeviceQueue : public simt::TicketSpace {
 public:
  // Allocates one ring of `capacity` slots (> 0) on `dev`: the 4-word
  // ctrl header, then the slots, all counters zero and every slot the
  // epoch-0 empty sentinel.
  DeviceQueue(simt::Device& dev, std::uint64_t capacity);
  virtual ~DeviceQueue() = default;
  DeviceQueue(const DeviceQueue&) = delete;
  DeviceQueue& operator=(const DeviceQueue&) = delete;

  [[nodiscard]] virtual QueueVariant variant() const = 0;

  // Dequeue, phase 1: assign queue slot indices to st.hungry lanes.
  // RF/AN assigns every hungry lane unconditionally (one AFA); BASE/AN
  // claim at most the published Front..Rear backlog and leave the rest
  // hungry (queue-empty exception -> retry next cycle).
  virtual Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) = 0;

  // Enqueue: reserve Rear tickets for all st.n_new tokens, then attempt
  // to write every outstanding token — parked leftovers from earlier
  // cycles first. Tokens whose slot has not recycled stay parked in st;
  // callers must keep invoking publish() (the persistent-thread drivers
  // do so every work cycle) until st.has_parked() clears. The default
  // is the retry-free fetch-add enqueue (RF/AN, MQ, DISTRIB): the proxy
  // aggregates the wave's batch in LDS and issues one non-failing
  // atomic add on each destination sub-ring's Rear (route() picks the
  // sub-ring per token). AN and BASE reserve through CAS loops instead.
  virtual Kernel<void> publish(Wave& w, WaveQueueState& st);

  // Reports `count` tasks finished (drives termination detection). The
  // default is the arbitrary-n designs' proxy-aggregated path: the proxy
  // sums the wave's completions in LDS and issues one atomic add on
  // completed_of(0).
  virtual Kernel<void> report_complete(Wave& w, std::uint32_t count);

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

  // True once every enqueued token has been fully processed (every
  // Completed summed equals every Rear summed, read in one coalesced
  // snapshot). Rears count *reserved* tickets, so parked
  // (reserved-but-unwritten) tokens keep this false until they are
  // published and processed.
  Kernel<bool> all_done(Wave& w);

  // Host-side seeding of initial task tokens (§3.1): resets the control
  // block and every slot, then places each token at the next local
  // ticket of the sub-ring route(token, 0) picks (the host seeds as CU
  // 0). Throws SimError when a sub-ring's share exceeds its capacity or
  // a token exceeds kMaxToken; the batch is checked before anything is
  // written, so a rejected seed leaves the queue as it was.
  virtual void seed(simt::Device& dev, std::span<const std::uint64_t> tokens);

  // Host-side push of one token mid-run (the cluster router's
  // injection at a superstep barrier): writes it over sub-ring 0's Rear
  // slot and advances that Rear, but only when the slot holds the
  // current epoch's empty sentinel — the rule device producers obey.
  // Returns false, writing nothing, when the slot has not recycled yet.
  // The cluster runs only the single-ring schedulers.
  bool host_push(simt::Device& dev, std::uint64_t token);

  // ---- Host-side reads of the control block (no simulated cycles) ----

  // Tickets reserved but not yet reported complete (every Rear minus
  // every Completed): zero exactly when the queue's own termination
  // test holds. The cluster barrier reads it on every device at every
  // superstep.
  [[nodiscard]] std::uint64_t unfinished(const simt::Device& dev) const;

  // Backlog for the telemetry windows: tickets reserved but not yet
  // claimed (Rear - Front, per sub-ring, summed). May transiently
  // exceed capacity, since Rear counts reservations, not written slots.
  // The locked stack overrides it with Top.
  [[nodiscard]] virtual std::uint64_t occupancy(const simt::Device& dev) const;

  // Backlog of one priority band, for the per-band telemetry gauges.
  // Queues without bands report everything as band 0.
  [[nodiscard]] std::uint64_t band_occupancy(const simt::Device& dev,
                                             std::uint32_t band) const;

  // Count of ring slots currently holding a token (full words). Bounded
  // by capacity by construction; exposed so tests and the telemetry
  // windows can watch the O(capacity) residency invariant. Maintained
  // incrementally at the slot write/recycle sites (O(1) per call — a
  // window gauge reads it at every window close) and exact whenever no
  // fill/recycle store is in flight; see resident_tokens_scan for the
  // memory ground truth.
  [[nodiscard]] virtual std::uint64_t resident_tokens(const simt::Device& dev) const;

  // Ground-truth recount of full slots straight from ring memory
  // (O(capacity) host work). Tests use it to pin resident_tokens'
  // incremental accounting to the memory contents; not for a window
  // gauge's hot path. Counts full words regardless of epoch, so it is
  // only meaningful for the ring variants (the locked stack leaves
  // popped words in place and overrides resident_tokens with Top).
  [[nodiscard]] std::uint64_t resident_tokens_scan(const simt::Device& dev) const;

  // Control-block snapshot for the black-box dump: one entry per
  // priority band plus the closure frontier for the banded multi-queue,
  // otherwise one entry holding every sub-ring's counters summed.
  [[nodiscard]] QueueSnapshot snapshot(const simt::Device& dev) const;

  // ---- Geometry ----

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t rings() const { return rings_; }
  [[nodiscard]] std::uint64_t per_ring_capacity() const { return per_ring_; }
  [[nodiscard]] Addr slot_addr(std::uint64_t i) const { return slots_.at(i); }
  // Sub-ring k's counter words. Queues whose sub-rings share one
  // completion word (every split but kBands) keep it at completed_of(0).
  [[nodiscard]] Addr front_of(std::uint32_t k) const { return block_.at(k); }
  [[nodiscard]] Addr rear_of(std::uint32_t k) const {
    return block_.at(rings_ + k);
  }
  [[nodiscard]] Addr completed_of(std::uint32_t k) const {
    return block_.at(2ull * rings_ + k);
  }

  // Ring placement of a Rear/Front ticket. The locked stack's tickets
  // are raw indices below capacity, so they map to epoch 0 unchanged.
  [[nodiscard]] SlotRef slot_of(std::uint64_t ticket) const final {
    const std::uint64_t local = ticket & kMaxToken;
    return {(ticket >> kTokenBits) * per_ring_ + local % per_ring_,
            local / per_ring_};
  }
  // Priority bands are the sub-rings of a kBands queue; every other
  // queue is one band.
  [[nodiscard]] std::uint32_t num_bands() const final {
    return split_ == RingSplit::kBands ? rings_ : 1;
  }
  [[nodiscard]] std::uint64_t band_of(std::uint64_t ticket) const final {
    return split_ == RingSplit::kBands ? ticket >> kTokenBits : 0;
  }

 protected:
  // K = `rings` sub-rings of max(capacity / K, 1) slots each: the 4-word
  // ctrl header, the slots, then (for a split queue) the counter block.
  // A split queue never reads the header, but allocating it keeps every
  // later device address, and so every schedule, where it was.
  DeviceQueue(simt::Device& dev, std::uint64_t capacity, RingSplit split,
              std::uint32_t rings);

  [[nodiscard]] static constexpr std::uint64_t encode_ticket(
      std::uint64_t ring, std::uint64_t local) {
    return (ring << kTokenBits) | local;
  }

  // The sub-ring a token published from CU `cu` enters. Single-ring
  // queues answer 0; the banded multi-queue routes by its band map, the
  // distributed queue to the CU's home ring.
  [[nodiscard]] virtual std::uint32_t route(std::uint64_t /*token*/,
                                            std::uint32_t /*cu*/) const {
    return 0;
  }

  // Claim bookkeeping shared by every ring scheduler: each lane of
  // `lanes` monitors the ticket the caller left in st.ticket[lane] (its
  // slot and epoch, claimed now) and leaves the hungry set, and the
  // claim enters the protocol stream.
  void bind_claims(Wave& w, WaveQueueState& st, LaneMask lanes);
  // One proxy claim of `count` contiguous tickets from `first`: the
  // first `count` hungry lanes take them in lane order.
  void bind_claim_run(Wave& w, WaveQueueState& st, std::uint64_t first,
                      std::uint64_t count);

  // Residency accounting behind resident_tokens: bumped where slot-full
  // words are stored (flush_parked, seeding) and debited where arrived
  // slots recycle to the next epoch's sentinel (check_arrival). Updated
  // when the store is issued, so it can lead the simulated memory
  // effect by a few cycles — exact at every quiescent point.
  std::uint64_t resident_ = 0;

  // Device progress signature for the deadlock detector: the sum of
  // every counter word plus the processed-task, enqueued-token and
  // relaxed-edge counts. Any claim, reservation, completion or progress
  // anywhere on the device changes it; poll/idle counters, which keep
  // ticking in a genuine deadlock, are left out. Host-side reads, no
  // simulated cost.
  [[nodiscard]] std::uint64_t progress_signature(simt::Device& dev) const;

  // Appends (ticket, token) to st.parked (throws SimError past
  // kMaxParked — the engine's production throttle makes that
  // unreachable) and emits the reservation step. `parent` is the
  // spawning task's trace id: reservation is where a task's identity is
  // born, so the causal edge is stamped here.
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

  simt::Buffer ctrl_;   // the 4-word header
  simt::Buffer slots_;  // capacity_ slot words

 private:
  // The termination snapshot loads every Rear and Completed in one
  // vector load, so at least one completion word must fit beside them.
  static constexpr std::uint32_t kMaxRings = kWaveWidth - 1;

  // Words of the counter block: Fronts, Rears and the completion words.
  [[nodiscard]] std::uint64_t block_words() const {
    return 2ull * rings_ + completion_words_;
  }

  RingSplit split_;
  std::uint32_t rings_;
  std::uint32_t completion_words_;  // rings_ for kBands, else 1
  std::uint64_t per_ring_ = 0;
  std::uint64_t capacity_ = 0;
  simt::Buffer block_;  // ctrl_ itself for kNone
};

// ---- Variants ----

class RfanQueue : public DeviceQueue {
 public:
  using DeviceQueue::DeviceQueue;
  [[nodiscard]] QueueVariant variant() const override { return QueueVariant::kRfan; }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
};

class AnQueue final : public DeviceQueue {
 public:
  using DeviceQueue::DeviceQueue;
  [[nodiscard]] QueueVariant variant() const override { return QueueVariant::kAn; }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
};

class BaseQueue final : public DeviceQueue {
 public:
  using DeviceQueue::DeviceQueue;
  [[nodiscard]] QueueVariant variant() const override { return QueueVariant::kBase; }
  Kernel<void> acquire_slots(Wave& w, WaveQueueState& st) override;
  Kernel<void> publish(Wave& w, WaveQueueState& st) override;
  Kernel<void> report_complete(Wave& w, std::uint32_t count) override;
};

// Stamps run-identifying metadata (queue variant, capacity) into a task
// trace; drivers call it once per attach.
void stamp_task_meta(simt::TaskTrace& trace, const DeviceQueue& queue);

}  // namespace scq
