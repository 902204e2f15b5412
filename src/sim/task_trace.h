// Per-task causal lifecycle tracing: one of the three views of the
// queue-protocol event stream (sim/protocol_stream.h).
//
// Every task token gets a trace id the moment its enqueue ticket is
// reserved — for the BASE/AN/RF-AN rings and the distributed queue the
// ticket itself is that id: tickets are unbounded counters, so they are
// globally unique for the life of a run (the locked stack reuses LIFO
// indices and is therefore not traceable; it records nothing). The
// stream appends timestamped lifecycle events for the protocol steps
// the queues, the host broker queue and the task-engine clients emit:
//
//   kReserve       enqueue ticket reserved (carries the parent edge:
//                  the task whose execution spawned this token)
//   kPayloadWrite  payload written into the ring slot
//   kClaim         dequeue ticket claimed (a consumer lane now monitors
//                  this task's slot)
//   kArrival       payload observed by the consumer (dna sentinel
//                  cleared)
//   kExecStart     the driver began executing the task
//   kExecEnd       execution finished (children were spawned between
//                  start and end, each recording its own kReserve with
//                  this task as parent)
//
// The events of one run form a causality DAG: per-task lifecycle chains
// plus parent->child spawn edges. sim/critical_path.h consumes it for
// longest-path analysis, per-phase latency attribution, and Perfetto
// flow export; it is also the substrate for the seed-0 bit-exactness
// guarantee (the recorder's JSON is deterministic byte-for-byte).
//
// Recording is opt-in (Device::attach_task_trace) and bounded: events
// past `capacity` are counted as drops, surfaced in the JSON and as a
// one-line stderr warning at export — never silently truncated.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"

namespace simt {

// Sentinel for "no task": root tasks have no parent, and schedulers
// without stable tickets (the locked stack) deliver it as the ticket.
inline constexpr std::uint64_t kNoTask = ~std::uint64_t{0};

enum class TaskPhase : std::uint8_t {
  kReserve,
  kPayloadWrite,
  kClaim,
  kArrival,
  kExecStart,
  kExecEnd,
};
inline constexpr unsigned kNumTaskPhases = 6;

[[nodiscard]] constexpr const char* to_string(TaskPhase p) {
  switch (p) {
    case TaskPhase::kReserve: return "reserve";
    case TaskPhase::kPayloadWrite: return "payload-write";
    case TaskPhase::kClaim: return "claim";
    case TaskPhase::kArrival: return "arrival";
    case TaskPhase::kExecStart: return "exec-start";
    case TaskPhase::kExecEnd: return "exec-end";
  }
  return "?";
}

struct TaskEvent {
  TaskPhase phase = TaskPhase::kReserve;
  std::uint64_t ticket = kNoTask;  // trace id (enqueue ticket)
  std::uint64_t parent = kNoTask;  // spawning task (kReserve events only)
  std::uint64_t payload = 0;       // token value (0 where unknown)
  std::uint32_t actor = 0;         // wave slot id, or kHostActor
  std::uint32_t cu = 0;            // compute unit (0 for host actors)
  Cycle cycle = 0;                 // device clock (host: ns since attach)
};

class TaskTrace {
 public:
  explicit TaskTrace(std::size_t capacity = 1 << 20) : capacity_(capacity) {}

  // Appends one lifecycle event. Events with ticket == kNoTask are
  // ignored (untraceable scheduler), events past capacity are counted
  // as drops. Mutex-protected: the simulator is single-threaded but the
  // host broker queue records from real threads.
  void record(const TaskEvent& e) {
    if (e.ticket == kNoTask) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < capacity_) {
      TaskEvent stamped = e;
      stamped.ticket |= ticket_namespace_;
      if (stamped.parent != kNoTask) stamped.parent |= ticket_namespace_;
      events_.push_back(stamped);
    } else {
      ++dropped_;
    }
  }

  // Ticket namespace for multi-device traces: OR'd into every recorded
  // ticket (and parent edge). Queue tickets are 48-bit-bounded counters,
  // so the cluster runtime stamps each device's trace with
  // `device_index << kTicketNamespaceShift` — the tickets of different
  // devices then land in disjoint ranges and one sink can hold every
  // device's events without lifecycle collisions. The default namespace
  // 0 leaves single-device tickets unchanged.
  static constexpr unsigned kTicketNamespaceShift = 56;
  void set_ticket_namespace(std::uint64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    ticket_namespace_ = ns;
  }
  [[nodiscard]] std::uint64_t ticket_namespace() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ticket_namespace_;
  }

  // Appends another trace's events (already namespaced at record time)
  // and accumulates its drop count. Meta is not transferred.
  void merge_from(const TaskTrace& other) {
    const std::vector<TaskEvent> theirs = other.snapshot();
    const std::uint64_t their_drops = other.dropped();
    std::lock_guard<std::mutex> lock(mu_);
    for (const TaskEvent& e : theirs) {
      if (events_.size() < capacity_) {
        events_.push_back(e);
      } else {
        ++dropped_;
      }
    }
    dropped_ += their_drops;
  }

  [[nodiscard]] std::vector<TaskEvent> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }
  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    dropped_ = 0;
  }

  // Run metadata (queue variant, seed, ...), exported in the JSON.
  // Survives clear(): it describes the configuration, not the data.
  void set_meta(std::string key, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& meta()
      const {
    return meta_;
  }

  // Deterministic JSON export: {"meta":{...},"dropped":N,"events":[...]}
  // with events in append order. Two bit-exact schedules produce two
  // byte-identical documents.
  [[nodiscard]] std::string to_json() const;
  // Writes to_json() to `path`; false on any write failure. Prints a
  // one-line stderr warning when events were dropped (the drop count is
  // in the document either way).
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t ticket_namespace_ = 0;
  std::vector<TaskEvent> events_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::uint64_t dropped_ = 0;
};

}  // namespace simt
