// Operation-history recording for queue correctness checking.
//
// OpHistory is one of the three views of the queue-protocol event
// stream (sim/protocol_stream.h): an append-only log of every queue
// operation — ticket reservations, ring writes, dequeue claims,
// deliveries, band closes — that the schedule-fuzzing checker
// (tests/support/queue_checker.h) replays against the sequential FIFO
// spec. The device's stream appends to the attached history (nullptr
// disables, costing one branch); the host broker queue's own stream
// does the same from real threads.
//
// Records are appended at the instant the corresponding simulated
// memory effect is applied (for device queues: within the same event
// processing slice), so the append order is consistent with the
// happens-before order of the protocol. The checker relies on append
// indices, never on cycle comparisons — completion cycles can legally
// invert relative to effect order.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/config.h"

namespace simt {

enum class QueueOp : std::uint8_t {
  kEnqueueReserve,  // enqueue ticket claimed (Rear AFA / host fetch_add)
  kEnqueueWrite,    // payload written into the ring slot
  kDequeueClaim,    // dequeue ticket claimed (Front AFA / host fetch_add)
  kDequeueDeliver,  // payload observed and returned to a consumer
  kBandClose,       // priority band observed closed (no future publishes)
};

[[nodiscard]] constexpr const char* to_string(QueueOp op) {
  switch (op) {
    case QueueOp::kEnqueueReserve: return "enq-reserve";
    case QueueOp::kEnqueueWrite: return "enq-write";
    case QueueOp::kDequeueClaim: return "deq-claim";
    case QueueOp::kDequeueDeliver: return "deq-deliver";
    case QueueOp::kBandClose: return "band-close";
  }
  return "?";
}

// Actor id used for host-side operations (seeding, broker threads).
inline constexpr std::uint32_t kHostActor = 0xffffffffu;

struct OpRecord {
  QueueOp op = QueueOp::kEnqueueReserve;
  std::uint32_t actor = 0;     // wave slot id, or kHostActor
  std::uint64_t ticket = 0;
  std::uint64_t slot = 0;      // ring slot index the ticket maps to
  std::uint64_t epoch = 0;     // ring lap the ticket maps to
  std::uint64_t payload = 0;   // token (0 for claims)
  Cycle cycle = 0;             // device clock at record time (diagnostic only)
  // Priority band of the ticket (0 for single-band queues). For
  // kBandClose this is the band whose closure the record announces.
  std::uint64_t band = 0;
};

class OpHistory {
 public:
  void record(const OpRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
  }

  [[nodiscard]] std::vector<OpRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
  }

 private:
  // The simulator is single-threaded, but HostBrokerQueue records from
  // real producer/consumer threads; the mutex makes the append order a
  // total order consistent with each thread's program order.
  mutable std::mutex mu_;
  std::vector<OpRecord> records_;
};

}  // namespace simt
