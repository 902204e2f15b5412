#include "sim/protocol_stream.h"

namespace simt {

void ProtocolStream::to_history(QueueOp op, const StepActor& a,
                                const TicketSpace& ring, std::uint64_t ticket,
                                std::uint64_t payload) {
  const SlotRef ref = ring.slot_of(ticket);
  history_->record({op, a.id, ticket, ref.index, ref.epoch, payload, a.cycle,
                    ring.band_of(ticket)});
}

void ProtocolStream::to_trace(TaskPhase phase, const StepActor& a,
                              std::uint64_t ticket, std::uint64_t payload,
                              std::uint64_t parent) {
  Cycle cycle = a.cycle;
  if (wall_clock_) {
    cycle = static_cast<Cycle>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_epoch_)
            .count());
  }
  trace_->record({phase, ticket, parent, payload, a.id, a.cu, cycle});
}

void ProtocolStream::to_views(QueueOp op, TaskPhase phase, const StepActor& a,
                              const TicketSpace& ring, LaneMask mask,
                              LaneWords ticket, LaneWords token) {
  const auto payload = [&](unsigned lane) {
    return token.empty() ? 0 : token[lane];
  };
  if (history_ != nullptr) {
    for_lanes(mask, [&](unsigned lane) {
      to_history(op, a, ring, ticket[lane], payload(lane));
    });
  }
  if (trace_ != nullptr) {
    for_lanes(mask, [&](unsigned lane) {
      to_trace(phase, a, ticket[lane], payload(lane));
    });
  }
}

void ProtocolStream::host_publish(const TicketSpace& ring, HostOrigin origin,
                                  std::uint64_t ticket, std::uint64_t token,
                                  Cycle cycle) {
  const StepActor a = StepActor::host(cycle);
  if (history_ != nullptr) {
    to_history(QueueOp::kEnqueueReserve, a, ring, ticket, token);
    to_history(QueueOp::kEnqueueWrite, a, ring, ticket, token);
  }
  if (recorder_ != nullptr) {
    to_recorder(origin == HostOrigin::kSeed ? FlightKind::kWrite
                                            : FlightKind::kRouter,
                a, 0, ticket, token, ring.band_of(ticket));
  }
  // Router injections carry no trace id on the receiving device. Seeds
  // have no parent: they root the spawn forest.
  if (trace_ != nullptr && origin == HostOrigin::kSeed) {
    to_trace(TaskPhase::kReserve, a, ticket, token);
    to_trace(TaskPhase::kPayloadWrite, a, ticket, token);
  }
}

}  // namespace simt
