#include "sim/flight_recorder.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace simt {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void FlightRecorder::append_locked(FlightEvent e) const {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    // Overwrite the oldest surviving entry and advance the ring start:
    // the recorder keeps the most recent `capacity_` events.
    ring_[first_] = e;
    first_ = (first_ + 1) % capacity_;
    ++dropped_;
  }
  ++recorded_;
}

void FlightRecorder::flush_step_locked() const {
  if (pending_.width == 0) return;
  FlightEvent e;
  e.kind = pending_.kind;
  e.actor = pending_.actor;
  e.unit = pending_.unit;
  e.ticket = pending_.ticket;
  e.payload = pending_.width;  // batch width, not a token value
  e.band = pending_.band;
  e.cycle = pending_.cycle;
  e.seq = recorded_;
  append_locked(e);
  pending_.width = 0;
}

void FlightRecorder::begin_steps(FlightKind kind, std::uint32_t actor,
                                 std::uint32_t unit, std::uint64_t ticket,
                                 std::uint64_t band, Cycle cycle,
                                 std::uint32_t width) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  pending_ = {kind, actor, unit, ticket, band, cycle, width};
}

void FlightRecorder::apply_wait_locked(const FlightEvent& e) {
  const WaitKey key{e.unit, e.ticket};
  switch (e.kind) {
    case FlightKind::kClaim:
      monitors_[key] = {e.actor, e.band, e.cycle};
      break;
    case FlightKind::kDeliver:
      monitors_.erase(key);
      break;
    case FlightKind::kReserve:
      parked_[key] = {e.actor, e.band, e.payload, e.cycle};
      break;
    case FlightKind::kWrite:
      parked_.erase(key);
      break;
    default:
      break;
  }
}

void FlightRecorder::record(const FlightEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  FlightEvent stamped = e;
  stamped.seq = recorded_;
  append_locked(stamped);
  apply_wait_locked(stamped);
}

void FlightRecorder::set_source_label(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  label_ = std::move(label);
}

std::string FlightRecorder::source_label() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(first_ + i) % capacity_]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  return ring_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  return dropped_;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  return recorded_;
}

std::map<FlightRecorder::WaitKey, FlightRecorder::MonitorWait>
FlightRecorder::monitors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return monitors_;
}

std::map<FlightRecorder::WaitKey, FlightRecorder::ParkWait>
FlightRecorder::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.width = 0;
  ring_.clear();
  first_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  monitors_.clear();
  parked_.clear();
}

std::string FlightRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  std::ostringstream os;
  os << "{\"flight_recorder\":1,\"capacity\":" << capacity_
     << ",\"recorded\":" << recorded_ << ",\"dropped\":" << dropped_
     << ",\"sources\":[\"" << scq::util::json_escape(label_)
     << "\"],\"events\":[";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& e = ring_[(first_ + i) % capacity_];
    if (i) os << ',';
    os << "{\"seq\":" << e.seq << ",\"src\":0,\"kind\":\""
       << to_string(e.kind) << "\",\"actor\":" << e.actor
       << ",\"unit\":" << e.unit << ",\"ticket\":" << e.ticket
       << ",\"payload\":" << e.payload << ",\"band\":" << e.band
       << ",\"cycle\":" << e.cycle << '}';
  }
  os << "],\"monitors\":[";
  bool comma = false;
  for (const auto& [k, v] : monitors_) {
    if (comma) os << ',';
    comma = true;
    os << "{\"src\":0,\"unit\":" << k.first << ",\"ticket\":" << k.second
       << ",\"actor\":" << v.actor << ",\"band\":" << v.band
       << ",\"since\":" << v.since << '}';
  }
  os << "],\"parked\":[";
  comma = false;
  for (const auto& [k, v] : parked_) {
    if (comma) os << ',';
    comma = true;
    os << "{\"src\":0,\"unit\":" << k.first << ",\"ticket\":" << k.second
       << ",\"actor\":" << v.actor << ",\"band\":" << v.band
       << ",\"token\":" << v.token << ",\"since\":" << v.since << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace simt
