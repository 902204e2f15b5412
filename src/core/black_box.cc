#include "core/black_box.h"

#include <algorithm>
#include <sstream>

namespace scq {

void BlackBoxBuilder::add_device(const std::string& name,
                                 const simt::Device& dev,
                                 const DeviceQueue* queue,
                                 const simt::FlightRecorder* recorder) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\",\"cycle\":" << dev.now()
     << ",\"queue\":";
  if (queue != nullptr) {
    const QueueSnapshot s = queue->snapshot(dev);
    os << "{\"variant\":\"" << json_escape(s.variant)
       << "\",\"capacity\":" << s.capacity
       << ",\"per_band_capacity\":" << s.per_band_capacity
       << ",\"closure_frontier\":" << s.closure_frontier
       << ",\"resident\":" << s.resident << ",\"bands\":[";
    for (std::size_t b = 0; b < s.bands.size(); ++b) {
      if (b) os << ',';
      os << "{\"band\":" << s.bands[b].band << ",\"front\":" << s.bands[b].front
         << ",\"rear\":" << s.bands[b].rear
         << ",\"completed\":" << s.bands[b].completed
         << ",\"occupancy\":" << s.bands[b].occupancy << '}';
    }
    os << "]}";
  } else {
    os << "null";
  }
  os << ",\"recorder\":";
  os << (recorder != nullptr ? recorder->to_json() : std::string("null"));
  os << '}';
  devices_.push_back(os.str());
  cycle_ = std::max(cycle_, dev.now());
}

void BlackBoxBuilder::add_ring(std::uint32_t src, std::uint32_t dst,
                               std::uint64_t front, std::uint64_t rear,
                               std::uint64_t capacity) {
  std::ostringstream os;
  os << "{\"src\":" << src << ",\"dst\":" << dst << ",\"front\":" << front
     << ",\"rear\":" << rear
     << ",\"backlog\":" << (rear > front ? rear - front : 0)
     << ",\"capacity\":" << capacity << '}';
  rings_.push_back(os.str());
}

void BlackBoxBuilder::set_router(
    std::uint64_t drained, std::uint64_t delivered, std::uint64_t stolen,
    std::uint64_t inject_retries,
    const std::vector<std::vector<std::uint64_t>>& pending) {
  std::ostringstream os;
  os << "{\"drained\":" << drained << ",\"delivered\":" << delivered
     << ",\"stolen\":" << stolen << ",\"inject_retries\":" << inject_retries
     << ",\"pending\":[";
  for (std::size_t d = 0; d < pending.size(); ++d) {
    if (d) os << ',';
    os << '[';
    for (std::size_t i = 0; i < pending[d].size(); ++i) {
      if (i) os << ',';
      os << pending[d][i];
    }
    os << ']';
  }
  os << "]}";
  router_ = os.str();
}

std::string BlackBoxBuilder::to_json() const {
  std::ostringstream os;
  os << "{\"blackbox\":1,\"reason\":\"" << json_escape(reason_)
     << "\",\"cycle\":" << cycle_ << ",\"devices\":[";
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (d) os << ',';
    os << devices_[d];
  }
  os << "],\"rings\":[";
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    if (r) os << ',';
    os << rings_[r];
  }
  os << "],\"router\":" << (router_.empty() ? "null" : router_) << '}';
  return os.str();
}

std::string dump_black_box(simt::Device& dev, const DeviceQueue* queue,
                           const std::string& reason) {
  BlackBoxBuilder box(reason);
  box.add_device("", dev, queue, dev.protocol().recorder());
  return box.to_json();
}

bool write_black_box(const std::string& json, const std::string& path) {
  return util::write_file(path, json + '\n');
}

}  // namespace scq
