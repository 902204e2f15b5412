#include "bfs/common.h"

#include <algorithm>

namespace scq::bfs {

namespace {

// Widens 32-bit host data into 64-bit device words in bounded chunks so
// huge graphs don't need a second full-size staging copy.
void write_widened(simt::Device& dev, simt::Buffer buffer,
                   std::span<const std::uint32_t> values) {
  constexpr std::size_t kChunk = 1 << 20;
  std::vector<std::uint64_t> staging;
  staging.reserve(std::min(values.size(), kChunk));
  std::size_t written = 0;
  while (written < values.size()) {
    const std::size_t n = std::min(kChunk, values.size() - written);
    staging.assign(values.begin() + static_cast<std::ptrdiff_t>(written),
                   values.begin() + static_cast<std::ptrdiff_t>(written + n));
    simt::Buffer window{buffer.base + written, n};
    dev.write(window, staging);
    written += n;
  }
}

}  // namespace

DeviceGraph upload_graph(simt::Device& dev, const graph::Graph& g) {
  DeviceGraph dg;
  dg.n_vertices = g.num_vertices();
  dg.n_edges = g.num_edges();
  dg.row_offsets = dev.alloc(static_cast<std::uint64_t>(dg.n_vertices) + 1);
  dg.cols = dev.alloc(std::max<std::uint64_t>(dg.n_edges, 1));
  dg.cost = dev.alloc(std::max<std::uint64_t>(dg.n_vertices, 1));
  dev.write(dg.row_offsets, g.row_offsets());
  write_widened(dev, dg.cols, g.cols());
  if (g.has_weights()) {
    dg.weights = dev.alloc(std::max<std::uint64_t>(dg.n_edges, 1));
    write_widened(dev, dg.weights, g.weights());
    dg.has_weights = true;
  }
  dev.fill(dg.cost, kUnvisited);
  return dg;
}

std::vector<std::uint32_t> read_levels(simt::Device& dev, const DeviceGraph& dg) {
  std::vector<std::uint32_t> levels(dg.n_vertices);
  for (Vertex v = 0; v < dg.n_vertices; ++v) {
    levels[v] = level_of(dev.read_word(dg.cost.at(v)));
  }
  return levels;
}

bool matches_reference(const std::vector<std::uint32_t>& got,
                       const std::vector<std::uint32_t>& ref) {
  return got == ref;
}

bool plausible_levels(const std::vector<std::uint32_t>& got,
                      const std::vector<std::uint32_t>& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    const bool got_reached = got[v] != graph::kUnreached;
    const bool ref_reached = ref[v] != graph::kUnreached;
    if (got_reached != ref_reached) return false;
    if (got_reached && got[v] < ref[v]) return false;  // below true distance
  }
  return true;
}

std::string first_mismatch(const std::vector<std::uint32_t>& got,
                           const std::vector<std::uint32_t>& ref) {
  if (got.size() != ref.size()) {
    return "size mismatch: got " + std::to_string(got.size()) + " vs ref " +
           std::to_string(ref.size());
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] != ref[v]) {
      return "vertex " + std::to_string(v) + ": got " + std::to_string(got[v]) +
             " vs ref " + std::to_string(ref[v]);
    }
  }
  return "no mismatch";
}

}  // namespace scq::bfs
