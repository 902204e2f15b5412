// Shared plumbing for the BFS drivers: graph upload, result/validation
// types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/bfs_ref.h"
#include "graph/graph.h"
#include "sim/device.h"

namespace scq::bfs {

using graph::Vertex;

// Cost value for undiscovered vertices in device memory.
inline constexpr std::uint64_t kUnvisited = ~std::uint64_t{0};

struct DeviceGraph {
  simt::Buffer row_offsets;  // V+1 words
  simt::Buffer cols;         // E words
  simt::Buffer weights;      // E words (only when has_weights)
  simt::Buffer cost;         // V words, init kUnvisited
  Vertex n_vertices = 0;
  std::uint64_t n_edges = 0;
  bool has_weights = false;
};

// Allocates device buffers and copies the CSR arrays (host-side setup,
// as the GPU runtime requires all allocation before launch — §3.1).
DeviceGraph upload_graph(simt::Device& dev, const graph::Graph& g);

// A device cost word as a 32-bit BFS level (kUnvisited -> kUnreached).
[[nodiscard]] constexpr std::uint32_t level_of(std::uint64_t cost) {
  return cost == kUnvisited ? graph::kUnreached
                            : static_cast<std::uint32_t>(cost);
}

// Reads back the device cost array as 32-bit BFS levels.
std::vector<std::uint32_t> read_levels(simt::Device& dev, const DeviceGraph& dg);

struct BfsResult {
  simt::RunResult run;                // timing + stats (total across launches)
  std::vector<std::uint32_t> levels;  // per-vertex BFS level
  std::uint32_t attempts = 1;         // queue-full retries (capacity doubling)
  // Black-box JSON (core/black_box.h) from the most recent aborted
  // attempt: the driver dumps queue state + flight-recorder ring before
  // each capacity-doubling retry. Empty when no attempt aborted.
  std::string black_box;
};

// Exact equality against the serial reference.
bool matches_reference(const std::vector<std::uint32_t>& got,
                       const std::vector<std::uint32_t>& ref);

// Relaxed check for the benign-race ablation mode: identical
// reachability and no level below the true distance.
bool plausible_levels(const std::vector<std::uint32_t>& got,
                      const std::vector<std::uint32_t>& ref);

// Human-readable first mismatch (for test diagnostics).
std::string first_mismatch(const std::vector<std::uint32_t>& got,
                           const std::vector<std::uint32_t>& ref);

}  // namespace scq::bfs
