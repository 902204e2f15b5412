// Multi-device persistent-thread BFS / SSSP on the cluster runtime.
//
// The graph's adjacency (CSR) is replicated on every device; vertex
// *ownership* is partitioned (graph/partition.h). Each device runs the
// task engine's work cycle (tasks/task_engine.h) against its own main
// queue, as run_pt_bfs/run_pt_sssp do, with a cluster client:
//
//   - Tokens are cluster-packed (cluster/token.h): kind | cost |
//     vertex. Relaxations touch only the executing device's own
//     (authoritative) cost entries; improvements of remotely owned
//     vertices are emitted as kCandidate tokens into the device's
//     transfer queue (the client's side channel), which routes each to
//     its owner's sub-ring, and resolved by the owner's atomic-min at
//     dequeue.
//   - Termination is host-driven: the client names the stop word the
//     cluster loop raises at global quiescence, in place of the
//     single-queue all_done predicate (a device cannot see remote work).
//
// A 1-device cluster degenerates to the single-device algorithm (no
// owner lookups, no transfers) and must produce levels identical to
// run_pt_bfs on every graph; the determinism suite asserts it.
#pragma once

#include "bfs/common.h"
#include "cluster/cluster.h"
#include "graph/partition.h"
#include "sim/config.h"

namespace scq::bfs {

// The cluster runtime's options (device count, 2 by default; quantum;
// balance policy; scheduler; ring capacities; sinks) plus the
// front-end's own. Here a ring capacity of 0 means automatic: main
// rings get max(V * queue_headroom / devices, 4 waves) slots, transfer
// rings 1024. Metric names and task tickets are namespaced dev<N>. /
// device<<56 when num_devices > 1, and the task trace is cleared per
// attempt.
struct ClusterBfsOptions : cluster::ClusterOptions {
  graph::PartitionPolicy partition = graph::PartitionPolicy::kBlock;
  unsigned work_budget = 4;
  simt::Cycle poll_interval = 240;
  // Label-correcting re-enqueues plus remote candidates make this more
  // generous than pt_bfs's 1.3.
  double queue_headroom = 3.0;
  std::uint32_t num_workgroups = 0;  // 0 = all resident wave slots
};

// What every cluster front-end reports besides its per-vertex answer.
struct ClusterRunResult {
  cluster::ClusterRun run;
  std::uint32_t attempts = 1;  // deadlock retries (capacity doubling)
  // Partition quality of the run's vertex sharding.
  std::uint64_t cut_edges = 0;
  double degree_imbalance = 1.0;
  // Black-box JSON from the most recent aborted attempt ("" if none);
  // survives the capacity-doubling retries that ClusterRun does not.
  std::string black_box;
};

struct ClusterBfsResult : ClusterRunResult {
  std::vector<std::uint32_t> levels;  // read from each vertex's owner
};

struct ClusterSsspResult : ClusterRunResult {
  std::vector<std::uint64_t> dist;
};

// Requires num_vertices <= 2^24 and (for SSSP) distances < 2^22 — the
// cluster token packing's field widths.
ClusterBfsResult run_cluster_bfs(const simt::DeviceConfig& config,
                                 const graph::Graph& g, Vertex source,
                                 const ClusterBfsOptions& options = {});

ClusterSsspResult run_cluster_sssp(const simt::DeviceConfig& config,
                                   const graph::Graph& g, Vertex source,
                                   const ClusterBfsOptions& options = {});

}  // namespace scq::bfs
