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
//     vertices are emitted as kCandidate tokens into the per-pair
//     transfer rings (the client's side channels) and resolved by the
//     owner's atomic-min at dequeue.
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

struct ClusterBfsOptions {
  std::uint32_t num_devices = 2;
  graph::PartitionPolicy partition = graph::PartitionPolicy::kBlock;
  cluster::BalancePolicy balance = cluster::BalancePolicy::kOwnerOnly;
  double steal_trigger = 2.0;
  simt::Cycle quantum = 2048;
  QueueVariant variant = QueueVariant::kRfan;
  unsigned work_budget = 4;
  simt::Cycle poll_interval = 240;
  // Auto main-ring sizing: capacity per device =
  // max(V * headroom / devices, 4 waves). Label-correcting re-enqueues
  // plus remote candidates make this more generous than pt_bfs's 1.3.
  double queue_headroom = 3.0;
  std::uint64_t queue_capacity = 0;  // non-zero overrides auto sizing
  std::uint64_t xfer_capacity = 0;   // non-zero overrides the 1024 default
  std::uint32_t num_workgroups = 0;  // 0 = all resident wave slots
  // Optional sinks (not owned); see cluster::ClusterOptions — metric
  // names and task tickets are namespaced dev<N>. / device<<56 when
  // num_devices > 1. The task trace is cleared per attempt.
  simt::Telemetry* telemetry = nullptr;
  simt::TaskTrace* task_trace = nullptr;
};

struct ClusterBfsResult {
  std::vector<std::uint32_t> levels;  // read from each vertex's owner
  cluster::ClusterRun run;
  std::uint32_t attempts = 1;  // deadlock retries (capacity doubling)
  // Partition quality of the run's vertex sharding.
  std::uint64_t cut_edges = 0;
  double degree_imbalance = 1.0;
  // Black-box JSON from the most recent aborted attempt ("" if none);
  // survives the capacity-doubling retries that ClusterRun does not.
  std::string black_box;
};

struct ClusterSsspResult {
  std::vector<std::uint64_t> dist;
  cluster::ClusterRun run;
  std::uint32_t attempts = 1;
  std::uint64_t cut_edges = 0;
  double degree_imbalance = 1.0;
  // See ClusterBfsResult::black_box.
  std::string black_box;
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
