// Persistent-thread single-source shortest paths — a second irregular
// workload on the same scheduler, demonstrating the queue is
// application-agnostic (the paper's "it can be used for other purposes
// ... with little change", §1).
//
// Same work-cycle structure as the BFS driver, but relaxations add edge
// weights: dist[child] = min(dist[child], dist[v] + w(e)), with every
// improvement re-enqueued (label-correcting SSSP, the classic GPU
// worklist algorithm). Converges to exact Dijkstra distances under any
// processing order. Runs on the relax client shared with the BFS driver
// (pt_relax.cc).
#pragma once

#include "bfs/common.h"
#include "core/queue.h"
#include "sim/config.h"
#include "tasks/attempts.h"

namespace scq::bfs {

// Observability sinks come from tasks::RunSinks (attached per attempt).
struct PtSsspOptions : tasks::RunSinks {
  QueueVariant variant = QueueVariant::kRfan;
  unsigned work_budget = 4;
  simt::Cycle poll_interval = 240;
  // Label-correcting SSSP re-enqueues more than BFS: give the token
  // array more room up front. The circular ring only needs to cover the
  // in-flight working set; a too-small ring backpressures producers and
  // retries with doubled sizing only on a detected deadlock.
  double queue_headroom = 3.0;
  // Non-zero overrides the auto sizing with an explicit slot count;
  // deadlock retries double it.
  std::uint64_t queue_capacity = 0;
  std::uint32_t num_workgroups = 0;
};

struct SsspResult {
  simt::RunResult run;
  std::vector<std::uint64_t> dist;  // per-vertex distance
  std::uint32_t attempts = 1;
  // Black-box JSON from the most recent aborted attempt ("" if none);
  // see BfsResult::black_box.
  std::string black_box;
};

SsspResult run_pt_sssp(const simt::DeviceConfig& config, const graph::Graph& g,
                       Vertex source, const PtSsspOptions& options = {});

}  // namespace scq::bfs
