// Irregular graph workloads on the dynamic task framework — the three
// Atos-style applications named in ROADMAP.md, each expressed purely in
// terms of TaskContext (spawn / respawn / defer / credit) so one
// implementation runs unchanged across BASE, AN, RF/AN and the banded
// multi-queue:
//
//   Connected components  min-label propagation: every vertex seeds a
//                         task; a task pushes its label to neighbors and
//                         spawns a task per improved neighbor
//                         (label-correcting, like pt_bfs).
//   PageRank-delta        push-based residual propagation: a task
//                         settles its vertex's residual into its rank
//                         and pushes the damped share to out-neighbors,
//                         spawning any neighbor whose residual crosses
//                         the threshold (de-duplicated by a queued
//                         flag).
//   Greedy coloring       Jones-Plassmann with vertex id as priority,
//                         in two scheduling modes: conflict-respawn (a
//                         task whose higher-priority neighbors are
//                         uncolored re-enqueues itself) and dependency
//                         credits (a band-0 registration phase defers
//                         each band-1 coloring task behind its
//                         higher-priority neighbor count; coloring
//                         tasks pay credits downstream). Both modes
//                         reproduce serial greedy-by-id exactly.
//
// Workload state (labels, residuals, colors) is host-side, like the
// fuzz harness's workloads: the framework models the *scheduling*
// traffic — queue protocol, spawn storms, dependency stalls — not the
// application's memory system.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tasks/task_engine.h"

namespace scq::tasks::workloads {

struct CcResult {
  std::vector<graph::Vertex> label;  // component label per vertex
  TaskGraphResult graph;
};
CcResult run_cc(const simt::DeviceConfig& config, const graph::Graph& g,
                const TaskGraphOptions& options = {});

struct PageRankOptions {
  double damping = 0.85;
  // A neighbor is (re-)spawned when its residual crosses this bound.
  // Total truncation error is below n * threshold / (1 - damping).
  double threshold = 1e-7;
};
struct PageRankResult {
  std::vector<double> rank;
  TaskGraphResult graph;
};
PageRankResult run_pagerank_delta(const simt::DeviceConfig& config,
                                  const graph::Graph& g,
                                  const PageRankOptions& pr = {},
                                  const TaskGraphOptions& options = {});

struct ColoringOptions {
  // false: conflict-respawn mode (single band, re-execution traffic).
  // true: dependency-credit mode (band 0 registers deferred band-1
  // coloring tasks; credits release them — zero re-executions).
  bool use_dependencies = false;
  // Seed vertices in descending id order — the worst case for the
  // priority order (every early delivery faces uncolored smaller-id
  // neighbors). Maximizes respawn traffic in conflict-respawn mode;
  // dependency-credit mode is order-insensitive and stays retry-free,
  // which is exactly the comparison the bench figure draws. The final
  // coloring is the same fixed point either way.
  bool adversarial_order = false;
};
struct ColoringResult {
  std::vector<std::uint32_t> color;
  TaskGraphResult graph;
};
ColoringResult run_coloring(const simt::DeviceConfig& config,
                            const graph::Graph& g,
                            const ColoringOptions& co = {},
                            const TaskGraphOptions& options = {});

}  // namespace scq::tasks::workloads
