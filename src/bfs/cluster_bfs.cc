#include "bfs/cluster_bfs.h"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "cluster/token.h"
#include "core/counters.h"
#include "core/task_probes.h"
#include "core/telemetry_probes.h"
#include "graph/sssp_ref.h"

namespace scq::bfs {

namespace {

using simt::Addr;
using simt::Kernel;
using simt::LaneMask;
using simt::Wave;
using simt::kWaveWidth;

// Per-lane vertex-processing registers (the cluster twin of pt_bfs's
// LaneWork: `cost` is the enumeration base, whatever kind the token was).
struct LaneWork {
  std::array<std::uint64_t, kWaveWidth> vertex{};
  std::array<std::uint64_t, kWaveWidth> cursor{};
  std::array<std::uint64_t, kWaveWidth> row_end{};
  std::array<std::uint64_t, kWaveWidth> cost{};
  std::array<std::uint64_t, kWaveWidth> ticket = filled_lanes(kNoTask);
};

// Everything one device's waves need, owned by the host front-end for
// the duration of the cluster run.
struct DeviceCtx {
  DeviceQueue* queue = nullptr;
  const cluster::TransferRing* rings[64] = {};  // rings[dst], self null
  DeviceGraph g;
  simt::Buffer owner;  // V words, owner[v] = owning device (n > 1 only)
  simt::Addr stop = 0;
  std::uint32_t dev_index = 0;
  std::uint32_t num_devices = 1;
  bool weighted = false;
  unsigned work_budget = 4;
  simt::Cycle poll_interval = 240;
};

Kernel<void> cluster_wave(Wave& w, const DeviceCtx& ctx) {
  DeviceQueue& queue = *ctx.queue;
  const DeviceGraph& g = ctx.g;
  // Per-destination staging for remote children (lives in the coroutine
  // frame; one slot per device, the self slot unused).
  std::vector<cluster::XferWaveState> xfer(ctx.num_devices);
  WaveQueueState st{};
  std::array<std::uint64_t, kWaveWidth> tokens{};
  LaneWork lw{};
  LaneMask working = 0;

  for (;;) {  // one iteration per work cycle, as in pt_bfs
    w.bump(kWorkCycles);
    // Host-driven termination: only the cluster loop can see global
    // quiescence, so the all_done predicate is replaced by a stop word.
    if (co_await w.load(ctx.stop) != 0) break;

    bool progress = false;

    st.hungry = ~(working | st.assigned | st.ready);
    if (st.hungry) co_await queue.acquire_slots(w, st);

    if (simt::Telemetry* probes = probe_sink(w)) {
      probes->set_shard(tel::kHungryLanes, w.slot_id(),
                        static_cast<std::uint64_t>(std::popcount(st.hungry)));
      probes->set_shard(tel::kAssignedLanes, w.slot_id(),
                        static_cast<std::uint64_t>(std::popcount(st.assigned)));
    }

    std::uint32_t finished = 0;
    if (st.assigned || st.ready) {
      const LaneMask arrived = co_await queue.check_arrival(w, st, tokens);
      if (arrived) {
        progress = true;

        // Decode: split the batch by token kind (cluster/token.h).
        std::array<std::uint64_t, kWaveWidth> tok_cost{};
        LaneMask local = 0, cand = 0, upd = 0, stolen = 0;
        for_lanes(arrived, [&](unsigned lane) {
          const std::uint64_t t = tokens[lane];
          lw.vertex[lane] = cluster::token_vertex(t);
          tok_cost[lane] = cluster::token_cost(t);
          switch (cluster::token_kind(t)) {
            case cluster::TokenKind::kLocal: local |= bit(lane); break;
            case cluster::TokenKind::kCandidate: cand |= bit(lane); break;
            case cluster::TokenKind::kUpdate: upd |= bit(lane); break;
            case cluster::TokenKind::kStolen: stolen |= bit(lane); break;
          }
        });

        std::array<Addr, kWaveWidth> a{};
        std::array<std::uint64_t, kWaveWidth> vcost{}, oldc{};
        // kLocal reloads the authoritative label and enumerates from it,
        // exactly as pt_bfs/pt_sssp do.
        if (local) {
          for_lanes(local, [&](unsigned lane) {
            a[lane] = g.cost.at(lw.vertex[lane]);
          });
          co_await w.load_lanes(local, a, vcost);
        }
        // kCandidate / kUpdate resolve against the owner's word here;
        // this device owns these vertices by construction.
        const LaneMask resolve = cand | upd;
        if (resolve) {
          for_lanes(resolve, [&](unsigned lane) {
            a[lane] = g.cost.at(lw.vertex[lane]);
          });
          co_await w.atomic_lanes(simt::AtomicKind::kMin, resolve, a, tok_cost,
                                  {}, oldc);
        }

        // Who enumerates: kLocal and kStolen always; kCandidate only if
        // its cost improved the authoritative word; kUpdate never (the
        // thief holds the matching kStolen).
        LaneMask enumerate = local | stolen;
        for_lanes(cand, [&](unsigned lane) {
          if (oldc[lane] > tok_cost[lane]) enumerate |= bit(lane);
        });
        for_lanes(local, [&](unsigned lane) { lw.cost[lane] = vcost[lane]; });
        for_lanes(stolen | cand,
                  [&](unsigned lane) { lw.cost[lane] = tok_cost[lane]; });

        if (enumerate) {
          std::array<std::uint64_t, kWaveWidth> row_begin{}, row_end{};
          for_lanes(enumerate, [&](unsigned lane) {
            a[lane] = g.row_offsets.at(lw.vertex[lane]);
          });
          co_await w.load_lanes(enumerate, a, row_begin);
          for_lanes(enumerate, [&](unsigned lane) { a[lane] += 1; });
          co_await w.load_lanes(enumerate, a, row_end);
          for_lanes(enumerate, [&](unsigned lane) {
            lw.cursor[lane] = row_begin[lane];
            lw.row_end[lane] = row_end[lane];
          });
        }

        const LaneMask immediate = arrived & ~enumerate;
        const bool tasks_traced = task_sink(w) != nullptr;
        for_lanes(arrived, [&](unsigned lane) {
          lw.ticket[lane] = st.deliver_ticket[lane];
          if (tasks_traced) {
            trace_task(w, simt::TaskPhase::kExecStart, lw.ticket[lane],
                       lw.vertex[lane]);
            if (immediate & bit(lane)) {
              trace_task(w, simt::TaskPhase::kExecEnd, lw.ticket[lane]);
            }
          }
        });
        working |= enumerate;
        finished += static_cast<std::uint32_t>(std::popcount(immediate));
        w.bump(kTasksProcessed,
               static_cast<std::uint64_t>(std::popcount(immediate)));
      }
    }

    // Work phase. Full freeze while anything is parked — on the main
    // ring or any transfer ring: each of the 1+N parked buffers can
    // absorb a whole wave's worst-case batch, so stopping production
    // entirely (rather than pt_bfs's proportional gate) keeps every
    // buffer bounded without cross-ring accounting.
    st.clear_produce();
    bool frozen = st.has_parked();
    for (std::uint32_t d = 0; d < ctx.num_devices && !frozen; ++d) {
      if (d != ctx.dev_index && xfer[d].has_parked()) frozen = true;
    }
    const LaneMask run = frozen ? LaneMask{0} : working;
    if (run) {
      progress = true;
      for (unsigned t = 0; t < ctx.work_budget; ++t) {
        LaneMask active = 0;
        for_lanes(run, [&](unsigned lane) {
          if (lw.cursor[lane] < lw.row_end[lane]) active |= bit(lane);
        });
        if (!active) break;

        std::array<Addr, kWaveWidth> ea{};
        std::array<std::uint64_t, kWaveWidth> child{}, edge_w{};
        for_lanes(active, [&](unsigned lane) {
          ea[lane] = g.cols.at(lw.cursor[lane]);
        });
        co_await w.load_lanes(active, ea, child);
        if (ctx.weighted && g.has_weights) {
          for_lanes(active, [&](unsigned lane) {
            ea[lane] = g.weights.at(lw.cursor[lane]);
          });
          co_await w.load_lanes(active, ea, edge_w);
        } else {
          for_lanes(active, [&](unsigned lane) { edge_w[lane] = 1; });
        }
        for_lanes(active, [&](unsigned lane) { lw.cursor[lane] += 1; });
        w.bump(kEdgesRelaxed, static_cast<std::uint64_t>(std::popcount(active)));

        std::array<std::uint64_t, kWaveWidth> newcost{};
        for_lanes(active, [&](unsigned lane) {
          newcost[lane] = lw.cost[lane] + edge_w[lane];
        });

        // Ownership split: relax own children in place; ship the rest
        // to their owners as candidates.
        LaneMask local_child = active;
        std::array<std::uint64_t, kWaveWidth> own{};
        if (ctx.num_devices > 1) {
          std::array<Addr, kWaveWidth> oa{};
          for_lanes(active, [&](unsigned lane) {
            oa[lane] = ctx.owner.at(child[lane]);
          });
          co_await w.load_lanes(active, oa, own);
          local_child = 0;
          for_lanes(active, [&](unsigned lane) {
            if (own[lane] == ctx.dev_index) local_child |= bit(lane);
          });
        }

        if (local_child) {
          std::array<Addr, kWaveWidth> ca{};
          std::array<std::uint64_t, kWaveWidth> oldcost{};
          for_lanes(local_child, [&](unsigned lane) {
            ca[lane] = g.cost.at(child[lane]);
          });
          co_await w.atomic_lanes(simt::AtomicKind::kMin, local_child, ca,
                                  newcost, {}, oldcost);
          for_lanes(local_child, [&](unsigned lane) {
            if (oldcost[lane] > newcost[lane]) {
              st.push_token(lane,
                            cluster::pack_token_checked(
                                cluster::TokenKind::kLocal, newcost[lane],
                                child[lane]),
                            lw.ticket[lane]);
              if (oldcost[lane] != kUnvisited) w.bump(kDupEnqueues);
            }
          });
        }
        for_lanes(active & ~local_child, [&](unsigned lane) {
          // No local gate: the owner's atomic-min decides. Duplicate or
          // stale candidates die there.
          xfer[own[lane]].push(
              lane, cluster::pack_token_checked(cluster::TokenKind::kCandidate,
                                                newcost[lane], child[lane]));
        });
      }

      LaneMask done_lanes = 0;
      const bool tasks_traced = task_sink(w) != nullptr;
      for_lanes(run, [&](unsigned lane) {
        if (lw.cursor[lane] >= lw.row_end[lane]) {
          done_lanes |= bit(lane);
          if (tasks_traced) {
            trace_task(w, simt::TaskPhase::kExecEnd, lw.ticket[lane]);
          }
        }
      });
      const auto n_done = static_cast<std::uint32_t>(std::popcount(done_lanes));
      finished += n_done;
      working &= ~done_lanes;
      w.bump(kTasksProcessed, n_done);
    }

    // Publish order carries the termination proof: remote children are
    // reserved in their transfer rings, then local children in the main
    // ring, and only then do their parents report complete — in-flight
    // work always holds a Rear above a Completed/Front somewhere.
    for (std::uint32_t d = 0; d < ctx.num_devices; ++d) {
      if (d != ctx.dev_index) co_await ctx.rings[d]->publish(w, xfer[d]);
    }
    if (st.total_new() != 0 || st.has_parked()) co_await queue.publish(w, st);
    if (finished) co_await queue.report_complete(w, finished);

    if (!progress) co_await w.idle(ctx.poll_interval);
  }
}

struct CommonResult {
  std::vector<std::uint64_t> cost;  // authoritative word per vertex
  cluster::ClusterRun run;
  std::uint32_t attempts = 1;
  std::uint64_t cut_edges = 0;
  double degree_imbalance = 1.0;
  std::string black_box;  // most recent aborted attempt's dump
};

CommonResult run_cluster_common(const simt::DeviceConfig& config,
                                const graph::Graph& g, Vertex source,
                                const ClusterBfsOptions& options,
                                bool weighted) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_cluster: source out of range");
  }
  if (g.num_vertices() > cluster::kMaxPackVertex + 1) {
    throw simt::SimError(
        "run_cluster: graph exceeds the 24-bit cluster vertex field");
  }
  if (options.work_budget == 0 || options.work_budget > kMaxWorkBudget) {
    throw simt::SimError(
        "run_cluster: work_budget must be in [1, kMaxWorkBudget]");
  }
  if (options.num_devices == 0 || options.num_devices > kWaveWidth) {
    throw simt::SimError("run_cluster: num_devices must be in [1, 64]");
  }

  const std::uint32_t n = options.num_devices;
  const graph::Partition part = graph::partition_graph(g, n, options.partition);

  std::uint64_t qcap = options.queue_capacity;
  if (qcap == 0) {
    qcap = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(g.num_vertices()) *
                                   options.queue_headroom) /
            n,
        4 * kWaveWidth);
  }
  std::uint64_t xcap = options.xfer_capacity != 0 ? options.xfer_capacity
                                                  : std::uint64_t{1024};

  std::string last_black_box;
  for (std::uint32_t attempt = 1;; ++attempt) {
    cluster::ClusterOptions copt;
    copt.num_devices = n;
    copt.quantum = options.quantum;
    copt.balance = options.balance;
    copt.steal_trigger = options.steal_trigger;
    copt.variant = options.variant;
    copt.queue_capacity = qcap;
    copt.xfer_capacity = xcap;
    copt.telemetry = options.telemetry;
    copt.task_trace = options.task_trace;
    copt.flight_recorder = options.flight_recorder;

    // The sink trace is cleared per attempt (as in run_pt_bfs) so it
    // holds exactly the merged per-device run that produced the result.
    if (options.task_trace != nullptr) options.task_trace->clear();

    cluster::Cluster cl(config, copt);
    if (options.task_trace != nullptr) {
      stamp_task_meta(*options.task_trace, cl.queue(0));
      options.task_trace->set_meta("devices", std::to_string(n));
    }

    std::vector<DeviceCtx> ctx(n);
    for (std::uint32_t d = 0; d < n; ++d) {
      simt::Device& dev = cl.device(d);
      ctx[d].queue = &cl.queue(d);
      ctx[d].g = upload_graph(dev, g);
      if (n > 1) {
        ctx[d].owner = dev.alloc(std::max<std::uint64_t>(g.num_vertices(), 1));
        std::vector<std::uint64_t> owner_words(g.num_vertices());
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          owner_words[v] = part.owner[v];
        }
        dev.write(ctx[d].owner, owner_words);
      }
      ctx[d].stop = cl.stop_flag(d);
      ctx[d].dev_index = d;
      ctx[d].num_devices = n;
      ctx[d].weighted = weighted;
      ctx[d].work_budget = options.work_budget;
      ctx[d].poll_interval = options.poll_interval;
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (dst != d) ctx[d].rings[dst] = &cl.ring(d, dst);
      }
    }

    // Seed the source at its owner: cost word 0 plus one kLocal token.
    const std::uint32_t owner_dev = part.owner[source];
    cl.device(owner_dev).write_word(ctx[owner_dev].g.cost.at(source), 0);
    const std::uint64_t seed[] = {
        cluster::pack_token(cluster::TokenKind::kLocal, 0, source)};
    cl.queue(owner_dev).seed(cl.device(owner_dev), seed);

    const std::uint32_t workgroups = options.num_workgroups != 0
                                         ? options.num_workgroups
                                         : config.resident_waves();
    cluster::ClusterRun crun =
        cl.run([&ctx](std::uint32_t d) -> simt::KernelFactory {
          return [ctxp = &ctx[d]](Wave& w) -> Kernel<void> {
            return cluster_wave(w, *ctxp);
          };
        }, workgroups);

    if (crun.aborted) last_black_box = crun.black_box;
    if (crun.aborted && attempt < 8) {
      qcap *= 2;
      xcap *= 2;
      continue;
    }

    CommonResult result;
    result.attempts = attempt;
    result.black_box = std::move(last_black_box);
    result.cut_edges = part.cut_edges;
    result.degree_imbalance = part.degree_imbalance();
    if (!crun.aborted) {
      result.cost.resize(g.num_vertices());
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const std::uint32_t d = part.owner[v];
        result.cost[v] = cl.device(d).read_word(ctx[d].g.cost.at(v));
      }
    }
    result.run = std::move(crun);
    return result;
  }
}

}  // namespace

ClusterBfsResult run_cluster_bfs(const simt::DeviceConfig& config,
                                 const graph::Graph& g, Vertex source,
                                 const ClusterBfsOptions& options) {
  CommonResult common =
      run_cluster_common(config, g, source, options, /*weighted=*/false);
  ClusterBfsResult result;
  result.run = std::move(common.run);
  result.attempts = common.attempts;
  result.cut_edges = common.cut_edges;
  result.degree_imbalance = common.degree_imbalance;
  result.black_box = std::move(common.black_box);
  if (!common.cost.empty()) {
    result.levels.resize(common.cost.size());
    for (std::size_t v = 0; v < common.cost.size(); ++v) {
      result.levels[v] = common.cost[v] == kUnvisited
                             ? graph::kUnreached
                             : static_cast<std::uint32_t>(common.cost[v]);
    }
  }
  return result;
}

ClusterSsspResult run_cluster_sssp(const simt::DeviceConfig& config,
                                   const graph::Graph& g, Vertex source,
                                   const ClusterBfsOptions& options) {
  CommonResult common =
      run_cluster_common(config, g, source, options, /*weighted=*/true);
  ClusterSsspResult result;
  result.run = std::move(common.run);
  result.attempts = common.attempts;
  result.cut_edges = common.cut_edges;
  result.degree_imbalance = common.degree_imbalance;
  result.black_box = std::move(common.black_box);
  if (!common.cost.empty()) {
    result.dist.resize(common.cost.size());
    for (std::size_t v = 0; v < common.cost.size(); ++v) {
      result.dist[v] = common.cost[v] == kUnvisited ? graph::kUnreachableDist
                                                    : common.cost[v];
    }
  }
  return result;
}

}  // namespace scq::bfs
