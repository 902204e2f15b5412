// Label-correcting relaxation on the task engine: one client serves the
// BFS (pt_bfs.h), SSSP (pt_sssp.h) and delta-stepping / A* SSSP
// (pt_sssp_delta.h) front-ends, which differ only in the relaxed cost
// (cost + 1 vs dist + w), the queue, the token packing and — for
// delta-stepping — the stale-token skip and the light/heavy sweep.
#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bfs/pt_bfs.h"
#include "bfs/pt_sssp.h"
#include "bfs/pt_sssp_delta.h"
#include "cluster/token.h"
#include "core/bucketed_queue.h"
#include "core/counters.h"
#include "core/ext_schedulers.h"
#include "tasks/task_engine.h"

namespace scq::bfs {

namespace {

struct RelaxSpec {
  const DeviceGraph* g = nullptr;
  unsigned work_budget = 4;
  // dist + w(e) with weights loaded from the graph (SSSP on a weighted
  // graph); otherwise cost + 1.
  bool weighted = false;
  // false = benign-race ablation (plain load/store discovery; BFS only).
  bool atomic_discovery = true;
  // Delta-stepping bucket width; 0 = FIFO label correcting (tokens are
  // bare vertex ids, one sweep over each adjacency list).
  std::uint64_t delta = 0;
  // A* heuristic table (empty = zeros), delta-stepping only.
  const std::vector<std::uint64_t>* h = nullptr;

  [[nodiscard]] std::uint64_t bucket_of(std::uint64_t dist,
                                        std::uint64_t vertex) const {
    return (dist + (h->empty() ? 0 : (*h)[vertex])) / delta;
  }
};

// One vertex task per lane: the arrival prolog loads the vertex's
// adjacency range and cost, each work step relaxes up to work_budget
// edges per lane — the paper's fixed number of uniformly complex
// sub-tasks (§3.3) — and every improved child is (re-)enqueued.
class RelaxClient final : public tasks::TaskWaveClient {
 public:
  explicit RelaxClient(const RelaxSpec& spec) : s_(spec) {}

  Kernel<LaneMask> on_arrival(Wave& w, WaveQueueState& st, LaneMask arrived,
                              std::span<const std::uint64_t> tokens) override {
    // Arrived lanes hold no task, so their registers load in place.
    const DeviceGraph& g = *s_.g;
    for_lanes(arrived, [&](unsigned lane) {
      vertex_[lane] = s_.delta != 0 ? cluster::token_vertex(tokens[lane])
                                    : tokens[lane];
      addr_[lane] = g.row_offsets.at(vertex_[lane]);
    });
    co_await w.load_lanes(arrived, addr_, row_begin_);
    for_lanes(arrived, [&](unsigned lane) { addr_[lane] += 1; });
    co_await w.load_lanes(arrived, addr_, row_end_);
    for_lanes(arrived, [&](unsigned lane) {
      addr_[lane] = g.cost.at(vertex_[lane]);
    });
    co_await w.load_lanes(arrived, addr_, cost_);
    LaneMask stale = 0;
    for_lanes(arrived, [&](unsigned lane) {
      // Stale-token skip: the packed bucket trails the vertex's current
      // bucket — a fresher token already covers this expansion with
      // smaller distances. (The packed bucket saturates at
      // kMaxPackCost, which can only under-report and thus suppress a
      // skip, never cause a wrong one.)
      if (s_.delta != 0 && cost_[lane] != kUnvisited &&
          cluster::token_cost(tokens[lane]) >
              s_.bucket_of(cost_[lane], vertex_[lane])) {
        w.bump(kStaleSkips);
        stale |= bit(lane);
        return;
      }
      cursor_[lane] = row_begin_[lane];
      heavy_sweep_[lane] = saw_heavy_[lane] = false;
      ticket_[lane] = st.deliver_ticket[lane];
      w.device().protocol().exec_start(w, ticket_[lane], vertex_[lane]);
    });
    co_return stale;
  }

  Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                             LaneMask run) override {
    const DeviceGraph& g = *s_.g;
    for (unsigned t = 0; t < s_.work_budget; ++t) {
      LaneMask active = 0;
      for_lanes(run, [&](unsigned lane) {
        if (cursor_[lane] < row_end_[lane]) active |= bit(lane);
      });
      if (!active) break;

      for_lanes(active, [&](unsigned lane) {
        addr_[lane] = g.cols.at(cursor_[lane]);
        edge_w_[lane] = 1;
      });
      co_await w.load_lanes(active, addr_, child_);
      if (s_.weighted) {
        for_lanes(active, [&](unsigned lane) {
          addr_[lane] = g.weights.at(cursor_[lane]);
        });
        co_await w.load_lanes(active, addr_, edge_w_);
      }
      for_lanes(active, [&](unsigned lane) { cursor_[lane] += 1; });

      // Delta-stepping's light/heavy split: the first sweep relaxes
      // light edges (w <= delta, targets stay near the current bucket),
      // a second sweep the heavy ones, so intra-bucket growth is
      // published ahead of cross-bucket jumps. Each edge is relaxed
      // exactly once per expansion, keeping kEdgesRelaxed comparable
      // with FIFO (fig_work_efficiency depends on that).
      LaneMask relax = active;
      if (s_.delta != 0) {
        relax = 0;
        for_lanes(active, [&](unsigned lane) {
          const bool heavy = edge_w_[lane] > s_.delta;
          if (heavy && !heavy_sweep_[lane]) {
            saw_heavy_[lane] = true;
          } else if (heavy == heavy_sweep_[lane]) {
            relax |= bit(lane);
          }
        });
        if (!relax) continue;
      }
      w.bump(kEdgesRelaxed, static_cast<std::uint64_t>(std::popcount(relax)));

      // cost[child] = min(cost[child], cost[v] + w); improved children
      // are (re-)enqueued.
      for_lanes(relax, [&](unsigned lane) {
        addr_[lane] = g.cost.at(child_[lane]);
        newcost_[lane] = cost_[lane] + edge_w_[lane];
      });
      if (s_.atomic_discovery) {
        co_await w.atomic_lanes(simt::AtomicKind::kMin, relax, addr_,
                                newcost_, {}, oldcost_);
      } else {
        // Benign-race ablation: plain read-modify-write. Racy stores may
        // leave levels above the true distance (validated with
        // plausible_levels).
        co_await w.load_lanes(relax, addr_, oldcost_);
      }
      LaneMask improved = 0;
      for_lanes(relax, [&](unsigned lane) {
        if (oldcost_[lane] > newcost_[lane]) improved |= bit(lane);
      });
      if (!s_.atomic_discovery && improved) {
        co_await w.store_lanes(improved, addr_, newcost_);
      }
      for_lanes(improved, [&](unsigned lane) {
        const std::uint64_t token =
            s_.delta == 0 ? child_[lane]
                          : cluster::pack_token_saturating(
                                cluster::TokenKind::kLocal,
                                s_.bucket_of(newcost_[lane], child_[lane]),
                                child_[lane]);
        st.push_token(lane, token, ticket_[lane]);
        if (oldcost_[lane] != kUnvisited) w.bump(kDupEnqueues);
      });
    }

    LaneMask done = 0;
    for_lanes(run, [&](unsigned lane) {
      if (cursor_[lane] < row_end_[lane]) return;
      if (saw_heavy_[lane] && !heavy_sweep_[lane]) {
        heavy_sweep_[lane] = true;
        cursor_[lane] = row_begin_[lane];
        return;
      }
      done |= bit(lane);
      w.device().protocol().exec_end(w, ticket_[lane]);
    });
    co_return done;
  }

 private:
  const RelaxSpec& s_;
  std::array<std::uint64_t, kWaveWidth> vertex_{};
  std::array<std::uint64_t, kWaveWidth> cursor_{};     // next edge index
  std::array<std::uint64_t, kWaveWidth> row_begin_{};  // first edge
  std::array<std::uint64_t, kWaveWidth> row_end_{};    // one past last edge
  std::array<std::uint64_t, kWaveWidth> cost_{};       // the vertex's cost
  std::array<bool, kWaveWidth> heavy_sweep_{};
  std::array<bool, kWaveWidth> saw_heavy_{};
  // Trace identity of each lane's vertex task (kNoTask if untraceable).
  std::array<std::uint64_t, kWaveWidth> ticket_ = filled_lanes(kNoTask);
  // Per-step temporaries, kept here rather than in the coroutine
  // frames: a frame past the frame pool's 2 KiB buckets falls back to
  // the global allocator on every call.
  std::array<Addr, kWaveWidth> addr_{};
  std::array<std::uint64_t, kWaveWidth> child_{};
  std::array<std::uint64_t, kWaveWidth> edge_w_{};
  std::array<std::uint64_t, kWaveWidth> newcost_{};
  std::array<std::uint64_t, kWaveWidth> oldcost_{};
};

void check_source(const char* who, const graph::Graph& g, Vertex source) {
  if (source >= g.num_vertices()) {
    throw simt::SimError(std::string(who) + ": source out of range");
  }
}

// One relaxation from `source` under the attempt harness: upload the
// graph ahead of the queue, seed `source` at cost 0 with `seed_token`,
// run the client on the task engine, and read a clean attempt back.
template <class Options>
tasks::AttemptsResult run_relax(
    const simt::DeviceConfig& config, const graph::Graph& g, Vertex source,
    std::uint64_t seed_token, const Options& opt, RelaxSpec spec,
    bool detach_recorder, const tasks::BuildQueue& make_queue,
    const std::function<void(simt::Device&, const DeviceGraph&)>& read) {
  DeviceGraph dg;
  spec.g = &dg;
  spec.work_budget = opt.work_budget;
  const tasks::AttemptPlan plan{.base_count = g.num_vertices(),
                                .headroom = opt.queue_headroom,
                                .capacity = opt.queue_capacity,
                                .detach_recorder = detach_recorder};
  const tasks::TaskEngineOptions eng{.work_budget = opt.work_budget,
                                     .poll_interval = opt.poll_interval,
                                     .num_workgroups = opt.num_workgroups};
  return tasks::run_attempts(
      config, opt, plan,
      [&](simt::Device& dev, std::uint64_t capacity) {
        dg = upload_graph(dev, g);
        return make_queue(dev, capacity);
      },
      [&](simt::Device& dev, DeviceQueue& queue) {
        // Seed: source at cost 0, its token in the scheduler (host-side,
        // §3.1).
        dev.write_word(dg.cost.at(source), 0);
        const std::uint64_t seed[] = {seed_token};
        queue.seed(dev, seed);
        const simt::RunResult run = tasks::run_task_waves(
            dev, queue,
            [&](Wave&) { return std::make_unique<RelaxClient>(spec); }, eng);
        if (!run.aborted) read(dev, dg);
        return run;
      });
}

void read_dist(simt::Device& dev, const DeviceGraph& dg,
               std::vector<std::uint64_t>& dist) {
  dist.resize(dg.n_vertices);  // kUnvisited == graph::kUnreachableDist
  for (Vertex v = 0; v < dg.n_vertices; ++v) {
    dist[v] = dev.read_word(dg.cost.at(v));
  }
}

std::uint64_t auto_delta(const graph::Graph& g) {
  if (!g.has_weights() || g.num_edges() == 0) return 1;
  std::uint64_t sum = 0;
  for (const auto wgt : g.weights()) sum += wgt;
  return std::max<std::uint64_t>(sum / g.num_edges(), 1);
}

}  // namespace

BfsResult run_pt_bfs(const simt::DeviceConfig& config, const graph::Graph& g,
                     Vertex source, const PtBfsOptions& options) {
  check_source("run_pt_bfs", g, source);
  RelaxSpec spec;
  spec.atomic_discovery = options.atomic_discovery;
  BfsResult result;
  tasks::AttemptsResult a = run_relax(
      config, g, source, source, options, spec, options.detach_recorder,
      [&](simt::Device& dev, std::uint64_t capacity) {
        return make_scheduler(dev, options.variant, capacity);
      },
      [&](simt::Device& dev, const DeviceGraph& dg) {
        result.levels = read_levels(dev, dg);
      });
  return tasks::with_attempts(std::move(result), std::move(a));
}

SsspResult run_pt_sssp(const simt::DeviceConfig& config, const graph::Graph& g,
                       Vertex source, const PtSsspOptions& options) {
  check_source("run_pt_sssp", g, source);
  RelaxSpec spec;
  spec.weighted = g.has_weights();
  SsspResult result;
  tasks::AttemptsResult a = run_relax(
      config, g, source, source, options, spec, false,
      [&](simt::Device& dev, std::uint64_t capacity) {
        return make_scheduler(dev, options.variant, capacity);
      },
      [&](simt::Device& dev, const DeviceGraph& dg) {
        read_dist(dev, dg, result.dist);
      });
  return tasks::with_attempts(std::move(result), std::move(a));
}

SsspResult run_pt_sssp_delta(const simt::DeviceConfig& config,
                             const graph::Graph& g, Vertex source,
                             const PtSsspDeltaOptions& options) {
  check_source("run_pt_sssp_delta", g, source);
  if (g.num_vertices() > cluster::kMaxPackVertex + 1) {
    throw simt::SimError(
        "run_pt_sssp_delta: graph exceeds the 24-bit packed vertex field");
  }
  if (options.num_bands == 0 ||
      options.num_bands > BucketedMultiQueue::kMaxBands) {
    throw simt::SimError("run_pt_sssp_delta: num_bands out of range");
  }
  std::vector<std::uint64_t> h;
  if (options.heuristic) {
    h.resize(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) h[v] = options.heuristic(v);
  }
  RelaxSpec spec;
  spec.weighted = g.has_weights();
  spec.delta = options.delta != 0 ? options.delta : auto_delta(g);
  spec.h = &h;
  const std::uint64_t seed_token = cluster::pack_token_saturating(
      cluster::TokenKind::kLocal, spec.bucket_of(0, source), source);
  SsspResult result;
  tasks::AttemptsResult a = run_relax(
      config, g, source, seed_token, options, spec, false,
      [&](simt::Device& dev,
          std::uint64_t capacity) -> std::unique_ptr<DeviceQueue> {
        return std::make_unique<BucketedMultiQueue>(
            dev, capacity, options.num_bands,
            BucketedMultiQueue::cost_band_map());
      },
      [&](simt::Device& dev, const DeviceGraph& dg) {
        read_dist(dev, dg, result.dist);
      });
  return tasks::with_attempts(std::move(result), std::move(a));
}

}  // namespace scq::bfs
