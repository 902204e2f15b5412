#include "bfs/cluster_bfs.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/token.h"
#include "core/counters.h"
#include "graph/sssp_ref.h"
#include "tasks/attempts.h"
#include "tasks/task_engine.h"

namespace scq::bfs {

namespace {

using simt::Addr;
using simt::Kernel;
using simt::LaneMask;
using simt::Wave;
using simt::kWaveWidth;

// Everything one device's waves share, owned by the host front-end for
// the duration of the cluster run.
struct DeviceCtx {
  DeviceQueue* xfer = nullptr;  // outgoing transfer queue (n > 1 only)
  DeviceGraph g;
  simt::Buffer owner;  // V words, owner[v] = owning device (n > 1 only)
  std::uint32_t dev_index = 0;
  std::uint32_t num_devices = 1;
  bool weighted = false;
  unsigned work_budget = 4;
};

// The cluster kernel as a task-engine client. Tokens are cluster-packed
// (kind | cost | vertex); the prolog resolves each kind against this
// device's authoritative cost words, and the work step relaxes owned
// children in place and stages the rest for the device's transfer
// queue — the client's side channel, which routes each to its owner.
// The run ends on the cluster's host-written stop word: a device cannot
// see remote work, so Completed == Rear on its own ring proves nothing.
class ClusterClient final : public tasks::TaskWaveClient {
 public:
  ClusterClient(const DeviceCtx& ctx, simt::Addr stop)
      : ctx_(ctx), stop_(stop) {}

  [[nodiscard]] std::optional<simt::Addr> stop_word() const override {
    return stop_;
  }

  Kernel<LaneMask> on_arrival(Wave& w, WaveQueueState& st, LaneMask arrived,
                              std::span<const std::uint64_t> tokens) override {
    const DeviceGraph& g = ctx_.g;
    // Decode: split the batch by token kind (cluster/token.h).
    LaneMask local = 0, cand = 0, upd = 0, stolen = 0;
    for_lanes(arrived, [&](unsigned lane) {
      const std::uint64_t t = tokens[lane];
      vertex_[lane] = cluster::token_vertex(t);
      tok_cost_[lane] = cluster::token_cost(t);
      switch (cluster::token_kind(t)) {
        case cluster::TokenKind::kLocal: local |= bit(lane); break;
        case cluster::TokenKind::kCandidate: cand |= bit(lane); break;
        case cluster::TokenKind::kUpdate: upd |= bit(lane); break;
        case cluster::TokenKind::kStolen: stolen |= bit(lane); break;
      }
    });

    addr_.fill(0);
    // kLocal reloads the authoritative label and enumerates from it,
    // exactly as the single-device relax client does.
    if (local) {
      for_lanes(local, [&](unsigned lane) {
        addr_[lane] = g.cost.at(vertex_[lane]);
      });
      co_await w.load_lanes(local, addr_, cost_);
    }
    // kCandidate / kUpdate resolve against the owner's word here;
    // this device owns these vertices by construction.
    const LaneMask resolve = cand | upd;
    if (resolve) {
      for_lanes(resolve, [&](unsigned lane) {
        addr_[lane] = g.cost.at(vertex_[lane]);
      });
      co_await w.atomic_lanes(simt::AtomicKind::kMin, resolve, addr_,
                              tok_cost_, {}, old_);
    }

    // Who enumerates: kLocal and kStolen always; kCandidate only if
    // its cost improved the authoritative word; kUpdate never (the
    // thief holds the matching kStolen).
    LaneMask enumerate = local | stolen;
    for_lanes(cand, [&](unsigned lane) {
      if (old_[lane] > tok_cost_[lane]) enumerate |= bit(lane);
    });
    for_lanes(stolen | cand,
              [&](unsigned lane) { cost_[lane] = tok_cost_[lane]; });

    if (enumerate) {
      for_lanes(enumerate, [&](unsigned lane) {
        addr_[lane] = g.row_offsets.at(vertex_[lane]);
      });
      co_await w.load_lanes(enumerate, addr_, cursor_);
      for_lanes(enumerate, [&](unsigned lane) { addr_[lane] += 1; });
      co_await w.load_lanes(enumerate, addr_, row_end_);
    }

    // The rest finish here, and count as processed like work-step
    // finishers.
    const LaneMask immediate = arrived & ~enumerate;
    simt::ProtocolStream& events = w.device().protocol();
    for_lanes(arrived, [&](unsigned lane) {
      ticket_[lane] = st.deliver_ticket[lane];
      events.exec_start(w, ticket_[lane], vertex_[lane]);
      if (immediate & bit(lane)) events.exec_end(w, ticket_[lane]);
    });
    w.bump(kTasksProcessed,
           static_cast<std::uint64_t>(std::popcount(immediate)));
    co_return immediate;
  }

  Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                             LaneMask run) override {
    const DeviceGraph& g = ctx_.g;
    for (unsigned t = 0; t < ctx_.work_budget; ++t) {
      LaneMask active = 0;
      for_lanes(run, [&](unsigned lane) {
        if (cursor_[lane] < row_end_[lane]) active |= bit(lane);
      });
      if (!active) break;

      addr_.fill(0);
      for_lanes(active, [&](unsigned lane) {
        addr_[lane] = g.cols.at(cursor_[lane]);
      });
      co_await w.load_lanes(active, addr_, child_);
      if (ctx_.weighted && g.has_weights) {
        for_lanes(active, [&](unsigned lane) {
          addr_[lane] = g.weights.at(cursor_[lane]);
        });
        co_await w.load_lanes(active, addr_, edge_w_);
      } else {
        for_lanes(active, [&](unsigned lane) { edge_w_[lane] = 1; });
      }
      for_lanes(active, [&](unsigned lane) { cursor_[lane] += 1; });
      w.bump(kEdgesRelaxed, static_cast<std::uint64_t>(std::popcount(active)));

      for_lanes(active, [&](unsigned lane) {
        newcost_[lane] = cost_[lane] + edge_w_[lane];
      });

      // Ownership split: relax own children in place; ship the rest
      // to their owners as candidates.
      LaneMask local_child = active;
      if (ctx_.num_devices > 1) {
        addr_.fill(0);
        for_lanes(active, [&](unsigned lane) {
          addr_[lane] = ctx_.owner.at(child_[lane]);
        });
        co_await w.load_lanes(active, addr_, own_);
        local_child = 0;
        for_lanes(active, [&](unsigned lane) {
          if (own_[lane] == ctx_.dev_index) local_child |= bit(lane);
        });
      }

      if (local_child) {
        for_lanes(local_child, [&](unsigned lane) {
          addr_[lane] = g.cost.at(child_[lane]);
        });
        co_await w.atomic_lanes(simt::AtomicKind::kMin, local_child, addr_,
                                newcost_, {}, old_);
        for_lanes(local_child, [&](unsigned lane) {
          if (old_[lane] > newcost_[lane]) {
            st.push_token(lane,
                          cluster::pack_token_checked(
                              cluster::TokenKind::kLocal, newcost_[lane],
                              child_[lane]),
                          ticket_[lane]);
            if (old_[lane] != kUnvisited) w.bump(kDupEnqueues);
          }
        });
      }
      for_lanes(active & ~local_child, [&](unsigned lane) {
        // No local gate: the owner's atomic-min decides. Duplicate or
        // stale candidates die there.
        xfer_.push_token(
            lane, cluster::pack_token_checked(cluster::TokenKind::kCandidate,
                                              newcost_[lane], child_[lane]));
        staged_ = true;
      });
    }

    LaneMask done = 0;
    for_lanes(run, [&](unsigned lane) {
      if (cursor_[lane] < row_end_[lane]) return;
      done |= bit(lane);
      w.device().protocol().exec_end(w, ticket_[lane]);
    });
    co_return done;
  }

  [[nodiscard]] bool side_pending() const override {
    return staged_ || side_parked();
  }

  [[nodiscard]] bool side_parked() const override {
    return xfer_.has_parked();
  }

  // Remote children are reserved in their owners' transfer sub-rings.
  Kernel<void> publish_side(Wave& w) override {
    staged_ = false;
    co_await ctx_.xfer->publish(w, xfer_);
  }

 private:
  const DeviceCtx& ctx_;
  simt::Addr stop_;
  // Remote children staged for the transfer queue, and its parked ones.
  WaveQueueState xfer_{};
  bool staged_ = false;  // xfer_ gained tokens since the last publish
  std::array<std::uint64_t, kWaveWidth> vertex_{};
  std::array<std::uint64_t, kWaveWidth> cursor_{};   // next edge index
  std::array<std::uint64_t, kWaveWidth> row_end_{};  // one past last edge
  // Enumeration base: the reloaded label for kLocal, the token's cost
  // for kCandidate and kStolen.
  std::array<std::uint64_t, kWaveWidth> cost_{};
  // Trace identity of each lane's task (kNoTask if untraceable).
  std::array<std::uint64_t, kWaveWidth> ticket_ = filled_lanes(kNoTask);
  // Per-step temporaries, kept here so the prolog and work-step frames
  // stay in the frame pool. The address array is zeroed before each
  // batch of loads: a vector load's schedule jitter salts on lane 0's
  // address, inactive or not.
  std::array<Addr, kWaveWidth> addr_{};
  std::array<std::uint64_t, kWaveWidth> tok_cost_{};
  std::array<std::uint64_t, kWaveWidth> old_{};
  std::array<std::uint64_t, kWaveWidth> child_{};
  std::array<std::uint64_t, kWaveWidth> edge_w_{};
  std::array<std::uint64_t, kWaveWidth> newcost_{};
  std::array<std::uint64_t, kWaveWidth> own_{};
};

// Runs one cluster front-end to completion under the shared retry
// policy, fills the shared part of `result`, and returns each vertex's
// authoritative cost word, read from its owner (empty when the final
// attempt aborted).
std::vector<std::uint64_t> run_cluster_common(const simt::DeviceConfig& config,
                                              const graph::Graph& g,
                                              Vertex source,
                                              const ClusterBfsOptions& options,
                                              bool weighted,
                                              ClusterRunResult& result) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_cluster: source out of range");
  }
  if (g.num_vertices() > cluster::kMaxPackVertex + 1) {
    throw simt::SimError(
        "run_cluster: graph exceeds the 24-bit cluster vertex field");
  }
  if (options.num_devices == 0 || options.num_devices > kWaveWidth) {
    throw simt::SimError("run_cluster: num_devices must be in [1, 64]");
  }

  const std::uint32_t n = options.num_devices;
  const graph::Partition part = graph::partition_graph(g, n, options.partition);
  result.cut_edges = part.cut_edges;
  result.degree_imbalance = part.degree_imbalance();

  std::uint64_t qcap = options.queue_capacity;
  if (qcap == 0) {
    qcap = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(g.num_vertices()) *
                                   options.queue_headroom) /
            n,
        4 * kWaveWidth);
  }
  const std::uint64_t xcap = options.xfer_capacity != 0 ? options.xfer_capacity
                                                        : std::uint64_t{1024};
  const std::uint32_t workgroups = options.num_workgroups != 0
                                       ? options.num_workgroups
                                       : config.resident_waves();
  const tasks::TaskEngineOptions eng{.work_budget = options.work_budget,
                                     .poll_interval = options.poll_interval};

  std::vector<std::uint64_t> cost;
  tasks::RetryResult retry = tasks::retry_doubling(
      [&](std::uint64_t scale) -> std::optional<std::string> {
        cluster::ClusterOptions copt = options;
        copt.queue_capacity = qcap * scale;
        copt.xfer_capacity = xcap * scale;

        // The sink trace is cleared per attempt (as in run_pt_bfs) so it
        // holds exactly the merged per-device run that produced the
        // result.
        if (options.task_trace != nullptr) options.task_trace->clear();

        cluster::Cluster cl(config, copt, part.owner);
        if (options.task_trace != nullptr) {
          stamp_task_meta(*options.task_trace, cl.queue(0));
          options.task_trace->set_meta("devices", std::to_string(n));
        }

        std::vector<DeviceCtx> ctx(n);
        for (std::uint32_t d = 0; d < n; ++d) {
          simt::Device& dev = cl.device(d);
          ctx[d].g = upload_graph(dev, g);
          if (n > 1) {
            ctx[d].owner =
                dev.alloc(std::max<std::uint64_t>(g.num_vertices(), 1));
            std::vector<std::uint64_t> owner_words(g.num_vertices());
            for (Vertex v = 0; v < g.num_vertices(); ++v) {
              owner_words[v] = part.owner[v];
            }
            dev.write(ctx[d].owner, owner_words);
          }
          ctx[d].dev_index = d;
          ctx[d].num_devices = n;
          ctx[d].weighted = weighted;
          ctx[d].work_budget = options.work_budget;
          if (n > 1) ctx[d].xfer = &cl.xfer(d);
        }

        // Seed the source at its owner: cost word 0 plus one kLocal
        // token.
        const std::uint32_t owner_dev = part.owner[source];
        cl.device(owner_dev).write_word(ctx[owner_dev].g.cost.at(source), 0);
        const std::uint64_t seed[] = {
            cluster::pack_token(cluster::TokenKind::kLocal, 0, source)};
        cl.queue(owner_dev).seed(cl.device(owner_dev), seed);

        result.run = cl.run(
            [&](std::uint32_t d) {
              return tasks::task_wave_kernel(
                  cl.queue(d),
                  [ctxp = &ctx[d], stop = cl.stop_flag(d)](Wave&) {
                    return std::make_unique<ClusterClient>(*ctxp, stop);
                  },
                  eng);
            },
            workgroups);
        if (result.run.aborted) return result.run.black_box;

        cost.resize(g.num_vertices());
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const std::uint32_t d = part.owner[v];
          cost[v] = cl.device(d).read_word(ctx[d].g.cost.at(v));
        }
        return std::nullopt;
      });
  result.attempts = retry.attempts;
  result.black_box = std::move(retry.black_box);
  return cost;
}

}  // namespace

ClusterBfsResult run_cluster_bfs(const simt::DeviceConfig& config,
                                 const graph::Graph& g, Vertex source,
                                 const ClusterBfsOptions& options) {
  ClusterBfsResult result;
  const std::vector<std::uint64_t> cost =
      run_cluster_common(config, g, source, options, /*weighted=*/false, result);
  result.levels.reserve(cost.size());
  for (const std::uint64_t word : cost) result.levels.push_back(level_of(word));
  return result;
}

ClusterSsspResult run_cluster_sssp(const simt::DeviceConfig& config,
                                   const graph::Graph& g, Vertex source,
                                   const ClusterBfsOptions& options) {
  ClusterSsspResult result;
  // kUnvisited == graph::kUnreachableDist: the cost words are the
  // distances.
  result.dist =
      run_cluster_common(config, g, source, options, /*weighted=*/true, result);
  return result;
}

}  // namespace scq::bfs
