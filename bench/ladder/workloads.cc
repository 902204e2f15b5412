// The four perf_ladder workloads. Each stresses a different layer:
//
//   bfs-social    the queue protocol at high thread count (Fiji, 224
//                 workgroups): BASE's CAS retries, RF/AN's dna polls.
//   road-sssp     deep, narrow frontiers on Spectre: the queue is nearly
//                 idle and lanes starve; the only user of the banded
//                 multi-queue and of the SSSP front-ends.
//   tasks-spawn   the task framework's write-heavy use of the queue:
//                 every execution publishes (host-callback layer).
//   cluster-4dev  the cluster runtime: transfer rings, router, superstep
//                 loop on four Spectre devices.
//
// Every job list has an odd number of job types, run once each per pass
// and input graph, so the nearest-rank p50 and p90 of a run land inside
// one job type.
//
// bfs-social, road-sssp and cluster-4dev spread their vertices over
// several graphs drawn from the seed. The host cost of one BFS / SSSP
// run grows more chaotic with graph size (label-correcting re-work
// cascades): on one 27,500-vertex road graph the SSSP call time varies
// by 16% (CV) from seed to seed, on a 6,875-vertex one by 8%, and a pass
// over several graphs averages that out.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bfs/cluster_bfs.h"
#include "bfs/datasets.h"
#include "bfs/pt_bfs.h"
#include "bfs/pt_sssp.h"
#include "bfs/pt_sssp_delta.h"
#include "core/counters.h"
#include "graph/bfs_ref.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"
#include "graph/workload_refs.h"
#include "ladder.h"
#include "tasks/workloads/workloads.h"
#include "util/prng.h"

namespace scq::ladder {

namespace {

using graph::Graph;
using graph::Vertex;

// soc-LiveJournal1's mean out-degree (68,993,773 edges / 4,847,571
// vertices), the paper's Table 3 social graph.
constexpr double kLiveJournalDegree = 14.23;

// Independent generator seeds per input, all derived from --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + stream;
  return util::splitmix64(state);
}

Vertex scaled(double vertices, double scale) {
  return static_cast<Vertex>(std::max(64.0, std::round(vertices * scale)));
}

// The one place the traced run's sinks enter the front-end options.
template <class Options>
void attach_sinks(Options& opt, const Sinks& sinks) {
  if constexpr (requires { opt.profiler; }) opt.profiler = sinks.profiler;
  opt.task_trace = sinks.task_trace;
}

void accumulate(Counts& into, const Counts& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

// sim.* and core.* counts of one device launch.
Counts device_counts(const simt::DeviceStats& s) {
  const auto u = [&](UserCounter c) { return static_cast<double>(s.user[c]); };
  return {
      {"sim.global_loads", static_cast<double>(s.global_loads)},
      {"sim.global_stores", static_cast<double>(s.global_stores)},
      {"sim.lines_touched", static_cast<double>(s.lines_touched)},
      {"sim.afa_ops", static_cast<double>(s.afa_ops)},
      {"sim.cas_attempts", static_cast<double>(s.cas_attempts)},
      {"sim.cas_failures", static_cast<double>(s.cas_failures)},
      {"sim.lds_ops", static_cast<double>(s.lds_ops)},
      {"sim.compute_cycles", static_cast<double>(s.compute_cycles)},
      {"sim.idle_cycles", static_cast<double>(s.idle_cycles)},
      {"core.queue_atomics", u(kQueueAtomics)},
      {"core.queue_cas_failures", u(kQueueCasFailures)},
      {"core.polls", u(kPolls)},
      {"core.empty_retries", u(kEmptyRetries)},
      {"core.publish_stalls", u(kPublishStalls)},
      {"core.stale_skips", u(kStaleSkips)},
      {"core.band_closes", u(kBandCloses)},
  };
}

// bfs.* counts of the front-ends in src/bfs.
Counts bfs_counts(const simt::DeviceStats& s) {
  const auto u = [&](UserCounter c) { return static_cast<double>(s.user[c]); };
  return {
      {"bfs.work_cycles", u(kWorkCycles)},
      {"bfs.tasks_processed", u(kTasksProcessed)},
      {"bfs.edges_relaxed", u(kEdgesRelaxed)},
      {"bfs.tokens_enqueued", u(kTokensEnqueued)},
      {"bfs.dup_enqueues", u(kDupEnqueues)},
  };
}

Outcome device_outcome(const simt::DeviceConfig& config,
                       const simt::RunResult& run, std::uint32_t attempts) {
  Outcome o;
  if (run.aborted) o.error = "aborted: " + run.abort_reason;
  o.cycles = run.cycles;
  o.sim_ms = config.seconds(run.cycles) * 1e3;
  o.counts = device_counts(run.stats);
  o.counts["core.capacity_retries"] = attempts - 1.0;
  return o;
}

// `reached` (vertices the reference reaches) is the useful work that
// bfs.useful_ratio divides by tasks processed.
void add_bfs_counts(Counts& c, const simt::DeviceStats& s, double reached) {
  accumulate(c, bfs_counts(s));
  c["bfs.reached"] = reached;
}

template <class T>
std::string first_difference(const std::vector<T>& got,
                             const std::vector<T>& ref) {
  if (got.size() != ref.size()) {
    return "size " + std::to_string(got.size()) + " vs reference " +
           std::to_string(ref.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != ref[i]) {
      return "vertex " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs reference " + std::to_string(ref[i]);
    }
  }
  return {};
}

double reached_count(const std::vector<std::uint32_t>& levels) {
  double n = 0;
  for (std::uint32_t l : levels) n += (l != graph::kUnreached) ? 1 : 0;
  return n;
}

struct BfsInput {
  Graph g;
  std::vector<std::uint32_t> levels;
  double reached = 0;
};

JobType pt_bfs_job(std::string name, const simt::DeviceConfig& config,
                   std::shared_ptr<const BfsInput> in, QueueVariant variant) {
  return {std::move(name), [=](const Sinks& sinks) {
            bfs::PtBfsOptions opt;
            opt.variant = variant;
            attach_sinks(opt, sinks);
            bfs::BfsResult r = bfs::run_pt_bfs(config, in->g, 0, opt);
            Outcome o = device_outcome(config, r.run, r.attempts);
            add_bfs_counts(o.counts, r.run.stats, in->reached);
            o.validate = [in, levels = std::move(r.levels)] {
              return first_difference(levels, in->levels);
            };
            return o;
          }};
}

// Two R-MAT graphs of 2,000 vertices each.
std::vector<JobType> build_bfs_social(std::uint64_t seed, double scale,
                                      const PhaseTimer& phase) {
  const simt::DeviceConfig fiji = simt::fiji_config();
  std::vector<std::shared_ptr<BfsInput>> graphs(2);
  phase("setup.generate", [&] {
    const Vertex n = scaled(2000, scale);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      graphs[i] = std::make_shared<BfsInput>();
      graphs[i]->g = bfs::synthetic_power_law(
          n, static_cast<std::uint64_t>(kLiveJournalDegree * n),
          derive(seed, 16 * i + 1));
    }
  });
  phase("setup.reference", [&] {
    for (const auto& in : graphs) {
      in->levels = graph::bfs_levels(in->g, 0);
      in->reached = reached_count(in->levels);
    }
  });
  std::vector<JobType> jobs;
  for (const auto& in : graphs) {
    jobs.push_back(pt_bfs_job("bfs.base", fiji, in, QueueVariant::kBase));
    jobs.push_back(pt_bfs_job("bfs.an", fiji, in, QueueVariant::kAn));
    jobs.push_back(pt_bfs_job("bfs.rfan", fiji, in, QueueVariant::kRfan));
  }
  return jobs;
}

struct SsspInput {
  Graph g;  // weighted
  std::vector<std::uint64_t> dist;
  double reached = 0;
};

template <class Options, class Run>
JobType sssp_job(std::string name, const simt::DeviceConfig& config,
                 std::shared_ptr<const SsspInput> in, Options opt, Run run) {
  return {std::move(name), [=](const Sinks& sinks) {
            Options o_opt = opt;
            attach_sinks(o_opt, sinks);
            bfs::SsspResult r = run(config, in->g, 0, o_opt);
            Outcome o = device_outcome(config, r.run, r.attempts);
            add_bfs_counts(o.counts, r.run.stats, in->reached);
            o.validate = [in, dist = std::move(r.dist)] {
              return first_difference(dist, in->dist);
            };
            return o;
          }};
}

// Nine road networks of 5,500 vertices each, weights 1-10.
std::vector<JobType> build_road_sssp(std::uint64_t seed, double scale,
                                     const PhaseTimer& phase) {
  const simt::DeviceConfig spectre = simt::spectre_config();
  std::vector<std::shared_ptr<BfsInput>> roads(9);
  std::vector<std::shared_ptr<SsspInput>> weighted(roads.size());
  phase("setup.generate", [&] {
    for (std::size_t i = 0; i < roads.size(); ++i) {
      roads[i] = std::make_shared<BfsInput>();
      roads[i]->g = bfs::synthetic_grid(scaled(5500, scale),
                                        derive(seed, 16 * i + 2));
      weighted[i] = std::make_shared<SsspInput>();
      weighted[i]->g = graph::with_random_weights(
          roads[i]->g, derive(seed, 16 * i + 3), 10);
    }
  });
  phase("setup.reference", [&] {
    for (std::size_t i = 0; i < roads.size(); ++i) {
      roads[i]->levels = graph::bfs_levels(roads[i]->g, 0);
      roads[i]->reached = reached_count(roads[i]->levels);
      weighted[i]->dist = graph::dijkstra(weighted[i]->g, 0);
      weighted[i]->reached = roads[i]->reached;
    }
  });
  bfs::PtSsspDeltaOptions delta;
  delta.num_bands = 8;
  std::vector<JobType> jobs;
  for (std::size_t i = 0; i < roads.size(); ++i) {
    jobs.push_back(pt_bfs_job("bfs.rfan", spectre, roads[i], QueueVariant::kRfan));
    jobs.push_back(sssp_job("sssp.rfan", spectre, weighted[i],
                            bfs::PtSsspOptions{}, &bfs::run_pt_sssp));
    jobs.push_back(sssp_job("delta.mq", spectre, weighted[i], delta,
                            &bfs::run_pt_sssp_delta));
  }
  return jobs;
}

void add_task_counts(Counts& c, const tasks::TaskStats& s, double useful) {
  c["tasks.executions"] = static_cast<double>(s.executions);
  c["tasks.spawns"] = static_cast<double>(s.spawns);
  c["tasks.respawns"] = static_cast<double>(s.respawns);
  c["tasks.credits"] = static_cast<double>(s.credits);
  c["tasks.phase_closes"] = static_cast<double>(s.phase_closes);
  c["tasks.useful"] = useful;
}

struct TaskInput {
  Graph power_law;
  Graph grid;
  std::vector<Vertex> components;
  std::vector<double> rank;
  std::vector<std::uint32_t> colors;
};

// `run` calls the workload and returns {graph result, validation message}.
template <class Run>
JobType task_job(std::string name, const simt::DeviceConfig& config,
                 QueueVariant variant, double useful, Run run) {
  return {std::move(name), [=](const Sinks& sinks) {
            tasks::TaskGraphOptions opt;
            opt.variant = variant;
            attach_sinks(opt, sinks);
            auto [graph_result, validate] = run(config, opt);
            Outcome o = device_outcome(config, graph_result.run,
                                       graph_result.attempts);
            add_task_counts(o.counts, graph_result.stats, useful);
            o.validate = std::move(validate);
            return o;
          }};
}

std::vector<JobType> build_tasks_spawn(std::uint64_t seed, double scale,
                                       const PhaseTimer& phase) {
  namespace wl = tasks::workloads;
  const simt::DeviceConfig spectre = simt::spectre_config();
  auto in = std::make_shared<TaskInput>();
  phase("setup.generate", [&] {
    const Vertex n = scaled(3000, scale);
    in->power_law = bfs::synthetic_power_law(n, 4ull * n, derive(seed, 4));
    in->grid = bfs::synthetic_grid(scaled(2048, scale), derive(seed, 5));
  });
  phase("setup.reference", [&] {
    in->components = graph::connected_components_ref(in->power_law);
    in->rank = graph::pagerank_ref(in->power_law, 0.85, 1e-13);
    in->colors = graph::greedy_coloring_ref(in->grid);
  });
  const double n_pl = in->power_law.num_vertices();
  const double n_grid = in->grid.num_vertices();

  const auto cc = [in](const simt::DeviceConfig& c,
                       const tasks::TaskGraphOptions& opt) {
    wl::CcResult r = wl::run_cc(c, in->power_law, opt);
    return std::pair{r.graph, std::function<std::string()>(
                                  [in, label = std::move(r.label)] {
                                    return first_difference(label,
                                                            in->components);
                                  })};
  };
  const auto pagerank = [in](const simt::DeviceConfig& c,
                             const tasks::TaskGraphOptions& opt) {
    const wl::PageRankOptions pr;
    wl::PageRankResult r = wl::run_pagerank_delta(c, in->power_law, pr, opt);
    // The push-based truncation bound of run_pagerank_delta.
    const double bound = static_cast<double>(in->rank.size()) * pr.threshold /
                         (1.0 - pr.damping);
    return std::pair{r.graph, std::function<std::string()>(
                                  [in, bound, rank = std::move(r.rank)] {
                                    if (rank.size() != in->rank.size()) {
                                      return std::string("rank size differs");
                                    }
                                    double l1 = 0.0;
                                    for (std::size_t v = 0; v < rank.size(); ++v) {
                                      l1 += std::abs(rank[v] - in->rank[v]);
                                    }
                                    return l1 <= bound + 1e-9
                                               ? std::string()
                                               : "L1 error " + std::to_string(l1) +
                                                     " above " + std::to_string(bound);
                                  })};
  };
  const auto coloring = [in](bool dependencies) {
    return [in, dependencies](const simt::DeviceConfig& c,
                              const tasks::TaskGraphOptions& opt) {
      wl::ColoringOptions co;
      co.use_dependencies = dependencies;
      co.adversarial_order = true;
      wl::ColoringResult r = wl::run_coloring(c, in->grid, co, opt);
      const std::uint64_t respawns = r.graph.stats.respawns;
      return std::pair{
          r.graph, std::function<std::string()>(
                       [in, dependencies, respawns,
                        color = std::move(r.color)] {
                         // Dependency credits must remove every re-execution.
                         if (dependencies && respawns != 0) {
                           return std::to_string(respawns) +
                                  " respawns in dependency mode";
                         }
                         return first_difference(color, in->colors);
                       })};
    };
  };
  // Useful work: one execution per vertex; dependency-mode coloring adds
  // its registration pass and the phase-start task.
  return {task_job("cc.rfan", spectre, QueueVariant::kRfan, n_pl, cc),
          task_job("pagerank.rfan", spectre, QueueVariant::kRfan, n_pl, pagerank),
          task_job("color-respawn.rfan", spectre, QueueVariant::kRfan, n_grid,
                   coloring(false)),
          task_job("color-deps.rfan", spectre, QueueVariant::kRfan,
                   2 * n_grid + 1, coloring(true)),
          task_job("color-deps.mq", spectre, QueueVariant::kMq, 2 * n_grid + 1,
                   coloring(true))};
}

JobType cluster_job(std::string name, const simt::DeviceConfig& config,
                    std::shared_ptr<const BfsInput> in,
                    cluster::BalancePolicy balance) {
  return {std::move(name), [=](const Sinks& sinks) {
            bfs::ClusterBfsOptions opt;
            opt.num_devices = 4;
            opt.partition = graph::PartitionPolicy::kBlock;
            opt.balance = balance;
            attach_sinks(opt, sinks);
            bfs::ClusterBfsResult r = bfs::run_cluster_bfs(config, in->g, 0, opt);
            Outcome o;
            if (r.run.aborted) o.error = "aborted: " + r.run.abort_reason;
            o.cycles = r.run.cycles;
            o.sim_ms = config.seconds(r.run.cycles) * 1e3;
            // Devices run in lock-step supersteps, so their launch cycles
            // are equal; the tasks each one processed show the imbalance.
            double max_tasks = 0, total_tasks = 0, xfer_tokens = 0;
            for (const simt::RunResult& d : r.run.device_runs) {
              accumulate(o.counts, device_counts(d.stats));
              accumulate(o.counts, bfs_counts(d.stats));
              const auto tasks = static_cast<double>(d.stats.user[kTasksProcessed]);
              max_tasks = std::max(max_tasks, tasks);
              total_tasks += tasks;
              xfer_tokens += static_cast<double>(d.stats.user[kXferTokens]);
            }
            const double devices = static_cast<double>(r.run.device_runs.size());
            o.counts["core.capacity_retries"] = r.attempts - 1.0;
            o.counts["bfs.reached"] = in->reached;
            o.counts["cluster.supersteps"] = static_cast<double>(r.run.supersteps);
            o.counts["cluster.xfer_tokens"] = xfer_tokens;
            o.counts["cluster.delivered"] =
                static_cast<double>(r.run.router.delivered);
            o.counts["cluster.stolen"] = static_cast<double>(r.run.router.stolen);
            o.counts["cluster.inject_retries"] =
                static_cast<double>(r.run.router.inject_retries);
            o.counts["cluster.cut_edges"] = static_cast<double>(r.cut_edges);
            o.counts["cluster.max_device_tasks"] = max_tasks;
            o.counts["cluster.mean_device_tasks"] =
                devices > 0 ? total_tasks / devices : 0.0;
            o.validate = [in, levels = std::move(r.levels)] {
              return first_difference(levels, in->levels);
            };
            return o;
          }};
}

// Two road networks of 13,750 vertices each, and a 4-ary tree of 55,000
// vertices. The tree has no seed, so it runs twice per pass: every job
// type then runs equally often.
std::vector<JobType> build_cluster_4dev(std::uint64_t seed, double scale,
                                        const PhaseTimer& phase) {
  const simt::DeviceConfig spectre = simt::spectre_config();
  std::vector<std::shared_ptr<BfsInput>> roads(2);
  auto tree = std::make_shared<BfsInput>();
  phase("setup.generate", [&] {
    for (std::size_t i = 0; i < roads.size(); ++i) {
      roads[i] = std::make_shared<BfsInput>();
      roads[i]->g = bfs::synthetic_grid(scaled(13750, scale),
                                        derive(seed, 16 * i + 6));
    }
    tree->g = graph::synthetic_kary(scaled(55000, scale), 4);
  });
  phase("setup.reference", [&] {
    for (BfsInput* in : {roads[0].get(), roads[1].get(), tree.get()}) {
      in->levels = graph::bfs_levels(in->g, 0);
      in->reached = reached_count(in->levels);
    }
  });
  std::vector<JobType> jobs;
  for (const auto& road : roads) {
    jobs.push_back(cluster_job("cluster-road.steal", spectre, road,
                               cluster::BalancePolicy::kSteal));
    jobs.push_back(cluster_job("cluster-road.owner", spectre, road,
                               cluster::BalancePolicy::kOwnerOnly));
    jobs.push_back(cluster_job("cluster-tree.steal", spectre, tree,
                               cluster::BalancePolicy::kSteal));
  }
  return jobs;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads{
      {"bfs-social", "Fiji", &build_bfs_social},
      {"road-sssp", "Spectre", &build_road_sssp},
      {"tasks-spawn", "Spectre", &build_tasks_spawn},
      {"cluster-4dev", "Spectre x4", &build_cluster_4dev},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace scq::ladder
