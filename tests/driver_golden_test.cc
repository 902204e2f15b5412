// Golden pins for the front-ends: the single-device ones (run_pt_bfs,
// run_pt_sssp, run_pt_sssp_delta, and the task-framework workloads on
// run_task_graph) and the cluster ones (run_cluster_bfs,
// run_cluster_sssp). Each configuration runs at seed 0 and must
// reproduce, exactly, the simulated cycle count, the attempt count,
// every DeviceStats field (per device for the cluster, which also pins
// its superstep count and router counters) and a hash of the output.
//
// The pins hold the *schedule*, not just the answer: a refactor of the
// work loop, the attempt harness or a client that reorders one memory
// operation shows up here as a cycle or counter diff. Regenerate a row
// only for an intended schedule change — a failing row prints its
// replacement in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/cluster_bfs.h"
#include "bfs/pt_bfs.h"
#include "bfs/pt_sssp.h"
#include "bfs/pt_sssp_delta.h"
#include "core/counters.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"
#include "tasks/workloads/workloads.h"

namespace scq {
namespace {

using graph::Vertex;

simt::DeviceConfig golden_device() {
  simt::DeviceConfig cfg = simt::spectre_config();
  cfg.name = "golden";
  cfg.num_cus = 4;
  cfg.waves_per_cu = 2;
  return cfg;
}

// Named pinned values, in pin order.
struct Fingerprint {
  std::vector<std::string> names;
  std::vector<std::uint64_t> values;

  void add(std::string name, std::uint64_t value) {
    names.push_back(std::move(name));
    values.push_back(value);
  }
  // The 12 scalar DeviceStats fields and the 16 user counters.
  void add_stats(const std::string& prefix, const simt::DeviceStats& s) {
    const std::pair<const char*, std::uint64_t> scalars[] = {
        {"global_loads", s.global_loads},
        {"global_stores", s.global_stores},
        {"lines_touched", s.lines_touched},
        {"afa_ops", s.afa_ops},
        {"cas_attempts", s.cas_attempts},
        {"cas_failures", s.cas_failures},
        {"xchg_ops", s.xchg_ops},
        {"lds_ops", s.lds_ops},
        {"compute_cycles", s.compute_cycles},
        {"idle_cycles", s.idle_cycles},
        {"waves_completed", s.waves_completed},
        {"kernel_launches", s.kernel_launches}};
    for (const auto& [name, value] : scalars) add(prefix + name, value);
    for (std::size_t i = 0; i < s.user.size(); ++i) {
      add(prefix + "user[" + std::to_string(i) + "]", s.user[i]);
    }
  }
};

// FNV-1a over 64-bit words.
class Hasher {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ = (h_ ^ ((word >> (8 * b)) & 0xff)) * 0x100000001b3ull;
    }
  }
  template <class Range>
  void add_all(const Range& r) {
    add(r.size());
    for (const auto x : r) add(static_cast<std::uint64_t>(x));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// cycles, attempts, the device's stats, output hash.
Fingerprint fingerprint(const simt::RunResult& run, std::uint32_t attempts,
                        std::uint64_t output_hash) {
  Fingerprint f;
  f.add("cycles", run.cycles);
  f.add("attempts", attempts);
  f.add_stats("", run.stats);
  f.add("output_hash", output_hash);
  return f;
}

// cycles, attempts, supersteps, the four router counters, every
// device's stats, output hash.
Fingerprint fingerprint(const cluster::ClusterRun& run, std::uint32_t attempts,
                        std::uint64_t output_hash) {
  Fingerprint f;
  f.add("cycles", run.cycles);
  f.add("attempts", attempts);
  f.add("supersteps", run.supersteps);
  f.add("router.drained", run.router.drained);
  f.add("router.delivered", run.router.delivered);
  f.add("router.stolen", run.router.stolen);
  f.add("router.inject_retries", run.router.inject_retries);
  for (std::size_t d = 0; d < run.device_runs.size(); ++d) {
    f.add_stats("dev" + std::to_string(d) + ".", run.device_runs[d].stats);
  }
  f.add("output_hash", output_hash);
  return f;
}

// ---- Inputs ----

const graph::Graph& bfs_graph() {
  static const graph::Graph g = [] {
    graph::RmatParams p;
    p.n_vertices = 1024;
    p.n_edges = 8192;
    return graph::rmat(p);
  }();
  return g;
}

const graph::Graph& sssp_graph() {
  static const graph::Graph g = graph::with_random_weights(
      graph::rodinia_random({.n_vertices = 800, .avg_degree = 5, .seed = 5}),
      17);
  return g;
}

// W x W lattice, 4-neighbour, weights in [1, 10]; Manhattan distance to
// the far corner is a consistent A* heuristic on it.
constexpr Vertex kGridW = 20;
const graph::Graph& grid_graph() {
  static const graph::Graph g = [] {
    std::vector<graph::WeightedEdge> edges;
    std::uint64_t seed = 41;
    auto wgt = [&seed] {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<graph::Weight>(1 + (seed >> 33) % 10);
    };
    for (Vertex y = 0; y < kGridW; ++y) {
      for (Vertex x = 0; x < kGridW; ++x) {
        const Vertex v = y * kGridW + x;
        if (x + 1 < kGridW) edges.push_back({v, v + 1, wgt()});
        if (y + 1 < kGridW) edges.push_back({v, v + kGridW, wgt()});
      }
    }
    return graph::Graph::from_weighted_edges(kGridW * kGridW, edges, true);
  }();
  return g;
}

// Road-network stand-in: few cut edges per block partition, so the
// cluster's main rings never fill at default sizes.
const graph::Graph& road_graph() {
  static const graph::Graph g = graph::road_network({.n_vertices = 1024});
  return g;
}

const graph::Graph& task_graph() {
  static const graph::Graph g = [] {
    graph::RmatParams p;
    p.n_vertices = 400;
    p.n_edges = 1600;
    p.seed = 9;
    return graph::rmat(p);
  }();
  return g;
}

// ---- Configurations ----

Fingerprint run_bfs(QueueVariant variant, bool atomic,
                    std::uint64_t capacity = 0) {
  bfs::PtBfsOptions opt;
  opt.variant = variant;
  opt.atomic_discovery = atomic;
  opt.queue_capacity = capacity;
  const bfs::BfsResult r = bfs::run_pt_bfs(golden_device(), bfs_graph(), 0, opt);
  Hasher h;
  h.add_all(r.levels);
  return fingerprint(r.run, r.attempts, h.value());
}

Fingerprint run_sssp(QueueVariant variant, std::uint64_t capacity = 0) {
  bfs::PtSsspOptions opt;
  opt.variant = variant;
  opt.queue_capacity = capacity;
  const bfs::SsspResult r =
      bfs::run_pt_sssp(golden_device(), sssp_graph(), 0, opt);
  Hasher h;
  h.add_all(r.dist);
  return fingerprint(r.run, r.attempts, h.value());
}

Fingerprint run_delta(std::uint32_t bands, bool astar,
                      std::uint64_t capacity = 0) {
  bfs::PtSsspDeltaOptions opt;
  opt.num_bands = bands;
  opt.queue_capacity = capacity;
  if (astar) {
    opt.heuristic = [](Vertex v) -> std::uint64_t {
      return (kGridW - 1 - v % kGridW) + (kGridW - 1 - v / kGridW);
    };
  }
  const bfs::SsspResult r =
      bfs::run_pt_sssp_delta(golden_device(), grid_graph(), 0, opt);
  Hasher h;
  h.add_all(r.dist);
  return fingerprint(r.run, r.attempts, h.value());
}

void hash_task_stats(Hasher& h, const tasks::TaskStats& s) {
  for (const std::uint64_t x :
       {s.executions, s.spawns, s.respawns, s.deferred, s.credits,
        s.released, s.max_depth, s.phase_closes}) {
    h.add(x);
  }
}

Fingerprint run_cc_rfan() {
  tasks::TaskGraphOptions opt;
  opt.variant = QueueVariant::kRfan;
  const auto r = tasks::workloads::run_cc(golden_device(), task_graph(), opt);
  Hasher h;
  h.add_all(r.label);
  hash_task_stats(h, r.graph.stats);
  return fingerprint(r.graph.run, r.graph.attempts, h.value());
}

Fingerprint run_coloring_deps_mq() {
  tasks::TaskGraphOptions opt;
  opt.variant = QueueVariant::kMq;
  tasks::workloads::ColoringOptions co;
  co.use_dependencies = true;
  const auto r =
      tasks::workloads::run_coloring(golden_device(), task_graph(), co, opt);
  Hasher h;
  h.add_all(r.color);
  hash_task_stats(h, r.graph.stats);
  return fingerprint(r.graph.run, r.graph.attempts, h.value());
}

// BFS on the road graph, SSSP on the grid. At default ring sizes no
// configuration parks on a device's main ring while its transfer rings
// are clear; a 4-slot transfer ring (`xfer_capacity`) parks there.
struct ClusterConfig {
  std::string name;
  bool sssp = false;
  QueueVariant variant = QueueVariant::kRfan;
  std::uint32_t devices = 1;
  cluster::BalancePolicy balance = cluster::BalancePolicy::kOwnerOnly;
  std::uint64_t xfer_capacity = 0;
};

void PrintTo(const ClusterConfig& c, std::ostream* os) { *os << c.name; }

// The run, and a hash of its output in `hash`.
bfs::ClusterRunResult run_cluster(const ClusterConfig& c, std::uint64_t& hash) {
  bfs::ClusterBfsOptions opt;
  opt.num_devices = c.devices;
  opt.variant = c.variant;
  opt.balance = c.balance;
  opt.xfer_capacity = c.xfer_capacity;
  Hasher h;
  if (c.sssp) {
    bfs::ClusterSsspResult r =
        bfs::run_cluster_sssp(golden_device(), grid_graph(), 0, opt);
    h.add_all(r.dist);
    hash = h.value();
    return r;
  }
  bfs::ClusterBfsResult r =
      bfs::run_cluster_bfs(golden_device(), road_graph(), 0, opt);
  h.add_all(r.levels);
  hash = h.value();
  return r;
}

std::vector<ClusterConfig> cluster_configs() {
  std::vector<ClusterConfig> out;
  const std::pair<QueueVariant, const char*> variants[] = {
      {QueueVariant::kBase, "Base"},
      {QueueVariant::kAn, "An"},
      {QueueVariant::kRfan, "Rfan"}};
  for (const bool sssp : {false, true}) {
    for (const auto& [variant, name] : variants) {
      for (const std::uint32_t devices : {1u, 2u, 4u}) {
        for (const bool steal : {false, true}) {
          out.push_back({std::string("Cluster") + (sssp ? "Sssp" : "Bfs") +
                             name + std::to_string(devices) + "Dev" +
                             (steal ? "Steal" : "OwnerOnly"),
                         sssp, variant, devices,
                         steal ? cluster::BalancePolicy::kSteal
                               : cluster::BalancePolicy::kOwnerOnly});
        }
      }
    }
  }
  // Transfer rings far below the cut traffic: the work phase freezes
  // while a transfer ring holds parked tokens.
  out.push_back({"ClusterBfsBase4DevStealXfer4", false, QueueVariant::kBase, 4,
                 cluster::BalancePolicy::kSteal, 4});
  out.push_back({"ClusterSsspRfan4DevStealXfer4", true, QueueVariant::kRfan, 4,
                 cluster::BalancePolicy::kSteal, 4});
  return out;
}

struct GoldenCase {
  std::string name;
  std::function<Fingerprint()> run;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> out;
  const std::pair<QueueVariant, const char*> variants[] = {
      {QueueVariant::kBase, "Base"},
      {QueueVariant::kAn, "An"},
      {QueueVariant::kRfan, "Rfan"}};
  for (const auto& [v, name] : variants) {
    const QueueVariant variant = v;
    out.push_back({std::string("Bfs") + name + "Atomic",
                   [variant] { return run_bfs(variant, true); }});
    out.push_back({std::string("Bfs") + name + "BenignRace",
                   [variant] { return run_bfs(variant, false); }});
  }
  for (const auto& [v, name] : variants) {
    const QueueVariant variant = v;
    out.push_back({std::string("Sssp") + name,
                   [variant] { return run_sssp(variant); }});
  }
  for (const std::uint32_t bands : {2u, 8u, 16u}) {
    out.push_back({"Delta" + std::to_string(bands) + "Bands",
                   [bands] { return run_delta(bands, false); }});
  }
  out.push_back({"AStar8Bands", [] { return run_delta(8, true); }});
  // Rings far below the in-flight working set: every publish rides the
  // backpressure path and the engine's production throttle.
  out.push_back({"BfsRfanRing4",
                 [] { return run_bfs(QueueVariant::kRfan, true, 4); }});
  out.push_back({"SsspBaseRing4",
                 [] { return run_sssp(QueueVariant::kBase, 4); }});
  out.push_back({"Delta8BandsRing64", [] { return run_delta(8, false, 64); }});
  out.push_back({"CcRfan", run_cc_rfan});
  out.push_back({"ColoringDepsMq", run_coloring_deps_mq});
  for (const ClusterConfig& c : cluster_configs()) {
    out.push_back({c.name, [c] {
                     std::uint64_t hash = 0;
                     const bfs::ClusterRunResult r = run_cluster(c, hash);
                     return fingerprint(r.run, r.attempts, hash);
                   }});
  }
  return out;
}

// ---- Pins (seed 0; regenerate only for an intended schedule change) ----

const std::map<std::string, std::vector<std::uint64_t>>& pins() {
  static const std::map<std::string, std::vector<std::uint64_t>> kPins = {
      {"BfsBaseAtomic",
       {1090982ull, 1ull, 10069ull, 1031ull,
        36550ull, 26064ull, 55394ull, 17217ull,
        0ull, 0ull, 0ull, 176880ull,
        8ull, 0ull, 1785ull, 164ull,
        100140ull, 2243ull, 23821ull, 2242ull,
        1536ull, 0ull, 57637ull, 17217ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"BfsBaseBenignRace",
       {1322866ull, 1ull, 14559ull, 2334ull,
        58095ull, 2331ull, 58963ull, 17982ull,
        0ull, 0ull, 0ull, 233520ull,
        8ull, 0ull, 2030ull, 206ull,
        115116ull, 2331ull, 24823ull, 2330ull,
        1584ull, 0ull, 61294ull, 17982ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"BfsAnAtomic",
       {1048382ull, 1ull, 10235ull, 938ull,
        36315ull, 24201ull, 1185ull, 0ull,
        0ull, 118724ull, 0ull, 500922ull,
        8ull, 0ull, 1841ull, 419ull,
        91045ull, 2245ull, 23655ull, 2244ull,
        1538ull, 0ull, 3385ull, 1654ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"BfsAnBenignRace",
       {1274229ull, 1ull, 14659ull, 2186ull,
        56547ull, 550ull, 1178ull, 0ull,
        0ull, 133703ull, 0ull, 592737ull,
        8ull, 0ull, 2073ull, 435ull,
        105447ull, 2269ull, 24280ull, 2268ull,
        1529ull, 0ull, 3607ull, 1879ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"BfsRfanAtomic",
       {977936ull, 1ull, 9470ull, 816ull,
        81615ull, 25137ull, 0ull, 0ull,
        0ull, 7991ull, 1026ull, 340320ull,
        8ull, 0ull, 2302ull, 139731ull,
        0ull, 2239ull, 23645ull, 2238ull,
        1532ull, 0ull, 1492ull, 0ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"BfsRfanBenignRace",
       {1196139ull, 1ull, 13548ull, 1937ull,
        108404ull, 1511ull, 0ull, 0ull,
        0ull, 8512ull, 1046ull, 441840ull,
        8ull, 0ull, 2708ull, 165181ull,
        0ull, 2422ull, 25382ull, 2421ull,
        1646ull, 0ull, 1511ull, 0ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"SsspBase",
       {712990ull, 1ull, 5318ull, 614ull,
        62081ull, 28712ull, 36473ull, 28899ull,
        0ull, 0ull, 0ull, 38880ull,
        8ull, 0ull, 521ull, 144ull,
        10785ull, 2553ull, 26159ull, 2552ull,
        1753ull, 0ull, 39026ull, 28899ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 11675509718173133161ull}},
      {"SsspAn",
       {442530ull, 1ull, 3164ull, 309ull,
        61089ull, 26700ull, 345ull, 0ull,
        0ull, 23215ull, 0ull, 125049ull,
        8ull, 0ull, 374ull, 178ull,
        13709ull, 2586ull, 26522ull, 2585ull,
        1786ull, 0ull, 986ull, 463ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 11675509718173133161ull}},
      {"SsspRfan",
       {441713ull, 1ull, 3179ull, 294ull,
        68362ull, 27910ull, 0ull, 0ull,
        0ull, 8030ull, 336ull, 113760ull,
        8ull, 0ull, 652ull, 33389ull,
        0ull, 2666ull, 27429ull, 2665ull,
        1866ull, 0ull, 481ull, 0ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 11675509718173133161ull}},
      {"Delta2Bands",
       {596729ull, 1ull, 5767ull, 119ull,
        30621ull, 2558ull, 0ull, 0ull,
        0ull, 3115ull, 154ull, 382560ull,
        8ull, 0ull, 1672ull, 105249ull,
        0ull, 630ull, 2355ull, 671ull,
        272ull, 0ull, 203ull, 0ull,
        0ull, 0ull, 42ull, 1ull,
        0ull, 0ull, 13581292894835281530ull}},
      {"Delta8Bands",
       {644320ull, 1ull, 6301ull, 147ull,
        39100ull, 2603ull, 0ull, 0ull,
        0ull, 4856ull, 222ull, 409200ull,
        8ull, 0ull, 1797ull, 113077ull,
        192ull, 614ull, 2312ull, 659ull,
        260ull, 0ull, 291ull, 0ull,
        0ull, 0ull, 46ull, 8ull,
        0ull, 0ull, 13581292894835281530ull}},
      {"Delta16Bands",
       {631359ull, 1ull, 6042ull, 233ull,
        42317ull, 3072ull, 0ull, 0ull,
        0ull, 7847ull, 374ull, 328800ull,
        8ull, 0ull, 1515ull, 94997ull,
        128ull, 666ull, 2498ull, 716ull,
        317ull, 0ull, 574ull, 0ull,
        0ull, 0ull, 51ull, 16ull,
        0ull, 0ull, 13581292894835281530ull}},
      {"AStar8Bands",
       {611066ull, 1ull, 5895ull, 124ull,
        37325ull, 2541ull, 0ull, 0ull,
        0ull, 2609ull, 146ull, 390480ull,
        8ull, 0ull, 1707ull, 107361ull,
        128ull, 623ull, 2336ull, 673ull,
        274ull, 0ull, 205ull, 0ull,
        0ull, 0ull, 51ull, 8ull,
        0ull, 0ull, 13581292894835281530ull}},
      {"BfsRfanRing4",
       {2659004ull, 1ull, 32029ull, 1414ull,
        68241ull, 21859ull, 0ull, 0ull,
        0ull, 6290ull, 1418ull, 1972080ull,
        8ull, 0ull, 9369ull, 593316ull,
        0ull, 1535ull, 20084ull, 1534ull,
        828ull, 0ull, 1775ull, 0ull,
        474135ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 7038481528717053095ull}},
      {"SsspBaseRing4",
       {4611907ull, 1ull, 58725ull, 3397ull,
        86928ull, 24825ull, 21637ull, 6322ull,
        0ull, 0ull, 0ull, 1468800ull,
        8ull, 0ull, 9025ull, 481760ull,
        87438ull, 2187ull, 22638ull, 2186ull,
        1387ull, 0ull, 23824ull, 6322ull,
        789008ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 11675509718173133161ull}},
      {"Delta8BandsRing64",
       {1105601ull, 1ull, 12449ull, 238ull,
        42778ull, 2688ull, 0ull, 0ull,
        0ull, 5306ull, 322ull, 828480ull,
        8ull, 0ull, 3596ull, 228014ull,
        384ull, 597ull, 2254ull, 677ull,
        278ull, 0ull, 434ull, 0ull,
        1774ull, 0ull, 81ull, 8ull,
        0ull, 0ull, 13581292894835281530ull}},
      {"CcRfan",
       {152694ull, 1ull, 134ull, 29ull,
        805ull, 53ull, 0ull, 0ull,
        0ull, 2020ull, 322ull, 8880ull,
        8ull, 0ull, 65ull, 2941ull,
        0ull, 704ull, 0ull, 304ull,
        0ull, 0ull, 53ull, 0ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 11592938111268092136ull}},
      {"ColoringDepsMq",
       {218205ull, 1ull, 973ull, 70ull,
        4256ull, 118ull, 0ull, 0ull,
        0ull, 2435ull, 736ull, 64800ull,
        8ull, 0ull, 320ull, 19100ull,
        64ull, 801ull, 0ull, 401ull,
        0ull, 0ull, 118ull, 0ull,
        0ull, 0ull, 0ull, 4ull,
        0ull, 0ull, 10032938504419765379ull}},
      {"ClusterBfsBase1DevOwnerOnly",
       {610013ull, 1ull, 297ull, 0ull,
        0ull, 0ull, 0ull, 4864ull,
        596ull, 9885ull, 4045ull, 44365ull,
        6666ull, 0ull, 0ull, 0ull,
        205920ull, 8ull, 0ull, 1172ull,
        203ull, 71333ull, 1087ull, 2958ull,
        1086ull, 63ull, 0ull, 45452ull,
        6666ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase1DevSteal",
       {610013ull, 1ull, 297ull, 0ull,
        0ull, 0ull, 0ull, 4864ull,
        596ull, 9885ull, 4045ull, 44365ull,
        6666ull, 0ull, 0ull, 0ull,
        205920ull, 8ull, 0ull, 1172ull,
        203ull, 71333ull, 1087ull, 2958ull,
        1086ull, 63ull, 0ull, 45452ull,
        6666ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase2DevOwnerOnly",
       {712335ull, 1ull, 347ull, 45ull,
        45ull, 0ull, 0ull, 6693ull,
        388ull, 9839ull, 2099ull, 29552ull,
        2908ull, 0ull, 39ull, 0ull,
        497760ull, 8ull, 0ull, 2279ull,
        87ull, 143953ull, 570ull, 1508ull,
        545ull, 34ull, 0ull, 30140ull,
        2908ull, 0ull, 21ull, 0ull,
        0ull, 0ull, 0ull, 6631ull,
        355ull, 10534ull, 2376ull, 24612ull,
        4021ull, 0ull, 44ull, 0ull,
        516480ull, 8ull, 0ull, 2335ull,
        121ull, 147049ull, 646ull, 1713ull,
        625ull, 117ull, 0ull, 25278ull,
        4021ull, 0ull, 24ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase2DevSteal",
       {712335ull, 1ull, 347ull, 45ull,
        45ull, 0ull, 0ull, 6693ull,
        388ull, 9839ull, 2099ull, 29552ull,
        2908ull, 0ull, 39ull, 0ull,
        497760ull, 8ull, 0ull, 2279ull,
        87ull, 143953ull, 570ull, 1508ull,
        545ull, 34ull, 0ull, 30140ull,
        2908ull, 0ull, 21ull, 0ull,
        0ull, 0ull, 0ull, 6631ull,
        355ull, 10534ull, 2376ull, 24612ull,
        4021ull, 0ull, 44ull, 0ull,
        516480ull, 8ull, 0ull, 2335ull,
        121ull, 147049ull, 646ull, 1713ull,
        625ull, 117ull, 0ull, 25278ull,
        4021ull, 0ull, 24ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase4DevOwnerOnly",
       {708347ull, 1ull, 345ull, 81ull,
        81ull, 0ull, 0ull, 6809ull,
        190ull, 8273ull, 970ull, 17848ull,
        1703ull, 0ull, 24ull, 0ull,
        671040ull, 8ull, 0ull, 2901ull,
        50ull, 184484ull, 270ull, 688ull,
        257ull, 3ull, 0ull, 18130ull,
        1703ull, 0ull, 12ull, 0ull,
        0ull, 0ull, 0ull, 6840ull,
        248ull, 8196ull, 1040ull, 17236ull,
        833ull, 0ull, 55ull, 0ull,
        636960ull, 8ull, 0ull, 2786ull,
        33ull, 177227ull, 282ull, 731ull,
        252ull, 1ull, 0ull, 17544ull,
        833ull, 0ull, 29ull, 0ull,
        0ull, 0ull, 0ull, 6815ull,
        229ull, 8329ull, 1074ull, 15724ull,
        1288ull, 0ull, 52ull, 0ull,
        649440ull, 8ull, 0ull, 2827ull,
        37ull, 179711ull, 294ull, 757ull,
        266ull, 17ull, 0ull, 16042ull,
        1288ull, 0ull, 29ull, 0ull,
        0ull, 0ull, 0ull, 6807ull,
        216ull, 8451ull, 1114ull, 16347ull,
        1322ull, 0ull, 19ull, 0ull,
        648720ull, 8ull, 0ull, 2819ull,
        42ull, 179145ull, 306ull, 799ull,
        295ull, 45ull, 0ull, 16662ull,
        1322ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase4DevSteal",
       {796436ull, 1ull, 388ull, 1740ull,
        2334ull, 594ull, 0ull, 7595ull,
        323ull, 10414ull, 1934ull, 38207ull,
        4660ull, 0ull, 280ull, 0ull,
        669600ull, 8ull, 0ull, 2978ull,
        48ull, 187746ull, 819ull, 1275ull,
        262ull, 7ull, 0ull, 39100ull,
        4660ull, 0ull, 587ull, 0ull,
        0ull, 0ull, 0ull, 7556ull,
        309ull, 9722ull, 2254ull, 36881ull,
        5291ull, 0ull, 188ull, 0ull,
        682560ull, 8ull, 0ull, 3017ull,
        30ull, 189793ull, 917ull, 1020ull,
        257ull, 6ull, 0ull, 37863ull,
        5291ull, 0ull, 307ull, 0ull,
        0ull, 0ull, 0ull, 7644ull,
        316ull, 10149ull, 1470ull, 34302ull,
        2353ull, 0ull, 240ull, 0ull,
        691440ull, 8ull, 0ull, 3058ull,
        59ull, 193798ull, 538ull, 1158ull,
        263ull, 16ull, 0ull, 34912ull,
        2353ull, 0ull, 429ull, 0ull,
        0ull, 0ull, 0ull, 7502ull,
        309ull, 10090ull, 2564ull, 40677ull,
        6510ull, 0ull, 210ull, 0ull,
        682560ull, 8ull, 0ull, 3028ull,
        36ull, 189844ull, 1104ull, 1112ull,
        261ull, 24ull, 0ull, 41849ull,
        6510ull, 0ull, 417ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn1DevOwnerOnly",
       {575162ull, 1ull, 280ull, 0ull,
        0ull, 0ull, 0ull, 4190ull,
        208ull, 9275ull, 2921ull, 485ull,
        0ull, 0ull, 105605ull, 0ull,
        921744ull, 8ull, 0ull, 1602ull,
        58ull, 95624ull, 1032ull, 2813ull,
        1031ull, 8ull, 0ull, 3681ull,
        3088ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn1DevSteal",
       {575162ull, 1ull, 280ull, 0ull,
        0ull, 0ull, 0ull, 4190ull,
        208ull, 9275ull, 2921ull, 485ull,
        0ull, 0ull, 105605ull, 0ull,
        921744ull, 8ull, 0ull, 1602ull,
        58ull, 95624ull, 1032ull, 2813ull,
        1031ull, 8ull, 0ull, 3681ull,
        3088ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn2DevOwnerOnly",
       {712018ull, 1ull, 347ull, 32ull,
        32ull, 0ull, 0ull, 6315ull,
        119ull, 9775ull, 1489ull, 279ull,
        0ull, 0ull, 184242ull, 0ull,
        885603ull, 8ull, 0ull, 2827ull,
        77ull, 176626ull, 532ull, 1417ull,
        515ull, 4ull, 0ull, 1572ull,
        1221ull, 0ull, 16ull, 0ull,
        0ull, 0ull, 0ull, 6456ull,
        215ull, 9857ull, 1620ull, 357ull,
        0ull, 0ull, 168425ull, 0ull,
        777459ull, 8ull, 0ull, 2581ull,
        37ull, 158425ull, 563ull, 1501ull,
        547ull, 43ull, 0ull, 1489ull,
        1013ull, 0ull, 16ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn2DevSteal",
       {712018ull, 1ull, 347ull, 32ull,
        32ull, 0ull, 0ull, 6315ull,
        119ull, 9775ull, 1489ull, 279ull,
        0ull, 0ull, 184242ull, 0ull,
        885603ull, 8ull, 0ull, 2827ull,
        77ull, 176626ull, 532ull, 1417ull,
        515ull, 4ull, 0ull, 1572ull,
        1221ull, 0ull, 16ull, 0ull,
        0ull, 0ull, 0ull, 6456ull,
        215ull, 9857ull, 1620ull, 357ull,
        0ull, 0ull, 168425ull, 0ull,
        777459ull, 8ull, 0ull, 2581ull,
        37ull, 158425ull, 563ull, 1501ull,
        547ull, 43ull, 0ull, 1489ull,
        1013ull, 0ull, 16ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn4DevOwnerOnly",
       {712555ull, 1ull, 347ull, 84ull,
        84ull, 0ull, 0ull, 6414ull,
        73ull, 8141ull, 728ull, 211ull,
        0ull, 0ull, 196346ull, 0ull,
        864300ull, 8ull, 0ull, 3020ull,
        0ull, 190464ull, 267ull, 681ull,
        254ull, 0ull, 0ull, 1077ull,
        820ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 6432ull,
        129ull, 8097ull, 847ull, 281ull,
        0ull, 0ull, 188168ull, 0ull,
        833379ull, 8ull, 0ull, 2893ull,
        17ull, 180721ull, 294ull, 763ull,
        264ull, 11ull, 0ull, 1218ull,
        853ull, 0ull, 30ull, 0ull,
        0ull, 0ull, 0ull, 6543ull,
        164ull, 8206ull, 884ull, 270ull,
        0ull, 0ull, 184766ull, 0ull,
        764847ull, 8ull, 0ull, 2840ull,
        18ull, 176371ull, 305ull, 782ull,
        275ull, 25ull, 0ull, 942ull,
        569ull, 0ull, 31ull, 0ull,
        0ull, 0ull, 0ull, 6475ull,
        91ull, 8242ull, 832ull, 210ull,
        0ull, 0ull, 194426ull, 0ull,
        827913ull, 8ull, 0ull, 2990ull,
        32ull, 188000ull, 299ull, 777ull,
        287ull, 36ull, 0ull, 936ull,
        671ull, 0ull, 12ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn4DevSteal",
       {708417ull, 1ull, 345ull, 1513ull,
        2022ull, 509ull, 0ull, 6007ull,
        193ull, 9007ull, 1244ull, 518ull,
        0ull, 0ull, 166258ull, 0ull,
        988179ull, 8ull, 0ull, 2544ull,
        14ull, 155582ull, 827ull, 1203ull,
        254ull, 0ull, 0ull, 2912ull,
        2213ull, 0ull, 528ull, 0ull,
        0ull, 0ull, 0ull, 6062ull,
        215ull, 8622ull, 1416ull, 502ull,
        0ull, 0ull, 166239ull, 0ull,
        944628ull, 8ull, 0ull, 2544ull,
        19ull, 154796ull, 857ull, 1076ull,
        271ull, 18ull, 0ull, 2670ull,
        1996ull, 0ull, 316ull, 0ull,
        0ull, 0ull, 0ull, 6163ull,
        237ull, 8566ull, 1609ull, 475ull,
        0ull, 0ull, 164407ull, 0ull,
        894081ull, 8ull, 0ull, 2514ull,
        45ull, 152724ull, 991ull, 1051ull,
        295ull, 47ull, 0ull, 2423ull,
        1767ull, 0ull, 244ull, 0ull,
        0ull, 0ull, 0ull, 6275ull,
        154ull, 8833ull, 871ull, 385ull,
        0ull, 0ull, 177654ull, 0ull,
        871065ull, 8ull, 0ull, 2727ull,
        47ull, 168997ull, 436ull, 1139ull,
        268ull, 17ull, 0ull, 1817ull,
        1295ull, 0ull, 425ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan1DevOwnerOnly",
       {601724ull, 1ull, 293ull, 0ull,
        0ull, 0ull, 0ull, 5460ull,
        175ull, 31099ull, 3265ull, 0ull,
        0ull, 0ull, 3858ull, 194ull,
        552240ull, 8ull, 0ull, 2398ull,
        151852ull, 0ull, 1102ull, 2993ull,
        1101ull, 78ull, 0ull, 272ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan1DevSteal",
       {601724ull, 1ull, 293ull, 0ull,
        0ull, 0ull, 0ull, 5460ull,
        175ull, 31099ull, 3265ull, 0ull,
        0ull, 0ull, 3858ull, 194ull,
        552240ull, 8ull, 0ull, 2398ull,
        151852ull, 0ull, 1102ull, 2993ull,
        1101ull, 78ull, 0ull, 272ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan2DevOwnerOnly",
       {747274ull, 1ull, 364ull, 35ull,
        35ull, 0ull, 0ull, 7245ull,
        113ull, 39864ull, 1603ull, 0ull,
        0ull, 0ull, 2199ull, 122ull,
        786480ull, 8ull, 0ull, 3338ull,
        212580ull, 0ull, 538ull, 1428ull,
        519ull, 8ull, 0ull, 174ull,
        0ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 7256ull,
        99ull, 38565ull, 1780ull, 0ull,
        0ull, 0ull, 2366ull, 108ull,
        797040ull, 8ull, 0ull, 3375ull,
        214872ull, 0ull, 611ull, 1627ull,
        594ull, 90ull, 0ull, 154ull,
        0ull, 0ull, 18ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan2DevSteal",
       {747274ull, 1ull, 364ull, 35ull,
        35ull, 0ull, 0ull, 7245ull,
        113ull, 39864ull, 1603ull, 0ull,
        0ull, 0ull, 2199ull, 122ull,
        786480ull, 8ull, 0ull, 3338ull,
        212580ull, 0ull, 538ull, 1428ull,
        519ull, 8ull, 0ull, 174ull,
        0ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 7256ull,
        99ull, 38565ull, 1780ull, 0ull,
        0ull, 0ull, 2366ull, 108ull,
        797040ull, 8ull, 0ull, 3375ull,
        214872ull, 0ull, 611ull, 1627ull,
        594ull, 90ull, 0ull, 154ull,
        0ull, 0ull, 18ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan4DevOwnerOnly",
       {755423ull, 1ull, 368ull, 95ull,
        95ull, 0ull, 0ull, 7352ull,
        74ull, 39188ull, 798ull, 0ull,
        0ull, 0ull, 1389ull, 84ull,
        830880ull, 8ull, 0ull, 3504ull,
        223477ull, 0ull, 267ull, 681ull,
        254ull, 0ull, 0ull, 116ull,
        0ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 7357ull,
        79ull, 37755ull, 936ull, 0ull,
        0ull, 0ull, 1516ull, 84ull,
        831360ull, 8ull, 0ull, 3506ull,
        223558ull, 0ull, 312ull, 814ull,
        279ull, 26ull, 0ull, 121ull,
        0ull, 0ull, 32ull, 0ull,
        0ull, 0ull, 0ull, 7356ull,
        78ull, 37631ull, 991ull, 0ull,
        0ull, 0ull, 1579ull, 76ull,
        834000ull, 8ull, 0ull, 3514ull,
        224036ull, 0ull, 343ull, 873ull,
        306ull, 54ull, 0ull, 116ull,
        0ull, 0ull, 35ull, 0ull,
        0ull, 0ull, 0ull, 7365ull,
        72ull, 37607ull, 953ull, 0ull,
        0ull, 0ull, 1534ull, 78ull,
        833040ull, 8ull, 0ull, 3510ull,
        223806ull, 0ull, 322ull, 846ull,
        309ull, 57ull, 0ull, 111ull,
        0ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan4DevSteal",
       {745285ull, 1ull, 363ull, 1395ull,
        1862ull, 467ull, 0ull, 7248ull,
        167ull, 39276ull, 1321ull, 0ull,
        0ull, 0ull, 2786ull, 198ull,
        760080ull, 8ull, 0ull, 3266ull,
        207706ull, 0ull, 802ull, 1146ull,
        253ull, 0ull, 0ull, 277ull,
        0ull, 0ull, 479ull, 0ull,
        0ull, 0ull, 0ull, 7237ull,
        133ull, 38368ull, 1165ull, 0ull,
        0ull, 0ull, 2281ull, 148ull,
        784320ull, 8ull, 0ull, 3342ull,
        212769ull, 0ull, 602ull, 1098ull,
        262ull, 9ull, 0ull, 212ull,
        0ull, 0ull, 367ull, 0ull,
        0ull, 0ull, 0ull, 7220ull,
        157ull, 38004ull, 1764ull, 0ull,
        0ull, 0ull, 3281ull, 190ull,
        776880ull, 8ull, 0ull, 3332ull,
        211624ull, 0ull, 1107ull, 938ull,
        264ull, 52ull, 0ull, 260ull,
        0ull, 0ull, 210ull, 0ull,
        0ull, 0ull, 0ull, 7268ull,
        128ull, 36963ull, 989ull, 0ull,
        0ull, 0ull, 1901ull, 134ull,
        782880ull, 8ull, 0ull, 3329ull,
        212126ull, 0ull, 418ull, 1103ull,
        287ull, 34ull, 0ull, 205ull,
        0ull, 0ull, 339ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterSsspBase1DevOwnerOnly",
       {581251ull, 1ull, 283ull, 0ull,
        0ull, 0ull, 0ull, 4674ull,
        422ull, 14532ull, 5693ull, 32723ull,
        10205ull, 0ull, 0ull, 0ull,
        170400ull, 8ull, 0ull, 937ull,
        422ull, 55262ull, 1187ull, 4506ull,
        1186ull, 787ull, 0ull, 33910ull,
        10205ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase1DevSteal",
       {581251ull, 1ull, 283ull, 0ull,
        0ull, 0ull, 0ull, 4674ull,
        422ull, 14532ull, 5693ull, 32723ull,
        10205ull, 0ull, 0ull, 0ull,
        170400ull, 8ull, 0ull, 937ull,
        422ull, 55262ull, 1187ull, 4506ull,
        1186ull, 787ull, 0ull, 33910ull,
        10205ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase2DevOwnerOnly",
       {616155ull, 1ull, 300ull, 104ull,
        104ull, 0ull, 0ull, 5624ull,
        343ull, 9549ull, 2086ull, 26215ull,
        1866ull, 0ull, 98ull, 0ull,
        330720ull, 8ull, 0ull, 1559ull,
        82ull, 98179ull, 466ull, 1580ull,
        415ull, 216ull, 0ull, 26725ull,
        1866ull, 0ull, 54ull, 0ull,
        0ull, 0ull, 0ull, 5555ull,
        377ull, 11638ull, 3021ull, 23495ull,
        3260ull, 0ull, 93ull, 0ull,
        281280ull, 8ull, 0ull, 1360ull,
        141ull, 84650ull, 654ull, 2320ull,
        600ull, 402ull, 0ull, 24192ull,
        3260ull, 0ull, 50ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase2DevSteal",
       {616155ull, 1ull, 300ull, 104ull,
        104ull, 0ull, 0ull, 5624ull,
        343ull, 9549ull, 2086ull, 26215ull,
        1866ull, 0ull, 98ull, 0ull,
        330720ull, 8ull, 0ull, 1559ull,
        82ull, 98179ull, 466ull, 1580ull,
        415ull, 216ull, 0ull, 26725ull,
        1866ull, 0ull, 54ull, 0ull,
        0ull, 0ull, 0ull, 5555ull,
        377ull, 11638ull, 3021ull, 23495ull,
        3260ull, 0ull, 93ull, 0ull,
        281280ull, 8ull, 0ull, 1360ull,
        141ull, 84650ull, 654ull, 2320ull,
        600ull, 402ull, 0ull, 24192ull,
        3260ull, 0ull, 50ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase4DevOwnerOnly",
       {560866ull, 1ull, 273ull, 313ull,
        313ull, 0ull, 0ull, 4992ull,
        286ull, 6993ull, 1261ull, 23231ull,
        935ull, 0ull, 120ull, 0ull,
        345360ull, 8ull, 0ull, 1587ull,
        27ull, 100418ull, 307ull, 891ull,
        237ull, 138ull, 0ull, 23595ull,
        935ull, 0ull, 63ull, 0ull,
        0ull, 0ull, 0ull, 5038ull,
        356ull, 7289ull, 1500ull, 22349ull,
        971ull, 0ull, 198ull, 0ull,
        296880ull, 8ull, 0ull, 1409ull,
        21ull, 88938ull, 358ull, 1056ull,
        254ull, 157ull, 0ull, 22801ull,
        971ull, 0ull, 112ull, 0ull,
        0ull, 0ull, 0ull, 5038ull,
        301ull, 6566ull, 1145ull, 21734ull,
        649ull, 0ull, 146ull, 0ull,
        349440ull, 8ull, 0ull, 1615ull,
        20ull, 102320ull, 288ull, 757ull,
        185ull, 88ull, 0ull, 22097ull,
        649ull, 0ull, 78ull, 0ull,
        0ull, 0ull, 0ull, 5145ull,
        304ull, 7183ull, 1394ull, 15905ull,
        964ull, 0ull, 114ull, 0ull,
        322800ull, 8ull, 0ull, 1492ull,
        31ull, 94356ull, 304ull, 1059ull,
        267ull, 169ull, 0ull, 16263ull,
        964ull, 0ull, 60ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase4DevSteal",
       {771838ull, 1ull, 376ull, 2766ull,
        3400ull, 634ull, 0ull, 7291ull,
        339ull, 11471ull, 2997ull, 39526ull,
        7420ull, 0ull, 358ull, 0ull,
        568800ull, 8ull, 0ull, 2555ull,
        31ull, 159184ull, 1245ull, 1777ull,
        242ull, 143ull, 0ull, 40895ull,
        7420ull, 0ull, 926ull, 0ull,
        0ull, 0ull, 0ull, 7458ull,
        414ull, 11659ull, 2081ull, 33235ull,
        2723ull, 0ull, 393ull, 0ull,
        524880ull, 8ull, 0ull, 2393ull,
        31ull, 150843ull, 659ull, 1762ull,
        279ull, 182ull, 0ull, 34051ull,
        2723ull, 0ull, 716ull, 0ull,
        0ull, 0ull, 0ull, 7108ull,
        410ull, 10419ull, 4698ull, 44596ull,
        13041ull, 0ull, 276ull, 0ull,
        513360ull, 8ull, 0ull, 2360ull,
        21ull, 143670ull, 1975ull, 1317ull,
        259ull, 162ull, 0ull, 46694ull,
        13041ull, 0ull, 365ull, 0ull,
        0ull, 0ull, 0ull, 7520ull,
        366ull, 11601ull, 1917ull, 29617ull,
        2615ull, 0ull, 351ull, 0ull,
        549120ull, 8ull, 0ull, 2465ull,
        44ull, 155730ull, 584ull, 1843ull,
        282ull, 183ull, 0ull, 30328ull,
        2615ull, 0ull, 759ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn1DevOwnerOnly",
       {507702ull, 1ull, 247ull, 0ull,
        0ull, 0ull, 0ull, 3841ull,
        77ull, 9118ull, 2754ull, 220ull,
        0ull, 0ull, 108257ull, 0ull,
        668346ull, 8ull, 0ull, 1656ull,
        127ull, 102849ull, 721ull, 2715ull,
        720ull, 321ull, 0ull, 1801ull,
        1542ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn1DevSteal",
       {507702ull, 1ull, 247ull, 0ull,
        0ull, 0ull, 0ull, 3841ull,
        77ull, 9118ull, 2754ull, 220ull,
        0ull, 0ull, 108257ull, 0ull,
        668346ull, 8ull, 0ull, 1656ull,
        127ull, 102849ull, 721ull, 2715ull,
        720ull, 321ull, 0ull, 1801ull,
        1542ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn2DevOwnerOnly",
       {595667ull, 1ull, 290ull, 80ull,
        80ull, 0ull, 0ull, 4930ull,
        142ull, 8421ull, 1496ull, 357ull,
        0ull, 0ull, 133955ull, 0ull,
        724332ull, 8ull, 0ull, 2057ull,
        70ull, 126650ull, 408ull, 1392ull,
        366ull, 167ull, 0ull, 1823ull,
        1364ull, 0ull, 39ull, 0ull,
        0ull, 0ull, 0ull, 4960ull,
        157ull, 8102ull, 1487ull, 351ull,
        0ull, 0ull, 129543ull, 0ull,
        713937ull, 8ull, 0ull, 1989ull,
        41ull, 122135ull, 393ull, 1378ull,
        354ull, 155ull, 0ull, 1861ull,
        1399ull, 0ull, 41ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn2DevSteal",
       {595667ull, 1ull, 290ull, 80ull,
        80ull, 0ull, 0ull, 4930ull,
        142ull, 8421ull, 1496ull, 357ull,
        0ull, 0ull, 133955ull, 0ull,
        724332ull, 8ull, 0ull, 2057ull,
        70ull, 126650ull, 408ull, 1392ull,
        366ull, 167ull, 0ull, 1823ull,
        1364ull, 0ull, 39ull, 0ull,
        0ull, 0ull, 0ull, 4960ull,
        157ull, 8102ull, 1487ull, 351ull,
        0ull, 0ull, 129543ull, 0ull,
        713937ull, 8ull, 0ull, 1989ull,
        41ull, 122135ull, 393ull, 1378ull,
        354ull, 155ull, 0ull, 1861ull,
        1399ull, 0ull, 41ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn4DevOwnerOnly",
       {583514ull, 1ull, 284ull, 246ull,
        246ull, 0ull, 0ull, 4930ull,
        109ull, 6497ull, 760ull, 275ull,
        0ull, 0ull, 142377ull, 0ull,
        659511ull, 8ull, 0ull, 2191ull,
        12ull, 135988ull, 225ull, 671ull,
        181ull, 82ull, 0ull, 1174ull,
        817ull, 0ull, 36ull, 0ull,
        0ull, 0ull, 0ull, 4943ull,
        164ull, 6708ull, 869ull, 342ull,
        0ull, 0ull, 131673ull, 0ull,
        627441ull, 8ull, 0ull, 2024ull,
        0ull, 124032ull, 258ull, 737ull,
        182ull, 83ull, 0ull, 1368ull,
        887ull, 0ull, 83ull, 0ull,
        0ull, 0ull, 0ull, 4930ull,
        171ull, 6504ull, 851ull, 389ull,
        0ull, 0ull, 131389ull, 0ull,
        621153ull, 8ull, 0ull, 2020ull,
        5ull, 123195ull, 260ull, 683ull,
        166ull, 67ull, 0ull, 1407ull,
        871ull, 0ull, 73ull, 0ull,
        0ull, 0ull, 0ull, 5074ull,
        147ull, 6666ull, 847ull, 220ull,
        0ull, 0ull, 133788ull, 0ull,
        588063ull, 8ull, 0ull, 2058ull,
        7ull, 127613ull, 220ull, 762ull,
        187ull, 88ull, 0ull, 927ull,
        601ull, 0ull, 54ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn4DevSteal",
       {773980ull, 1ull, 377ull, 995ull,
        1200ull, 205ull, 0ull, 7016ull,
        174ull, 9265ull, 975ull, 472ull,
        0ull, 0ull, 196461ull, 0ull,
        956658ull, 8ull, 0ull, 3018ull,
        24ull, 186536ull, 429ull, 943ull,
        181ull, 82ull, 0ull, 2043ull,
        1406ull, 0ull, 308ull, 0ull,
        0ull, 0ull, 0ull, 7064ull,
        229ull, 9308ull, 956ull, 582ull,
        0ull, 0ull, 188268ull, 0ull,
        896193ull, 8ull, 0ull, 2892ull,
        22ull, 177066ull, 331ull, 949ull,
        183ull, 84ull, 0ull, 2063ull,
        1271ull, 0ull, 292ull, 0ull,
        0ull, 0ull, 0ull, 6991ull,
        250ull, 9002ull, 1038ull, 715ull,
        0ull, 0ull, 182991ull, 0ull,
        910989ull, 8ull, 0ull, 2810ull,
        0ull, 170560ull, 358ull, 938ull,
        185ull, 86ull, 0ull, 2424ull,
        1483ull, 0ull, 249ull, 0ull,
        0ull, 0ull, 0ull, 6822ull,
        227ull, 8891ull, 1548ull, 495ull,
        0ull, 0ull, 179692ull, 0ull,
        1044552ull, 8ull, 0ull, 2753ull,
        6ull, 168058ull, 832ull, 902ull,
        200ull, 101ull, 0ull, 2943ull,
        2264ull, 0ull, 146ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan1DevOwnerOnly",
       {517611ull, 1ull, 252ull, 0ull,
        0ull, 0ull, 0ull, 4498ull,
        106ull, 26485ull, 3055ull, 0ull,
        0ull, 0ull, 2717ull, 124ull,
        449760ull, 8ull, 0ull, 1936ull,
        122623ull, 0ull, 769ull, 2887ull,
        768ull, 369ull, 0ull, 168ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan1DevSteal",
       {517611ull, 1ull, 252ull, 0ull,
        0ull, 0ull, 0ull, 4498ull,
        106ull, 26485ull, 3055ull, 0ull,
        0ull, 0ull, 2717ull, 124ull,
        449760ull, 8ull, 0ull, 1936ull,
        122623ull, 0ull, 769ull, 2887ull,
        768ull, 369ull, 0ull, 168ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan2DevOwnerOnly",
       {620204ull, 1ull, 302ull, 97ull,
        97ull, 0ull, 0ull, 5762ull,
        110ull, 30553ull, 1763ull, 0ull,
        0ull, 0ull, 1952ull, 104ull,
        594960ull, 8ull, 0ull, 2531ull,
        161001ull, 0ull, 471ull, 1598ull,
        420ull, 221ull, 0ull, 162ull,
        0ull, 0ull, 47ull, 0ull,
        0ull, 0ull, 0ull, 5749ull,
        112ull, 31567ull, 2665ull, 0ull,
        0ull, 0ull, 2550ull, 106ull,
        594720ull, 8ull, 0ull, 2531ull,
        160774ull, 0ull, 698ull, 2503ull,
        651ull, 454ull, 0ull, 165ull,
        0ull, 0ull, 50ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan2DevSteal",
       {620204ull, 1ull, 302ull, 97ull,
        97ull, 0ull, 0ull, 5762ull,
        110ull, 30553ull, 1763ull, 0ull,
        0ull, 0ull, 1952ull, 104ull,
        594960ull, 8ull, 0ull, 2531ull,
        161001ull, 0ull, 471ull, 1598ull,
        420ull, 221ull, 0ull, 162ull,
        0ull, 0ull, 47ull, 0ull,
        0ull, 0ull, 0ull, 5749ull,
        112ull, 31567ull, 2665ull, 0ull,
        0ull, 0ull, 2550ull, 106ull,
        594720ull, 8ull, 0ull, 2531ull,
        160774ull, 0ull, 698ull, 2503ull,
        651ull, 454ull, 0ull, 165ull,
        0ull, 0ull, 50ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan4DevOwnerOnly",
       {638753ull, 1ull, 311ull, 366ull,
        366ull, 0ull, 0ull, 5991ull,
        91ull, 29057ull, 849ull, 0ull,
        0ull, 0ull, 1316ull, 88ull,
        648720ull, 8ull, 0ull, 2747ull,
        175049ull, 0ull, 247ull, 700ull,
        188ull, 89ull, 0ull, 135ull,
        0ull, 0ull, 44ull, 0ull,
        0ull, 0ull, 0ull, 5995ull,
        104ull, 29100ull, 1047ull, 0ull,
        0ull, 0ull, 1568ull, 88ull,
        638160ull, 8ull, 0ull, 2703ull,
        172160ull, 0ull, 320ull, 888ull,
        216ull, 118ull, 0ull, 167ull,
        0ull, 0ull, 112ull, 0ull,
        0ull, 0ull, 0ull, 5973ull,
        98ull, 30192ull, 1397ull, 0ull,
        0ull, 0ull, 1882ull, 90ull,
        644640ull, 8ull, 0ull, 2731ull,
        173831ull, 0ull, 441ull, 1215ull,
        300ull, 201ull, 0ull, 164ull,
        0ull, 0ull, 123ull, 0ull,
        0ull, 0ull, 0ull, 5988ull,
        96ull, 30431ull, 1760ull, 0ull,
        0ull, 0ull, 1961ull, 88ull,
        640800ull, 8ull, 0ull, 2714ull,
        172711ull, 0ull, 473ull, 1644ull,
        410ull, 312ull, 0ull, 140ull,
        0ull, 0ull, 87ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan4DevSteal",
       {786253ull, 1ull, 383ull, 1418ull,
        1729ull, 311ull, 0ull, 7780ull,
        146ull, 40189ull, 1142ull, 0ull,
        0ull, 0ull, 2152ull, 154ull,
        813600ull, 8ull, 0ull, 3467ull,
        220806ull, 0ull, 570ull, 1108ull,
        180ull, 81ull, 0ull, 239ull,
        0ull, 0ull, 475ull, 0ull,
        0ull, 0ull, 0ull, 7812ull,
        149ull, 36789ull, 1015ull, 0ull,
        0ull, 0ull, 1768ull, 138ull,
        814080ull, 8ull, 0ull, 3461ull,
        220627ull, 0ull, 365ull, 1039ull,
        189ull, 90ull, 0ull, 244ull,
        0ull, 0ull, 366ull, 0ull,
        0ull, 0ull, 0ull, 7799ull,
        146ull, 37277ull, 1244ull, 0ull,
        0ull, 0ull, 1960ull, 142ull,
        817440ull, 8ull, 0ull, 3477ull,
        221575ull, 0ull, 441ull, 1209ull,
        239ull, 140ull, 0ull, 242ull,
        0ull, 0ull, 340ull, 0ull,
        0ull, 0ull, 0ull, 7733ull,
        164ull, 39663ull, 2271ull, 0ull,
        0ull, 0ull, 3569ull, 216ull,
        818400ull, 8ull, 0ull, 3518ull,
        223398ull, 0ull, 1242ull, 1311ull,
        280ull, 182ull, 0ull, 280ull,
        0ull, 0ull, 237ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterBfsBase4DevStealXfer4",
       {945912ull, 1ull, 461ull, 1578ull,
        2117ull, 539ull, 0ull, 9530ull,
        578ull, 12157ull, 1588ull, 52051ull,
        2331ull, 0ull, 366ull, 0ull,
        744720ull, 8ull, 0ull, 3376ull,
        22ull, 214050ull, 612ull, 1291ull,
        254ull, 0ull, 0ull, 52823ull,
        2331ull, 1389ull, 618ull, 0ull,
        0ull, 0ull, 0ull, 9491ull,
        499ull, 11993ull, 1951ull, 45630ull,
        3201ull, 0ull, 271ull, 0ull,
        791040ull, 8ull, 0ull, 3548ull,
        17ull, 224524ull, 735ull, 1182ull,
        278ull, 30ull, 0ull, 46476ull,
        3201ull, 1399ull, 400ull, 0ull,
        0ull, 0ull, 0ull, 9395ull,
        461ull, 11687ull, 2222ull, 43650ull,
        4199ull, 0ull, 232ull, 0ull,
        822240ull, 8ull, 0ull, 3667ull,
        25ull, 231680ull, 847ull, 1134ull,
        301ull, 52ull, 0ull, 44602ull,
        4199ull, 157ull, 308ull, 0ull,
        0ull, 0ull, 0ull, 9069ull,
        446ull, 11313ull, 2464ull, 60385ull,
        4529ull, 0ull, 159ull, 0ull,
        809520ull, 8ull, 0ull, 3647ull,
        35ull, 230114ull, 1020ull, 955ull,
        263ull, 12ull, 0ull, 61478ull,
        4529ull, 367ull, 252ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterSsspRfan4DevStealXfer4",
       {843580ull, 1ull, 411ull, 856ull,
        1015ull, 159ull, 0ull, 8500ull,
        179ull, 42446ull, 1112ull, 0ull,
        0ull, 0ull, 1884ull, 162ull,
        884400ull, 8ull, 0ull, 3779ull,
        240841ull, 0ull, 464ull, 859ull,
        181ull, 82ull, 0ull, 244ull,
        0ull, 114ull, 224ull, 0ull,
        0ull, 0ull, 0ull, 8516ull,
        163ull, 39297ull, 1015ull, 0ull,
        0ull, 0ull, 1632ull, 138ull,
        893280ull, 8ull, 0ull, 3799ull,
        242279ull, 0ull, 318ull, 912ull,
        191ull, 92ull, 0ull, 244ull,
        0ull, 58ull, 231ull, 0ull,
        0ull, 0ull, 0ull, 8485ull,
        156ull, 40724ull, 1101ull, 0ull,
        0ull, 0ull, 1734ull, 154ull,
        903360ull, 8ull, 0ull, 3845ull,
        245166ull, 0ull, 371ull, 939ull,
        198ull, 100ull, 0ull, 243ull,
        0ull, 50ull, 217ull, 0ull,
        0ull, 0ull, 0ull, 8433ull,
        192ull, 42010ull, 1569ull, 0ull,
        0ull, 0ull, 2363ull, 228ull,
        903360ull, 8ull, 0ull, 3889ull,
        247601ull, 0ull, 667ull, 1070ull,
        234ull, 140ull, 0ull, 286ull,
        0ull, 185ull, 184ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
  };
  return kPins;
}

std::string source_row(const std::string& name,
                       const std::vector<std::uint64_t>& values) {
  std::ostringstream os;
  os << "      {\"" << name << "\",\n       {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << values[i] << "ull";
    if (i + 1 < values.size()) os << ((i + 1) % 4 == 0 ? ",\n        " : ", ");
  }
  os << "}},";
  return os.str();
}

class DriverGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DriverGolden, MatchesPinnedSchedule) {
  const GoldenCase& c = GetParam();
  const Fingerprint got = c.run();
  const auto it = pins().find(c.name);
  ASSERT_NE(it, pins().end()) << "no pin for " << c.name << "; measured:\n"
                              << source_row(c.name, got.values);
  ASSERT_EQ(got.values.size(), it->second.size())
      << "measured row:\n" << source_row(c.name, got.values);
  bool same = true;
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i], it->second[i]) << c.name << ": " << got.names[i];
    same &= got.values[i] == it->second[i];
  }
  if (!same) {
    ADD_FAILURE() << "measured row:\n" << source_row(c.name, got.values);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, DriverGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& i) { return i.param.name; });

// Transfer conservation at quiescence, from host reads alone: every
// reserved transfer token was written and popped exactly once, every
// popped token (plus one kStolen copy per steal) was delivered, and no
// sub-ring holds a reservation. These bound how far a change to the
// transfer path may move the cluster pins above.
class ClusterConservation : public ::testing::TestWithParam<ClusterConfig> {};

TEST_P(ClusterConservation, HoldsAtQuiescence) {
  std::uint64_t hash = 0;
  const bfs::ClusterRunResult r = run_cluster(GetParam(), hash);
  ASSERT_FALSE(r.run.aborted) << r.run.abort_reason;
  std::uint64_t rears = 0, written = 0;
  for (const cluster::XferRingEnds& ring : r.run.xfer_rings) {
    EXPECT_EQ(ring.front, ring.rear) << ring.src << "->" << ring.dst;
    rears += ring.rear;
  }
  for (const simt::RunResult& d : r.run.device_runs) {
    written += d.stats.user[kXferTokens];
  }
  const std::uint32_t n = GetParam().devices;
  EXPECT_EQ(r.run.xfer_rings.size(), std::size_t{n} * (n - 1));
  EXPECT_EQ(rears, written);
  EXPECT_EQ(rears, r.run.router.drained);
  EXPECT_EQ(r.run.router.delivered, r.run.router.drained + r.run.router.stolen);
  if (n > 1) {
    EXPECT_GT(rears, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, ClusterConservation, ::testing::ValuesIn(cluster_configs()),
    [](const ::testing::TestParamInfo<ClusterConfig>& i) {
      return i.param.name;
    });

}  // namespace
}  // namespace scq
