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
Fingerprint run_cluster(bool sssp, QueueVariant variant, std::uint32_t devices,
                        cluster::BalancePolicy balance,
                        std::uint64_t xfer_capacity = 0) {
  bfs::ClusterBfsOptions opt;
  opt.num_devices = devices;
  opt.variant = variant;
  opt.balance = balance;
  opt.xfer_capacity = xfer_capacity;
  Hasher h;
  if (sssp) {
    const bfs::ClusterSsspResult r =
        bfs::run_cluster_sssp(golden_device(), grid_graph(), 0, opt);
    h.add_all(r.dist);
    return fingerprint(r.run, r.attempts, h.value());
  }
  const bfs::ClusterBfsResult r =
      bfs::run_cluster_bfs(golden_device(), road_graph(), 0, opt);
  h.add_all(r.levels);
  return fingerprint(r.run, r.attempts, h.value());
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
  for (const bool sssp : {false, true}) {
    for (const auto& [v, name] : variants) {
      for (const std::uint32_t devices : {1u, 2u, 4u}) {
        for (const bool steal : {false, true}) {
          const QueueVariant variant = v;
          const cluster::BalancePolicy balance =
              steal ? cluster::BalancePolicy::kSteal
                    : cluster::BalancePolicy::kOwnerOnly;
          out.push_back({std::string("Cluster") + (sssp ? "Sssp" : "Bfs") +
                             name + std::to_string(devices) + "Dev" +
                             (steal ? "Steal" : "OwnerOnly"),
                         [=] {
                           return run_cluster(sssp, variant, devices, balance);
                         }});
        }
      }
    }
  }
  // Transfer rings far below the cut traffic: the work phase freezes
  // while a transfer ring holds parked tokens.
  out.push_back({"ClusterBfsBase4DevStealXfer4", [] {
                   return run_cluster(false, QueueVariant::kBase, 4,
                                      cluster::BalancePolicy::kSteal, 4);
                 }});
  out.push_back({"ClusterSsspRfan4DevStealXfer4", [] {
                   return run_cluster(true, QueueVariant::kRfan, 4,
                                      cluster::BalancePolicy::kSteal, 4);
                 }});
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
       {626081ull, 1ull, 305ull, 0ull,
        0ull, 0ull, 0ull, 5005ull,
        616ull, 10785ull, 4520ull, 45616ull,
        7814ull, 0ull, 0ull, 0ull,
        208320ull, 8ull, 0ull, 1195ull,
        309ull, 72354ull, 1210ull, 3310ull,
        1209ull, 186ull, 0ull, 46826ull,
        7814ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase1DevSteal",
       {626081ull, 1ull, 305ull, 0ull,
        0ull, 0ull, 0ull, 5005ull,
        616ull, 10785ull, 4520ull, 45616ull,
        7814ull, 0ull, 0ull, 0ull,
        208320ull, 8ull, 0ull, 1195ull,
        309ull, 72354ull, 1210ull, 3310ull,
        1209ull, 186ull, 0ull, 46826ull,
        7814ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase2DevOwnerOnly",
       {722609ull, 1ull, 352ull, 39ull,
        39ull, 0ull, 0ull, 6789ull,
        355ull, 9854ull, 2006ull, 28599ull,
        2820ull, 0ull, 34ull, 0ull,
        533760ull, 8ull, 0ull, 2414ull,
        81ull, 152621ull, 544ull, 1443ull,
        522ull, 11ull, 0ull, 29159ull,
        2820ull, 0ull, 18ull, 0ull,
        0ull, 0ull, 0ull, 6802ull,
        351ull, 10175ull, 2115ull, 24979ull,
        3299ull, 0ull, 40ull, 0ull,
        540720ull, 8ull, 0ull, 2436ull,
        149ull, 153765ull, 573ull, 1526ull,
        555ull, 48ull, 0ull, 25571ull,
        3299ull, 0ull, 21ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase2DevSteal",
       {722609ull, 1ull, 352ull, 39ull,
        39ull, 0ull, 0ull, 6789ull,
        355ull, 9854ull, 2006ull, 28599ull,
        2820ull, 0ull, 34ull, 0ull,
        533760ull, 8ull, 0ull, 2414ull,
        81ull, 152621ull, 544ull, 1443ull,
        522ull, 11ull, 0ull, 29159ull,
        2820ull, 0ull, 18ull, 0ull,
        0ull, 0ull, 0ull, 6802ull,
        351ull, 10175ull, 2115ull, 24979ull,
        3299ull, 0ull, 40ull, 0ull,
        540720ull, 8ull, 0ull, 2436ull,
        149ull, 153765ull, 573ull, 1526ull,
        555ull, 48ull, 0ull, 25571ull,
        3299ull, 0ull, 21ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase4DevOwnerOnly",
       {702192ull, 1ull, 342ull, 77ull,
        77ull, 0ull, 0ull, 6730ull,
        185ull, 8196ull, 964ull, 17526ull,
        1642ull, 0ull, 22ull, 0ull,
        661440ull, 8ull, 0ull, 2861ull,
        45ull, 181884ull, 268ull, 685ull,
        256ull, 2ull, 0ull, 17805ull,
        1642ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 6755ull,
        221ull, 8197ull, 1030ull, 15497ull,
        1059ull, 0ull, 49ull, 0ull,
        646560ull, 8ull, 0ull, 2810ull,
        28ull, 178708ull, 281ull, 727ull,
        254ull, 1ull, 0ull, 15800ull,
        1059ull, 0ull, 27ull, 0ull,
        0ull, 0ull, 0ull, 6760ull,
        215ull, 8292ull, 1100ull, 14897ull,
        1496ull, 0ull, 52ull, 0ull,
        653760ull, 8ull, 0ull, 2837ull,
        33ull, 180297ull, 298ull, 778ull,
        271ull, 25ull, 0ull, 15220ull,
        1496ull, 0ull, 28ull, 0ull,
        0ull, 0ull, 0ull, 6740ull,
        202ull, 8178ull, 993ull, 15083ull,
        1230ull, 0ull, 19ull, 0ull,
        649440ull, 8ull, 0ull, 2817ull,
        28ull, 179136ull, 274ull, 709ull,
        262ull, 11ull, 0ull, 15366ull,
        1230ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsBase4DevSteal",
       {808708ull, 1ull, 394ull, 1779ull,
        2391ull, 612ull, 0ull, 7705ull,
        348ull, 10648ull, 1727ull, 42285ull,
        3865ull, 0ull, 351ull, 0ull,
        672480ull, 8ull, 0ull, 2995ull,
        39ull, 189081ull, 726ull, 1324ull,
        256ull, 2ull, 0ull, 43102ull,
        3865ull, 0ull, 646ull, 0ull,
        0ull, 0ull, 0ull, 7712ull,
        393ull, 9901ull, 2416ull, 41209ull,
        5214ull, 0ull, 247ull, 0ull,
        649680ull, 8ull, 0ull, 2918ull,
        37ull, 183354ull, 989ull, 1068ull,
        258ull, 6ull, 0ull, 42289ull,
        5214ull, 0ull, 350ull, 0ull,
        0ull, 0ull, 0ull, 7777ull,
        344ull, 10046ull, 1694ull, 37019ull,
        2934ull, 0ull, 238ull, 0ull,
        685680ull, 8ull, 0ull, 3042ull,
        44ull, 192573ull, 628ull, 1118ull,
        271ull, 22ull, 0ull, 37731ull,
        2934ull, 0ull, 372ull, 0ull,
        0ull, 0ull, 0ull, 7555ull,
        331ull, 10040ull, 2504ull, 44739ull,
        6129ull, 0ull, 238ull, 0ull,
        683280ull, 8ull, 0ull, 3042ull,
        31ull, 190609ull, 1081ull, 1071ull,
        247ull, 5ull, 0ull, 45890ull,
        6129ull, 0ull, 411ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn1DevOwnerOnly",
       {575114ull, 1ull, 280ull, 0ull,
        0ull, 0ull, 0ull, 4248ull,
        221ull, 9246ull, 2964ull, 478ull,
        0ull, 0ull, 105513ull, 0ull,
        886461ull, 8ull, 0ull, 1600ull,
        53ull, 94982ull, 1045ull, 2849ull,
        1044ull, 21ull, 0ull, 3500ull,
        2907ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn1DevSteal",
       {575114ull, 1ull, 280ull, 0ull,
        0ull, 0ull, 0ull, 4248ull,
        221ull, 9246ull, 2964ull, 478ull,
        0ull, 0ull, 105513ull, 0ull,
        886461ull, 8ull, 0ull, 1600ull,
        53ull, 94982ull, 1045ull, 2849ull,
        1044ull, 21ull, 0ull, 3500ull,
        2907ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn2DevOwnerOnly",
       {708429ull, 1ull, 345ull, 36ull,
        36ull, 0ull, 0ull, 6295ull,
        116ull, 9686ull, 1486ull, 250ull,
        0ull, 0ull, 183877ull, 0ull,
        875859ull, 8ull, 0ull, 2821ull,
        52ull, 176459ull, 534ull, 1415ull,
        514ull, 3ull, 0ull, 1492ull,
        1173ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 6273ull,
        177ull, 9658ull, 1596ull, 338ull,
        0ull, 0ull, 169994ull, 0ull,
        860052ull, 8ull, 0ull, 2606ull,
        49ull, 160926ull, 560ull, 1500ull,
        543ull, 39ull, 0ull, 1840ull,
        1404ull, 0ull, 19ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn2DevSteal",
       {708429ull, 1ull, 345ull, 36ull,
        36ull, 0ull, 0ull, 6295ull,
        116ull, 9686ull, 1486ull, 250ull,
        0ull, 0ull, 183877ull, 0ull,
        875859ull, 8ull, 0ull, 2821ull,
        52ull, 176459ull, 534ull, 1415ull,
        514ull, 3ull, 0ull, 1492ull,
        1173ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 6273ull,
        177ull, 9658ull, 1596ull, 338ull,
        0ull, 0ull, 169994ull, 0ull,
        860052ull, 8ull, 0ull, 2606ull,
        49ull, 160926ull, 560ull, 1500ull,
        543ull, 39ull, 0ull, 1840ull,
        1404ull, 0ull, 19ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn4DevOwnerOnly",
       {710449ull, 1ull, 346ull, 82ull,
        82ull, 0ull, 0ull, 6366ull,
        74ull, 8109ull, 728ull, 197ull,
        0ull, 0ull, 194705ull, 0ull,
        876726ull, 8ull, 0ull, 2995ull,
        16ull, 188784ull, 266ull, 681ull,
        254ull, 0ull, 0ull, 1166ull,
        922ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 6411ull,
        148ull, 8048ull, 840ull, 315ull,
        0ull, 0ull, 184020ull, 0ull,
        817689ull, 8ull, 0ull, 2829ull,
        11ull, 176055ull, 289ull, 742ull,
        258ull, 5ull, 0ull, 1273ull,
        863ull, 0ull, 28ull, 0ull,
        0ull, 0ull, 0ull, 6471ull,
        145ull, 8037ull, 827ull, 271ull,
        0ull, 0ull, 186742ull, 0ull,
        792747ull, 8ull, 0ull, 2871ull,
        9ull, 179059ull, 286ull, 735ull,
        257ull, 7ull, 0ull, 1034ull,
        669ull, 0ull, 31ull, 0ull,
        0ull, 0ull, 0ull, 6458ull,
        143ull, 8213ull, 853ull, 284ull,
        0ull, 0ull, 183693ull, 0ull,
        797388ull, 8ull, 0ull, 2824ull,
        29ull, 175912ull, 297ull, 773ull,
        286ull, 35ull, 0ull, 1121ull,
        756ull, 0ull, 12ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsAn4DevSteal",
       {767804ull, 1ull, 374ull, 1940ull,
        2614ull, 674ull, 0ull, 6705ull,
        274ull, 10046ull, 1125ull, 651ull,
        0ull, 0ull, 178615ull, 0ull,
        1037343ull, 8ull, 0ull, 2733ull,
        0ull, 165375ull, 716ull, 1389ull,
        253ull, 0ull, 0ull, 3181ull,
        2281ull, 0ull, 718ull, 0ull,
        0ull, 0ull, 0ull, 6783ull,
        310ull, 9364ull, 1454ull, 674ull,
        0ull, 0ull, 174927ull, 0ull,
        979713ull, 8ull, 0ull, 2675ull,
        32ull, 160355ull, 899ull, 1176ull,
        259ull, 6ull, 0ull, 3007ull,
        2071ull, 0ull, 463ull, 0ull,
        0ull, 0ull, 0ull, 6911ull,
        279ull, 9376ull, 1447ull, 507ull,
        0ull, 0ull, 181895ull, 0ull,
        939315ull, 8ull, 0ull, 2783ull,
        33ull, 168615ull, 898ull, 1143ull,
        268ull, 24ull, 0ull, 2413ull,
        1685ull, 0ull, 410ull, 0ull,
        0ull, 0ull, 0ull, 6401ull,
        254ull, 9034ull, 1756ull, 693ull,
        0ull, 0ull, 176910ull, 0ull,
        1187079ull, 8ull, 0ull, 2703ull,
        68ull, 162972ull, 1171ull, 1117ull,
        289ull, 41ull, 0ull, 4071ull,
        3153ull, 0ull, 349ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan1DevOwnerOnly",
       {599976ull, 1ull, 292ull, 0ull,
        0ull, 0ull, 0ull, 5438ull,
        175ull, 31076ull, 3265ull, 0ull,
        0ull, 0ull, 3858ull, 194ull,
        549600ull, 8ull, 0ull, 2387ull,
        151148ull, 0ull, 1102ull, 2993ull,
        1101ull, 78ull, 0ull, 272ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan1DevSteal",
       {599976ull, 1ull, 292ull, 0ull,
        0ull, 0ull, 0ull, 5438ull,
        175ull, 31076ull, 3265ull, 0ull,
        0ull, 0ull, 3858ull, 194ull,
        549600ull, 8ull, 0ull, 2387ull,
        151148ull, 0ull, 1102ull, 2993ull,
        1101ull, 78ull, 0ull, 272ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan2DevOwnerOnly",
       {749255ull, 1ull, 365ull, 35ull,
        35ull, 0ull, 0ull, 7271ull,
        113ull, 39995ull, 1603ull, 0ull,
        0ull, 0ull, 2199ull, 122ull,
        789600ull, 8ull, 0ull, 3351ull,
        213412ull, 0ull, 538ull, 1428ull,
        519ull, 8ull, 0ull, 174ull,
        0ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 7281ull,
        100ull, 38472ull, 1771ull, 0ull,
        0ull, 0ull, 2357ull, 110ull,
        798720ull, 8ull, 0ull, 3383ull,
        215388ull, 0ull, 607ull, 1616ull,
        590ull, 86ull, 0ull, 156ull,
        0ull, 0ull, 18ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan2DevSteal",
       {749255ull, 1ull, 365ull, 35ull,
        35ull, 0ull, 0ull, 7271ull,
        113ull, 39995ull, 1603ull, 0ull,
        0ull, 0ull, 2199ull, 122ull,
        789600ull, 8ull, 0ull, 3351ull,
        213412ull, 0ull, 538ull, 1428ull,
        519ull, 8ull, 0ull, 174ull,
        0ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 7281ull,
        100ull, 38472ull, 1771ull, 0ull,
        0ull, 0ull, 2357ull, 110ull,
        798720ull, 8ull, 0ull, 3383ull,
        215388ull, 0ull, 607ull, 1616ull,
        590ull, 86ull, 0ull, 156ull,
        0ull, 0ull, 18ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan4DevOwnerOnly",
       {767840ull, 1ull, 374ull, 95ull,
        95ull, 0ull, 0ull, 7496ull,
        74ull, 39988ull, 798ull, 0ull,
        0ull, 0ull, 1389ull, 84ull,
        848160ull, 8ull, 0ull, 3576ull,
        228085ull, 0ull, 267ull, 681ull,
        254ull, 0ull, 0ull, 116ull,
        0ull, 0ull, 11ull, 0ull,
        0ull, 0ull, 0ull, 7503ull,
        79ull, 38529ull, 941ull, 0ull,
        0ull, 0ull, 1521ull, 84ull,
        848880ull, 8ull, 0ull, 3579ull,
        228228ull, 0ull, 314ull, 819ull,
        281ull, 28ull, 0ull, 121ull,
        0ull, 0ull, 32ull, 0ull,
        0ull, 0ull, 0ull, 7503ull,
        78ull, 38480ull, 990ull, 0ull,
        0ull, 0ull, 1579ull, 76ull,
        852720ull, 8ull, 0ull, 3592ull,
        229028ull, 0ull, 343ull, 873ull,
        306ull, 54ull, 0ull, 115ull,
        0ull, 0ull, 35ull, 0ull,
        0ull, 0ull, 0ull, 7512ull,
        77ull, 38219ull, 974ull, 0ull,
        0ull, 0ull, 1559ull, 82ull,
        847680ull, 8ull, 0ull, 3573ull,
        227833ull, 0ull, 327ull, 860ull,
        314ull, 63ull, 0ull, 118ull,
        0ull, 0ull, 17ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterBfsRfan4DevSteal",
       {749355ull, 1ull, 365ull, 1471ull,
        1964ull, 493ull, 0ull, 7299ull,
        182ull, 39353ull, 1266ull, 0ull,
        0ull, 0ull, 2776ull, 192ull,
        765120ull, 8ull, 0ull, 3284ull,
        208891ull, 0ull, 770ull, 1244ull,
        253ull, 0ull, 0ull, 278ull,
        0ull, 0ull, 574ull, 0ull,
        0ull, 0ull, 0ull, 7274ull,
        148ull, 38244ull, 1601ull, 0ull,
        0ull, 0ull, 2997ull, 168ull,
        784800ull, 8ull, 0ull, 3354ull,
        213176ull, 0ull, 964ull, 987ull,
        269ull, 15ull, 0ull, 233ull,
        0ull, 0ull, 238ull, 0ull,
        0ull, 0ull, 0ull, 7285ull,
        152ull, 37826ull, 1574ull, 0ull,
        0ull, 0ull, 2888ull, 158ull,
        786960ull, 8ull, 0ull, 3358ull,
        213500ull, 0ull, 895ull, 1087ull,
        304ull, 52ull, 0ull, 231ull,
        0ull, 0ull, 258ull, 0ull,
        0ull, 0ull, 0ull, 7326ull,
        153ull, 36815ull, 1032ull, 0ull,
        0ull, 0ull, 2059ull, 148ull,
        779280ull, 8ull, 0ull, 3322ull,
        211639ull, 0ull, 456ull, 1186ull,
        294ull, 44ull, 0ull, 227ull,
        0ull, 0ull, 401ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterSsspBase1DevOwnerOnly",
       {582810ull, 1ull, 284ull, 0ull,
        0ull, 0ull, 0ull, 4686ull,
        400ull, 14468ull, 5607ull, 32672ull,
        9984ull, 0ull, 0ull, 0ull,
        194160ull, 8ull, 0ull, 1022ull,
        486ull, 60631ull, 1168ull, 4439ull,
        1167ull, 768ull, 0ull, 33840ull,
        9984ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase1DevSteal",
       {582810ull, 1ull, 284ull, 0ull,
        0ull, 0ull, 0ull, 4686ull,
        400ull, 14468ull, 5607ull, 32672ull,
        9984ull, 0ull, 0ull, 0ull,
        194160ull, 8ull, 0ull, 1022ull,
        486ull, 60631ull, 1168ull, 4439ull,
        1167ull, 768ull, 0ull, 33840ull,
        9984ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase2DevOwnerOnly",
       {603890ull, 1ull, 294ull, 112ull,
        112ull, 0ull, 0ull, 5467ull,
        355ull, 9497ull, 2142ull, 25901ull,
        1774ull, 0ull, 100ull, 0ull,
        297840ull, 8ull, 0ull, 1426ull,
        76ull, 89601ull, 482ull, 1607ull,
        422ull, 223ull, 0ull, 26430ull,
        1774ull, 0ull, 53ull, 0ull,
        0ull, 0ull, 0ull, 5371ull,
        359ull, 11434ull, 3095ull, 24671ull,
        4139ull, 0ull, 106ull, 0ull,
        281760ull, 8ull, 0ull, 1354ull,
        164ull, 84225ull, 670ull, 2384ull,
        617ull, 420ull, 0ull, 25388ull,
        4139ull, 0ull, 59ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase2DevSteal",
       {603890ull, 1ull, 294ull, 112ull,
        112ull, 0ull, 0ull, 5467ull,
        355ull, 9497ull, 2142ull, 25901ull,
        1774ull, 0ull, 100ull, 0ull,
        297840ull, 8ull, 0ull, 1426ull,
        76ull, 89601ull, 482ull, 1607ull,
        422ull, 223ull, 0ull, 26430ull,
        1774ull, 0ull, 53ull, 0ull,
        0ull, 0ull, 0ull, 5371ull,
        359ull, 11434ull, 3095ull, 24671ull,
        4139ull, 0ull, 106ull, 0ull,
        281760ull, 8ull, 0ull, 1354ull,
        164ull, 84225ull, 670ull, 2384ull,
        617ull, 420ull, 0ull, 25388ull,
        4139ull, 0ull, 59ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase4DevOwnerOnly",
       {597682ull, 1ull, 291ull, 387ull,
        387ull, 0ull, 0ull, 5470ull,
        294ull, 7311ull, 1234ull, 23294ull,
        837ull, 0ull, 120ull, 0ull,
        399840ull, 8ull, 0ull, 1818ull,
        39ull, 115228ull, 303ull, 868ull,
        231ull, 132ull, 0ull, 23653ull,
        837ull, 0ull, 64ull, 0ull,
        0ull, 0ull, 0ull, 5451ull,
        414ull, 8131ull, 1769ull, 24099ull,
        1323ull, 0ull, 253ull, 0ull,
        320400ull, 8ull, 0ull, 1523ull,
        36ull, 96058ull, 428ull, 1234ull,
        300ull, 204ull, 0ull, 24643ull,
        1323ull, 0ull, 137ull, 0ull,
        0ull, 0ull, 0ull, 5419ull,
        366ull, 8044ull, 1652ull, 24063ull,
        1285ull, 0ull, 219ull, 0ull,
        358800ull, 8ull, 0ull, 1666ull,
        41ull, 105224ull, 410ull, 1119ull,
        274ull, 177ull, 0ull, 24576ull,
        1285ull, 0ull, 116ull, 0ull,
        0ull, 0ull, 0ull, 5556ull,
        312ull, 8017ull, 1547ull, 18039ull,
        940ull, 0ull, 129ull, 0ull,
        361200ull, 8ull, 0ull, 1656ull,
        28ull, 104762ull, 346ull, 1160ull,
        294ull, 195ull, 0ull, 18444ull,
        940ull, 0ull, 70ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspBase4DevSteal",
       {794357ull, 1ull, 387ull, 1734ull,
        2114ull, 380ull, 0ull, 7754ull,
        390ull, 10543ull, 1912ull, 37782ull,
        2835ull, 0ull, 301ull, 0ull,
        582000ull, 8ull, 0ull, 2628ull,
        47ull, 165961ull, 680ull, 1278ull,
        225ull, 126ull, 0ull, 38567ull,
        2835ull, 0ull, 485ull, 0ull,
        0ull, 0ull, 0ull, 7824ull,
        472ull, 11037ull, 1744ull, 34689ull,
        1465ull, 0ull, 409ull, 0ull,
        532560ull, 8ull, 0ull, 2435ull,
        16ull, 154273ull, 505ull, 1527ull,
        264ull, 167ull, 0ull, 35345ull,
        1465ull, 0ull, 561ull, 0ull,
        0ull, 0ull, 0ull, 7759ull,
        442ull, 10811ull, 1818ull, 36395ull,
        1583ull, 0ull, 335ull, 0ull,
        562800ull, 8ull, 0ull, 2561ull,
        35ull, 162221ull, 528ull, 1395ull,
        262ull, 164ull, 0ull, 37055ull,
        1583ull, 0ull, 415ull, 0ull,
        0ull, 0ull, 0ull, 7514ull,
        408ull, 10835ull, 3791ull, 42079ull,
        8554ull, 0ull, 221ull, 0ull,
        541440ull, 8ull, 0ull, 2474ull,
        48ull, 153079ull, 1457ull, 1419ull,
        304ull, 207ull, 0ull, 43624ull,
        8554ull, 0ull, 273ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn1DevOwnerOnly",
       {501370ull, 1ull, 244ull, 0ull,
        0ull, 0ull, 0ull, 3792ull,
        77ull, 9060ull, 2754ull, 208ull,
        0ull, 0ull, 106849ull, 0ull,
        645258ull, 8ull, 0ull, 1633ull,
        40ull, 101464ull, 721ull, 2715ull,
        720ull, 321ull, 0ull, 1693ull,
        1446ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn1DevSteal",
       {501370ull, 1ull, 244ull, 0ull,
        0ull, 0ull, 0ull, 3792ull,
        77ull, 9060ull, 2754ull, 208ull,
        0ull, 0ull, 106849ull, 0ull,
        645258ull, 8ull, 0ull, 1633ull,
        40ull, 101464ull, 721ull, 2715ull,
        720ull, 321ull, 0ull, 1693ull,
        1446ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn2DevOwnerOnly",
       {593744ull, 1ull, 289ull, 86ull,
        86ull, 0ull, 0ull, 4821ull,
        149ull, 8351ull, 1504ull, 399ull,
        0ull, 0ull, 130818ull, 0ull,
        757809ull, 8ull, 0ull, 2008ull,
        32ull, 122912ull, 413ull, 1384ull,
        364ull, 165ull, 0ull, 2132ull,
        1623ull, 0ull, 38ull, 0ull,
        0ull, 0ull, 0ull, 4992ull,
        173ull, 8331ull, 1566ull, 357ull,
        0ull, 0ull, 127661ull, 0ull,
        672231ull, 8ull, 0ull, 1959ull,
        26ull, 119846ull, 411ull, 1453ull,
        373ull, 174ull, 0ull, 1697ull,
        1217ull, 0ull, 48ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn2DevSteal",
       {593744ull, 1ull, 289ull, 86ull,
        86ull, 0ull, 0ull, 4821ull,
        149ull, 8351ull, 1504ull, 399ull,
        0ull, 0ull, 130818ull, 0ull,
        757809ull, 8ull, 0ull, 2008ull,
        32ull, 122912ull, 413ull, 1384ull,
        364ull, 165ull, 0ull, 2132ull,
        1623ull, 0ull, 38ull, 0ull,
        0ull, 0ull, 0ull, 4992ull,
        173ull, 8331ull, 1566ull, 357ull,
        0ull, 0ull, 127661ull, 0ull,
        672231ull, 8ull, 0ull, 1959ull,
        26ull, 119846ull, 411ull, 1453ull,
        373ull, 174ull, 0ull, 1697ull,
        1217ull, 0ull, 48ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn4DevOwnerOnly",
       {595772ull, 1ull, 290ull, 257ull,
        257ull, 0ull, 0ull, 5008ull,
        110ull, 6600ull, 761ull, 314ull,
        0ull, 0ull, 144906ull, 0ull,
        707244ull, 8ull, 0ull, 2230ull,
        19ull, 138541ull, 225ull, 671ull,
        181ull, 82ull, 0ull, 1425ull,
        1028ull, 0ull, 36ull, 0ull,
        0ull, 0ull, 0ull, 5107ull,
        190ull, 6859ull, 877ull, 370ull,
        0ull, 0ull, 134031ull, 0ull,
        627024ull, 8ull, 0ull, 2060ull,
        4ull, 125884ull, 258ull, 737ull,
        182ull, 83ull, 0ull, 1364ull,
        848ull, 0ull, 82ull, 0ull,
        0ull, 0ull, 0ull, 5070ull,
        205ull, 6648ull, 886ull, 435ull,
        0ull, 0ull, 132661ull, 0ull,
        626745ull, 8ull, 0ull, 2039ull,
        24ull, 123625ull, 273ull, 700ull,
        171ull, 73ull, 0ull, 1490ull,
        895ull, 0ull, 76ull, 0ull,
        0ull, 0ull, 0ull, 5254ull,
        201ull, 7318ull, 1071ull, 293ull,
        0ull, 0ull, 127112ull, 0ull,
        560694ull, 8ull, 0ull, 1953ull,
        11ull, 119352ull, 275ull, 959ull,
        239ull, 140ull, 0ull, 1050ull,
        618ull, 0ull, 63ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspAn4DevSteal",
       {794463ull, 1ull, 387ull, 1540ull,
        1885ull, 345ull, 0ull, 7178ull,
        195ull, 9792ull, 912ull, 497ull,
        0ull, 0ull, 199626ull, 0ull,
        1023708ull, 8ull, 0ull, 3065ull,
        12ull, 189300ull, 422ull, 1159ull,
        181ull, 82ull, 0ull, 2381ull,
        1716ull, 0ull, 524ull, 0ull,
        0ull, 0ull, 0ull, 7332ull,
        308ull, 10354ull, 1158ull, 584ull,
        0ull, 0ull, 185368ull, 0ull,
        899007ull, 8ull, 0ull, 2843ull,
        15ull, 173041ull, 422ull, 1283ull,
        224ull, 125ull, 0ull, 2209ull,
        1369ull, 0ull, 475ull, 0ull,
        0ull, 0ull, 0ull, 7064ull,
        281ull, 9756ull, 1207ull, 752ull,
        0ull, 0ull, 185387ull, 0ull,
        1014426ull, 8ull, 0ull, 2843ull,
        15ull, 171954ull, 496ull, 1224ull,
        214ull, 116ull, 0ull, 3015ull,
        2022ull, 0ull, 439ull, 0ull,
        0ull, 0ull, 0ull, 7041ull,
        324ull, 10101ull, 2496ull, 592ull,
        0ull, 0ull, 167046ull, 0ull,
        1049757ull, 8ull, 0ull, 2546ull,
        10ull, 152311ull, 1464ull, 1206ull,
        299ull, 200ull, 0ull, 3447ull,
        2619ull, 0ull, 102ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan1DevOwnerOnly",
       {509761ull, 1ull, 248ull, 0ull,
        0ull, 0ull, 0ull, 4400ull,
        102ull, 25960ull, 2875ull, 0ull,
        0ull, 0ull, 2584ull, 120ull,
        442560ull, 8ull, 0ull, 1904ull,
        120623ull, 0ull, 721ull, 2713ull,
        720ull, 321ull, 0ull, 162ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan1DevSteal",
       {509761ull, 1ull, 248ull, 0ull,
        0ull, 0ull, 0ull, 4400ull,
        102ull, 25960ull, 2875ull, 0ull,
        0ull, 0ull, 2584ull, 120ull,
        442560ull, 8ull, 0ull, 1904ull,
        120623ull, 0ull, 721ull, 2713ull,
        720ull, 321ull, 0ull, 162ull,
        0ull, 0ull, 0ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan2DevOwnerOnly",
       {626527ull, 1ull, 305ull, 97ull,
        97ull, 0ull, 0ull, 5838ull,
        110ull, 30989ull, 1763ull, 0ull,
        0ull, 0ull, 1952ull, 104ull,
        604080ull, 8ull, 0ull, 2569ull,
        163433ull, 0ull, 471ull, 1598ull,
        420ull, 221ull, 0ull, 162ull,
        0ull, 0ull, 47ull, 0ull,
        0ull, 0ull, 0ull, 5828ull,
        116ull, 31904ull, 2649ull, 0ull,
        0ull, 0ull, 2553ull, 110ull,
        600960ull, 8ull, 0ull, 2559ull,
        162569ull, 0ull, 695ull, 2481ull,
        648ull, 451ull, 0ull, 171ull,
        0ull, 0ull, 50ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan2DevSteal",
       {626527ull, 1ull, 305ull, 97ull,
        97ull, 0ull, 0ull, 5838ull,
        110ull, 30989ull, 1763ull, 0ull,
        0ull, 0ull, 1952ull, 104ull,
        604080ull, 8ull, 0ull, 2569ull,
        163433ull, 0ull, 471ull, 1598ull,
        420ull, 221ull, 0ull, 162ull,
        0ull, 0ull, 47ull, 0ull,
        0ull, 0ull, 0ull, 5828ull,
        116ull, 31904ull, 2649ull, 0ull,
        0ull, 0ull, 2553ull, 110ull,
        600960ull, 8ull, 0ull, 2559ull,
        162569ull, 0ull, 695ull, 2481ull,
        648ull, 451ull, 0ull, 171ull,
        0ull, 0ull, 50ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan4DevOwnerOnly",
       {646929ull, 1ull, 315ull, 336ull,
        336ull, 0ull, 0ull, 6093ull,
        90ull, 29252ull, 840ull, 0ull,
        0ull, 0ull, 1305ull, 88ull,
        661440ull, 8ull, 0ull, 2800ull,
        178446ull, 0ull, 242ull, 696ull,
        187ull, 88ull, 0ull, 134ull,
        0ull, 0ull, 44ull, 0ull,
        0ull, 0ull, 0ull, 6097ull,
        127ull, 29218ull, 1135ull, 0ull,
        0ull, 0ull, 1631ull, 96ull,
        645360ull, 8ull, 0ull, 2737ull,
        174321ull, 0ull, 335ull, 972ull,
        240ull, 142ull, 0ull, 175ull,
        0ull, 0ull, 107ull, 0ull,
        0ull, 0ull, 0ull, 6080ull,
        113ull, 30127ull, 1206ull, 0ull,
        0ull, 0ull, 1712ull, 88ull,
        657600ull, 8ull, 0ull, 2784ull,
        177284ull, 0ull, 380ull, 1027ull,
        250ull, 153ull, 0ull, 157ull,
        0ull, 0ull, 108ull, 0ull,
        0ull, 0ull, 0ull, 6092ull,
        98ull, 30200ull, 1473ull, 0ull,
        0ull, 0ull, 1746ull, 88ull,
        652320ull, 8ull, 0ull, 2762ull,
        175863ull, 0ull, 393ull, 1351ull,
        336ull, 237ull, 0ull, 142ull,
        0ull, 0ull, 77ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterSsspRfan4DevSteal",
       {847632ull, 1ull, 413ull, 1761ull,
        2173ull, 412ull, 0ull, 8533ull,
        190ull, 44525ull, 1324ull, 0ull,
        0ull, 0ull, 2584ull, 176ull,
        877200ull, 8ull, 0ull, 3743ull,
        238308ull, 0ull, 732ull, 1187ull,
        182ull, 83ull, 0ull, 278ull,
        0ull, 0ull, 547ull, 0ull,
        0ull, 0ull, 0ull, 8544ull,
        186ull, 41704ull, 1108ull, 0ull,
        0ull, 0ull, 1940ull, 144ull,
        888960ull, 8ull, 0ull, 3776ull,
        240745ull, 0ull, 407ull, 1206ull,
        207ull, 109ull, 0ull, 258ull,
        0ull, 0ull, 459ull, 0ull,
        0ull, 0ull, 0ull, 8535ull,
        178ull, 41053ull, 1132ull, 0ull,
        0ull, 0ull, 2060ull, 168ull,
        900720ull, 8ull, 0ull, 3837ull,
        244560ull, 0ull, 496ull, 1093ull,
        171ull, 73ull, 0ull, 262ull,
        0ull, 0ull, 444ull, 0ull,
        0ull, 0ull, 0ull, 8464ull,
        176ull, 42869ull, 2130ull, 0ull,
        0ull, 0ull, 3699ull, 212ull,
        914160ull, 8ull, 0ull, 3915ull,
        248735ull, 0ull, 1313ull, 1128ull,
        214ull, 115ull, 0ull, 282ull,
        0ull, 0ull, 311ull, 0ull,
        0ull, 0ull, 0ull, 13581292894835281530ull}},
      {"ClusterBfsBase4DevStealXfer4",
       {890562ull, 1ull, 434ull, 1659ull,
        2230ull, 571ull, 0ull, 8801ull,
        558ull, 11312ull, 1710ull, 54073ull,
        2919ull, 0ull, 389ull, 0ull,
        675600ull, 8ull, 0ull, 3073ull,
        39ull, 194406ull, 671ull, 1267ull,
        256ull, 2ull, 0ull, 54896ull,
        2919ull, 1257ull, 588ull, 0ull,
        0ull, 0ull, 0ull, 8826ull,
        503ull, 11007ull, 1812ull, 45887ull,
        2594ull, 0ull, 292ull, 0ull,
        709920ull, 8ull, 0ull, 3213ull,
        32ull, 203379ull, 684ull, 1153ull,
        264ull, 12ull, 0ull, 46686ull,
        2594ull, 1489ull, 419ull, 0ull,
        0ull, 0ull, 0ull, 8704ull,
        481ull, 11213ull, 2291ull, 43583ull,
        4320ull, 0ull, 272ull, 0ull,
        735120ull, 8ull, 0ull, 3303ull,
        25ull, 208274ull, 899ull, 1161ull,
        297ull, 48ull, 0ull, 44592ull,
        4320ull, 306ull, 358ull, 0ull,
        0ull, 0ull, 0ull, 8471ull,
        466ull, 10936ull, 2629ull, 55912ull,
        5080ull, 0ull, 203ull, 0ull,
        712560ull, 8ull, 0ull, 3236ull,
        29ull, 203485ull, 1083ull, 1066ull,
        289ull, 41ull, 0ull, 57076ull,
        5080ull, 417ull, 294ull, 0ull,
        0ull, 0ull, 0ull, 11286561016657162771ull}},
      {"ClusterSsspRfan4DevStealXfer4",
       {952101ull, 1ull, 464ull, 1011ull,
        1213ull, 202ull, 0ull, 9819ull,
        207ull, 48144ull, 1157ull, 0ull,
        0ull, 0ull, 2033ull, 164ull,
        1031520ull, 8ull, 0ull, 4392ull,
        280029ull, 0ull, 512ull, 860ull,
        177ull, 78ull, 0ull, 260ull,
        0ull, 100ull, 241ull, 0ull,
        0ull, 0ull, 0ull, 9829ull,
        217ull, 46367ull, 1073ull, 0ull,
        0ull, 0ull, 1762ull, 160ull,
        1030800ull, 8ull, 0ull, 4388ull,
        279916ull, 0ull, 342ull, 1000ull,
        197ull, 99ull, 0ull, 270ull,
        0ull, 108ull, 289ull, 0ull,
        0ull, 0ull, 0ull, 9812ull,
        203ull, 46119ull, 1055ull, 0ull,
        0ull, 0ull, 1753ull, 174ull,
        1043280ull, 8ull, 0ull, 4441ull,
        283292ull, 0ull, 358ull, 921ull,
        176ull, 78ull, 0ull, 274ull,
        0ull, 76ull, 270ull, 0ull,
        0ull, 0ull, 0ull, 9708ull,
        233ull, 49882ull, 1808ull, 0ull,
        0ull, 0ull, 2754ull, 264ull,
        1050480ull, 8ull, 0ull, 4525ull,
        288086ull, 0ull, 812ull, 1186ull,
        260ull, 168ull, 0ull, 322ull,
        0ull, 305ull, 211ull, 0ull,
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

}  // namespace
}  // namespace scq
