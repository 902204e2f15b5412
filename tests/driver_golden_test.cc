// Golden pins for the single-device front-ends (run_pt_bfs,
// run_pt_sssp, run_pt_sssp_delta, and the task-framework workloads on
// run_task_graph): each configuration runs at seed 0 and must
// reproduce, exactly, the simulated cycle count, the attempt count,
// every DeviceStats field and a hash of the output.
//
// The pins hold the *schedule*, not just the answer: a refactor of the
// work loop, the attempt harness or a client that reorders one memory
// operation shows up here as a cycle or counter diff. Regenerate a row
// only for an intended schedule change — a failing row prints its
// replacement in source form.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

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

// cycles, attempts, the 12 scalar DeviceStats fields, the 16 user
// counters, output hash.
constexpr std::size_t kFields = 2 + 12 + 16 + 1;
using Fingerprint = std::array<std::uint64_t, kFields>;

const char* const kScalarNames[] = {
    "global_loads", "global_stores",  "lines_touched", "afa_ops",
    "cas_attempts", "cas_failures",   "xchg_ops",      "lds_ops",
    "compute_cycles", "idle_cycles",  "waves_completed", "kernel_launches"};

std::string field_name(std::size_t i) {
  if (i == 0) return "cycles";
  if (i == 1) return "attempts";
  if (i < 14) return kScalarNames[i - 2];
  if (i < 30) return "user[" + std::to_string(i - 14) + "]";
  return "output_hash";
}

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

Fingerprint fingerprint(const simt::RunResult& run, std::uint32_t attempts,
                        std::uint64_t output_hash) {
  const simt::DeviceStats& s = run.stats;
  Fingerprint f{run.cycles,       attempts,        s.global_loads,
                s.global_stores,  s.lines_touched, s.afa_ops,
                s.cas_attempts,   s.cas_failures,  s.xchg_ops,
                s.lds_ops,        s.compute_cycles, s.idle_cycles,
                s.waves_completed, s.kernel_launches};
  for (std::size_t i = 0; i < s.user.size(); ++i) f[14 + i] = s.user[i];
  f[kFields - 1] = output_hash;
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
  return out;
}

// ---- Pins (seed 0; regenerate only for an intended schedule change) ----

const std::map<std::string, Fingerprint>& pins() {
  static const std::map<std::string, Fingerprint> kPins = {
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
  };
  return kPins;
}

std::string source_row(const std::string& name, const Fingerprint& f) {
  std::ostringstream os;
  os << "      {\"" << name << "\",\n       {";
  for (std::size_t i = 0; i < f.size(); ++i) {
    os << f[i] << "ull";
    if (i + 1 < f.size()) os << ((i + 1) % 4 == 0 ? ",\n        " : ", ");
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
                              << source_row(c.name, got);
  bool same = true;
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(got[i], it->second[i]) << c.name << ": " << field_name(i);
    same &= got[i] == it->second[i];
  }
  if (!same) ADD_FAILURE() << "measured row:\n" << source_row(c.name, got);
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, DriverGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& i) { return i.param.name; });

}  // namespace
}  // namespace scq
