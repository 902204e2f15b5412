// Cluster runtime integration tests: multi-device BFS/SSSP validated
// against the serial references across device counts, scheduler
// variants, partition and balance policies; bit-exact determinism; the
// 1-device degeneration contract; ring residency under router
// injection; telemetry / task-trace namespacing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "bfs/cluster_bfs.h"
#include "bfs/pt_bfs.h"
#include "cluster/transfer.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"
#include "sim/task_trace.h"
#include "sim/telemetry.h"

namespace scq::bfs {
namespace {

simt::DeviceConfig small_device() {
  simt::DeviceConfig cfg = simt::spectre_config();
  cfg.name = "small";
  cfg.num_cus = 4;
  cfg.waves_per_cu = 2;
  return cfg;
}

graph::Graph make_graph(const std::string& family) {
  if (family == "kary") return graph::synthetic_kary(2000, 4);
  if (family == "rmat") {
    graph::RmatParams p;
    p.n_vertices = 1024;
    p.n_edges = 8192;
    return graph::rmat(p);
  }
  if (family == "star") {
    std::vector<graph::Edge> edges;
    for (graph::Vertex v = 1; v < 300; ++v) edges.emplace_back(0, v);
    return graph::Graph::from_edges(300, edges);
  }
  if (family == "line") {
    std::vector<graph::Edge> edges;
    for (graph::Vertex v = 0; v + 1 < 200; ++v) edges.emplace_back(v, v + 1);
    return graph::Graph::from_edges(200, edges);
  }
  throw std::invalid_argument("unknown family " + family);
}

// ---- Correctness across device counts and graph families ----

class ClusterBfsCorrectness
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::string>> {
};

TEST_P(ClusterBfsCorrectness, MatchesSerialReference) {
  const auto& [devices, family] = GetParam();
  const graph::Graph g = make_graph(family);
  const auto ref = graph::bfs_levels(g, 0);

  ClusterBfsOptions opt;
  opt.num_devices = devices;
  const ClusterBfsResult result = run_cluster_bfs(small_device(), g, 0, opt);

  ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
  EXPECT_TRUE(matches_reference(result.levels, ref))
      << first_mismatch(result.levels, ref);
  EXPECT_GT(result.run.cycles, 0u);
  EXPECT_GT(result.run.supersteps, 0u);
  if (devices > 1 && family != "star") {
    // Multi-device runs on non-trivial graphs must actually transfer
    // work (the star's non-hub vertices own no out-edges, so candidate
    // counts depend on where the hub lands — skip the assertion there).
    EXPECT_GT(result.run.router.delivered, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ClusterBfsCorrectness,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values("kary", "rmat", "star", "line")),
    [](const auto& pinfo) {
      return "d" + std::to_string(std::get<0>(pinfo.param)) + "_" +
             std::get<1>(pinfo.param);
    });

// ---- Every supported scheduler variant drives the cluster ----

class ClusterVariants : public ::testing::TestWithParam<QueueVariant> {};

TEST_P(ClusterVariants, TwoDevicesMatchReference) {
  const graph::Graph g = make_graph("rmat");
  const auto ref = graph::bfs_levels(g, 0);

  ClusterBfsOptions opt;
  opt.num_devices = 2;
  opt.variant = GetParam();
  const ClusterBfsResult result = run_cluster_bfs(small_device(), g, 0, opt);

  ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
  EXPECT_TRUE(matches_reference(result.levels, ref))
      << first_mismatch(result.levels, ref);
}

INSTANTIATE_TEST_SUITE_P(Variants, ClusterVariants,
                         ::testing::Values(QueueVariant::kBase,
                                           QueueVariant::kAn,
                                           QueueVariant::kRfan),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case QueueVariant::kBase: return "BASE";
                             case QueueVariant::kAn: return "AN";
                             default: return "RFAN";
                           }
                         });

// ---- Partition policies and the steal balancer ----

TEST(ClusterTest, AllPartitionPoliciesProduceCorrectLevels) {
  const graph::Graph g = make_graph("kary");
  const auto ref = graph::bfs_levels(g, 0);
  for (auto policy : {graph::PartitionPolicy::kBlock,
                      graph::PartitionPolicy::kRoundRobin,
                      graph::PartitionPolicy::kDegreeBalanced}) {
    ClusterBfsOptions opt;
    opt.num_devices = 2;
    opt.partition = policy;
    const ClusterBfsResult result = run_cluster_bfs(small_device(), g, 0, opt);
    ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
    EXPECT_TRUE(matches_reference(result.levels, ref))
        << "policy " << graph::to_string(policy) << ": "
        << first_mismatch(result.levels, ref);
  }
}

TEST(ClusterTest, StealPolicyStaysExact) {
  // The star graph under a block partition is maximally skewed: the
  // hub's owner discovers every other vertex. Stealing may relocate
  // enumerations but must never change the result.
  for (const char* family : {"star", "rmat"}) {
    const graph::Graph g = make_graph(family);
    const auto ref = graph::bfs_levels(g, 0);
    ClusterBfsOptions opt;
    opt.num_devices = 4;
    opt.balance = cluster::BalancePolicy::kSteal;
    opt.steal_trigger = 1.5;
    const ClusterBfsResult result = run_cluster_bfs(small_device(), g, 0, opt);
    ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
    EXPECT_TRUE(matches_reference(result.levels, ref))
        << family << ": " << first_mismatch(result.levels, ref);
  }
}

TEST(ClusterTest, StealPriorityStaysExactAndOrdersByCost) {
  // Priority-aware stealing on a weighted skewed graph: the thief gets
  // the lowest-cost candidates and injection is cost-ordered, but the
  // distances must still be exact (same ownership/authority protocol).
  for (const char* family : {"star", "rmat"}) {
    graph::Graph g = graph::with_random_weights(make_graph(family), 19);
    const auto ref = graph::dijkstra(g, 0);
    ClusterBfsOptions opt;
    opt.num_devices = 4;
    opt.balance = cluster::BalancePolicy::kStealPriority;
    opt.steal_trigger = 1.5;
    const ClusterSsspResult result = run_cluster_sssp(small_device(), g, 0, opt);
    ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
    EXPECT_EQ(result.dist, ref) << family;
    // Re-runs stay bit-exact: the cost-order sort is stable, so the
    // deterministic arrival order breaks ties deterministically.
    const ClusterSsspResult again =
        run_cluster_sssp(small_device(), g, 0, opt);
    EXPECT_EQ(again.run.cycles, result.run.cycles) << family;
    EXPECT_EQ(again.run.router.stolen, result.run.router.stolen) << family;
  }
}

TEST(ClusterTest, BalancePolicyNamesRoundTrip) {
  using cluster::BalancePolicy;
  for (const BalancePolicy p :
       {BalancePolicy::kOwnerOnly, BalancePolicy::kSteal,
        BalancePolicy::kStealPriority}) {
    EXPECT_EQ(cluster::balance_policy_from_string(
                  std::string(cluster::to_string(p))),
              p);
  }
  EXPECT_THROW(static_cast<void>(cluster::balance_policy_from_string("bogus")),
               std::invalid_argument);
}

// ---- 1-device degeneration ----

TEST(ClusterTest, SingleDeviceClusterMatchesPtBfs) {
  for (const char* family : {"kary", "rmat", "line"}) {
    const graph::Graph g = make_graph(family);
    const BfsResult single = run_pt_bfs(small_device(), g, 0, {});
    ASSERT_FALSE(single.run.aborted);

    ClusterBfsOptions opt;
    opt.num_devices = 1;
    const ClusterBfsResult clustered =
        run_cluster_bfs(small_device(), g, 0, opt);
    ASSERT_FALSE(clustered.run.aborted) << clustered.run.abort_reason;
    EXPECT_EQ(clustered.levels, single.levels) << family;
    EXPECT_EQ(clustered.run.router.delivered, 0u);
    EXPECT_EQ(clustered.cut_edges, 0u);
  }
}

// ---- Bit-exact determinism ----

TEST(ClusterTest, ReRunsAreBitExact) {
  const graph::Graph g = make_graph("rmat");
  for (std::uint32_t devices : {2u, 4u}) {
    ClusterBfsOptions opt;
    opt.num_devices = devices;
    const ClusterBfsResult a = run_cluster_bfs(small_device(), g, 0, opt);
    const ClusterBfsResult b = run_cluster_bfs(small_device(), g, 0, opt);
    ASSERT_FALSE(a.run.aborted) << a.run.abort_reason;
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.supersteps, b.run.supersteps);
    EXPECT_EQ(a.run.router.delivered, b.run.router.delivered);
    EXPECT_EQ(a.run.router.stolen, b.run.router.stolen);
    ASSERT_EQ(a.run.device_runs.size(), b.run.device_runs.size());
    for (std::size_t d = 0; d < a.run.device_runs.size(); ++d) {
      EXPECT_EQ(a.run.device_runs[d].cycles, b.run.device_runs[d].cycles);
    }
  }
}

// ---- SSSP ----

TEST(ClusterTest, SsspMatchesDijkstra) {
  graph::Graph g = make_graph("rmat");
  g = graph::with_random_weights(g, /*seed=*/7);
  const auto ref = graph::dijkstra(g, 0);
  for (std::uint32_t devices : {2u, 4u}) {
    ClusterBfsOptions opt;
    opt.num_devices = devices;
    const ClusterSsspResult result = run_cluster_sssp(small_device(), g, 0, opt);
    ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
    ASSERT_EQ(result.dist.size(), ref.size());
    for (std::size_t v = 0; v < ref.size(); ++v) {
      ASSERT_EQ(result.dist[v], ref[v]) << "vertex " << v;
    }
  }
}

TEST(ClusterTest, SsspReRunsAreBitExact) {
  graph::Graph g = make_graph("kary");
  g = graph::with_random_weights(g, /*seed=*/3);
  ClusterBfsOptions opt;
  opt.num_devices = 2;
  const ClusterSsspResult a = run_cluster_sssp(small_device(), g, 0, opt);
  const ClusterSsspResult b = run_cluster_sssp(small_device(), g, 0, opt);
  ASSERT_FALSE(a.run.aborted) << a.run.abort_reason;
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(a.run.supersteps, b.run.supersteps);
}

// ---- Observability namespacing ----

TEST(ClusterTest, TelemetryIsDevicePrefixedOnlyWhenMultiDevice) {
  const graph::Graph g = make_graph("kary");

  simt::Telemetry multi(simt::Telemetry::Options{.window_cycles = 256});
  ClusterBfsOptions opt;
  opt.num_devices = 2;
  opt.telemetry = &multi;
  const ClusterBfsResult r2 = run_cluster_bfs(small_device(), g, 0, opt);
  ASSERT_FALSE(r2.run.aborted);

  bool dev0 = false, dev1 = false, unprefixed = false;
  for (const auto& [name, hist] : multi.histograms()) {
    dev0 |= name.starts_with("dev0.");
    dev1 |= name.starts_with("dev1.");
    unprefixed |= !name.starts_with("dev");
  }
  // The router and imbalance windows describe the whole cluster and
  // stay on the unprefixed sink; every device series is namespaced.
  for (const std::string& name : multi.windows().series_names()) {
    dev0 |= name.starts_with("dev0.");
    dev1 |= name.starts_with("dev1.");
    unprefixed |= !name.starts_with("dev") && !name.starts_with("router.") &&
                  !name.starts_with("cluster.");
  }
  EXPECT_TRUE(dev0);
  EXPECT_TRUE(dev1);
  EXPECT_FALSE(unprefixed) << "multi-device metrics must all be namespaced";

  // Single-device cluster metrics keep the flat single-device names, so
  // existing dashboards and baselines diff clean.
  simt::Telemetry single(simt::Telemetry::Options{.window_cycles = 256});
  ClusterBfsOptions opt1;
  opt1.num_devices = 1;
  opt1.telemetry = &single;
  const ClusterBfsResult r1 = run_cluster_bfs(small_device(), g, 0, opt1);
  ASSERT_FALSE(r1.run.aborted);
  EXPECT_FALSE(single.windows().empty());
  for (const std::string& name : single.windows().series_names()) {
    EXPECT_FALSE(name.starts_with("dev")) << name;
  }
}

TEST(ClusterTest, TaskTraceTicketsAreNamespacedPerDevice) {
  const graph::Graph g = make_graph("kary");
  simt::TaskTrace trace;
  ClusterBfsOptions opt;
  opt.num_devices = 2;
  opt.task_trace = &trace;
  const ClusterBfsResult result = run_cluster_bfs(small_device(), g, 0, opt);
  ASSERT_FALSE(result.run.aborted);

  const auto events = trace.snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_dev0 = false, saw_dev1 = false;
  for (const auto& e : events) {
    const std::uint64_t ns = e.ticket >> simt::TaskTrace::kTicketNamespaceShift;
    ASSERT_LT(ns, 2u);
    saw_dev0 |= ns == 0;
    saw_dev1 |= ns == 1;
  }
  EXPECT_TRUE(saw_dev0);
  EXPECT_TRUE(saw_dev1);
}

// ---- Ring residency under router injection ----

// Lane 0 sends `count` tokens into `ring`, then the wave exits.
simt::Kernel<void> send_tokens(simt::Wave& w, const cluster::TransferRing& ring,
                               std::uint64_t count) {
  cluster::XferWaveState st{};
  for (std::uint64_t t = 0; t < count; ++t) st.push(0, 100 + t);
  co_await ring.publish(w, st);
}

TEST(ClusterTest, ResidentTokensMatchRingMemory) {
  // Router deliveries fill main-ring slots, so they must credit the
  // ring's resident count that every consuming poll debits; otherwise
  // the count wraps below zero in every multi-device run.
  const graph::Graph g = make_graph("kary");
  for (const std::uint32_t devices : {2u, 4u}) {
    simt::Telemetry telemetry(simt::Telemetry::Options{.window_cycles = 256});
    ClusterBfsOptions opt;
    opt.num_devices = devices;
    opt.queue_capacity = 1024;
    opt.telemetry = &telemetry;
    const ClusterBfsResult r = run_cluster_bfs(small_device(), g, 0, opt);
    ASSERT_FALSE(r.run.aborted) << r.run.abort_reason;
    ASSERT_EQ(r.attempts, 1u);
    EXPECT_GT(r.run.router.delivered, 0u);
    for (std::uint32_t d = 0; d < devices; ++d) {
      const std::string name =
          "dev" + std::to_string(d) + ".queue.resident_tokens";
      const auto& series = telemetry.windows().series(name);
      ASSERT_FALSE(series.empty()) << name;
      std::uint64_t peak = 0;
      for (const simt::WindowSample& s : series) peak = std::max(peak, s.value);
      EXPECT_LE(peak, opt.queue_capacity) << name;
      // The tail window is sampled at launch end, after quiescence,
      // when ring memory holds no token.
      EXPECT_EQ(series.back().value, 0u) << name;
    }
  }

  // The same accounting checked against ring memory while tokens sit in
  // the rings: device 0 holds one seeded token (which keeps the cluster
  // from quiescing early) and sends three to device 1, the barrier
  // injects them, and with no consumer anywhere the run stalls.
  cluster::ClusterOptions copt;
  copt.num_devices = 2;
  copt.queue_capacity = 64;
  copt.xfer_capacity = 16;
  cluster::Cluster cl(small_device(), copt);
  const std::uint64_t seed[] = {7};
  cl.queue(0).seed(cl.device(0), seed);
  const cluster::ClusterRun run = cl.run(
      [&cl](std::uint32_t d) -> simt::KernelFactory {
        if (d == 0) {
          return [&cl](simt::Wave& w) { return send_tokens(w, cl.ring(0, 1), 3); };
        }
        return [](simt::Wave&) -> simt::Kernel<void> { co_return; };
      },
      1);
  ASSERT_TRUE(run.aborted);
  EXPECT_EQ(run.router.delivered, 3u);
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_EQ(cl.queue(d).resident_tokens(cl.device(d)),
              cl.queue(d).resident_tokens_scan(cl.device(d)))
        << "dev" << d;
  }
  EXPECT_NE(run.abort_reason.find("dev0 occ=1 resident=1; dev1 occ=3 resident=3"),
            std::string::npos)
      << run.abort_reason;
}

// ---- Quiescence waits for the kernels to start ----

TEST(ClusterTest, NoQuiescenceVerdictBeforeKernelsStart) {
  // Regression: Spectre's launch overhead spans about 68 default quanta,
  // and the barriers before it saw an empty cluster — nothing seeded, no
  // wave run yet — and called it quiescent, so work a kernel creates as
  // it starts was never routed. Device 0 sends three tokens to device 1
  // as it starts and device 1's kernel exits at once: the router must
  // deliver all three, and with no consumer left the run must end as a
  // stall, not as a clean run.
  cluster::ClusterOptions copt;
  copt.num_devices = 2;
  copt.queue_capacity = 64;
  copt.xfer_capacity = 16;
  const simt::DeviceConfig config = simt::spectre_config();
  cluster::Cluster cl(config, copt);
  const cluster::ClusterRun run = cl.run(
      [&cl](std::uint32_t d) -> simt::KernelFactory {
        if (d == 0) {
          return [&cl](simt::Wave& w) { return send_tokens(w, cl.ring(0, 1), 3); };
        }
        return [](simt::Wave&) -> simt::Kernel<void> { co_return; };
      },
      1);
  EXPECT_GT(run.supersteps * copt.quantum, config.kernel_launch_overhead);
  EXPECT_EQ(run.router.drained, 3u);
  EXPECT_EQ(run.router.delivered, 3u);
  ASSERT_TRUE(run.aborted);
  EXPECT_NE(run.abort_reason.find("cluster stalled"), std::string::npos)
      << run.abort_reason;
}

// ---- Option validation ----

TEST(ClusterTest, RejectsInvalidOptions) {
  const graph::Graph g = make_graph("line");
  ClusterBfsOptions opt;
  opt.num_devices = 0;
  EXPECT_THROW(run_cluster_bfs(small_device(), g, 0, opt), simt::SimError);
  opt.num_devices = 2;
  opt.variant = QueueVariant::kStack;
  EXPECT_THROW(run_cluster_bfs(small_device(), g, 0, opt), simt::SimError);
  opt = {};
  EXPECT_THROW(run_cluster_bfs(small_device(), g, g.num_vertices(), opt),
               simt::SimError);
  // A zero quantum never advances the superstep horizon.
  opt.quantum = 0;
  EXPECT_THROW(run_cluster_bfs(small_device(), g, 0, opt), simt::SimError);
  opt = {};
  opt.work_budget = 0;
  EXPECT_THROW(run_cluster_bfs(small_device(), g, 0, opt), simt::SimError);
}

// ---- Stall detection (drained != dead != quiescent) ----

TEST(ClusterTest, AllDrainedBeforeQuiescenceReportsStall) {
  // Regression: the superstep loop used to fold "event queue drained"
  // and "device dead" into one boolean, so a cluster whose kernels all
  // returned while tokens were still outstanding spun forever (or was
  // misread as dead). Seed one token nobody will ever consume and run
  // kernels that exit immediately: every device drains, the cluster is
  // not quiescent, and the run must come back as an explicit stall.
  cluster::ClusterOptions opt;
  opt.num_devices = 2;
  opt.queue_capacity = 64;
  opt.xfer_capacity = 16;
  cluster::Cluster cl(small_device(), opt);
  const std::uint64_t tokens[] = {0};
  cl.queue(0).seed(cl.device(0), tokens);

  const cluster::ClusterRun run = cl.run(
      [](std::uint32_t) -> simt::KernelFactory {
        return [](simt::Wave&) -> simt::Kernel<void> { co_return; };
      },
      1);
  EXPECT_TRUE(run.aborted);
  EXPECT_NE(run.abort_reason.find("stalled"), std::string::npos)
      << run.abort_reason;
  // The stall reason carries per-device queue occupancy and transfer-
  // ring residency, and the run ships a black box for postmortem.
  EXPECT_NE(run.abort_reason.find("dev0 occ="), std::string::npos)
      << run.abort_reason;
  EXPECT_NE(run.abort_reason.find("ring"), std::string::npos)
      << run.abort_reason;
  EXPECT_FALSE(run.black_box.empty());
  EXPECT_NE(run.black_box.find("\"blackbox\":1"), std::string::npos);
}

}  // namespace
}  // namespace scq::bfs
