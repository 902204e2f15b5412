// Pins for every telemetry export: the histograms and the windowed
// series that the queue protocol feeds.
//
// Each case runs with a simt::Telemetry attached and pins one FNV-1a
// hash over
//   * every histogram: name, count, sum, min, max and each bucket count;
//   * every windowed series: name, each window start and each value;
//   * the windows' drop count.
// The lane-census series (lanes.hungry, lanes.assigned and
// waves.utilization_pct, per device in cluster runs) are left out of the
// hash; LaneWindowsSumAcrossWaves covers them.
//
// The cases cover every producer of a telemetry step: the 32 schedule-
// fuzzed protocol-view cases (BASE, AN, RF/AN and MQ), LOCK-STACK and
// DISTRIB through rings small enough to stall, the 8-band delta-stepping
// front-end at a capacity whose bands stall, and a 2-device cluster BFS
// (device-prefixed names, the transfer-ring histograms and the router
// and superstep windows). Regenerate a row only for an intended change
// to a metric; a failing row prints its replacement in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/cluster_bfs.h"
#include "bfs/pt_sssp_delta.h"
#include "core/counters.h"
#include "core/ext_schedulers.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"
#include "support/fuzz_harness.h"
#include "tasks/task_engine.h"

namespace scq {
namespace {

class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) byte((word >> (8 * b)) & 0xff);
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char ch : s) byte(static_cast<unsigned char>(ch));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) { h_ = (h_ ^ b) * 0x100000001b3ull; }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

bool lane_census(const std::string& name) {
  for (const char* suffix :
       {"lanes.hungry", "lanes.assigned", "waves.utilization_pct"}) {
    if (name.ends_with(suffix)) return true;
  }
  return false;
}

std::uint64_t hash_telemetry(const simt::Telemetry& t) {
  Fnv h;
  for (const auto& [name, hist] : t.histograms()) {
    h.add(name);
    h.add(hist.count());
    h.add(hist.sum());
    h.add(hist.min());
    h.add(hist.max());
    for (unsigned b = 0; b < simt::Histogram::kBuckets; ++b) {
      h.add(hist.bucket_count(b));
    }
  }
  for (const std::string& name : t.windows().series_names()) {
    if (lane_census(name)) continue;
    h.add(name);
    for (const simt::WindowSample& s : t.windows().series(name)) {
      h.add(s.start);
      h.add(s.value);
    }
  }
  h.add(t.windows().dropped_windows());
  return h.value();
}

simt::Telemetry::Options pin_options() {
  simt::Telemetry::Options o;
  o.window_cycles = 512;
  return o;
}

const std::map<std::string, std::uint64_t>& pins() {
  static const std::map<std::string, std::uint64_t> kPins = {
      {"an_chain_s12", 13215291731680186421ull},
      {"an_chain_s5", 2657987706351729352ull},
      {"an_random_s12", 13787144253227181308ull},
      {"an_random_s5", 3224931646568311917ull},
      {"an_tasks_s12", 7785151527464942323ull},
      {"an_tasks_s5", 5505087907749879051ull},
      {"an_tree_s12", 2371011526542931035ull},
      {"an_tree_s5", 3416576684224891703ull},
      {"base_chain_s12", 5779072218605059812ull},
      {"base_chain_s5", 11695491956390948046ull},
      {"base_random_s12", 12369048137801792151ull},
      {"base_random_s5", 1708410294203093554ull},
      {"base_tasks_s12", 12201991761734071071ull},
      {"base_tasks_s5", 11365880929396472913ull},
      {"base_tree_s12", 15812813502544616674ull},
      {"base_tree_s5", 4617543559134140309ull},
      {"cluster_bfs_2_devices", 15723210223960764399ull},
      {"delta_sssp_8_bands", 11913290392725448489ull},
      {"distrib_ternary_tree", 14672415391378061324ull},
      {"mq_chain_s12", 3092076132577871798ull},
      {"mq_chain_s5", 11315543788938114175ull},
      {"mq_random_s12", 3861806610215472873ull},
      {"mq_random_s5", 17426774372537365729ull},
      {"mq_tasks_s12", 18187995896611623700ull},
      {"mq_tasks_s5", 13681462411272818862ull},
      {"mq_tree_s12", 11789846793767945113ull},
      {"mq_tree_s5", 4603558069870951245ull},
      {"rfan_chain_s12", 3010283417536943162ull},
      {"rfan_chain_s5", 8535554055574644165ull},
      {"rfan_random_s12", 3780153526197654604ull},
      {"rfan_random_s5", 9375510332114308988ull},
      {"rfan_tasks_s12", 2474426650168912420ull},
      {"rfan_tasks_s5", 6833014248792952630ull},
      {"rfan_tree_s12", 4466284369016072368ull},
      {"rfan_tree_s5", 3391601144316981625ull},
      {"stack_ternary_tree", 16208903776038637722ull},
  };
  return kPins;
}

void expect_pinned(const std::string& name, const simt::Telemetry& t) {
  const std::uint64_t got = hash_telemetry(t);
  std::ostringstream row;
  row << "      {\"" << name << "\", " << got << "ull},";
  const auto it = pins().find(name);
  ASSERT_NE(it, pins().end()) << "no pin for " << name << "; measured:\n"
                              << row.str();
  EXPECT_EQ(got, it->second) << "measured row:\n" << row.str();
}

// ---- The protocol-view fuzz cases ----

struct PinCase {
  std::string name;
  fuzz::SimFuzzCase c;
};

// Lists the case by name, not as a byte dump holding a heap address.
void PrintTo(const PinCase& pc, std::ostream* os) { *os << pc.name; }

const char* variant_name(QueueVariant v) {
  switch (v) {
    case QueueVariant::kBase: return "base";
    case QueueVariant::kAn: return "an";
    case QueueVariant::kRfan: return "rfan";
    case QueueVariant::kMq: return "mq";
    default: return "?";
  }
}

std::vector<PinCase> fuzz_cases() {
  std::vector<PinCase> out;
  for (const fuzz::Workload wl :
       {fuzz::Workload::kTree, fuzz::Workload::kChain, fuzz::Workload::kRandom,
        fuzz::Workload::kTasks}) {
    for (const QueueVariant v : {QueueVariant::kBase, QueueVariant::kAn,
                                 QueueVariant::kRfan, QueueVariant::kMq}) {
      for (const std::uint64_t seed : {5u, 12u}) {
        fuzz::SimFuzzCase c;
        c.seed = seed;
        c.variant = v;
        c.workload = wl;
        out.push_back({std::string(variant_name(v)) + "_" +
                           fuzz::to_string(wl) + "_s" + std::to_string(seed),
                       c});
      }
    }
  }
  return out;
}

class TelemetryPins : public ::testing::TestWithParam<PinCase> {};

TEST_P(TelemetryPins, MatchPinnedHash) {
  const PinCase& pc = GetParam();
  simt::Telemetry telemetry(pin_options());
  fuzz::CaseViews views;
  views.telemetry = &telemetry;
  const fuzz::FuzzOutcome out = fuzz::run_sim_fuzz_case(pc.c, nullptr, &views);
  ASSERT_TRUE(out.ok()) << out.describe(pc.c);
  ASSERT_FALSE(telemetry.histograms().empty());
  expect_pinned(pc.name, telemetry);
}

INSTANTIATE_TEST_SUITE_P(
    FuzzCases, TelemetryPins, ::testing::ValuesIn(fuzz_cases()),
    [](const ::testing::TestParamInfo<PinCase>& i) { return i.param.name; });

// ---- The extension schedulers, through rings that stall ----

// A complete ternary tree of depth 5 (364 tasks) through `variant` at
// `capacity`, with telemetry attached.
void run_ternary_tree(QueueVariant variant, std::uint64_t capacity,
                      simt::Telemetry& telemetry) {
  simt::Device dev(simt::spectre_config());
  dev.attach_telemetry(&telemetry);
  const auto queue = make_scheduler(dev, variant, capacity);
  std::uint64_t next_id = 1;
  const std::vector<tasks::TaskSeed> seeds{{0, 0}};
  const simt::RunResult run = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t token = ctx.payload();
        if ((token & 0xff) < 5) {
          for (int i = 0; i < 3; ++i) {
            ctx.spawn((next_id++ << 8) | ((token & 0xff) + 1), 0);
          }
        }
      });
  ASSERT_FALSE(run.aborted) << run.abort_reason;
  EXPECT_EQ(run.stats.user[kTasksProcessed], 364u);
}

TEST(TelemetryPins, LockedStackTernaryTree) {
  simt::Telemetry telemetry(pin_options());
  run_ternary_tree(QueueVariant::kStack, 8, telemetry);
  const simt::Histogram* stall = telemetry.find_histogram("queue.publish_stall");
  ASSERT_NE(stall, nullptr);
  EXPECT_GT(stall->count(), 0u) << "the case must cover the stall path";
  expect_pinned("stack_ternary_tree", telemetry);
}

TEST(TelemetryPins, DistributedTernaryTree) {
  simt::Telemetry telemetry(pin_options());
  run_ternary_tree(QueueVariant::kDistrib, 64, telemetry);
  const simt::Histogram* stall = telemetry.find_histogram("queue.publish_stall");
  ASSERT_NE(stall, nullptr);
  EXPECT_GT(stall->count(), 0u) << "the case must cover the stall path";
  expect_pinned("distrib_ternary_tree", telemetry);
}

// ---- The banded multi-queue through the delta-stepping front-end ----

TEST(TelemetryPins, DeltaSsspEightBandsStall) {
  const graph::Graph g = graph::with_random_weights(
      graph::road_network({.n_vertices = 1500, .seed = 23}), 5);
  simt::Telemetry telemetry(pin_options());
  bfs::PtSsspDeltaOptions opt;
  opt.num_bands = 8;
  opt.queue_capacity = 256;
  opt.telemetry = &telemetry;
  const bfs::SsspResult r =
      bfs::run_pt_sssp_delta(simt::spectre_config(), g, 0, opt);
  ASSERT_FALSE(r.run.aborted) << r.run.abort_reason;
  bool band_stall = false;
  for (const std::string& name : telemetry.windows().series_names()) {
    band_stall |= name.starts_with("queue.band_stall.b");
  }
  EXPECT_TRUE(band_stall) << "the case must cover the per-band stall windows";
  expect_pinned("delta_sssp_8_bands", telemetry);
}

// ---- The cluster runtime ----

TEST(TelemetryPins, TwoDeviceClusterBfs) {
  const graph::Graph g = graph::road_network({.n_vertices = 2000, .seed = 11});
  simt::Telemetry telemetry(pin_options());
  bfs::ClusterBfsOptions opt;
  opt.num_devices = 2;
  opt.telemetry = &telemetry;
  const bfs::ClusterBfsResult r =
      bfs::run_cluster_bfs(simt::spectre_config(), g, 0, opt);
  ASSERT_FALSE(r.run.aborted) << r.run.abort_reason;
  EXPECT_NE(telemetry.find_histogram("dev0.xfer.agg_width"), nullptr);
  EXPECT_NE(telemetry.find_histogram("dev1.xfer.enqueue_latency"), nullptr);
  EXPECT_FALSE(telemetry.windows().series("router.delivered").empty());
  EXPECT_FALSE(telemetry.windows().series("dev1.superstep.occupancy").empty());
  expect_pinned("cluster_bfs_2_devices", telemetry);
}

}  // namespace
}  // namespace scq
