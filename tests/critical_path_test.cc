// Tests for the per-task causal tracing subsystem and its offline
// analyses: record folding, telescoping attribution, critical-path
// search on hand-built DAGs with known longest paths, Perfetto flow
// export round-tripped through the JSON parser, seed-0 determinism of
// a real traced BFS run, and the perf-regression diff.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bfs/common.h"
#include "bfs/pt_bfs.h"
#include "graph/bfs_ref.h"
#include "graph/generators.h"
#include "sim/critical_path.h"
#include "sim/task_trace.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/perf_diff.h"

namespace simt {
namespace {

using scq::util::DiffResult;
using scq::util::JsonValue;
using scq::util::diff_metrics;
using scq::util::flatten_metrics;
using scq::util::parse_json;

// A full six-phase lifecycle for `ticket`, phases at the given cycles.
void add_lifecycle(std::vector<TaskEvent>& events, std::uint64_t ticket,
                   std::uint64_t parent, Cycle reserve, Cycle write,
                   Cycle claim, Cycle arrival, Cycle exec_start,
                   Cycle exec_end) {
  events.push_back({TaskPhase::kReserve, ticket, parent, 0, 1, 0, reserve});
  events.push_back({TaskPhase::kPayloadWrite, ticket, kNoTask, 0, 1, 0, write});
  events.push_back({TaskPhase::kClaim, ticket, kNoTask, 0, 2, 1, claim});
  events.push_back({TaskPhase::kArrival, ticket, kNoTask, 0, 2, 1, arrival});
  events.push_back({TaskPhase::kExecStart, ticket, kNoTask, 0, 2, 1,
                    exec_start});
  events.push_back({TaskPhase::kExecEnd, ticket, kNoTask, 0, 2, 1, exec_end});
}

// ---- Record folding and attribution ----

TEST(TaskRecordTest, FoldsLifecycleAndKeepsFirstPerPhase) {
  std::vector<TaskEvent> events;
  add_lifecycle(events, 7, 3, 10, 12, 20, 25, 30, 42);
  // A duplicate later reserve must not overwrite the first.
  events.push_back({TaskPhase::kReserve, 7, 99, 0, 5, 2, 100});

  const auto records = build_task_records(events);
  ASSERT_EQ(records.size(), 1u);
  const TaskRecord& r = records[0];
  EXPECT_EQ(r.ticket, 7u);
  EXPECT_EQ(r.parent, 3u);
  EXPECT_EQ(r.reserve, 10u);
  EXPECT_EQ(r.write, 12u);
  EXPECT_EQ(r.claim, 20u);
  EXPECT_EQ(r.arrival, 25u);
  EXPECT_EQ(r.exec_start, 30u);
  EXPECT_EQ(r.exec_end, 42u);
  EXPECT_TRUE(r.executed());
  EXPECT_EQ(r.birth(), 10u);
  EXPECT_EQ(r.death(), 42u);
  EXPECT_EQ(r.latency(), 32u);
}

TEST(TaskRecordTest, AttributionTelescopesToLatency) {
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, 10, 12, 20, 25, 30, 42);
  const auto records = build_task_records(events);
  const Attribution a = attribute(records[0]);
  EXPECT_EQ(a[PhaseBucket::kPublishWait], 2u);   // 12 - 10
  EXPECT_EQ(a[PhaseBucket::kQueueWait], 8u);     // 20 - 12
  EXPECT_EQ(a[PhaseBucket::kDnaSpin], 5u);       // 25 - 20
  EXPECT_EQ(a[PhaseBucket::kDispatch], 5u);      // 30 - 25
  EXPECT_EQ(a[PhaseBucket::kExecute], 12u);      // 42 - 30
  EXPECT_EQ(a.total(), records[0].latency());
}

TEST(TaskRecordTest, AttributionHandlesClaimBeforeReserve) {
  // RF/AN consumers can claim a ticket before its producer reserves it
  // (dequeue overtakes enqueue); the milestone sort makes the buckets
  // still telescope to exactly death - birth.
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, /*reserve=*/50, /*write=*/55,
                /*claim=*/20, /*arrival=*/60, /*exec_start=*/70,
                /*exec_end=*/90);
  const auto records = build_task_records(events);
  EXPECT_EQ(records[0].birth(), 20u);
  EXPECT_EQ(records[0].death(), 90u);
  EXPECT_EQ(attribute(records[0]).total(), 70u);
}

TEST(TaskRecordTest, PartialLifecycleAttributesWhatExists) {
  // A token still in flight at termination has no exec events.
  std::vector<TaskEvent> events;
  events.push_back({TaskPhase::kReserve, 4, kNoTask, 0, 1, 0, 100});
  events.push_back({TaskPhase::kPayloadWrite, 4, kNoTask, 0, 1, 0, 110});
  const auto records = build_task_records(events);
  EXPECT_FALSE(records[0].executed());
  EXPECT_EQ(attribute(records[0]).total(), 10u);
  EXPECT_EQ(attribute(records[0])[PhaseBucket::kPublishWait], 10u);
}

// ---- Critical path on hand-built forests ----

TEST(CriticalPathTest, ChainSumsLatencies) {
  // 0 -> 1 -> 2, latencies 32 each: weight 96, path = the whole chain.
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, 10, 12, 20, 25, 30, 42);
  add_lifecycle(events, 1, 0, 110, 112, 120, 125, 130, 142);
  add_lifecycle(events, 2, 1, 210, 212, 220, 225, 230, 242);
  const CriticalPath path = critical_path(build_task_records(events));
  EXPECT_EQ(path.weight, 96u);
  EXPECT_EQ(path.tickets, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(path.attribution.total(), 96u);
}

TEST(CriticalPathTest, FanOutPicksHeaviestLeaf) {
  // Root 0 spawns 1, 2, 3; child 2 is slower than its siblings.
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, 0, 2, 4, 6, 8, 20);     // latency 20
  add_lifecycle(events, 1, 0, 20, 22, 24, 26, 28, 40);      // latency 20
  add_lifecycle(events, 2, 0, 20, 22, 24, 26, 28, 90);      // latency 70
  add_lifecycle(events, 3, 0, 20, 22, 24, 26, 28, 40);      // latency 20
  const CriticalPath path = critical_path(build_task_records(events));
  EXPECT_EQ(path.weight, 90u);
  EXPECT_EQ(path.tickets, (std::vector<std::uint64_t>{0, 2}));
}

TEST(CriticalPathTest, TieBreaksTowardSmallestLeafTicket) {
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, 0, 2, 4, 6, 8, 20);
  add_lifecycle(events, 1, 0, 20, 22, 24, 26, 28, 40);  // same depth as 2
  add_lifecycle(events, 2, 0, 20, 22, 24, 26, 28, 40);
  const CriticalPath path = critical_path(build_task_records(events));
  EXPECT_EQ(path.tickets, (std::vector<std::uint64_t>{0, 1}));
}

TEST(CriticalPathTest, MissingParentRootsTheChain) {
  // Ticket 5's parent 99 was dropped from the trace: the chain roots at
  // 5 instead of failing.
  std::vector<TaskEvent> events;
  add_lifecycle(events, 5, 99, 10, 12, 20, 25, 30, 42);
  const CriticalPath path = critical_path(build_task_records(events));
  EXPECT_EQ(path.tickets, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(path.weight, 32u);
}

TEST(CriticalPathTest, CorruptParentCycleTerminates) {
  // 1 and 2 claim each other as parent (impossible in a real trace);
  // the n-step cap must keep the search from spinning.
  std::vector<TaskEvent> events;
  add_lifecycle(events, 1, 2, 0, 2, 4, 6, 8, 10);
  add_lifecycle(events, 2, 1, 0, 2, 4, 6, 8, 10);
  const CriticalPath path = critical_path(build_task_records(events));
  EXPECT_FALSE(path.tickets.empty());
}

TEST(CriticalPathTest, EmptyRecordsGiveEmptyPath) {
  const CriticalPath path = critical_path({});
  EXPECT_TRUE(path.tickets.empty());
  EXPECT_EQ(path.weight, 0u);
}

// ---- Perfetto flow export, round-tripped through the JSON parser ----

TEST(FlowExportTest, SpawnArrowsAndTaskSpansRoundTrip) {
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, 0, 2, 4, 6, 8, 20);
  add_lifecycle(events, 1, 0, 9, 11, 13, 15, 17, 30);
  TraceRecorder trace;
  export_flows(build_task_records(events), trace);
  ASSERT_EQ(trace.asyncs().size(), 2u);
  ASSERT_EQ(trace.flows().size(), 2u);  // one s/f pair for the spawn edge

  const auto doc = parse_json(trace.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue& list = doc->at("traceEvents");
  ASSERT_EQ(list.kind, JsonValue::Kind::kArray);

  int begins = 0, ends = 0, starts = 0, finishes = 0;
  for (const JsonValue& e : list.array) {
    const std::string& ph = e.at("ph").str;
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
    if (ph == "s") ++starts;
    if (ph == "f") {
      ++finishes;
      EXPECT_EQ(e.at("bp").str, "e") << "flow must bind to enclosing slice";
      EXPECT_EQ(e.at("id").str, "0x1");  // the child's ticket
    }
    if (ph == "b" && e.at("id").str == "0x1") {
      EXPECT_EQ(e.at("args").at("parent").number, 0.0);
    }
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(finishes, 1);
}

TEST(FlowExportTest, RootAndUnexecutedTasksGetNoArrow) {
  std::vector<TaskEvent> events;
  add_lifecycle(events, 0, kNoTask, 0, 2, 4, 6, 8, 20);  // root: no arrow
  // Child reserved but never executed: no arrow either.
  events.push_back({TaskPhase::kReserve, 1, 0, 0, 1, 0, 9});
  TraceRecorder trace;
  export_flows(build_task_records(events), trace);
  EXPECT_EQ(trace.asyncs().size(), 1u);
  EXPECT_TRUE(trace.flows().empty());
}

// ---- TaskTrace recorder ----

TEST(TaskTraceTest, DropsPastCapacityAreCounted) {
  TaskTrace trace(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.record({TaskPhase::kReserve, i, kNoTask, 0, 0, 0, i});
  }
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 3u);
  EXPECT_NE(trace.to_json().find("\"dropped\":3"), std::string::npos);
  trace.clear();
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TaskTraceTest, IgnoresNoTaskTickets) {
  TaskTrace trace;
  trace.record({TaskPhase::kReserve, kNoTask, kNoTask, 0, 0, 0, 0});
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TaskTraceTest, MetaDedupsAndSurvivesClear) {
  TaskTrace trace;
  trace.set_meta("variant", "BASE");
  trace.set_meta("variant", "RF/AN");
  trace.clear();
  ASSERT_EQ(trace.meta().size(), 1u);
  EXPECT_EQ(trace.meta()[0].second, "RF/AN");
  EXPECT_NE(trace.to_json().find("\"variant\":\"RF/AN\""), std::string::npos);
}

// ---- A real traced run: invariants and determinism ----

class TracedBfs : public ::testing::Test {
 protected:
  static simt::DeviceConfig small_device() {
    simt::DeviceConfig cfg = simt::spectre_config();
    cfg.name = "small";
    cfg.num_cus = 4;
    cfg.waves_per_cu = 2;
    return cfg;
  }

  static std::vector<TaskEvent> run_traced(TaskTrace& trace,
                                           scq::QueueVariant variant) {
    const scq::graph::Graph g = scq::graph::synthetic_kary(2000, 4);
    scq::bfs::PtBfsOptions opt;
    opt.variant = variant;
    opt.task_trace = &trace;
    const scq::bfs::BfsResult result =
        scq::bfs::run_pt_bfs(small_device(), g, 0, opt);
    EXPECT_FALSE(result.run.aborted) << result.run.abort_reason;
    EXPECT_TRUE(scq::bfs::matches_reference(
        result.levels, scq::graph::bfs_levels(g, 0)));
    return trace.snapshot();
  }
};

TEST_F(TracedBfs, AttributionSumsToLatencyForEveryTask) {
  for (const scq::QueueVariant variant :
       {scq::QueueVariant::kBase, scq::QueueVariant::kAn,
        scq::QueueVariant::kRfan, scq::QueueVariant::kDistrib}) {
    TaskTrace trace;
    const auto records = build_task_records(run_traced(trace, variant));
    ASSERT_GE(records.size(), 2000u);  // every vertex became a task
    EXPECT_EQ(trace.dropped(), 0u);
    std::size_t executed = 0;
    for (const TaskRecord& r : records) {
      ASSERT_EQ(attribute(r).total(), r.latency())
          << "ticket " << r.ticket << " variant " << static_cast<int>(variant);
      executed += r.executed();
    }
    EXPECT_GE(executed, 2000u);
    const CriticalPath path = critical_path(records);
    EXPECT_GT(path.weight, 0u);
    EXPECT_GT(path.tickets.size(), 1u);
    // The path must follow real parent edges root-to-leaf.
    EXPECT_EQ(records[0].ticket, 0u);
  }
}

TEST_F(TracedBfs, SpawnEdgesPointAtExecutingParents) {
  TaskTrace trace;
  const auto records =
      build_task_records(run_traced(trace, scq::QueueVariant::kRfan));
  std::map<std::uint64_t, const TaskRecord*> by_ticket;
  for (const TaskRecord& r : records) by_ticket[r.ticket] = &r;
  std::size_t children = 0;
  for (const TaskRecord& r : records) {
    if (r.parent == kNoTask) continue;
    ++children;
    const auto it = by_ticket.find(r.parent);
    ASSERT_NE(it, by_ticket.end()) << "parent of " << r.ticket;
    // A spawner must have started executing before its child's ticket
    // was reserved.
    ASSERT_TRUE(it->second->exec_start != TaskRecord::kUnset);
    ASSERT_LE(it->second->exec_start, r.reserve);
  }
  EXPECT_GT(children, 0u);
}

TEST_F(TracedBfs, SeedZeroTaskTraceIsBitExact) {
  TaskTrace first_trace, second_trace;
  (void)run_traced(first_trace, scq::QueueVariant::kRfan);
  (void)run_traced(second_trace, scq::QueueVariant::kRfan);
  ASSERT_EQ(first_trace.to_json(), second_trace.to_json());

  const auto first = build_task_records(first_trace.snapshot());
  const auto second = build_task_records(second_trace.snapshot());
  const CriticalPath a = critical_path(first);
  const CriticalPath b = critical_path(second);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.tickets, b.tickets);
  EXPECT_EQ(total_attribution(first).attr.total(),
            total_attribution(second).attr.total());
}

TEST_F(TracedBfs, LockedStackRecordsNothing) {
  TaskTrace trace;
  (void)run_traced(trace, scq::QueueVariant::kStack);
  EXPECT_EQ(trace.size(), 0u) << "LIFO has no stable tickets to trace";
}

// ---- Perf-regression diff ----

TEST(PerfDiffTest, FlattensBenchAndTelemetryShapes) {
  const auto bench = parse_json(
      R"({"bench":"t","sim_seed":0,"metrics":{"a.cycles":100,"b.cycles":50}})");
  ASSERT_TRUE(bench.has_value());
  const auto bm = flatten_metrics(*bench);
  ASSERT_EQ(bm.size(), 2u);
  EXPECT_EQ(bm.at("a.cycles"), 100.0);

  const auto telemetry = parse_json(
      R"({"meta":{},)"
      R"("histograms":{"lat":{"count":3,"sum":30,"min":5,"max":15,)"
      R"("mean":10,"p50":10,"p90":15,"p99":15,"buckets":[1,2]}},)"
      R"("windows":{"window_cycles":64,"dropped_windows":2,"series":{}}})");
  ASSERT_TRUE(telemetry.has_value());
  const auto tm = flatten_metrics(*telemetry);
  EXPECT_EQ(tm.at("lat.p99"), 15.0);
  EXPECT_EQ(tm.at("dropped_windows"), 2.0);
  EXPECT_EQ(tm.count("lat.buckets"), 0u) << "bucket shape is not a metric";
}

TEST(PerfDiffTest, IdenticalMetricsPass) {
  const std::map<std::string, double> m{{"x", 100.0}, {"y", 0.0}};
  const DiffResult diff = diff_metrics(m, m, 0.0);
  EXPECT_TRUE(diff.ok());
  ASSERT_EQ(diff.deltas.size(), 2u);
  EXPECT_EQ(diff.deltas[0].delta_pct, 0.0);
}

TEST(PerfDiffTest, RegressionPastToleranceFails) {
  const std::map<std::string, double> base{{"x", 100.0}};
  EXPECT_TRUE(diff_metrics(base, {{"x", 104.0}}, 5.0).ok());
  EXPECT_FALSE(diff_metrics(base, {{"x", 106.0}}, 5.0).ok());
  // Improvements never fail, whatever the tolerance.
  EXPECT_TRUE(diff_metrics(base, {{"x", 10.0}}, 0.0).ok());
}

TEST(PerfDiffTest, MissingMetricFails) {
  const DiffResult diff = diff_metrics({{"x", 1.0}, {"y", 1.0}},
                                       {{"x", 1.0}}, 100.0);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.missing.size(), 1u);
  EXPECT_EQ(diff.missing[0], "y");
  EXPECT_NE(scq::util::render_diff(diff, false).find("MISSING"),
            std::string::npos);
}

TEST(PerfDiffTest, ExtraCurrentMetricsAreIgnored) {
  EXPECT_TRUE(diff_metrics({{"x", 1.0}}, {{"x", 1.0}, {"new", 99.0}}, 0.0).ok());
}

TEST(PerfDiffTest, ZeroBaselineDemandsExactZeroByDefault) {
  // A relative tolerance of nothing is nothing: with the default
  // absolute slack of 0, a zero-valued baseline metric must stay
  // exactly zero, whatever the relative tolerance knob says.
  EXPECT_TRUE(diff_metrics({{"x", 0.0}}, {{"x", 0.0}}, 5.0).ok());
  EXPECT_FALSE(diff_metrics({{"x", 0.0}}, {{"x", 0.04}}, 5.0).ok());
  EXPECT_FALSE(diff_metrics({{"x", 0.0}}, {{"x", 1.0}}, 100.0).ok());
}

TEST(PerfDiffTest, ZeroBaselineHonorsAbsoluteTolerance) {
  EXPECT_TRUE(diff_metrics({{"x", 0.0}}, {{"x", 3.0}}, 0.0, 3.0).ok());
  EXPECT_FALSE(diff_metrics({{"x", 0.0}}, {{"x", 3.5}}, 0.0, 3.0).ok());
  // The absolute slack applies only where the relative rule cannot:
  // non-zero baselines keep the percentage tolerance.
  EXPECT_FALSE(diff_metrics({{"x", 1.0}}, {{"x", 5.0}}, 5.0, 100.0).ok());
  EXPECT_TRUE(diff_metrics({{"x", 100.0}}, {{"x", 104.0}}, 5.0, 0.0).ok());
}

TEST(PerfDiffTest, ZeroBaselineDeltaRendersAgainstUnitDenominator) {
  // Reporting only: the percent column against a zero baseline reads
  // relative to 1 so sign and scale still make sense.
  const DiffResult diff = diff_metrics({{"x", 0.0}}, {{"x", 2.0}}, 0.0, 4.0);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_FALSE(diff.deltas[0].regressed);
  EXPECT_DOUBLE_EQ(diff.deltas[0].delta_pct, 200.0);
}

}  // namespace
}  // namespace simt
