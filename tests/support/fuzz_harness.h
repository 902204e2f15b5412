// Schedule-fuzzing case runners shared by tests/schedule_fuzz_test.cc
// and bench/fuzz_queues.cc.
//
// A sim fuzz case builds a small device with a seeded SchedulePolicy
// (perturbed event tie-breaking plus bounded memory/atomic jitter),
// attaches an OpHistory, runs a deterministic irregular workload through
// one queue variant with a capacity deliberately below the wave width,
// and replays the recorded history against the checker. Everything is a
// pure function of the case parameters, so a failing case reproduces
// from its printed command line alone.
//
// A host fuzz case storms a HostBrokerQueue with real producer/consumer
// threads (workload shape seed-derived; interleavings OS-scheduled) and
// checks the same per-ticket invariants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/queue.h"
#include "sim/device.h"
#include "support/queue_checker.h"

namespace scq::fuzz {

enum class Workload {
  kTree,    // binary tree: token t spawns 2t+1, 2t+2 below N
  kChain,   // serial chain: token t spawns t+1 (stresses empty polling)
  kRandom,  // seeded irregular fan-out with duplicate children
  kTasks,   // dynamic task framework (src/tasks): spawn-from-delivery,
            // seed-chosen respawns and defer/credit releases — covers
            // the exactly-once checker for dynamically created tickets
};
[[nodiscard]] const char* to_string(Workload w);
// Parses "tree" / "chain" / "random" / "tasks"; throws simt::SimError
// otherwise.
[[nodiscard]] Workload workload_from_string(const std::string& s);

struct SimFuzzCase {
  std::uint64_t seed = 1;
  QueueVariant variant = QueueVariant::kRfan;
  Workload workload = Workload::kTree;
  std::uint64_t capacity = 24;   // deliberately below kWaveWidth
  std::uint32_t num_tasks = 96;  // workload size bound
  std::uint32_t num_workgroups = 4;
  // kMq only: priority band count. The harness band map is id-
  // proportional (band = token * num_bands / num_tasks, clamped), which
  // is monotone along the spawn relation for every workload above
  // (children always carry larger ids) — the closure-frontier contract
  // the checker's band-monotonicity invariant verifies.
  std::uint32_t num_bands = 4;
};

struct FuzzOutcome {
  CheckResult check;
  simt::RunResult run;
  std::uint64_t history_records = 0;
  std::string error;  // abort / SimError text; empty == clean completion
  // Black-box dump (core/black_box.h) assembled automatically for every
  // failed sim case — abort, SimError, or checker counterexample.
  // Empty for passing cases and for host cases (no device to snapshot).
  std::string black_box;

  [[nodiscard]] bool ok() const { return error.empty() && check.ok(); }
  // One-line verdict plus the exact replay commands for fuzz_queues:
  // the pinned single-case replay (--fuzz-seed/--variant/...) and the
  // sweep-exact one (--seeds 1 --seed-start/--only-variant), which
  // reproduces the failure through the same sweep code path.
  [[nodiscard]] std::string describe(const SimFuzzCase& c) const;
};

// The other two protocol views of a sim case, for tests that pin them:
// the case runs with `task_trace` attached, and the flight recorder's
// document and surviving events are copied out after the run.
struct CaseViews {
  simt::TaskTrace task_trace;
  std::string recorder_json;
  std::vector<simt::FlightEvent> recorder_events;
  // Attached to the case's device when set (not owned).
  simt::Telemetry* telemetry = nullptr;
};

// raw_history (optional) receives the recorded OpHistory snapshot —
// used by tests that tamper with a real history to prove the checker
// catches injected mutations. views (optional) captures the task trace
// and the flight recorder.
[[nodiscard]] FuzzOutcome run_sim_fuzz_case(
    const SimFuzzCase& c, std::vector<simt::OpRecord>* raw_history = nullptr,
    CaseViews* views = nullptr);

struct HostFuzzCase {
  std::uint64_t seed = 1;
  std::size_t capacity = 16;  // rounded up to a power of two by the queue
  unsigned producers = 3;
  unsigned consumers = 3;
  std::uint32_t items = 1024;
};

[[nodiscard]] FuzzOutcome run_host_fuzz_case(const HostFuzzCase& c);

}  // namespace scq::fuzz
