// Simulator self-throughput micro-bench: how fast does the DES itself
// run, and what does attaching telemetry cost?
//
// Runs the same seed-0 persistent-thread BFS workload with only the
// self-profiler attached, then with the flight recorder detached and
// with telemetry attached, and reports:
//
//   * events/sec of the host event loop (wall clock, nondeterministic),
//   * per-event-type wall-clock attribution from the sampled profiler,
//   * always-on flight-recorder overhead vs a recorder-detached run;
//     --recorder-budget turns it into a gate (perf-smoke runs with
//     --recorder-budget 10) that fails only when every pair exceeds
//     the budget,
//   * telemetry overhead vs a telemetry-detached run (reported only).
// Both overheads are measured over interleaved pairs of on and off
// runs: each pair's two runs sit back to back, so load that outlasts a
// pair cancels out of that pair's overhead, and the gate fails only
// when the whole measured range lies above the budget — a load spike
// during some pairs cannot fail healthy code.
//
// The deterministic half of the profile (events popped, simulated
// cycles, one count per executed wave op, coroutine frames created,
// telemetry step-metric name resolutions) is a pure function of the
// schedule, so it lives in a checked-in baseline and gates via
// bench/perf_diff: an accidental event-count, op-mix, frame-count or
// name-lookup change shows up as a diff even though wall clock wobbles.
// The count of frames above the frame pool's ceiling is reported but
// kept out of the baseline: frame sizes depend on the compiler.
//
//   ./sim_throughput [--scale 0.05] [--repeat 3] [--json out.json]
//                    [--baseline results/baselines/sim_throughput.json]
//
// The checked-in baseline must contain ONLY the deterministic metrics
// (events, cycles, total_ops, frames, telemetry_resolutions, ops.*) —
// perf_diff ignores keys
// that are present only in the current artifact, so the wall-clock
// extras here never trip the guard.
#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "bench_common.h"

using namespace scq;
using namespace scq::bench;

namespace {

// One measured pass: `repeat` identical seed-0 BFS runs with the given
// sinks attached, accumulating into `prof`.
void run_pass(const simt::DeviceConfig& config, const graph::Graph& g,
              std::uint32_t repeat, simt::SimProfiler& prof,
              simt::Telemetry* telemetry, bool detach_recorder = false) {
  for (std::uint32_t r = 0; r < repeat; ++r) {
    bfs::PtBfsOptions opt;
    opt.profiler = &prof;
    opt.telemetry = telemetry;
    opt.detach_recorder = detach_recorder;
    (void)run_validated(config, g, 0, opt);
  }
}

// One run, individually timed (steady clock around the whole run).
double run_timed_once(const simt::DeviceConfig& config, const graph::Graph& g,
                      simt::SimProfiler& prof, simt::Telemetry* telemetry,
                      bool detach_recorder) {
  const auto t0 = std::chrono::steady_clock::now();
  run_pass(config, g, 1, prof, telemetry, detach_recorder);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Per-pair overheads of a sink over `pairs` alternating runs of its on
// and off arms; `run(on)` times one run. Alternating which arm goes
// first each pair cancels monotone drift.
struct PairedOverhead {
  std::vector<double> pct;  // 100 * (on - off) / off, one per pair, sorted
  [[nodiscard]] double lowest() const { return pct.front(); }
  [[nodiscard]] double highest() const { return pct.back(); }
  [[nodiscard]] double median() const {
    const std::size_t n = pct.size();
    return n % 2 == 1 ? pct[n / 2] : 0.5 * (pct[n / 2 - 1] + pct[n / 2]);
  }
  void print(const char* what) const {
    std::printf("  %s: median %+.2f%% over %zu pairs (range %+.2f%% .. "
                "%+.2f%%)\n",
                what, median(), pct.size(), lowest(), highest());
  }
};
PairedOverhead paired_overhead(std::uint32_t pairs,
                               const std::function<double(bool on)>& run) {
  PairedOverhead p;
  for (std::uint32_t r = 0; r < pairs; ++r) {
    const bool off_first = (r % 2) == 0;
    const double a = run(!off_first);
    const double b = run(off_first);
    const double off = off_first ? a : b;
    const double on = off_first ? b : a;
    p.pct.push_back(off > 0.0 ? 100.0 * (on - off) / off : 0.0);
  }
  std::sort(p.pct.begin(), p.pct.end());
  return p;
}

void print_attribution(const simt::SimProfiler& prof) {
  std::printf("  %-14s %14s %10s\n", "event type", "ops", "share");
  for (unsigned i = 0; i < simt::SimProfiler::kOps; ++i) {
    const auto op = static_cast<simt::TraceOp>(i);
    if (prof.op_count(op) == 0) continue;
    std::printf("  %-14s %14llu %9.2f%%\n", simt::to_string(op),
                static_cast<unsigned long long>(prof.op_count(op)),
                100.0 * prof.op_share(op));
  }
  for (unsigned i = 0; i < static_cast<unsigned>(simt::SimSection::kCount);
       ++i) {
    const auto s = static_cast<simt::SimSection>(i);
    std::printf("  %-14s %14s %9.2f%%\n", simt::to_string(s), "-",
                100.0 * prof.section_share(s));
  }
  const simt::SimProfiler::SubsystemShares sub = prof.subsystem_shares();
  std::printf("  subsystems: heap %.2f%%  telemetry %.2f%%  memory model "
              "%.2f%%  dispatch %.2f%%\n",
              100.0 * sub.heap, 100.0 * sub.telemetry,
              100.0 * sub.memory_model, 100.0 * sub.dispatch);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("sim_throughput",
                       "simulator event-loop throughput and telemetry "
                       "overhead micro-bench");
  args.add_double("scale", "dataset scale factor in (0,1]", 0.05);
  args.add_int("repeat", "identical runs per pass (wall time accumulates)", 3);
  args.add_string("device", "device config (Fiji|Spectre)", "Spectre");
  args.add_double("recorder-budget",
                  "fail if the always-on flight recorder costs more than "
                  "this percent over a recorder-detached run in every "
                  "interleaved pair (0 = report only)",
                  0.0);
  add_observability_flags(args);
  if (!args.parse(argc, argv)) return 2;
  Observability obs(args, "sim_throughput");

  const auto repeat = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, args.get_int("repeat")));
  const DeviceEntry dev = device_by_name(args.get_string("device"));
  const simt::DeviceConfig config = obs.tuned(dev.config);
  const graph::Graph g =
      bfs::dataset_by_name("Synthetic").build(args.get_double("scale"));

  std::printf("sim_throughput — %s, Synthetic scale %.3g, %u run(s)/pass\n",
              config.name.c_str(), args.get_double("scale"), repeat);

  // Pass 1: profiler only. This is the bare event loop — its counts are
  // the deterministic baseline and its wall time the overhead reference.
  simt::SimProfiler& prof = obs.profiler();
  prof.reset();
  const std::uint64_t frames_before = simt::frames_created();
  const std::uint64_t above_before = simt::frames_above_pool();
  run_pass(config, g, repeat, prof, nullptr);
  const std::uint64_t frames = simt::frames_created() - frames_before;
  const std::uint64_t frames_above = simt::frames_above_pool() - above_before;
  const double bare_wall = prof.wall_seconds();
  std::printf("\nbare event loop (telemetry detached):\n");
  std::printf("  events %llu, simulated cycles %llu, wave ops %llu, "
              "coroutine frames %llu (%llu above the frame pool)\n",
              static_cast<unsigned long long>(prof.events()),
              static_cast<unsigned long long>(prof.cycles()),
              static_cast<unsigned long long>(prof.total_ops()),
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(frames_above));
  std::printf("  wall %.3f ms, %.3g events/sec\n", bare_wall * 1e3,
              prof.events_per_sec());
  std::printf("\nper-event-type wall-clock attribution (sampled):\n");
  print_attribution(prof);

  // Deterministic metrics for --json / --baseline. The wall-clock keys
  // below them are informational only and must not enter the baseline.
  obs.record_metric("events", static_cast<double>(prof.events()));
  obs.record_metric("cycles", static_cast<double>(prof.cycles()));
  obs.record_metric("total_ops", static_cast<double>(prof.total_ops()));
  obs.record_metric("frames", static_cast<double>(frames));
  for (unsigned i = 0; i < simt::SimProfiler::kOps; ++i) {
    const auto op = static_cast<simt::TraceOp>(i);
    obs.record_metric(std::string("ops.") + simt::to_string(op),
                      static_cast<double>(prof.op_count(op)));
  }
  obs.record_metric("frames_above_pool", static_cast<double>(frames_above));
  obs.record_metric("wall_ms", bare_wall * 1e3);
  obs.record_metric("events_per_sec", prof.events_per_sec());

  // Pass 1b: recorder overhead. The drivers keep a flight recorder
  // attached on every run (the black-box contract), so pass 1 above IS
  // the recorder-on configuration; this pass uses the bench-only escape
  // hatch to price the recorder against a truly bare event loop.
  // At least 5 pairs regardless of --repeat.
  const std::uint32_t pairs = std::max<std::uint32_t>(repeat, 5);
  simt::SimProfiler prof_norec;
  simt::SimProfiler prof_rec_again;
  const PairedOverhead rec = paired_overhead(pairs, [&](bool on) {
    return run_timed_once(config, g, on ? prof_rec_again : prof_norec,
                          nullptr, /*detach_recorder=*/!on);
  });
  const double norec_wall = prof_norec.wall_seconds();
  std::printf("\nflight recorder detached:\n");
  std::printf("  wall %.3f ms, %.3g events/sec\n", norec_wall * 1e3,
              prof_norec.events_per_sec());
  rec.print("always-on recorder overhead");
  // Both arms ran `pairs` identical seed-0 runs: equal totals iff the
  // recorder is a pure host-side observer of the schedule.
  if (prof_norec.events() != prof_rec_again.events()) {
    std::fprintf(stderr,
                 "FATAL: flight recorder changed the schedule (%llu events "
                 "recorder-on vs %llu detached) — recording must be a pure "
                 "host-side observer\n",
                 static_cast<unsigned long long>(prof_rec_again.events()),
                 static_cast<unsigned long long>(prof_norec.events()));
    return 1;
  }
  obs.record_metric("recorder_overhead_pct", rec.median());
  if (const double budget = args.get_double("recorder-budget"); budget > 0.0) {
    if (rec.lowest() >= budget) {
      std::fprintf(stderr,
                   "FATAL: flight recorder overhead exceeds the %.2f%% "
                   "budget in every pair (%+.2f%% .. %+.2f%%)\n",
                   budget, rec.lowest(), rec.highest());
      return 1;
    }
    std::printf("  recorder budget gate (some pair < %.2f%%): PASS\n",
                budget);
  }

  // Pass 2: telemetry overhead, interleaved the same way against runs
  // with telemetry detached (both arms keep the recorder). Same
  // schedule, so both arms pop the same events; the wall delta is the
  // telemetry tax.
  simt::SimProfiler prof_tel;
  simt::SimProfiler prof_untel;
  simt::Telemetry telemetry(obs.telemetry().options());
  const PairedOverhead tel = paired_overhead(pairs, [&](bool on) {
    return run_timed_once(config, g, on ? prof_tel : prof_untel,
                          on ? &telemetry : nullptr,
                          /*detach_recorder=*/false);
  });
  std::printf("\ntelemetry attached (window %llu):\n",
              static_cast<unsigned long long>(
                  telemetry.options().window_cycles));
  std::printf("  wall %.3f ms, %.3g events/sec\n",
              prof_tel.wall_seconds() * 1e3, prof_tel.events_per_sec());
  tel.print("overhead vs detached");
  std::printf("  step-metric name resolutions %llu\n",
              static_cast<unsigned long long>(telemetry.name_resolutions()));
  std::printf("\nper-event-type wall-clock attribution (telemetry on):\n");
  print_attribution(prof_tel);
  if (prof_tel.events() != prof_untel.events()) {
    std::fprintf(stderr,
                 "FATAL: telemetry changed the schedule (%llu events vs "
                 "%llu detached) — telemetry must be a pure host-side "
                 "observer\n",
                 static_cast<unsigned long long>(prof_tel.events()),
                 static_cast<unsigned long long>(prof_untel.events()));
    return 1;
  }
  obs.record_metric("telemetry_overhead_pct", tel.median());
  obs.record_metric("telemetry_resolutions",
                    static_cast<double>(telemetry.name_resolutions()));

  if (!obs.finish()) return 1;
  return 0;
}
