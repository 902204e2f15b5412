// Generic persistent-thread task scheduling beyond BFS: a dynamic task
// DAG executed by tasks::run_host_tasks() with a pluggable queue variant.
//
// The workload mimics a dependency-driven build/render pipeline: each
// task optionally spawns children with data-dependent fan-out (the
// "irregular workload" of the paper's title), and the harness shows the
// scheduler is workload-agnostic.
//
// Usage: ./task_scheduler [--depth 8] [--variant rfan|an|base]
#include <cstdio>
#include <map>

#include "core/counters.h"
#include "tasks/task_engine.h"
#include "util/args.h"
#include "util/prng.h"

using namespace scq;

int main(int argc, char** argv) {
  util::ArgParser args("task_scheduler", "generic irregular task DAG demo");
  args.add_int("depth", "maximum task recursion depth", 8);
  args.add_string("variant", "queue variant: base, an, rfan", "rfan");
  if (!args.parse(argc, argv)) return 2;

  QueueVariant variant = QueueVariant::kRfan;
  if (args.get_string("variant") == "base") variant = QueueVariant::kBase;
  if (args.get_string("variant") == "an") variant = QueueVariant::kAn;
  const auto max_depth = static_cast<std::uint64_t>(args.get_int("depth"));

  // A modest simulated GPU.
  simt::DeviceConfig cfg = simt::spectre_config();
  simt::Device dev(cfg);

  // Task payloads are unique ids; the framework tracks each task's
  // spawn depth.
  const QueueLayout layout = make_device_queue(dev, 1 << 22);
  auto queue = make_queue_variant(variant, layout);

  // Host-side task logic: data-dependent fan-out (0-4 children) driven
  // by a deterministic PRNG, so the DAG is irregular but reproducible.
  util::Xoshiro256 rng(42);
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, std::uint64_t> tasks_per_depth;

  const std::vector<tasks::TaskSeed> seeds{{0, 0}};  // root task, depth 0
  const simt::RunResult run = tasks::run_host_tasks(
      dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
        const std::uint64_t depth = ctx.depth();
        tasks_per_depth[depth] += 1;
        if (depth >= max_depth) return;
        // Data-dependent fan-out; shallow tasks always spawn so the DAG
        // ramps up before the irregularity kicks in.
        const std::uint64_t fanout =
            depth < 3 ? 2 + rng.below(3) : rng.below(4);  // 2-4 then 0-3
        for (std::uint64_t i = 0; i < fanout; ++i) {
          ctx.spawn(next_id++, 0);
        }
      });

  if (run.aborted) {
    std::fprintf(stderr, "aborted: %s\n", run.abort_reason.c_str());
    return 1;
  }

  std::uint64_t total = 0;
  std::printf("dynamic task DAG executed with the %s queue:\n",
              std::string(to_string(variant)).c_str());
  for (const auto& [depth, count] : tasks_per_depth) {
    std::printf("  depth %2llu: %llu tasks\n",
                static_cast<unsigned long long>(depth),
                static_cast<unsigned long long>(count));
    total += count;
  }
  std::printf("total %llu tasks in %.3f ms simulated (%llu work cycles, "
              "%llu scheduler atomics, %llu CAS failures)\n",
              static_cast<unsigned long long>(total), run.seconds * 1e3,
              static_cast<unsigned long long>(run.stats.user[kWorkCycles]),
              static_cast<unsigned long long>(run.stats.user[kQueueAtomics]),
              static_cast<unsigned long long>(run.stats.cas_failures));

  // Conservation invariant: every enqueued token was processed.
  const std::uint64_t rear = dev.read_word(layout.rear_addr());
  const std::uint64_t completed = dev.read_word(layout.completed_addr());
  std::printf("queue says: enqueued=%llu completed=%llu (%s)\n",
              static_cast<unsigned long long>(rear),
              static_cast<unsigned long long>(completed),
              rear == completed && rear == total ? "conserved" : "MISMATCH");
  return rear == completed && rear == total ? 0 : 1;
}
