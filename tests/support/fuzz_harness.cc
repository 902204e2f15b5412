#include "support/fuzz_harness.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "core/black_box.h"
#include "core/bucketed_queue.h"
#include "core/host_queue.h"
#include "tasks/task_engine.h"
#include "sim/flight_recorder.h"
#include "util/prng.h"

namespace scq::fuzz {

namespace {

std::uint64_t hash2(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ull);
  return util::splitmix64(s);
}

const char* variant_cli_name(QueueVariant v) {
  switch (v) {
    case QueueVariant::kBase: return "base";
    case QueueVariant::kAn: return "an";
    case QueueVariant::kRfan: return "rfan";
    case QueueVariant::kMq: return "mq";
    default: return "?";
  }
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kTree: return "tree";
    case Workload::kChain: return "chain";
    case Workload::kRandom: return "random";
    case Workload::kTasks: return "tasks";
  }
  return "?";
}

Workload workload_from_string(const std::string& s) {
  if (s == "tree") return Workload::kTree;
  if (s == "chain") return Workload::kChain;
  if (s == "random") return Workload::kRandom;
  if (s == "tasks") return Workload::kTasks;
  throw simt::SimError("unknown workload '" + s +
                       "' (tree|chain|random|tasks)");
}

std::string FuzzOutcome::describe(const SimFuzzCase& c) const {
  std::string out = std::string(ok() ? "PASS" : "FAIL") +
                    " variant=" + variant_cli_name(c.variant) +
                    " workload=" + to_string(c.workload) +
                    " capacity=" + std::to_string(c.capacity) +
                    " tasks=" + std::to_string(c.num_tasks) +
                    " seed=" + std::to_string(c.seed) + " (" +
                    std::to_string(history_records) + " records, " +
                    std::to_string(run.cycles) + " cycles)";
  if (!ok()) {
    out += "\n  replay: fuzz_queues --fuzz-seed " + std::to_string(c.seed) +
           " --variant " + variant_cli_name(c.variant) + " --workload " +
           to_string(c.workload) + " --capacity " + std::to_string(c.capacity) +
           " --tasks " + std::to_string(c.num_tasks);
    out += "\n  sweep-replay: fuzz_queues --seeds 1 --seed-start " +
           std::to_string(c.seed) + " --only-variant " +
           variant_cli_name(c.variant) + " --host-every 0";
    if (!error.empty()) out += "\n  error: " + error;
    if (!check.ok()) out += "\n" + check.report();
  }
  return out;
}

FuzzOutcome run_sim_fuzz_case(const SimFuzzCase& c,
                              std::vector<simt::OpRecord>* raw_history) {
  simt::DeviceConfig cfg;
  cfg.name = "fuzz";
  cfg.num_cus = 2;
  cfg.waves_per_cu = 2;
  cfg.sched_seed = c.seed;
  // Bounded jitter, small relative to mem_latency: perturbed schedules
  // stay causally plausible while same-cycle races get reshuffled.
  cfg.sched_mem_jitter = 48;
  cfg.sched_atomic_jitter = 24;

  simt::Device dev(cfg);
  simt::OpHistory history;
  dev.attach_op_history(&history);
  simt::FlightRecorder recorder;
  dev.attach_flight_recorder(&recorder);

  std::unique_ptr<DeviceQueue> queue;
  std::uint64_t mq_bands = 1;
  if (c.variant == QueueVariant::kMq) {
    // Id-proportional band map: monotone along the spawn relation for
    // every harness workload (children always have larger ids), so the
    // closure frontier is sound and the checker's band-monotonicity
    // invariant must hold on every schedule.
    // Clamp the band count so each band's ring still holds at least 4
    // tokens: seeding is not parked/backpressured, and the kRandom
    // workload injects 4 seed tokens that all map to band 0.
    const std::uint64_t bands = std::min<std::uint64_t>(
        std::max<std::uint32_t>(c.num_bands, 1),
        std::max<std::uint64_t>(c.capacity / 4, 1));
    mq_bands = bands;
    const std::uint64_t n_hint = std::max<std::uint32_t>(c.num_tasks, 1);
    if (c.workload == Workload::kTasks) {
      // Framework tokens carry their band in the cluster cost bits;
      // the task below computes id-proportional bands itself, so the
      // standard cost map routes them (and stays monotone: children
      // always have larger ids, hence equal-or-higher bands).
      queue = std::make_unique<BucketedMultiQueue>(
          dev, c.capacity, static_cast<std::uint32_t>(bands),
          BucketedMultiQueue::cost_band_map());
    } else {
      queue = std::make_unique<BucketedMultiQueue>(
          dev, c.capacity, static_cast<std::uint32_t>(bands),
          [bands, n_hint](std::uint64_t token) {
            return std::min<std::uint64_t>(token * bands / n_hint, bands - 1);
          });
    }
  } else {
    QueueLayout layout = make_device_queue(dev, c.capacity);
    queue = make_queue_variant(c.variant, layout);
  }

  // Deterministic irregular task graphs on the task framework. Children
  // always carry larger ids than their parent, so every workload
  // terminates; kRandom allows duplicate children (several parents emit
  // the same id) with a global emission cap to bound the blow-up. The
  // first three spawn everything into band 0 (bare-id tokens, routed on
  // mq by the id-proportional map above).
  //
  // kTasks covers the framework's own flavors: a binary spawn tree where
  // every ticket past the seed is created from a delivery, with
  // seed-chosen single respawns (duplicate payloads through new
  // tickets) and defer/credit self-releases (shadow tasks with ids >=
  // n) — so the exactly-once checker sees dynamically created tickets of
  // every framework flavor.
  const std::uint64_t n = c.num_tasks;
  std::uint64_t emitted = 0;
  const std::uint64_t emit_cap = 4 * n;
  const std::uint64_t bands = mq_bands;
  const auto band_for = [bands, n](std::uint64_t id) {
    return bands <= 1 ? 0 : std::min<std::uint64_t>(id * bands / n, bands - 1);
  };
  std::vector<char> respawned(n, 0);
  const tasks::HostTask task = [&](tasks::TaskContext& ctx) {
    const std::uint64_t t = ctx.payload();
    switch (c.workload) {
      case Workload::kTree:
        if (2 * t + 1 < n) ctx.spawn(2 * t + 1, 0);
        if (2 * t + 2 < n) ctx.spawn(2 * t + 2, 0);
        break;
      case Workload::kChain:
        if (t + 1 < n) ctx.spawn(t + 1, 0);
        break;
      case Workload::kRandom: {
        const std::uint64_t fanout = hash2(c.seed, t) % 4;
        for (std::uint64_t j = 0; j < fanout && emitted < emit_cap; ++j) {
          const std::uint64_t child = t + 1 + hash2(c.seed ^ t, j) % 7;
          if (child < n) {
            ctx.spawn(child, 0);
            ++emitted;
          }
        }
        break;
      }
      case Workload::kTasks:
        if (t >= n) break;  // shadow task: leaf
        if (hash2(c.seed ^ 0x7a5c5, t) % 8 == 0 && respawned[t] == 0) {
          respawned[t] = 1;
          ctx.respawn();
          break;
        }
        if (2 * t + 1 < n) ctx.spawn(2 * t + 1, band_for(2 * t + 1));
        if (2 * t + 2 < n) ctx.spawn(2 * t + 2, band_for(2 * t + 2));
        if (t % 2 == 1) {
          // Deferred shadow, released by a same-task credit: exercises
          // the defer table and the release path without cross-task
          // handle-visibility ordering concerns.
          ctx.credit(ctx.defer(t + n, band_for(t + n), 1));
        }
        break;
    }
  };

  std::vector<tasks::TaskSeed> seeds;
  if (c.workload == Workload::kRandom) {
    for (std::uint64_t s = 0; s < 4 && s < n; ++s) seeds.push_back({s, 0});
  } else {
    seeds.push_back({0, 0});
  }

  FuzzOutcome out;
  tasks::HostTaskOptions hopt;
  hopt.num_workgroups = c.num_workgroups;
  try {
    out.run = tasks::run_host_tasks(dev, *queue, seeds, task, hopt);
    if (out.run.aborted) out.error = "aborted: " + out.run.abort_reason;
  } catch (const simt::SimError& e) {
    out.error = std::string("SimError: ") + e.what();
  }

  CheckOptions check_opt;
  check_opt.capacity = c.capacity;
  if (c.variant == QueueVariant::kMq) {
    const auto& mq = static_cast<const BucketedMultiQueue&>(*queue);
    // Banded checking maps each ticket into its band's ring segment.
    check_opt.num_bands = mq.num_bands();
    check_opt.capacity = mq.per_band_capacity();
  }
  // On an abort the run stopped mid-flight: tokens legally remain
  // undelivered, but the hard invariants (exactly-once, payload match,
  // slot/epoch mapping) must still hold for everything recorded.
  check_opt.expect_drained = out.error.empty();
  const std::vector<simt::OpRecord> records = history.snapshot();
  out.check = check_history(records, check_opt);
  out.history_records = records.size();
  if (raw_history != nullptr) *raw_history = records;
  if (!out.ok()) {
    // Every failed case ships its black box: the dump is what
    // bench/postmortem consumes when a sweep or CI run goes red.
    const std::string reason =
        !out.error.empty() ? out.error : "checker counterexample";
    out.black_box = dump_black_box(dev, queue.get(), reason);
  }
  return out;
}

FuzzOutcome run_host_fuzz_case(const HostFuzzCase& c) {
  simt::OpHistory history;
  HostBrokerQueue<std::uint64_t> queue(c.capacity);
  queue.attach_history(&history);

  const unsigned producers = std::max(1u, c.producers);
  const unsigned consumers = std::max(1u, c.consumers);

  // Partition the item range among producers and the consumption quota
  // among consumers; batch sizes are seed-derived so the interleaving
  // pressure varies per seed even under identical thread counts.
  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);
  for (unsigned p = 0; p < producers; ++p) {
    const std::uint64_t lo = c.items * p / producers;
    const std::uint64_t hi = c.items * (p + 1) / producers;
    threads.emplace_back([&, p, lo, hi] {
      std::uint64_t prng = c.seed ^ (0x50c1a1u + p);
      std::vector<std::uint64_t> batch;
      std::uint64_t next = lo;
      while (next < hi) {
        const std::uint64_t want = 1 + util::splitmix64(prng) % 8;
        batch.clear();
        for (std::uint64_t i = 0; i < want && next < hi; ++i) {
          batch.push_back(next++);
        }
        if (!queue.enqueue_batch(batch)) return;
      }
    });
  }
  for (unsigned k = 0; k < consumers; ++k) {
    const std::uint64_t quota =
        c.items * (k + 1) / consumers - c.items * k / consumers;
    const bool use_monitor_api = k == 0;  // exercise claim_slots/poll too
    threads.emplace_back([&, k, quota, use_monitor_api] {
      std::uint64_t prng = c.seed ^ (0xc0517u + k);
      std::uint64_t left = quota;
      std::vector<std::uint64_t> out(16);
      while (left > 0) {
        const std::uint32_t want = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, 1 + util::splitmix64(prng) % 8));
        if (use_monitor_api) {
          auto ticket = queue.claim_slots(want);
          while (!ticket.done()) {
            if (queue.poll(ticket, std::span<std::uint64_t>(out)) == 0) {
              std::this_thread::yield();
            }
          }
        } else {
          if (!queue.dequeue_batch(std::span<std::uint64_t>(out.data(), want))) {
            return;
          }
        }
        left -= want;
      }
    });
  }
  for (auto& t : threads) t.join();

  FuzzOutcome out;
  CheckOptions check_opt;
  check_opt.capacity = queue.capacity();  // power-of-two rounded
  check_opt.expect_drained = true;
  out.check = check_history(history.snapshot(), check_opt);
  out.history_records = history.size();
  return out;
}

}  // namespace scq::fuzz
