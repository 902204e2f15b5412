// Standalone schedule-fuzzing driver.
//
// Sweeps seeds through the sim fuzz harness (seeded schedule
// perturbation + OpHistory + exactly-once/linearizability checker),
// rotating queue variant, workload shape, and ring capacity per seed,
// plus periodic host-queue storms with real threads. Every failure
// prints the exact command line that replays it.
//
//   fuzz_queues --seeds 520                 # CI sweep
//   fuzz_queues --fuzz-seed 77 --variant an --workload random --capacity 8
//   fuzz_queues --host-seed 13              # replay one host case
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/black_box.h"
#include "support/fuzz_harness.h"
#include "util/args.h"
#include "util/prng.h"
#include "util/sweep.h"

namespace {

using scq::QueueVariant;

QueueVariant variant_from_string(const std::string& s) {
  if (s == "base") return QueueVariant::kBase;
  if (s == "an") return QueueVariant::kAn;
  if (s == "rfan") return QueueVariant::kRfan;
  if (s == "mq") return QueueVariant::kMq;
  if (s == "distrib") return QueueVariant::kDistrib;
  std::fprintf(stderr, "unknown variant '%s' (base|an|rfan|mq|distrib)\n",
               s.c_str());
  std::exit(2);
}

// Splits a comma-separated variant list ("mq" or "an,rfan,mq"). Sweep
// seeds rotate through the list so a multi-variant pin still covers
// every listed variant evenly.
std::vector<QueueVariant> variants_from_list(const std::string& s) {
  std::vector<QueueVariant> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(start, comma - start);
    if (!item.empty()) out.push_back(variant_from_string(item));
    start = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "--only-variant: no variants in '%s'\n", s.c_str());
    std::exit(2);
  }
  return out;
}

// Sweep-mode case shapes are a pure function of the seed, so a failure
// replays from the seed alone; the printed replay command additionally
// pins every parameter explicitly.
scq::fuzz::SimFuzzCase sim_case_for_seed(std::uint64_t seed) {
  scq::fuzz::SimFuzzCase c;
  c.seed = seed;
  std::uint64_t s = seed ^ 0x5ca1ab1e0ddba11ull;
  const std::uint64_t h = scq::util::splitmix64(s);
  constexpr QueueVariant kVariants[] = {QueueVariant::kBase, QueueVariant::kAn,
                                        QueueVariant::kRfan, QueueVariant::kMq};
  constexpr scq::fuzz::Workload kWorkloads[] = {scq::fuzz::Workload::kTree,
                                                scq::fuzz::Workload::kChain,
                                                scq::fuzz::Workload::kRandom,
                                                scq::fuzz::Workload::kTasks};
  constexpr std::uint64_t kCapacities[] = {8, 16, 24, 40, 56};
  c.variant = kVariants[h % 4];
  c.workload = kWorkloads[(h / 4) % 4];
  c.capacity = kCapacities[(h / 16) % 5];
  return c;
}

scq::fuzz::HostFuzzCase host_case_for_seed(std::uint64_t seed) {
  scq::fuzz::HostFuzzCase c;
  c.seed = seed;
  std::uint64_t s = seed ^ 0x7057ca5e5ull;
  const std::uint64_t h = scq::util::splitmix64(s);
  c.capacity = 8 << (h % 3);
  c.producers = 1 + static_cast<unsigned>((h / 3) % 4);
  c.consumers = 1 + static_cast<unsigned>((h / 12) % 4);
  c.items = 1024;
  return c;
}

// Writes a failed case's black box next to the binary and prints the
// path — CI uploads blackbox_*.json as artifacts, and bench/postmortem
// turns them into a named blocking cycle / starved band.
void emit_black_box(std::uint64_t seed, const std::string& json) {
  if (json.empty()) return;
  const std::string path =
      "blackbox_fuzz_seed" + std::to_string(seed) + ".json";
  if (scq::write_black_box(json, path)) {
    std::printf("  black box: %s (analyze with: postmortem --dump %s)\n",
                path.c_str(), path.c_str());
  }
}

bool run_one_host(const scq::fuzz::HostFuzzCase& c, bool verbose) {
  const scq::fuzz::FuzzOutcome out = scq::fuzz::run_host_fuzz_case(c);
  if (!out.ok()) {
    std::printf("FAIL host seed=%llu capacity=%zu producers=%u consumers=%u\n"
                "  replay: fuzz_queues --host-seed %llu\n%s",
                static_cast<unsigned long long>(c.seed), c.capacity,
                c.producers, c.consumers,
                static_cast<unsigned long long>(c.seed),
                out.check.report().c_str());
  } else if (verbose) {
    std::printf("PASS host seed=%llu (%llu records)\n",
                static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(out.history_records));
  }
  return out.ok();
}

}  // namespace

int main(int argc, char** argv) {
  scq::util::ArgParser args(
      "fuzz_queues",
      "Schedule-fuzz the device queue variants and the host broker queue, "
      "checking every run's operation history for exactly-once delivery "
      "and FIFO linearizability.");
  args.add_int("seeds", "number of sweep seeds", 128);
  args.add_int("seed-start", "first sweep seed", 1);
  args.add_int("host-every", "run a host case every Nth seed (0 = never)", 4);
  args.add_int("fuzz-seed", "replay one sim case with this seed", -1);
  args.add_int("host-seed", "replay one host case with this seed", -1);
  args.add_string("variant",
                  "replay: queue variant (base|an|rfan|mq|distrib)", "rfan");
  args.add_string("workload", "replay: workload (tree|chain|random|tasks)",
                  "tree");
  args.add_string("only-variant",
                  "sweep: pin sim cases to this comma-separated variant "
                  "list (e.g. 'mq' or 'an,rfan,mq,distrib'), rotating "
                  "through the list per seed instead of the default "
                  "base/an/rfan/mq rotation (empty = default)",
                  "");
  args.add_string("only-workload",
                  "sweep: pin every sim case to this workload "
                  "(tree|chain|random|tasks; empty = rotate)",
                  "");
  args.add_int("capacity", "replay: ring capacity", 24);
  args.add_int("tasks", "replay: workload size bound", 96);
  args.add_flag("verbose", "print every case, not just failures", false);
  args.add_int("sweep-threads",
               "host threads for the sim-seed sweep (1 = serial, 0 = "
               "hardware concurrency)",
               1);
  if (!args.parse(argc, argv)) return 2;

  const bool verbose = args.get_flag("verbose");

  if (args.get_int("host-seed") >= 0) {
    const auto c =
        host_case_for_seed(static_cast<std::uint64_t>(args.get_int("host-seed")));
    return run_one_host(c, true) ? 0 : 1;
  }
  if (args.get_int("fuzz-seed") >= 0) {
    scq::fuzz::SimFuzzCase c;
    c.seed = static_cast<std::uint64_t>(args.get_int("fuzz-seed"));
    c.variant = variant_from_string(args.get_string("variant"));
    c.workload = scq::fuzz::workload_from_string(args.get_string("workload"));
    c.capacity = static_cast<std::uint64_t>(args.get_int("capacity"));
    c.num_tasks = static_cast<std::uint32_t>(args.get_int("tasks"));
    const scq::fuzz::FuzzOutcome out = scq::fuzz::run_sim_fuzz_case(c);
    std::printf("%s\n", out.describe(c).c_str());
    if (!out.ok()) emit_black_box(c.seed, out.black_box);
    return out.ok() ? 0 : 1;
  }

  const std::uint64_t first =
      static_cast<std::uint64_t>(args.get_int("seed-start"));
  const std::uint64_t count = static_cast<std::uint64_t>(args.get_int("seeds"));
  const std::int64_t host_every = args.get_int("host-every");
  const unsigned threads = scq::util::resolve_sweep_threads(
      args.get_int("sweep-threads"), static_cast<std::size_t>(count));
  std::uint64_t sim_runs = 0, host_runs = 0, failures = 0;

  // Sim cases are independent single-threaded simulations, so they fan
  // out over the sweep runner; each worker writes only its own seed's
  // slot and the results are reduced in seed order below, making stdout
  // and the exit code identical to a serial sweep. Host cases spawn
  // real producer/consumer threads themselves, so they stay serial to
  // keep the thread count bounded.
  struct SimSlot {
    bool ok = false;
    std::string text;
    std::string black_box;
  };
  const std::string only_variant = args.get_string("only-variant");
  const std::vector<QueueVariant> pinned =
      only_variant.empty() ? std::vector<QueueVariant>{}
                           : variants_from_list(only_variant);
  const std::string only_workload = args.get_string("only-workload");
  const bool pin_workload = !only_workload.empty();
  const scq::fuzz::Workload pinned_workload =
      pin_workload ? scq::fuzz::workload_from_string(only_workload)
                   : scq::fuzz::Workload::kTree;
  std::vector<SimSlot> slots(count);
  scq::util::parallel_sweep(
      static_cast<std::size_t>(count), threads, [&](std::size_t i) {
        auto c = sim_case_for_seed(first + i);
        if (!pinned.empty()) c.variant = pinned[i % pinned.size()];
        if (pin_workload) c.workload = pinned_workload;
        const scq::fuzz::FuzzOutcome out = scq::fuzz::run_sim_fuzz_case(c);
        slots[i].ok = out.ok();
        if (!out.ok() || verbose) slots[i].text = out.describe(c) + "\n";
        if (!out.ok()) slots[i].black_box = out.black_box;
      });
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!slots[i].text.empty()) std::fputs(slots[i].text.c_str(), stdout);
    if (!slots[i].ok) {
      ++failures;
      emit_black_box(first + i, slots[i].black_box);
    }
    ++sim_runs;
    if (!verbose && threads <= 1 && (i + 1) % 64 == 0) {
      std::printf("... %llu/%llu seeds swept, %llu failure(s)\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(failures));
    }
  }
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    if (host_every > 0 && (seed - first) % static_cast<std::uint64_t>(
                                              host_every) == 0) {
      if (!run_one_host(host_case_for_seed(seed), verbose)) ++failures;
      ++host_runs;
    }
  }
  std::printf("%s: %llu sim + %llu host cases, %llu failure(s)\n",
              failures == 0 ? "CLEAN" : "VIOLATIONS",
              static_cast<unsigned long long>(sim_runs),
              static_cast<unsigned long long>(host_runs),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
