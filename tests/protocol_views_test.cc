// Pins for the three views of the queue protocol — the op history, the
// flight recorder and the task trace — and for the two forced black-box
// dumps.
//
// Each case is a schedule-fuzzed sim run (tests/support/fuzz_harness.h:
// capacity 24, below the wave width, seeded tie-breaking and jitter)
// with all three views attached. A case pins FNV-1a hashes of every
// field of every history record, of TaskTrace::to_json() and of
// FlightRecorder::to_json(). The recorder's document includes its wait
// tables, and the cases are chosen so that its ring holds full
// (uncoalesced) claim, reserve, write and deliver events: the
// wait-transition records are pinned along with the coalesced batches.
//
// The pins hold what each view records, byte for byte. Regenerate a row
// only for an intended change to a view — a failing row prints its
// replacement in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/datasets.h"
#include "bfs/pt_bfs.h"
#include "core/counters.h"
#include "support/forced_failures.h"
#include "support/fuzz_harness.h"
#include "support/queue_checker.h"

namespace scq::fuzz {
namespace {

class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) byte((word >> (8 * b)) & 0xff);
  }
  void add(const std::string& s) {
    for (const char ch : s) byte(static_cast<unsigned char>(ch));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) { h_ = (h_ ^ b) * 0x100000001b3ull; }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t hash_history(const std::vector<simt::OpRecord>& records) {
  Fnv h;
  h.add(records.size());
  for (const simt::OpRecord& r : records) {
    h.add(static_cast<std::uint64_t>(r.op));
    h.add(r.actor);
    h.add(r.ticket);
    h.add(r.slot);
    h.add(r.epoch);
    h.add(r.payload);
    h.add(r.cycle);
    h.add(r.band);
  }
  return h.value();
}

std::uint64_t hash_text(const std::string& s) {
  Fnv h;
  h.add(s);
  return h.value();
}

struct ViewCase {
  std::string name;
  SimFuzzCase c;
};

// Without a printer gtest lists the case as a byte dump whose first word
// is the name's heap address, so the discovered ctest name would change
// on every build.
void PrintTo(const ViewCase& vc, std::ostream* os) { *os << vc.name; }

const char* variant_name(QueueVariant v) {
  switch (v) {
    case QueueVariant::kBase: return "base";
    case QueueVariant::kAn: return "an";
    case QueueVariant::kRfan: return "rfan";
    case QueueVariant::kMq: return "mq";
    default: return "?";
  }
}

std::vector<ViewCase> view_cases() {
  std::vector<ViewCase> out;
  for (const Workload wl : {Workload::kTree, Workload::kChain,
                            Workload::kRandom, Workload::kTasks}) {
    for (const QueueVariant v : {QueueVariant::kBase, QueueVariant::kAn,
                                 QueueVariant::kRfan, QueueVariant::kMq}) {
      for (const std::uint64_t seed : {5u, 12u}) {
        SimFuzzCase c;
        c.seed = seed;
        c.variant = v;
        c.workload = wl;
        out.push_back({std::string(variant_name(v)) + "_" + to_string(wl) +
                           "_s" + std::to_string(seed),
                       c});
      }
    }
  }
  return out;
}

// {history, task trace, flight recorder} per case.
const std::map<std::string, std::vector<std::uint64_t>>& pins() {
  static const std::map<std::string, std::vector<std::uint64_t>> kPins = {
      {"base_tree_s5",
       {16916825443620677287ull, 5286492223084113095ull,
        5662498636140380533ull}},
      {"base_tree_s12",
       {9307878640914378020ull, 15040124069452399480ull,
        8940357470237730328ull}},
      {"an_tree_s5",
       {8872335931686886938ull, 9430065392974614731ull,
        9209446686465992830ull}},
      {"an_tree_s12",
       {5125374853677493810ull, 10026689224748025822ull,
        9346991176416502864ull}},
      {"rfan_tree_s5",
       {1519895684811800577ull, 3331049151751512690ull,
        18046133788291371674ull}},
      {"rfan_tree_s12",
       {467440729412536603ull, 3250854068270610699ull,
        6234039830458739453ull}},
      {"mq_tree_s5",
       {4423031067664411279ull, 4451623427754431450ull,
        183280028948535592ull}},
      {"mq_tree_s12",
       {13056865143719634418ull, 17616242205804708769ull,
        13741715649931648399ull}},
      {"base_chain_s5",
       {16934791939225284048ull, 17705351569619831647ull,
        14244907080195739600ull}},
      {"base_chain_s12",
       {15173727314830070290ull, 5688699990614751983ull,
        9866470258972682767ull}},
      {"an_chain_s5",
       {3129174762844223335ull, 6809214443064080068ull,
        12429054412296778496ull}},
      {"an_chain_s12",
       {15530056396847360439ull, 13060290497049869476ull,
        767279584851312540ull}},
      {"rfan_chain_s5",
       {11134034298774578769ull, 15752996656178430748ull,
        10989254943270785364ull}},
      {"rfan_chain_s12",
       {12368833043366744946ull, 5750076500913379915ull,
        10463482170732304484ull}},
      {"mq_chain_s5",
       {16809747209995204474ull, 319568077494881964ull,
        8571642213834291434ull}},
      {"mq_chain_s12",
       {14124634246687945778ull, 5610312221185730984ull,
        2424365574497793677ull}},
      {"base_random_s5",
       {9481587355866559483ull, 15975792765345651265ull,
        12728414581081151187ull}},
      {"base_random_s12",
       {10663929726182201095ull, 16577623780262364817ull,
        176305547714747108ull}},
      {"an_random_s5",
       {2990794981361612184ull, 17328090385332425258ull,
        11048849367461770133ull}},
      {"an_random_s12",
       {961542154824065845ull, 6565624752742860622ull,
        1501447049027233196ull}},
      {"rfan_random_s5",
       {9206546877625485511ull, 687933837773076196ull,
        9815308534841069784ull}},
      {"rfan_random_s12",
       {17817207546546691456ull, 4683508915760864272ull,
        4496080731257664649ull}},
      {"mq_random_s5",
       {4678232802432980020ull, 1220203320895079205ull,
        12343623127305430073ull}},
      {"mq_random_s12",
       {8099785071874206947ull, 3118839273137486530ull,
        9923946277466234545ull}},
      {"base_tasks_s5",
       {14191315505391178232ull, 6718241130892019226ull,
        9885137304828583357ull}},
      {"base_tasks_s12",
       {9356532116206323475ull, 2708246627720434547ull,
        11998499366816855751ull}},
      {"an_tasks_s5",
       {5911850623615960297ull, 17757964382052081901ull,
        18360946568292494240ull}},
      {"an_tasks_s12",
       {7165421620686162284ull, 4634236069083294136ull,
        5982180502296741401ull}},
      {"rfan_tasks_s5",
       {18082902923331044134ull, 5671720702349414425ull,
        16588084882525952306ull}},
      {"rfan_tasks_s12",
       {5419143793503005292ull, 2629545116108621181ull,
        11303229778333311655ull}},
      {"mq_tasks_s5",
       {17863962246041400601ull, 7812319128338254135ull,
        11343374283407262413ull}},
      {"mq_tasks_s12",
       {3995982532604043918ull, 10623387876813260280ull,
        1411819325021924631ull}},
  };
  return kPins;
}

std::string source_row(const std::string& name,
                       const std::vector<std::uint64_t>& values) {
  std::ostringstream os;
  os << "      {\"" << name << "\",\n       {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << values[i] << "ull";
    if (i + 1 < values.size()) os << (i == 1 ? ",\n        " : ", ");
  }
  os << "}},";
  return os.str();
}

class ProtocolViews : public ::testing::TestWithParam<ViewCase> {};

TEST_P(ProtocolViews, MatchPinnedHashes) {
  const ViewCase& vc = GetParam();
  std::vector<simt::OpRecord> records;
  CaseViews views;
  const FuzzOutcome out = run_sim_fuzz_case(vc.c, &records, &views);
  ASSERT_TRUE(out.ok()) << out.describe(vc.c);
  const std::vector<std::uint64_t> got = {
      hash_history(records), hash_text(views.task_trace.to_json()),
      hash_text(views.recorder_json)};
  const auto it = pins().find(vc.name);
  ASSERT_NE(it, pins().end()) << "no pin for " << vc.name << "; measured:\n"
                              << source_row(vc.name, got);
  EXPECT_EQ(got, it->second) << "measured row:\n" << source_row(vc.name, got);
}

INSTANTIATE_TEST_SUITE_P(
    FuzzCases, ProtocolViews, ::testing::ValuesIn(view_cases()),
    [](const ::testing::TestParamInfo<ViewCase>& i) { return i.param.name; });

// The pinned cases reach every recorder wait transition. A claim's
// first missed poll is a full claim event (payload 0, where a coalesced
// batch carries its width), and the delivery that retires it names the
// same ticket. A reservation's first stalled flush is a full reserve
// event and the write that retires it a full write; a clean run with
// publish stalls whose recorder dropped nothing holds both. A pin over
// cases that only ever coalesce would not hold those paths.
TEST(ProtocolViews, CasesHoldFullWaitTransitionEvents) {
  bool waited_delivery = false;
  bool waited_write = false;
  for (const ViewCase& vc : view_cases()) {
    CaseViews views;
    const FuzzOutcome out = run_sim_fuzz_case(vc.c, nullptr, &views);
    ASSERT_TRUE(out.ok()) << out.describe(vc.c);
    ASSERT_EQ(views.task_trace.dropped(), 0u) << vc.name;
    const bool whole_run =
        views.recorder_json.find("\"dropped\":0,") != std::string::npos;
    waited_write |= whole_run && out.run.stats.user[kPublishStalls] != 0;
    std::set<std::uint64_t> waited_claims;
    for (const simt::FlightEvent& e : views.recorder_events) {
      if (e.actor == simt::kHostActor || e.unit != 0) continue;
      if (e.kind == simt::FlightKind::kClaim && e.payload == 0) {
        waited_claims.insert(e.ticket);
      } else if (e.kind == simt::FlightKind::kDeliver) {
        waited_delivery |= waited_claims.count(e.ticket) != 0;
      }
    }
  }
  EXPECT_TRUE(waited_delivery);
  EXPECT_TRUE(waited_write);
}

TEST(ProtocolViews, ForcedDumpsMatchPinnedHashes) {
  EXPECT_EQ(hash_text(forced_publish_deadlock_dump().json),
            13892504838232736676ull);
  EXPECT_EQ(hash_text(forced_cluster_stall_dump().json),
            13166276102282334356ull);
}

// Host seeding is one protocol step, so every queue's seeds reach both
// the op history and the task trace: each seed ticket the trace shows
// the host reserving and writing, the history shows too. A seed that
// reached only the trace would make the checker read its delivery as a
// fabricated payload.
TEST(ProtocolViews, HostSeedsReachHistoryAndTrace) {
  const graph::Graph g = bfs::bench_random_graph();
  for (const QueueVariant v :
       {QueueVariant::kBase, QueueVariant::kAn, QueueVariant::kRfan,
        QueueVariant::kMq, QueueVariant::kDistrib}) {
    SCOPED_TRACE(std::string(to_string(v)));
    simt::OpHistory history;
    simt::TaskTrace trace;
    bfs::PtBfsOptions opt;
    opt.variant = v;
    opt.history = &history;
    opt.task_trace = &trace;
    const bfs::BfsResult r = bfs::run_pt_bfs(simt::spectre_config(), g, 0, opt);
    ASSERT_FALSE(r.run.aborted);

    // Per host-published ticket, the steps each view holds: one bit for
    // the reservation, one for the write, and 4 for any repeat.
    std::map<std::uint64_t, unsigned> traced, recorded;
    const auto note = [](unsigned& steps, unsigned bit) {
      steps |= (steps & bit) != 0 ? 4u : bit;
    };
    for (const simt::TaskEvent& e : trace.snapshot()) {
      if (e.actor != simt::kHostActor) continue;
      if (e.phase == simt::TaskPhase::kReserve) note(traced[e.ticket], 1);
      if (e.phase == simt::TaskPhase::kPayloadWrite) note(traced[e.ticket], 2);
    }
    const std::vector<simt::OpRecord> records = history.snapshot();
    for (const simt::OpRecord& rec : records) {
      if (rec.actor != simt::kHostActor) continue;
      if (rec.op == simt::QueueOp::kEnqueueReserve) {
        note(recorded[rec.ticket], 1);
      }
      if (rec.op == simt::QueueOp::kEnqueueWrite) {
        note(recorded[rec.ticket], 2);
      }
    }
    ASSERT_FALSE(traced.empty());
    for (const auto& [ticket, steps] : traced) {
      EXPECT_EQ(steps, 3u) << "ticket " << ticket;
      EXPECT_EQ(recorded[ticket], 3u) << "ticket " << ticket;
    }
    if (v == QueueVariant::kDistrib) {
      CheckOptions check;
      check.capacity = 0;
      check.require_contiguous_tickets = false;
      const CheckResult result = check_history(records, check);
      EXPECT_TRUE(result.ok()) << result.report();
    }
  }
}

}  // namespace
}  // namespace scq::fuzz
