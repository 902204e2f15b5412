// End-to-end black-box tests: the forced failure scenarios must produce
// deterministic dumps, and the post-mortem analyzer must name the true
// blocking wave / band in each — while refusing to analyze a tampered
// document.
#include "util/postmortem.h"

#include <gtest/gtest.h>

#include <string>

#include "support/forced_failures.h"
#include "util/json.h"

namespace {

using scq::fuzz::ForcedDump;
using scq::util::JsonValue;
using scq::util::PostmortemReport;

bool any_contains(const std::vector<std::string>& lines,
                  const std::string& needle) {
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(PostmortemTest, ForcedDumpsAreDeterministic) {
  const ForcedDump p1 = scq::fuzz::forced_publish_deadlock_dump();
  const ForcedDump p2 = scq::fuzz::forced_publish_deadlock_dump();
  EXPECT_EQ(p1.reason, p2.reason);
  EXPECT_EQ(p1.json, p2.json);  // byte-identical across reruns

  const ForcedDump c1 = scq::fuzz::forced_cluster_stall_dump();
  const ForcedDump c2 = scq::fuzz::forced_cluster_stall_dump();
  EXPECT_EQ(c1.reason, c2.reason);
  EXPECT_EQ(c1.json, c2.json);
}

TEST(PostmortemTest, PublishDeadlockReportNamesBlockedWaveAndTicket) {
  const ForcedDump forced = scq::fuzz::forced_publish_deadlock_dump();
  EXPECT_NE(forced.reason.find("publish"), std::string::npos) << forced.reason;

  const auto doc = scq::util::parse_json(forced.json);
  ASSERT_TRUE(doc.has_value());
  const PostmortemReport report = scq::util::analyze_black_box(*doc);
  ASSERT_TRUE(report.valid) << report.validation_error;
  EXPECT_EQ(report.reason, forced.reason);

  // The scenario: a 4-slot ring seeded full, wave 0 parked on ticket 4
  // whose slot is held by the never-claimed ticket 0.
  EXPECT_TRUE(any_contains(report.wait_edges,
                           "wave 0 parked on ticket 4"))
      << report.render();
  EXPECT_TRUE(any_contains(report.verdicts,
                           "by ticket 0 — written but never claimed"))
      << report.render();
  EXPECT_TRUE(any_contains(report.verdicts, "publish backpressure deadlock"))
      << report.render();

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("== post-mortem =="), std::string::npos);
  EXPECT_NE(rendered.find("-- wait-for graph --"), std::string::npos);
  EXPECT_NE(rendered.find("-- verdicts --"), std::string::npos);
}

TEST(PostmortemTest, ClusterStallReportNamesDeviceAndBand) {
  const ForcedDump forced = scq::fuzz::forced_cluster_stall_dump();
  EXPECT_NE(forced.reason.find("stall"), std::string::npos) << forced.reason;
  // Satellite: stall abort reasons carry per-device occupancy detail.
  EXPECT_NE(forced.reason.find("occ="), std::string::npos) << forced.reason;

  const auto doc = scq::util::parse_json(forced.json);
  ASSERT_TRUE(doc.has_value());
  const PostmortemReport report = scq::util::analyze_black_box(*doc);
  ASSERT_TRUE(report.valid) << report.validation_error;

  // One token seeded on device 0, nothing ever claims it: band 0 of
  // dev0 holds the orphaned work (rear=1, completed=0).
  EXPECT_TRUE(any_contains(report.verdicts, "dev0 band 0: 1 incomplete"))
      << report.render();
  EXPECT_FALSE(any_contains(report.verdicts, "dev1 band 0: "))
      << report.render();
}

TEST(PostmortemTest, ParkedTransferNamesItsDestination) {
  const ForcedDump forced = scq::fuzz::forced_transfer_park_dump();
  EXPECT_EQ(forced.json, scq::fuzz::forced_transfer_park_dump().json);
  const auto doc = scq::util::parse_json(forced.json);
  ASSERT_TRUE(doc.has_value());
  const PostmortemReport report = scq::util::analyze_black_box(*doc);
  ASSERT_TRUE(report.valid) << report.validation_error;

  // Device 1's sub-ring 0 leads to device 0 and sub-ring 1 to device 2;
  // the ring unit names the destination, not the sub-ring.
  const std::string rendered = report.render();
  for (const char* dst : {"->dev0", "->dev2"}) {
    EXPECT_TRUE(any_contains(
        report.wait_edges,
        std::string("dev1 wave 0 parked on transfer ring ") + dst))
        << rendered;
  }
  EXPECT_FALSE(any_contains(report.wait_edges, "->dev1")) << rendered;
  EXPECT_TRUE(any_contains(report.wait_edges, "awaits host drain")) << rendered;
  // Four of each ring's six tokens landed; two wait per ring.
  EXPECT_TRUE(any_contains(report.verdicts, "ring dev1->dev0: 6 undelivered"))
      << rendered;
  EXPECT_TRUE(any_contains(report.verdicts, "ring dev1->dev2: 6 undelivered"))
      << rendered;
}

TEST(PostmortemTest, MutationKillTamperedDumpFailsValidation) {
  const ForcedDump forced = scq::fuzz::forced_publish_deadlock_dump();
  const auto doc = scq::util::parse_json(forced.json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(scq::util::analyze_black_box(*doc).valid);

  // completed > rear violates the queue protocol.
  {
    JsonValue tampered = *doc;
    JsonValue& band =
        tampered.object["devices"].array[0].object["queue"].object["bands"]
            .array[0];
    band.object["completed"].number = band.object["rear"].number + 1;
    const PostmortemReport r = scq::util::analyze_black_box(tampered);
    EXPECT_FALSE(r.valid);
    EXPECT_NE(r.validation_error.find("completed exceeds rear"),
              std::string::npos)
        << r.validation_error;
    EXPECT_TRUE(r.verdicts.empty());  // no confident verdict from garbage
    EXPECT_NE(r.render().find("INVALID DUMP"), std::string::npos);
  }

  // Occupancy must equal rear - front.
  {
    JsonValue tampered = *doc;
    tampered.object["devices"].array[0].object["queue"].object["bands"]
        .array[0].object["occupancy"].number += 1;
    const PostmortemReport r = scq::util::analyze_black_box(tampered);
    EXPECT_FALSE(r.valid);
    EXPECT_NE(r.validation_error.find("occupancy mismatch"),
              std::string::npos);
  }

  // A foreign event kind means the document was not written by this
  // recorder version.
  {
    JsonValue tampered = *doc;
    JsonValue& events =
        tampered.object["devices"].array[0].object["recorder"]
            .object["events"];
    ASSERT_FALSE(events.array.empty());
    events.array[0].object["kind"].str = "teleport";
    const PostmortemReport r = scq::util::analyze_black_box(tampered);
    EXPECT_FALSE(r.valid);
    EXPECT_NE(r.validation_error.find("unknown event kind"),
              std::string::npos);
  }

  // Not a black box at all.
  {
    JsonValue tampered = *doc;
    tampered.object["blackbox"].number = 2;
    EXPECT_FALSE(scq::util::analyze_black_box(tampered).valid);
  }
}

}  // namespace
