// FlightRecorder unit tests: ring wrap/drop accounting, the live wait
// tables keyed by (unit, ticket), the source label, and byte-stable
// JSON.
#include "sim/flight_recorder.h"

#include <gtest/gtest.h>

#include "util/json.h"

namespace simt {
namespace {

FlightEvent note(std::uint64_t ticket, Cycle cycle = 0) {
  return {FlightKind::kNote, 7, 0, ticket, ticket * 10, 0, cycle};
}

TEST(FlightRecorderTest, RingWrapKeepsMostRecentAndCountsDrops) {
  FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i) rec.record(note(i, i));

  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);

  // The survivors are the most recent four, in recording order, and
  // seq is the global index (survives the wrap).
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST(FlightRecorderTest, WaitTablesTrackClaimsAndReservations) {
  FlightRecorder rec;

  rec.record({FlightKind::kClaim, 3, 0, 17, 0, 2, 100});
  rec.record({FlightKind::kReserve, 5, 0, 9, 42, 1, 101});
  // Same ticket on a transfer ring is a distinct key (unit differs).
  rec.record({FlightKind::kReserve, 6, 2, 9, 43, 0, 102});

  auto monitors = rec.monitors();
  auto parked = rec.parked();
  ASSERT_EQ(monitors.size(), 1u);
  ASSERT_EQ(parked.size(), 2u);
  const FlightRecorder::WaitKey claim_key{0, 17};
  EXPECT_EQ(monitors.at(claim_key).actor, 3u);
  EXPECT_EQ(monitors.at(claim_key).band, 2u);
  EXPECT_EQ(monitors.at(claim_key).since, 100u);
  const FlightRecorder::WaitKey park_key{0, 9};
  const FlightRecorder::WaitKey xfer_key{2, 9};
  EXPECT_EQ(parked.at(park_key).actor, 5u);
  EXPECT_EQ(parked.at(park_key).token, 42u);
  EXPECT_EQ(parked.at(xfer_key).actor, 6u);

  // Deliver retires the monitor; writes retire each reservation under
  // its own (unit, ticket) key.
  rec.record({FlightKind::kDeliver, 3, 0, 17, 0, 2, 110});
  rec.record({FlightKind::kWrite, 5, 0, 9, 42, 1, 111});
  EXPECT_TRUE(rec.monitors().empty());
  ASSERT_EQ(rec.parked().size(), 1u);
  EXPECT_EQ(rec.parked().begin()->first, xfer_key);
  rec.record({FlightKind::kWrite, 6, 2, 9, 43, 0, 112});
  EXPECT_TRUE(rec.parked().empty());
}

TEST(FlightRecorderTest, LogStepCoalescesOneWaveBatch) {
  FlightRecorder rec;

  // Four lanes of one wave's claim batch at the same cycle: one ring
  // event whose ticket/band are the first lane's and whose payload is
  // the batch width.
  for (std::uint64_t t = 20; t < 24; ++t) {
    rec.log_step(FlightKind::kClaim, 3, 0, t, 1, 500);
  }
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightKind::kClaim);
  EXPECT_EQ(events[0].actor, 3u);
  EXPECT_EQ(events[0].ticket, 20u);
  EXPECT_EQ(events[0].payload, 4u);
  EXPECT_EQ(events[0].band, 1u);
  EXPECT_EQ(events[0].cycle, 500u);

  // log_step never touches the wait tables (wait transitions go through
  // full record() at the feed sites).
  EXPECT_TRUE(rec.monitors().empty());
  EXPECT_TRUE(rec.parked().empty());
}

TEST(FlightRecorderTest, LogStepFlushesOnMismatchRecordAndReaders) {
  FlightRecorder rec;

  // A change in any of (kind, actor, unit, cycle) starts a new batch.
  rec.log_step(FlightKind::kDeliver, 2, 0, 7, 0, 100);
  rec.log_step(FlightKind::kDeliver, 2, 0, 8, 0, 100);
  rec.log_step(FlightKind::kDeliver, 2, 0, 9, 0, 101);  // new cycle
  rec.log_step(FlightKind::kClaim, 2, 0, 10, 0, 101);   // new kind

  // A full record() flushes the pending batch first, so ring order
  // matches feed order.
  rec.record({FlightKind::kComplete, 2, 0, 0, 5, 0, 102});

  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, FlightKind::kDeliver);
  EXPECT_EQ(events[0].payload, 2u);  // tickets 7,8 coalesced
  EXPECT_EQ(events[1].kind, FlightKind::kDeliver);
  EXPECT_EQ(events[1].ticket, 9u);
  EXPECT_EQ(events[1].payload, 1u);
  EXPECT_EQ(events[2].kind, FlightKind::kClaim);
  EXPECT_EQ(events[2].payload, 1u);
  EXPECT_EQ(events[3].kind, FlightKind::kComplete);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // seq stamped at flush, in feed order
  }

  // Readers see the pending batch too: size()/recorded() flush it.
  rec.log_step(FlightKind::kWrite, 2, 0, 11, 0, 103);
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.recorded(), 5u);
}

TEST(FlightRecorderTest, LogStepsAddsWholeBatchesAndClearResetsPending) {
  FlightRecorder rec;

  // A width-aware batch merges into a matching pending step...
  rec.log_step(FlightKind::kClaim, 4, 0, 30, 0, 200);
  rec.log_steps(FlightKind::kClaim, 4, 0, 31, 0, 200, 7);
  // ...and zero-width calls are ignored.
  rec.log_steps(FlightKind::kClaim, 4, 0, 99, 0, 200, 0);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ticket, 30u);
  EXPECT_EQ(events[0].payload, 8u);

  // clear() drops a pending batch along with the ring.
  rec.log_step(FlightKind::kClaim, 4, 0, 40, 0, 201);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorderTest, ClearDropsDataButKeepsLabel) {
  FlightRecorder rec(4);
  rec.set_source_label("dev3");
  rec.record({FlightKind::kReserve, 1, 0, 2, 3, 0, 4});
  for (std::uint64_t i = 0; i < 6; ++i) rec.record(note(i));

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.parked().empty());
  EXPECT_EQ(rec.source_label(), "dev3");

  // seq restarts from zero after a clear.
  rec.record(note(9));
  EXPECT_EQ(rec.snapshot()[0].seq, 0u);
}

TEST(FlightRecorderTest, ToJsonIsByteStableAndParses) {
  auto feed = [](FlightRecorder& rec) {
    rec.record({FlightKind::kReserve, 2, 0, 5, 77, 1, 10});
    rec.record({FlightKind::kClaim, 3, 0, 1, 0, 0, 11});
    rec.record({FlightKind::kWrite, 2, 0, 5, 77, 1, 12});
  };
  FlightRecorder a(8), b(8);
  feed(a);
  feed(b);
  EXPECT_EQ(a.to_json(), b.to_json());

  const auto doc = scq::util::parse_json(a.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("flight_recorder").number, 1.0);
  EXPECT_EQ(doc->at("recorded").number, 3.0);
  EXPECT_EQ(doc->at("dropped").number, 0.0);
  ASSERT_EQ(doc->at("events").array.size(), 3u);
  EXPECT_EQ(doc->at("events").array[0].at("kind").str, "reserve");
  // One source, the recorder's own label, which every event names as
  // index 0.
  ASSERT_EQ(doc->at("sources").array.size(), 1u);
  EXPECT_EQ(doc->at("sources").array[0].str, "");
  for (const auto& e : doc->at("events").array) {
    EXPECT_EQ(e.at("src").number, 0.0);
  }
  // The write retired the reservation; the claim is still live.
  EXPECT_EQ(doc->at("parked").array.size(), 0u);
  ASSERT_EQ(doc->at("monitors").array.size(), 1u);
  EXPECT_EQ(doc->at("monitors").array[0].at("ticket").number, 1.0);
}

}  // namespace
}  // namespace simt
