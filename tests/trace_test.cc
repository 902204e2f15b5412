// Tests for the execution tracer: event capture during kernel runs,
// bounded capacity, and Chrome trace JSON rendering.
#include <gtest/gtest.h>

#include "sim/device.h"
#include "sim/trace.h"

namespace simt {
namespace {

DeviceConfig cfg() {
  DeviceConfig c;
  c.num_cus = 2;
  c.waves_per_cu = 1;
  c.mem_latency = 100;
  c.atomic_latency = 50;
  c.atomic_service = 4;
  c.lds_latency = 8;
  c.issue_cost = 2;
  c.kernel_launch_overhead = 1000;
  return c;
}

TEST(TraceTest, RecordsOneSlicePerOperation) {
  Device dev(cfg());
  TraceRecorder trace;
  dev.attach_tracer(&trace);
  const Buffer b = dev.alloc(4);
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    co_await w.compute(10);
    co_await w.store(b.at(0), 1);
    (void)co_await w.load(b.at(0));
    (void)co_await w.atomic_add(b.at(1), 1);
    co_await w.lds_ops(3);
    co_await w.idle(50);
  });
  ASSERT_EQ(trace.events().size(), 6u);
  EXPECT_EQ(trace.events()[0].op, TraceOp::kCompute);
  EXPECT_EQ(trace.events()[1].op, TraceOp::kStore);
  EXPECT_EQ(trace.events()[2].op, TraceOp::kLoad);
  EXPECT_EQ(trace.events()[3].op, TraceOp::kAtomic);
  EXPECT_EQ(trace.events()[4].op, TraceOp::kLds);
  EXPECT_EQ(trace.events()[5].op, TraceOp::kIdle);
  // Slices are contiguous in wave-local time and non-decreasing.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_GE(trace.events()[i].begin, trace.events()[i - 1].end);
  }
  EXPECT_EQ(trace.events()[0].begin, 1000u) << "starts after launch overhead";
}

TEST(TraceTest, IdentifiesCuAndWorkgroup) {
  Device dev(cfg());
  TraceRecorder trace;
  dev.attach_tracer(&trace);
  (void)dev.launch(2, [&](Wave& w) -> Kernel<void> {
    co_await w.compute(5);
  });
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_NE(trace.events()[0].cu, trace.events()[1].cu)
      << "workgroups spread across CUs";
  EXPECT_NE(trace.events()[0].workgroup, trace.events()[1].workgroup);
}

TEST(TraceTest, CapacityBoundsRecording) {
  Device dev(cfg());
  TraceRecorder trace(4);
  dev.attach_tracer(&trace);
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    for (int i = 0; i < 10; ++i) co_await w.compute(1);
  });
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceTest, NoTracerNoCost) {
  Device dev(cfg());
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> { co_await w.compute(1); });
  EXPECT_EQ(dev.tracer(), nullptr);
}

TEST(TraceTest, ChromeJsonShape) {
  TraceRecorder trace;
  trace.record({100, 150, 1, 2, 3, TraceOp::kAtomic});
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"atomic\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"wg3\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceTest, WriteToFile) {
  TraceRecorder trace;
  trace.record({0, 1, 0, 0, 0, TraceOp::kCompute});
  const std::string path = ::testing::TempDir() + "/scq_trace.json";
  ASSERT_TRUE(trace.write_chrome_json(path));
  EXPECT_FALSE(trace.write_chrome_json("/nonexistent-dir/x.json"));
}

TEST(TraceTest, CounterEventsRenderAsCounterTracks) {
  TraceRecorder trace;
  trace.record_counter({100, "queue.occupancy", 42.0});
  trace.record_counter({200, "queue.occupancy", 17.5});
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue.occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":17.5}"), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.counters().empty());
}

TEST(TraceTest, CounterNamesAreJsonEscaped) {
  TraceRecorder trace;
  trace.record_counter({0, "odd\"na\\me\n", 1.0});
  const std::string json = trace.to_chrome_json();
  // Quote, backslash and control characters all get escaped.
  EXPECT_NE(json.find("odd\\\"na\\\\me\\n"), std::string::npos);
}

TEST(TraceTest, CounterCapacityBoundsRecording) {
  TraceRecorder trace(2);
  for (int i = 0; i < 5; ++i) {
    trace.record_counter({static_cast<Cycle>(i), "c", 1.0});
  }
  EXPECT_EQ(trace.counters().size(), 2u);
  EXPECT_EQ(trace.dropped_counters(), 3u);
}

TEST(TraceTest, DroppedMetadataRecordIsAlwaysPresent) {
  TraceRecorder complete;
  complete.record({0, 1, 0, 0, 0, TraceOp::kCompute});
  EXPECT_NE(complete.to_chrome_json().find(
                "\"name\":\"dropped\",\"ph\":\"M\""),
            std::string::npos);
  EXPECT_NE(complete.to_chrome_json().find(
                "\"slices\":0,\"counters\":0,\"flows\":0"),
            std::string::npos);

  TraceRecorder truncated(1);
  truncated.record({0, 1, 0, 0, 0, TraceOp::kCompute});
  truncated.record({1, 2, 0, 0, 0, TraceOp::kCompute});
  truncated.record_counter({0, "c", 1.0});
  truncated.record_counter({1, "c", 2.0});
  truncated.record_flow({0, 7, true, 0, 0});
  truncated.record_flow({1, 7, false, 0, 0});
  EXPECT_NE(truncated.to_chrome_json().find(
                "\"slices\":1,\"counters\":1,\"flows\":1"),
            std::string::npos)
      << "truncation is reported, not silent";
  EXPECT_EQ(truncated.total_dropped(), 3u);
}

TEST(TraceTest, OpNames) {
  EXPECT_STREQ(to_string(TraceOp::kVecAtomic), "vatomic");
  EXPECT_STREQ(to_string(TraceOp::kVecLoad), "vload");
  EXPECT_STREQ(to_string(TraceOp::kIdle), "idle");
}

}  // namespace
}  // namespace simt
