#include "support/forced_failures.h"

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "core/black_box.h"
#include "core/ext_schedulers.h"
#include "sim/device.h"
#include "sim/flight_recorder.h"

namespace scq::fuzz {

namespace {

using simt::Kernel;
using simt::Wave;

// Publishes one token and then keeps flushing the parked reservation —
// never dequeues, so the slot it waits on can never recycle. The
// publish deadlock detector aborts the kernel after
// kPublishDeadlockRounds frozen attempts.
Kernel<void> publish_only_wave(Wave& w, DeviceQueue& queue) {
  WaveQueueState st{};
  st.push_token(0, 42);
  for (;;) {
    co_await queue.publish(w, st);
  }
}

// Publishes `tokens` from lane 0 in one batch, then exits with any
// parked remainder.
Kernel<void> publish_batch_wave(Wave& w, DeviceQueue& queue,
                                std::vector<std::uint64_t> tokens) {
  WaveQueueState st{};
  for (const std::uint64_t t : tokens) st.push_token(0, t);
  co_await queue.publish(w, st);
}

}  // namespace

ForcedDump forced_publish_deadlock_dump() {
  simt::DeviceConfig cfg;
  cfg.name = "forced-publish-deadlock";
  cfg.num_cus = 1;
  cfg.waves_per_cu = 1;

  simt::Device dev(cfg);
  simt::FlightRecorder recorder;
  dev.attach_flight_recorder(&recorder);

  std::unique_ptr<DeviceQueue> queue =
      make_scheduler(dev, QueueVariant::kRfan, 4);

  // Fill every slot from the host; nothing will ever claim them.
  const std::uint64_t seeds[] = {10, 11, 12, 13};
  queue->seed(dev, seeds);

  const simt::RunResult run = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    return publish_only_wave(w, *queue);
  });

  ForcedDump out;
  out.reason = run.aborted ? run.abort_reason
                           : "forced publish deadlock: run did not abort";
  out.json = dump_black_box(dev, queue.get(), out.reason);
  return out;
}

ForcedDump forced_cluster_stall_dump() {
  simt::DeviceConfig cfg;
  cfg.name = "forced-cluster-stall";
  cfg.num_cus = 1;
  cfg.waves_per_cu = 1;

  cluster::ClusterOptions copt;
  copt.num_devices = 2;
  copt.quantum = 256;
  copt.queue_capacity = 8;
  copt.xfer_capacity = 8;

  cluster::Cluster cl(cfg, copt, {});
  const std::uint64_t seed[] = {1};
  cl.queue(0).seed(cl.device(0), seed);

  cluster::ClusterRun crun =
      cl.run([](std::uint32_t) -> simt::KernelFactory {
        return [](Wave&) -> Kernel<void> { co_return; };
      });

  ForcedDump out;
  out.reason = crun.aborted ? crun.abort_reason
                            : "forced cluster stall: run did not abort";
  out.json = crun.black_box.empty()
                 ? cl.dump_now(out.reason)
                 : std::move(crun.black_box);
  return out;
}

ForcedDump forced_transfer_park_dump() {
  simt::DeviceConfig cfg;
  cfg.name = "forced-transfer-park";
  cfg.num_cus = 1;
  cfg.waves_per_cu = 1;

  cluster::ClusterOptions copt;
  copt.num_devices = 3;
  copt.queue_capacity = 8;
  copt.xfer_capacity = 4;
  // Vertices 0..7 belong to device 0, 8..15 to device 2.
  std::vector<std::uint32_t> owner(16, 0);
  for (std::uint32_t v = 8; v < 16; ++v) owner[v] = 2;
  cluster::Cluster cl(cfg, copt, owner);

  const std::vector<std::uint64_t> tokens = {0, 1, 2,  3,  4,  5,
                                             8, 9, 10, 11, 12, 13};
  const simt::RunResult run =
      cl.device(1).launch(1, [&](Wave& w) -> Kernel<void> {
        return publish_batch_wave(w, cl.xfer(1), tokens);
      });

  ForcedDump out;
  out.reason = run.aborted ? run.abort_reason
                           : "forced transfer park: transfers await the host";
  out.json = cl.dump_now(out.reason);
  return out;
}

}  // namespace scq::fuzz
