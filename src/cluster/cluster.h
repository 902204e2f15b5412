// Multi-device cluster runtime: N simt::Device instances driven in
// lock-step from one shared cycle loop.
//
// Execution model (bulk-synchronous over a fine quantum):
//
//   - Every device runs its own persistent-thread kernel against its
//     own main queue (any QueueVariant), stepped via the incremental
//     Device::launch_begin / step_until / launch_end API.
//   - The shared loop advances all devices to a common horizon (the
//     superstep quantum), then runs a barrier: the host router drains
//     every inter-device transfer ring, optionally re-balances, and
//     injects the tokens into the owning devices' main queues.
//   - Kernels load a host-writable stop flag instead of the queue's
//     all_done predicate (the task engine's stop-word seam): only the
//     host can see cluster-wide quiescence. The cluster is quiescent
//     when every main queue has Completed == Rear, every transfer ring
//     has Front == Rear, and the router holds nothing pending.
//     Reservation-counting Rears make this sound: a task's remote
//     children are reserved in a transfer ring before the task reports
//     complete, so in-flight work always holds at least one of the
//     three conditions open. Quiescence assumes kernels create work
//     only when they start or from tokens they dequeue, so no barrier
//     gives a verdict until every device's launch has started (a
//     kernel's launch overhead spans many quanta, and before it an
//     empty cluster only looks quiescent).
//   - Determinism: one host thread, fixed iteration orders (device
//     index, source-major ring drains, FIFO pending), and the same
//     seeded per-device simulators — same seeds + device count give
//     bit-exact runs.
//
// Observability: with a cluster telemetry sink, each device records
// into its own simt::Telemetry whose metric prefix is "dev<N>." when
// the cluster has more than one device (single-device names stay
// unprefixed, so existing baselines diff clean); the per-device data
// merges into the sink when the run ends. Task traces are namespaced
// the same way via TaskTrace::set_ticket_namespace.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "cluster/transfer.h"
#include "core/queue.h"
#include "sim/config.h"

namespace scq::cluster {

struct ClusterOptions {
  std::uint32_t num_devices = 2;
  // Superstep quantum: how far every device advances between barriers
  // (> 0). Smaller = lower transfer latency, more host barriers.
  simt::Cycle quantum = 2048;
  BalancePolicy balance = BalancePolicy::kOwnerOnly;
  // kSteal: a device is overloaded when its load exceeds trigger * mean.
  double steal_trigger = 2.0;
  QueueVariant variant = QueueVariant::kRfan;
  std::uint64_t queue_capacity = 0;  // per-device main ring slots (> 0)
  std::uint64_t xfer_capacity = 0;   // per device-pair ring slots (> 0)
  // Optional sinks (not owned). Per-device instruments are created
  // internally and merged into these when a run ends. Per-device flight
  // recorders always exist (abort-path black boxes need them) and stay
  // inside the cluster.
  simt::Telemetry* telemetry = nullptr;
  simt::TaskTrace* task_trace = nullptr;
};

struct ClusterRun {
  std::vector<simt::RunResult> device_runs;  // per device, launch delta
  RouterStats router;
  std::uint64_t supersteps = 0;
  simt::Cycle cycles = 0;  // cluster makespan: max device launch cycles
  bool aborted = false;
  std::string abort_reason;
  // Black-box JSON (core/black_box.h) snapshotted at the moment of
  // death: per-device queue control blocks, flight-recorder rings and
  // wait tables, transfer-ring residency and router pending tokens.
  // Empty for clean runs.
  std::string black_box;
};

class Cluster {
 public:
  // Builds num_devices identical devices from `config`, a main queue of
  // `queue_capacity` slots per device, a transfer ring of
  // `xfer_capacity` slots per ordered device pair, one stop-flag word
  // per device, and (given a telemetry sink) per-device telemetry with
  // scheduler probes registered.
  Cluster(const simt::DeviceConfig& config, const ClusterOptions& options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t num_devices() const {
    return static_cast<std::uint32_t>(devices_.size());
  }
  [[nodiscard]] simt::Device& device(std::uint32_t d) { return *devices_[d]; }
  [[nodiscard]] DeviceQueue& queue(std::uint32_t d) { return *queues_[d]; }
  [[nodiscard]] const TransferRing& ring(std::uint32_t src,
                                         std::uint32_t dst) const {
    return rings_[src][dst];
  }
  // The stop word kernels load each work cycle; the host writes 1 at
  // cluster quiescence (or teardown) to release the persistent waves.
  [[nodiscard]] simt::Addr stop_flag(std::uint32_t d) const {
    return stop_flags_[d];
  }
  // Explicit black-box snapshot of the current cluster state (queues,
  // recorders, rings; no router — that context lives inside run()).
  // Callable at any time, including mid-run from host code.
  [[nodiscard]] std::string dump_now(const std::string& reason) const;

  // Builds the kernel factory for one device's launch.
  using DeviceKernelFactory =
      std::function<simt::KernelFactory(std::uint32_t device)>;

  // Runs every device to cluster quiescence under the superstep loop
  // and merges per-device telemetry/task traces into the sinks.
  // `workgroups` == 0 launches all resident wave slots per device.
  ClusterRun run(const DeviceKernelFactory& make_factory,
                 std::uint32_t workgroups = 0);

 private:
  [[nodiscard]] bool quiescent(const Router& router) const;
  [[nodiscard]] std::string assemble_black_box(const std::string& reason,
                                               const Router* router) const;
  // "; dev0 occ=A resident=B; ...; ring0->1 backlog=C; ..." — appended
  // to stall/guard abort reasons so the first line of a failure already
  // says where the work is stuck.
  [[nodiscard]] std::string occupancy_detail() const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<simt::Device>> devices_;
  std::vector<std::unique_ptr<DeviceQueue>> queues_;
  std::vector<std::vector<TransferRing>> rings_;  // rings_[src][dst]
  std::vector<simt::Addr> stop_flags_;
  std::vector<std::unique_ptr<simt::Telemetry>> telemetry_;
  std::vector<std::unique_ptr<simt::TaskTrace>> task_traces_;
  std::vector<std::unique_ptr<simt::FlightRecorder>> recorders_;
};

}  // namespace scq::cluster
