#include "cluster/cluster.h"

#include <algorithm>

#include "core/black_box.h"
#include "core/ext_schedulers.h"
#include "core/telemetry_probes.h"
#include "sim/task_trace.h"
#include "sim/telemetry.h"

namespace scq::cluster {

namespace {

// Backstop against a livelocked superstep loop (a barrier that never
// reaches quiescence). Far above anything a real workload needs: the
// deadlock detectors inside the device queues fire long before this.
constexpr std::uint64_t kMaxSupersteps = std::uint64_t{1} << 22;

}  // namespace

Cluster::Cluster(const simt::DeviceConfig& config,
                 const ClusterOptions& options,
                 std::vector<std::uint32_t> owner)
    : options_(options), owner_(std::move(owner)) {
  if (options_.num_devices == 0) {
    throw simt::SimError("Cluster: num_devices must be >= 1");
  }
  if (options_.queue_capacity == 0 || options_.xfer_capacity == 0) {
    throw simt::SimError("Cluster: queue and transfer capacities must be > 0");
  }
  if (options_.quantum == 0) {
    // A zero horizon never advances: no event would ever run.
    throw simt::SimError("Cluster: quantum must be > 0");
  }
  if (options_.variant != QueueVariant::kBase &&
      options_.variant != QueueVariant::kAn &&
      options_.variant != QueueVariant::kRfan) {
    // The host router injects through DeviceQueue::host_push, which
    // writes sub-ring 0 and so assumes the one shared ring: MQ and
    // DISTRIB route tokens by band or CU, and LOCK-STACK is no ring.
    throw simt::SimError(
        "Cluster supports the BASE/AN/RF-AN ring schedulers only");
  }

  const std::uint32_t n = options_.num_devices;
  for (const std::uint32_t o : owner_) {
    if (o >= n) throw simt::SimError("Cluster: owner device out of range");
  }
  const bool prefixed = n > 1;
  for (std::uint32_t d = 0; d < n; ++d) {
    devices_.push_back(std::make_unique<simt::Device>(config));
    queues_.push_back(
        make_scheduler(*devices_[d], options_.variant, options_.queue_capacity));
    stop_flags_.push_back(devices_[d]->alloc(1).base);
    devices_[d]->write_word(stop_flags_[d], 0);
  }
  if (n > 1) {
    for (std::uint32_t s = 0; s < n; ++s) {
      xfers_.push_back(std::make_unique<TransferQueue>(
          *devices_[s], s, n, options_.xfer_capacity, owner_));
    }
  }
  // Flight recorders are unconditional: black-box dumps on the abort
  // paths need the recent-event ring even when the caller attached no
  // sink. Bounded and cheap, per the always-on contract.
  for (std::uint32_t d = 0; d < n; ++d) {
    auto rec = std::make_unique<simt::FlightRecorder>();
    if (prefixed) rec->set_source_label("dev" + std::to_string(d));
    devices_[d]->attach_flight_recorder(rec.get());
    recorders_.push_back(std::move(rec));
  }

  if (options_.telemetry != nullptr) {
    for (std::uint32_t d = 0; d < n; ++d) {
      auto dev_tel = std::make_unique<simt::Telemetry>(
          options_.telemetry->options());
      if (prefixed) dev_tel->set_prefix("dev" + std::to_string(d) + ".");
      register_scheduler_probes(*dev_tel, *devices_[d], *queues_[d]);
      if (n > 1) {
        dev_tel->register_window_gauge(
            tel::kXferBacklog,
            [xfer = xfers_[d].get(), dev = devices_[d].get()](simt::Cycle) {
              return xfer->occupancy(*dev);
            });
      }
      devices_[d]->attach_telemetry(dev_tel.get());
      telemetry_.push_back(std::move(dev_tel));
    }
  }
  if (options_.task_trace != nullptr) {
    for (std::uint32_t d = 0; d < n; ++d) {
      auto trace = std::make_unique<simt::TaskTrace>();
      if (prefixed) {
        trace->set_ticket_namespace(static_cast<std::uint64_t>(d)
                                    << simt::TaskTrace::kTicketNamespaceShift);
      }
      devices_[d]->attach_task_trace(trace.get());
      task_traces_.push_back(std::move(trace));
    }
  }
}

std::string Cluster::assemble_black_box(const std::string& reason,
                                        const Router* router) const {
  BlackBoxBuilder box(reason);
  const std::uint32_t n = num_devices();
  for (std::uint32_t d = 0; d < n; ++d) {
    box.add_device(n > 1 ? "dev" + std::to_string(d) : std::string{},
                   *devices_[d], queues_[d].get(), recorders_[d].get());
  }
  for (const XferRingEnds& r : xfer_ring_ends()) {
    box.add_ring(r.src, r.dst, r.front, r.rear,
                 xfers_[r.src]->per_ring_capacity());
  }
  if (router != nullptr) {
    const RouterStats& rs = router->stats();
    box.set_router(rs.drained, rs.delivered, rs.stolen, rs.inject_retries,
                   router->pending_snapshot());
  }
  return box.to_json();
}

std::string Cluster::dump_now(const std::string& reason) const {
  return assemble_black_box(reason, nullptr);
}

std::string Cluster::occupancy_detail() const {
  std::string out;
  const std::uint32_t n = num_devices();
  for (std::uint32_t d = 0; d < n; ++d) {
    out += "; dev" + std::to_string(d) + " occ=" +
           std::to_string(queues_[d]->occupancy(*devices_[d])) + " resident=" +
           std::to_string(queues_[d]->resident_tokens(*devices_[d]));
  }
  for (const XferRingEnds& r : xfer_ring_ends()) {
    out += "; ring" + std::to_string(r.src) + "->" + std::to_string(r.dst) +
           " backlog=" + std::to_string(r.rear - r.front);
  }
  return out;
}

std::vector<XferRingEnds> Cluster::xfer_ring_ends() const {
  std::vector<XferRingEnds> out;
  for (std::uint32_t s = 0; s < xfers_.size(); ++s) {
    const TransferQueue& xfer = *xfers_[s];
    for (std::uint32_t k = 0; k < xfer.rings(); ++k) {
      out.push_back({s, xfer.destination(k),
                     devices_[s]->read_word(xfer.front_of(k)),
                     devices_[s]->read_word(xfer.rear_of(k))});
    }
  }
  return out;
}

bool Cluster::quiescent(const Router& router) const {
  if (!router.pending_empty()) return false;
  const std::uint32_t n = num_devices();
  for (std::uint32_t d = 0; d < n; ++d) {
    if (queues_[d]->unfinished(*devices_[d]) != 0) return false;
  }
  for (std::uint32_t s = 0; s < xfers_.size(); ++s) {
    if (xfers_[s]->occupancy(*devices_[s]) != 0) return false;
  }
  return true;
}

ClusterRun Cluster::run(const DeviceKernelFactory& make_factory,
                        std::uint32_t workgroups) {
  const std::uint32_t n = num_devices();
  ClusterRun result;
  Router router(n, options_.balance, options_.steal_trigger);

  for (std::uint32_t d = 0; d < n; ++d) {
    devices_[d]->write_word(stop_flags_[d], 0);
    devices_[d]->launch_begin(workgroups, make_factory(d));
  }

  simt::Cycle horizon = 0;
  bool guard_tripped = false;
  bool stalled = false;
  std::string stall_detail;
  RouterStats prev_router{};
  for (std::uint64_t step = 1;; ++step) {
    horizon += options_.quantum;
    // Tri-state per device: a DRAINED queue is a device idling between
    // router injections, not a dead one — only kDead (abort / kernel
    // error) may stop the superstep loop early. Before StepStatus the
    // two were conflated, and an idle device could halt the cluster.
    bool any_dead = false;
    bool all_drained = true;
    for (std::uint32_t d = 0; d < n; ++d) {
      const simt::StepStatus status = devices_[d]->step_until(horizon);
      if (status == simt::StepStatus::kDead) any_dead = true;
      if (status != simt::StepStatus::kDrained) all_drained = false;
    }
    result.supersteps = step;

    // Superstep barrier: move cross-device work while every device is
    // parked between events. Host operations cost no simulated cycles;
    // the transfer latency the model charges is the quantum itself.
    router.collect(devices_, xfers_);
    const bool want_windows = options_.telemetry != nullptr;
    std::vector<std::uint64_t> backlog;
    if (steals(options_.balance) || want_windows) {
      backlog.resize(n);
      for (std::uint32_t d = 0; d < n; ++d) {
        backlog[d] = queues_[d]->unfinished(*devices_[d]);
      }
    }
    if (steals(options_.balance)) router.balance(backlog);
    router.deliver(devices_, queues_);

    if (want_windows) {
      // One window per superstep, stamped with the barrier horizon: the
      // router's per-step deltas and the backlog imbalance on the
      // unprefixed sink; per-device occupancy on each device's own
      // telemetry (so the merge carries the dev<N>. prefix — the
      // dashboard heatmap's rows).
      const RouterStats cur = router.stats();
      simt::Telemetry& sink = *options_.telemetry;
      sink.record_window(tel::kRouterStolen, horizon,
                         cur.stolen - prev_router.stolen);
      sink.record_window(tel::kRouterDelivered, horizon,
                         cur.delivered - prev_router.delivered);
      sink.record_window(tel::kRouterDrained, horizon,
                         cur.drained - prev_router.drained);
      prev_router = cur;
      const std::uint64_t max_b = *std::max_element(backlog.begin(),
                                                    backlog.end());
      std::uint64_t sum_b = 0;
      for (std::uint64_t b : backlog) sum_b += b;
      const std::uint64_t mean_b = sum_b / n;
      sink.record_window(
          tel::kClusterImbalance, horizon,
          mean_b > 0 ? 100 * (max_b - mean_b) / mean_b : 0);
      for (std::uint32_t d = 0; d < n; ++d) {
        telemetry_[d]->record_window(tel::kSuperstepOccupancy, horizon,
                                     queues_[d]->occupancy(*devices_[d]));
      }
    }

    guard_tripped = step >= kMaxSupersteps;
    // No verdict before every kernel has started: until then no wave has
    // run, so a cluster whose kernels create their first work when they
    // start only looks quiescent.
    bool started = true;
    for (std::uint32_t d = 0; d < n; ++d) {
      started &= devices_[d]->launch_start() <= horizon;
    }
    const bool is_quiescent = started && quiescent(router);
    // Every event queue drained yet the system is not quiescent: work
    // is still outstanding (queued tokens, Completed < Rear) but no
    // wave is left to consume it. Nothing can ever make progress again,
    // so stop now with a diagnostic instead of spinning the superstep
    // guard's 2^22 iterations.
    if (all_drained && !is_quiescent && !any_dead) {
      stalled = true;
      // Snapshot the occupancy picture at the instant of the stall,
      // before the teardown drain lets waves observe the stop flag.
      stall_detail = occupancy_detail();
      break;
    }
    if (any_dead || guard_tripped || is_quiescent) break;
  }

  // Release the persistent waves and drain every device to completion.
  // At quiescence no work remains, so the drain only lets waves observe
  // the flag and exit; after an abort it tears the survivors down.
  for (std::uint32_t d = 0; d < n; ++d) {
    devices_[d]->write_word(stop_flags_[d], 1);
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    while (devices_[d]->step_until(~simt::Cycle{0}) ==
           simt::StepStatus::kRanToHorizon) {
    }
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    result.device_runs.push_back(devices_[d]->launch_end());
    result.cycles = std::max(result.cycles, result.device_runs[d].cycles);
    if (result.device_runs[d].aborted && !result.aborted) {
      result.aborted = true;
      result.abort_reason = "device " + std::to_string(d) + ": " +
                            result.device_runs[d].abort_reason;
    }
  }
  if (guard_tripped && !result.aborted) {
    result.aborted = true;
    result.abort_reason = "cluster superstep guard: no quiescence after " +
                          std::to_string(kMaxSupersteps) + " supersteps" +
                          occupancy_detail();
  }
  if (stalled && !result.aborted) {
    result.aborted = true;
    result.abort_reason =
        "cluster stalled: all devices drained before quiescence "
        "with work outstanding" +
        stall_detail;
  }
  result.router = router.stats();
  result.xfer_rings = xfer_ring_ends();
  if (result.aborted) {
    result.black_box = assemble_black_box(result.abort_reason, &router);
  }

  if (options_.telemetry != nullptr) {
    for (std::uint32_t d = 0; d < n; ++d) {
      options_.telemetry->merge_from(*telemetry_[d]);
      telemetry_[d]->reset_data();
    }
  }
  if (options_.task_trace != nullptr) {
    for (std::uint32_t d = 0; d < n; ++d) {
      options_.task_trace->merge_from(*task_traces_[d]);
      task_traces_[d]->clear();
    }
  }
  return result;
}

}  // namespace scq::cluster
