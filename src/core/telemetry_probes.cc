#include "core/telemetry_probes.h"

#include <string>

#include "core/counters.h"

namespace scq {

void register_scheduler_probes(simt::Telemetry& telemetry, simt::Device& dev,
                               const DeviceQueue& queue) {
  simt::Device* d = &dev;
  const DeviceQueue* q = &queue;

  // Gauges sample once per window close; counter probes record the
  // per-window delta of the scheduler's atomic accounting.
  telemetry.register_window_gauge(
      tel::kOccupancy, [d, q](simt::Cycle) { return q->occupancy(*d); });
  // The ring-residency invariant (≤ capacity always) as a series.
  telemetry.register_window_gauge(
      tel::kResidentTokens,
      [d, q](simt::Cycle) { return q->resident_tokens(*d); });
  // Contention on the counter words: every sub-ring's Front and Rear.
  telemetry.register_window_gauge(
      tel::kAtomicBacklog, [d, q](simt::Cycle now) {
        std::uint64_t backlog = 0;
        for (std::uint32_t k = 0; k < q->rings(); ++k) {
          backlog += d->atomic_unit().backlog(q->front_of(k), now) +
                     d->atomic_unit().backlog(q->rear_of(k), now);
        }
        return backlog;
      });
  telemetry.register_window_counter(tel::kWinPublishStalls, [d](simt::Cycle) {
    return d->stats().user[kPublishStalls];
  });
  telemetry.register_window_counter(tel::kWinCasFailures, [d](simt::Cycle) {
    return d->stats().cas_failures;
  });
  telemetry.register_window_counter(tel::kWinQueueAtomics, [d](simt::Cycle) {
    return d->stats().user[kQueueAtomics];
  });
  // The backpressure histogram appears in exports even for runs that
  // never stalled.
  telemetry.declare(simt::StepMetric::kPublishStall);

  // Per-band backlog for the priority multi-queue, so the dashboard
  // shows the bucket-drain cascade (band b emptying as band b+1 fills).
  if (const std::uint32_t bands = queue.num_bands(); bands > 1) {
    for (std::uint32_t b = 0; b < bands; ++b) {
      telemetry.register_window_gauge(
          tel::kBandOccupancyPrefix + std::to_string(b),
          [d, q, b](simt::Cycle) { return q->band_occupancy(*d, b); });
    }
  }

  // Utilization over each window: ports issue one compute cycle per
  // cycle at most, so delta(compute_cycles) / (delta(t) * resident
  // waves) approximates the fraction of wave-cycles doing ALU work (vs
  // waiting or polling).
  const std::uint64_t waves = dev.config().resident_waves();
  telemetry.register_window_gauge(
      tel::kWaveUtilization,
      [d, waves, prev_cycle = simt::Cycle{0},
       prev_compute = std::uint64_t{0}](simt::Cycle now) mutable {
        const std::uint64_t compute = d->stats().compute_cycles;
        const simt::Cycle dt = now > prev_cycle ? now - prev_cycle : 0;
        const std::uint64_t dc = compute - prev_compute;
        prev_cycle = now;
        prev_compute = compute;
        if (dt == 0 || waves == 0) return std::uint64_t{0};
        return std::min<std::uint64_t>(100, 100 * dc / (dt * waves));
      });
}

}  // namespace scq
