// A wavefront: 64 lanes executing a kernel coroutine in lock-step.
//
// All device operations are wave-level awaitables. Per-lane ("vector")
// operations take spans indexed by lane and an active-lane bitmask;
// divergence is expressed by masks, and its cost by the operations the
// kernel issues on each path.
//
// Timing semantics: an operation's *effects* are applied in event-
// processing order (equal to issue order, which the engine processes in
// simulated-time order), while its *completion* reflects latency, issue-
// port occupancy, and atomic-unit FIFO backlog. A CAS observes the value
// current at its own service; because other waves' operations are applied
// between a kernel's read of a counter and its subsequent CAS, CAS
// failures emerge from contention exactly as on hardware (§3.2).
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <span>

#include "sim/config.h"
#include "sim/kernel.h"
#include "sim/memory.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace simt {

class Device;

// Lane-mask helpers (LaneMask bit i == lane i, see sim/config.h).
constexpr LaneMask bit(unsigned lane) { return LaneMask{1} << lane; }

// Calls f(lane) for every set lane of `mask`, lowest lane first.
template <typename F>
void for_lanes(LaneMask mask, F&& f) {
  while (mask) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
    f(lane);
    mask &= mask - 1;
  }
}

struct ComputeUnit {
  std::uint32_t id = 0;
  Cycle port_free = 0;  // issue-port availability
};

struct CasResult {
  std::uint64_t old_value = 0;
  bool success = false;
  // kCas / kBoundedAdd: failed attempts folded into this operation.
  std::uint64_t retries = 0;
};

// kBoundedAdd models a full CAS retry loop ("fetch-and-add while below
// a bound") as a single serviced request: at service it atomically
// claims min(operand, bound - current) — the `expected` field carries
// the bound. Its occupancy of the per-address FIFO is multiplied by the
// backlog it waited through (each intervening operation would have
// failed one CAS), so retry overhead emerges as serialization without
// round-tripping every attempt to the wavefront.
enum class AtomicKind : std::uint8_t { kAdd, kCas, kXchg, kOr, kMin, kBoundedAdd, kBoundedSub };

class Wave {
 public:
  Wave(Device& dev, ComputeUnit& cu, std::uint32_t slot)
      : dev_(&dev), cu_(&cu), slot_(slot) {}

  Wave(const Wave&) = delete;
  Wave& operator=(const Wave&) = delete;
  ~Wave();

  // ---- Identity ----
  [[nodiscard]] std::uint32_t workgroup_id() const { return workgroup_id_; }
  [[nodiscard]] std::uint32_t slot_id() const { return slot_; }
  [[nodiscard]] std::uint32_t cu_id() const { return cu_->id; }
  [[nodiscard]] std::uint64_t global_thread_base() const {
    return std::uint64_t{workgroup_id_} * kWaveWidth;
  }
  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] Device& device() { return *dev_; }
  [[nodiscard]] const DeviceConfig& config() const;
  DeviceStats& stats();

  // Lanes active in this wave (narrow waves model scalar CPU threads in
  // the CHAI-style collaborative baseline).
  [[nodiscard]] LaneMask lane_mask() const { return lanes_; }
  void set_lane_count(unsigned n) {
    lanes_ = n >= kWaveWidth ? kAllLanes : ((LaneMask{1} << n) - 1);
  }

  // ---- Awaitable device operations ----
  // Each returns an awaitable; `co_await` suspends the wave until the
  // operation completes in simulated time.

  struct [[nodiscard]] ComputeAwait {
    Wave& w;
    Cycle cycles;
    bool occupies_port;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  // Charge `cycles` of ALU work (occupies this CU's issue port).
  ComputeAwait compute(Cycle cycles) { return {*this, cycles, true}; }
  // Wait without occupying the port (poll backoff; zero-cost switch away).
  ComputeAwait idle(Cycle cycles) { return {*this, cycles, false}; }

  struct [[nodiscard]] LoadAwait {
    Wave& w;
    Addr addr;
    std::uint64_t value = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::uint64_t await_resume() const noexcept { return value; }
  };
  // Wave-uniform (scalar) global load.
  LoadAwait load(Addr addr) { return {*this, addr}; }

  struct [[nodiscard]] StoreAwait {
    Wave& w;
    Addr addr;
    std::uint64_t value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  StoreAwait store(Addr addr, std::uint64_t value) { return {*this, addr, value}; }

  struct [[nodiscard]] VecLoadAwait {
    Wave& w;
    LaneMask mask;
    std::span<const Addr> addrs;
    std::span<std::uint64_t> out;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  // Per-lane gather: out[lane] = mem[addrs[lane]] for each active lane.
  // Cost models coalescing (distinct 64B lines).
  VecLoadAwait load_lanes(LaneMask mask, std::span<const Addr> addrs,
                          std::span<std::uint64_t> out) {
    return {*this, mask, addrs, out};
  }

  struct [[nodiscard]] VecStoreAwait {
    Wave& w;
    LaneMask mask;
    std::span<const Addr> addrs;
    std::span<const std::uint64_t> values;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  VecStoreAwait store_lanes(LaneMask mask, std::span<const Addr> addrs,
                            std::span<const std::uint64_t> values) {
    return {*this, mask, addrs, values};
  }

  struct [[nodiscard]] AtomicAwait {
    Wave& w;
    AtomicKind kind;
    Addr addr;
    std::uint64_t operand;
    std::uint64_t expected;  // CAS only
    CasResult result{};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    CasResult await_resume() const noexcept { return result; }
  };
  // Wave-uniform atomics — what the proxy thread issues (§4.1). AFA never
  // fails; CAS success depends on contention.
  AtomicAwait atomic_add(Addr addr, std::uint64_t delta) {
    return {*this, AtomicKind::kAdd, addr, delta, 0};
  }
  AtomicAwait atomic_cas(Addr addr, std::uint64_t expected, std::uint64_t desired) {
    return {*this, AtomicKind::kCas, addr, desired, expected};
  }
  AtomicAwait atomic_xchg(Addr addr, std::uint64_t value) {
    return {*this, AtomicKind::kXchg, addr, value, 0};
  }
  // CAS-loop claim: atomically adds min(delta, bound - current) (never
  // below zero); result.old_value is the pre-claim value and
  // result.success says whether anything was claimed. result.retries
  // reports the folded-in failed attempts.
  AtomicAwait atomic_bounded_add(Addr addr, std::uint64_t delta, std::uint64_t bound) {
    return {*this, AtomicKind::kBoundedAdd, addr, delta, bound};
  }
  // CAS-loop claim in the other direction: atomically subtracts
  // min(delta, current - floor) (the `expected` field carries the
  // floor). Used by LIFO pop, which claims downward from the top.
  AtomicAwait atomic_bounded_sub(Addr addr, std::uint64_t delta,
                                 std::uint64_t floor = 0) {
    return {*this, AtomicKind::kBoundedSub, addr, delta, floor};
  }

  struct [[nodiscard]] VecAtomicAwait {
    Wave& w;
    AtomicKind kind;
    LaneMask mask;
    std::span<const Addr> addrs;
    std::span<const std::uint64_t> operands;
    std::span<const std::uint64_t> expected;   // CAS: expected / kBoundedAdd: bound
    std::span<std::uint64_t> old_out;          // may be empty
    std::span<std::uint64_t> retry_out;        // may be empty: folded retries per lane
    LaneMask success = 0;                      // CAS/kBoundedAdd: lanes that claimed
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    LaneMask await_resume() const noexcept { return success; }
  };
  // Per-lane atomics, issued lock-step: every active lane contributes one
  // request to the atomic unit's per-address FIFO. On a shared address
  // this is the 64x serialization the paper avoids (§3.3).
  VecAtomicAwait atomic_lanes(AtomicKind kind, LaneMask mask,
                              std::span<const Addr> addrs,
                              std::span<const std::uint64_t> operands,
                              std::span<const std::uint64_t> expected = {},
                              std::span<std::uint64_t> old_out = {},
                              std::span<std::uint64_t> retry_out = {}) {
    return {*this, kind, mask, addrs, operands, expected, old_out, retry_out};
  }

  struct [[nodiscard]] LdsAwait {
    Wave& w;
    std::uint32_t ops;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  // Charge the cost of `ops` local-data-share atomic operations (the
  // in-workgroup aggregation medium for proxy threads). The aggregation
  // *values* are computed by the kernel in plain code; LDS state is
  // workgroup-private and a workgroup is one wave here.
  LdsAwait lds_ops(std::uint32_t ops) { return {*this, ops}; }

  struct [[nodiscard]] AbortAwait {
    Wave& w;
    const char* reason;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  // Raise a device-wide kernel abort (the paper's queue-full exception
  // path: "aborts the kernel", §4.4). The wave never resumes.
  AbortAwait abort_kernel(const char* reason) { return {*this, reason}; }

  // Application counter (no simulated cost).
  void bump(unsigned user_counter, std::uint64_t n = 1);

 private:
  friend class Device;
  friend void detail::notify_wave_complete(Wave& wave);

  void bind(std::uint32_t workgroup, Kernel<void> kernel, Cycle start);
  void release_kernel();

  // Timing helpers (implemented in wave.cc).
  Cycle issue();  // occupy the issue port; returns issue completion time
  void finish(Cycle completion, std::coroutine_handle<> h);
  void trace(Cycle begin, Cycle end, TraceOp op);

  Device* dev_;
  ComputeUnit* cu_;
  std::uint32_t slot_;
  std::uint32_t workgroup_id_ = 0;
  Cycle now_ = 0;
  LaneMask lanes_ = kAllLanes;
  bool finished_ = false;
  std::coroutine_handle<Kernel<void>::promise_type> top_{};
};

}  // namespace simt
