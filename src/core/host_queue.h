// Host (CPU) implementations of the paper's queue ideas with real
// std::atomic operations — the paper notes the queue "can be used for
// other purposes ... with little change" (§1); this is that claim made
// concrete for CPU threads.
//
//   HostBrokerQueue<T>  — retry-free, arbitrary-n bounded MPMC queue.
//     One fetch_add claims tickets for a whole batch (arbitrary-n); no
//     operation ever retries a failed atomic (retry-free). Each ticket
//     maps to a unique slot whose sequence number plays the role of the
//     paper's dna sentinel, generalized with wrap counts so the ring is
//     safely circular. Consumers that outrun producers monitor their
//     slot until data arrives (the refactored queue-empty exception).
//
//   HostCasQueue<T>     — the BASE comparator: a classic bounded MPMC
//     queue whose head/tail advance by CAS loops; failed CASes retry and
//     are counted.
//
// Progress note: claim-based designs are not lock-free in the textbook
// sense (a stalled claimant can block the tickets behind it); on a GPU
// this cannot happen because claimants are hardware-resident to the end
// of the kernel, and on the CPU side we provide close() for shutdown and
// try_/poll APIs that never block.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/protocol_stream.h"

namespace scq {

// Fixed 64B: std::hardware_destructive_interference_size is an ABI
// hazard (gcc warns whenever it appears in a header) and 64 is correct
// for every platform we target.
inline constexpr std::size_t kCacheLine = 64;

// Spin-then-yield waiter used by the blocking operations.
class Backoff {
 public:
  void pause() noexcept {
    if (spins_ < kSpinLimit) {
      ++spins_;
#if defined(__x86_64__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield" ::: "memory");
#else
      // No cheap pause hint on this architecture: give the core away
      // instead of burning it in a pure busy loop.
      std::this_thread::yield();
#endif
    } else {
      std::this_thread::yield();
    }
  }
  void reset() noexcept { spins_ = 0; }

 private:
  static constexpr unsigned kSpinLimit = 64;
  unsigned spins_ = 0;
};

struct HostQueueStats {
  std::uint64_t enqueue_batches = 0;
  std::uint64_t dequeue_batches = 0;
  std::uint64_t items_enqueued = 0;
  std::uint64_t items_dequeued = 0;
  std::uint64_t cas_retries = 0;   // HostCasQueue only
  std::uint64_t arrival_waits = 0; // slot monitors that had to spin
};

// ---------------------------------------------------------------------
// HostBrokerQueue<T>: retry-free / arbitrary-n bounded MPMC.
// ---------------------------------------------------------------------
template <typename T>
class HostBrokerQueue : private simt::TicketSpace {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "queue payloads must be nothrow-movable");

 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit HostBrokerQueue(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 2)) - 1),
        slots_(mask_ + 1) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  HostBrokerQueue(const HostBrokerQueue&) = delete;
  HostBrokerQueue& operator=(const HostBrokerQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  // Items currently published but not yet consumed (approximate under
  // concurrency; exact when quiescent).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return t > h ? static_cast<std::size_t>(t - h) : 0;
  }

  // Optional operation-history recording for the fuzz checker (not
  // owned; nullptr disables). Every step goes through the queue's own
  // protocol stream as a host step. Tickets are sequence numbers;
  // payloads are recorded when T converts to uint64. Write steps precede
  // the release-store that publishes them and deliveries precede the
  // recycle store, so the history's (mutex-total) append order is
  // consistent with the happens-before order of the protocol.
  void attach_history(simt::OpHistory* history) noexcept {
    events_.attach_history(history);
  }

  // Optional per-task lifecycle recording (not owned; nullptr disables).
  // Tickets are sequence numbers; the host has no simulated clock, so
  // event cycles are steady-clock nanoseconds since this attach — fine
  // for attribution ratios, not comparable across processes.
  void attach_task_trace(simt::TaskTrace* trace) noexcept {
    events_.attach_task_trace(trace);
    events_.trace_on_wall_clock();
  }

  // Signals shutdown: blocked enqueue/dequeue calls return false once
  // they can no longer complete. Pending claimed tickets stay valid.
  void close() noexcept { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // ---- Blocking batch operations (retry-free, arbitrary-n) ----

  // Publishes all items; one fetch_add regardless of batch size. Blocks
  // while the ring is full (slot not yet recycled). Returns false only
  // if the queue is closed before the batch completes; the unpublished
  // remainder's tickets are then abandoned (see abandon_batch) so their
  // consumers unblock deterministically instead of spinning on tickets
  // that will never carry data.
  [[nodiscard]] bool enqueue_batch(std::span<const T> items) {
    if (items.empty()) return true;
    if (closed()) return false;
    const std::uint64_t first =
        tail_.fetch_add(items.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < items.size(); ++i) {
      events_.reserve(kHost, *this, first + i, history_payload(items[i]));
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!publish_one(first + i, items[i])) {
        abandon_batch(first + i, first + items.size());
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool enqueue(const T& item) {
    return enqueue_batch(std::span<const T>{&item, 1});
  }

  // Claims and consumes exactly out.size() items; one fetch_add for the
  // whole batch. Blocks per ticket until its data arrives (the dna
  // monitor). Returns false if closed before completion.
  [[nodiscard]] bool dequeue_batch(std::span<T> out) {
    if (out.empty()) return true;
    const std::uint64_t first =
        head_.fetch_add(out.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < out.size(); ++i) {
      events_.claim(kHost, *this, first + i);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!consume_one(first + i, out[i])) return false;
    }
    return true;
  }

  [[nodiscard]] std::optional<T> dequeue() {
    T value;
    if (!dequeue_batch(std::span<T>{&value, 1})) return std::nullopt;
    return value;
  }

  // ---- Persistent-thread-style monitor API (never blocks) ----
  //
  // claim_slots() is the retry-free dequeue phase 1: it irrevocably
  // claims `count` tickets (tasks that will exist eventually). poll()
  // is phase 2: consume whatever has arrived so far. This mirrors the
  // GPU kernel's acquire/check-arrival split exactly.
  struct Ticket {
    std::uint64_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t consumed = 0;
    // Set by poll() when it finds an abandoned sequence number (its
    // producer was interrupted by close()): no further data will ever
    // arrive for this ticket.
    bool dead = false;
    [[nodiscard]] bool done() const noexcept {
      return dead || consumed == count;
    }
  };

  [[nodiscard]] Ticket claim_slots(std::uint32_t count) {
    const std::uint64_t first =
        head_.fetch_add(count, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < count; ++i) {
      events_.claim(kHost, *this, first + i);
    }
    return Ticket{first, count, 0};
  }

  // Consumes in-order arrivals for this ticket into `out`; returns how
  // many were consumed this call (0 == data not arrived).
  std::uint32_t poll(Ticket& ticket, std::span<T> out) {
    std::uint32_t got = 0;
    while (!ticket.done() && got < out.size()) {
      const std::uint64_t seq_no = ticket.first + ticket.consumed;
      Slot& slot = slots_[seq_no & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == seq_no + capacity()) {
        // Abandoned by a close()-interrupted producer: this ticket can
        // never fill. Terminate the poll loop deterministically.
        ticket.dead = true;
        break;
      }
      if (seq != seq_no + 1) break;
      out[got] = std::move(slot.value);
      events_.deliver(kHost, *this, seq_no, history_payload(out[got]));
      ++got;
      slot.seq.store(seq_no + capacity(), std::memory_order_release);
      ++ticket.consumed;
    }
    return got;
  }

  // ---- Best-effort single-item operations (CAS-based shims) ----
  //
  // Genuinely non-blocking try-semantics require a failable atomic:
  // these exist so benchmarks can compare against the retry-free path
  // and so callers with optional work can avoid committing a ticket.
  [[nodiscard]] bool try_enqueue(const T& item) {
    std::uint64_t t = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[t & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == t) {
        if (tail_.compare_exchange_weak(t, t + 1, std::memory_order_relaxed)) {
          events_.reserve(kHost, *this, t, history_payload(item));
          slot.value = item;
          events_.write(kHost, *this, t, history_payload(item));
          slot.seq.store(t + 1, std::memory_order_release);
          return true;
        }
        // CAS failed; t reloaded — retry.
      } else if (seq < t) {
        return false;  // full
      } else {
        t = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::optional<T> try_dequeue() {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[h & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == h + 1) {
        if (head_.compare_exchange_weak(h, h + 1, std::memory_order_relaxed)) {
          events_.claim(kHost, *this, h);
          T value = std::move(slot.value);
          events_.deliver(kHost, *this, h, history_payload(value));
          slot.seq.store(h + capacity(), std::memory_order_release);
          return value;
        }
      } else if (seq < h + 1) {
        return std::nullopt;  // empty
      } else {
        h = head_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  bool publish_one(std::uint64_t seq_no, const T& item) {
    Slot& slot = slots_[seq_no & mask_];
    Backoff backoff;
    while (slot.seq.load(std::memory_order_acquire) != seq_no) {
      if (closed()) return false;
      backoff.pause();
    }
    slot.value = item;
    events_.write(kHost, *this, seq_no, history_payload(item));
    slot.seq.store(seq_no + 1, std::memory_order_release);
    return true;
  }

  bool consume_one(std::uint64_t seq_no, T& out) {
    Slot& slot = slots_[seq_no & mask_];
    Backoff backoff;
    for (;;) {
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == seq_no + 1) break;
      // A close()-interrupted producer abandoned this ticket: the slot
      // went straight to the recycled state, so unblock now instead of
      // waiting to observe the closed flag.
      if (seq == seq_no + capacity()) return false;
      if (closed()) return false;
      backoff.pause();
    }
    out = std::move(slot.value);
    events_.deliver(kHost, *this, seq_no, history_payload(out));
    slot.seq.store(seq_no + capacity(), std::memory_order_release);
    return true;
  }

  static std::uint64_t history_payload(const T& v) {
    if constexpr (std::is_convertible_v<T, std::uint64_t>) {
      return static_cast<std::uint64_t>(v);
    } else {
      return 0;
    }
  }

  // Host steps carry no clock (history cycle 0); the task trace stamps
  // its own wall clock.
  static constexpr simt::StepActor kHost = simt::StepActor::host(0);

  [[nodiscard]] simt::SlotRef slot_of(std::uint64_t seq_no) const override {
    return {seq_no & mask_, seq_no / capacity()};
  }

  // Called by a close()-interrupted enqueue_batch for its unpublished
  // tickets [first, end): moves each ticket's slot straight to the
  // recycled state (exactly what its consumer would have stored), which
  // the ticket's unique consumer reads as "no data will ever arrive".
  // If a previous ring epoch still owns the slot the CAS fails and the
  // consumer falls back to observing the closed flag — that epoch's own
  // consumer chain is unblocked the same way, so nobody spins forever.
  void abandon_batch(std::uint64_t first, std::uint64_t end) {
    for (std::uint64_t s = first; s < end; ++s) {
      std::uint64_t expect = s;
      slots_[s & mask_].seq.compare_exchange_strong(
          expect, s + capacity(), std::memory_order_release,
          std::memory_order_relaxed);
    }
  }

  const std::uint64_t mask_;
  std::vector<Slot> slots_;
  simt::ProtocolStream events_;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::atomic<bool> closed_{false};
};

// ---------------------------------------------------------------------
// HostCasQueue<T>: classic CAS-loop bounded MPMC (the BASE comparator).
// ---------------------------------------------------------------------
template <typename T>
class HostCasQueue {
 public:
  explicit HostCasQueue(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 2)) - 1),
        slots_(mask_ + 1) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  HostCasQueue(const HostCasQueue&) = delete;
  HostCasQueue& operator=(const HostCasQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::uint64_t cas_retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool try_enqueue(const T& item) {
    std::uint64_t t = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[t & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == t) {
        if (tail_.compare_exchange_weak(t, t + 1, std::memory_order_relaxed)) {
          slot.value = item;
          slot.seq.store(t + 1, std::memory_order_release);
          return true;
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
      } else if (seq < t) {
        return false;
      } else {
        t = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::optional<T> try_dequeue() {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[h & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == h + 1) {
        if (head_.compare_exchange_weak(h, h + 1, std::memory_order_relaxed)) {
          T value = std::move(slot.value);
          slot.seq.store(h + capacity(), std::memory_order_release);
          return value;
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
      } else if (seq < h + 1) {
        return std::nullopt;
      } else {
        h = head_.load(std::memory_order_relaxed);
      }
    }
  }

  // Blocking conveniences built on the try loop (spin + yield).
  [[nodiscard]] bool enqueue(const T& item) {
    Backoff backoff;
    while (!try_enqueue(item)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      backoff.pause();
    }
    return true;
  }

  [[nodiscard]] std::optional<T> dequeue() {
    Backoff backoff;
    for (;;) {
      if (auto v = try_dequeue()) return v;
      if (closed_.load(std::memory_order_acquire)) return std::nullopt;
      backoff.pause();
    }
  }

  void close() noexcept { closed_.store(true, std::memory_order_release); }

 private:
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  const std::uint64_t mask_;
  std::vector<Slot> slots_;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> retries_{0};
  alignas(kCacheLine) std::atomic<bool> closed_{false};
};

}  // namespace scq
