#include "cluster/transfer.h"

#include <algorithm>
#include <bit>

#include "core/counters.h"

namespace scq::cluster {

TransferRing TransferRing::create(simt::Device& src, std::uint64_t capacity) {
  if (capacity == 0) {
    throw simt::SimError("TransferRing::create: capacity must be positive");
  }
  TransferRing ring;
  ring.ctrl_ = src.alloc(2);
  ring.slots_ = src.alloc(capacity);
  ring.capacity_ = capacity;
  src.fill(ring.ctrl_, 0);
  src.fill(ring.slots_, slot_empty_word(0));
  return ring;
}

Kernel<void> TransferRing::publish(Wave& w, XferWaveState& st) const {
  const std::uint32_t total = st.total_new();
  if (total == 0 && st.n_parked == 0) co_return;
  const simt::Cycle t0 = w.now();
  simt::ProtocolStream& events = w.device().protocol();

  if (total > 0) {
    // RF/AN enqueue: the proxy aggregates per-lane counts through LDS,
    // then one non-failing AFA reserves the whole wavefront's batch.
    unsigned producers = 0;
    for (auto k : st.n_new) producers += k > 0;
    co_await w.lds_ops(producers + 1);
    w.bump(kQueueAtomics);
    const simt::CasResult r = co_await w.atomic_add(rear_addr(), total);

    std::uint64_t ticket = r.old_value;
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      for (std::uint32_t t = 0; t < st.n_new[lane]; ++t) {
        if (st.n_parked >= XferWaveState::kMaxParked) {
          throw simt::SimError(
              "transfer ring: parked-token overflow — the driver must "
              "freeze production while transfers are backpressured");
        }
        events.xfer_reserve(w, tag_, ticket, st.new_tokens[lane][t]);
        st.parked[st.n_parked++] = {ticket++, st.new_tokens[lane][t]};
      }
    }
    st.n_new.fill(0);
    events.xfer_batch(w, total);
  }

  // Flush in wave-sized rounds, oldest ticket first: write a full word
  // over exactly the matching epoch's empty sentinel; entries whose slot
  // the host has not recycled yet stay parked. No deadlock detector —
  // the host drains every superstep barrier, so a parked transfer
  // always flushes eventually while the cluster keeps stepping.
  bool wrote_any = true;
  while (st.n_parked > 0 && wrote_any) {
    const std::uint32_t n = std::min<std::uint32_t>(st.n_parked, kWaveWidth);
    LaneMask mask = 0;
    std::array<Addr, kWaveWidth> addrs{};
    std::array<std::uint64_t, kWaveWidth> want{}, full{};
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t index = st.parked[i].ticket % capacity_;
      const std::uint64_t epoch = st.parked[i].ticket / capacity_;
      mask |= bit(i);
      addrs[i] = slots_.base + index;
      want[i] = slot_empty_word(epoch);
      full[i] = slot_full_word(epoch, st.parked[i].token);
    }
    std::array<std::uint64_t, kWaveWidth> cur{};
    co_await w.load_lanes(mask, addrs, cur);

    LaneMask writable = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (cur[i] == want[i]) writable |= bit(i);
    }
    wrote_any = writable != 0;
    if (!wrote_any) {
      w.bump(kPublishStalls, st.n_parked);
      break;
    }
    co_await w.store_lanes(writable, addrs, full);
    w.bump(kXferTokens, static_cast<std::uint64_t>(std::popcount(writable)));
    for_lanes(writable, [&](unsigned i) {
      events.xfer_write(w, tag_, st.parked[i].ticket, st.parked[i].token);
    });

    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < st.n_parked; ++i) {
      if (i < n && (writable & bit(i))) continue;
      st.parked[out++] = st.parked[i];
    }
    st.n_parked = out;
  }

  if (total > 0) events.xfer_end(w, t0);
}

void TransferRing::drain(simt::Device& src,
                         std::vector<std::uint64_t>& out) const {
  std::uint64_t front = src.read_word(front_addr());
  const std::uint64_t rear = src.read_word(rear_addr());
  while (front < rear) {
    const std::uint64_t index = front % capacity_;
    const std::uint64_t epoch = front / capacity_;
    const std::uint64_t word = src.read_word(slots_.at(index));
    if (slot_is_empty(word) ||
        slot_epoch_tag(word) != (epoch & kEpochTagMask)) {
      break;  // reserved but not yet flushed (parked on the device)
    }
    out.push_back(slot_payload(word));
    src.write_word(slots_.at(index), slot_empty_word(epoch + 1));
    ++front;
  }
  src.write_word(front_addr(), front);
}

bool TransferRing::quiescent(const simt::Device& src) const {
  return src.read_word(front_addr()) == src.read_word(rear_addr());
}

std::uint64_t TransferRing::backlog(const simt::Device& src) const {
  const std::uint64_t front = src.read_word(front_addr());
  const std::uint64_t rear = src.read_word(rear_addr());
  return rear > front ? rear - front : 0;
}

}  // namespace scq::cluster
