#include "cluster/router.h"

#include <algorithm>
#include <stdexcept>

#include "cluster/token.h"

namespace scq::cluster {

std::string_view to_string(BalancePolicy policy) {
  switch (policy) {
    case BalancePolicy::kOwnerOnly: return "owner-only";
    case BalancePolicy::kSteal: return "steal";
    case BalancePolicy::kStealPriority: return "steal-priority";
  }
  return "?";
}

BalancePolicy balance_policy_from_string(std::string_view name) {
  if (name == "owner-only") return BalancePolicy::kOwnerOnly;
  if (name == "steal") return BalancePolicy::kSteal;
  if (name == "steal-priority") return BalancePolicy::kStealPriority;
  throw std::invalid_argument("unknown balance policy: " + std::string(name));
}

void Router::collect(std::span<const std::unique_ptr<simt::Device>> devices,
                     std::span<const std::unique_ptr<TransferQueue>> xfers) {
  for (std::size_t s = 0; s < xfers.size(); ++s) {
    TransferQueue& xfer = *xfers[s];
    for (std::uint32_t k = 0; k < xfer.rings(); ++k) {
      std::deque<std::uint64_t>& to = pending_[xfer.destination(k)];
      while (const std::optional<std::uint64_t> token =
                 xfer.host_pop(*devices[s], k)) {
        to.push_back(*token);
        ++stats_.drained;
      }
    }
  }
}

void Router::balance(std::span<const std::uint64_t> backlog) {
  if (!steals(policy_)) return;
  const std::uint32_t n = static_cast<std::uint32_t>(pending_.size());
  if (n < 2) return;

  // Load metric: incomplete main-queue tokens plus the work this barrier
  // is about to hand the device. The mean is fixed for the barrier; the
  // per-device loads update as enumerations move, so one barrier cannot
  // pile every steal onto the same thief.
  std::vector<double> load(n);
  double total = 0.0;
  for (std::uint32_t d = 0; d < n; ++d) {
    load[d] = static_cast<double>(backlog[d]) +
              static_cast<double>(pending_[d].size());
    total += load[d];
  }
  const double mean = total / static_cast<double>(n);
  if (mean <= 0.0) return;

  for (std::uint32_t d = 0; d < n; ++d) {
    if (load[d] <= steal_trigger_ * mean) continue;
    // Walk the overloaded owner's pending set once; convert candidates
    // while an under-loaded thief exists and the owner stays above
    // trigger. kSteal walks in FIFO order; kStealPriority walks lowest
    // cost first, handing thieves the highest-priority work.
    std::vector<std::size_t> order(pending_[d].size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (policy_ == BalancePolicy::kStealPriority) {
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return token_cost(pending_[d][a]) <
                                token_cost(pending_[d][b]);
                       });
    }
    for (const std::size_t i : order) {
      auto it = pending_[d].begin() + static_cast<std::ptrdiff_t>(i);
      if (token_kind(*it) != TokenKind::kCandidate) continue;
      if (load[d] <= steal_trigger_ * mean) break;
      // Steal only candidates that improve on the best cost ever stolen
      // for this vertex. A stolen enumeration bypasses the owner's
      // atomic-min dedup gate, so stealing duplicates would re-enumerate
      // the same vertex once per duplicate — on cyclic graphs that feeds
      // back into more candidates and explodes. Strictly decreasing
      // costs bound steals per vertex by its distance from the source.
      const std::uint64_t vertex = token_vertex(*it);
      const std::uint64_t cost = token_cost(*it);
      const auto best = stolen_best_.find(vertex);
      if (best != stolen_best_.end() && best->second <= cost) continue;
      std::uint32_t thief = n;
      for (std::uint32_t t = 0; t < n; ++t) {
        if (t == d || load[t] >= mean) continue;
        if (thief == n || load[t] < load[thief]) thief = t;
      }
      if (thief == n) break;
      stolen_best_[vertex] = cost;
      // The thief enumerates; the owner keeps the cost authority.
      pending_[thief].push_back(with_kind(*it, TokenKind::kStolen));
      *it = with_kind(*it, TokenKind::kUpdate);
      load[thief] += 1.0;
      load[d] -= 1.0;
      ++stats_.stolen;
    }
  }
}

void Router::deliver(std::span<const std::unique_ptr<simt::Device>> devices,
                     std::span<const std::unique_ptr<DeviceQueue>> queues) {
  const std::uint32_t n = static_cast<std::uint32_t>(pending_.size());
  for (std::uint32_t d = 0; d < n; ++d) {
    if (policy_ == BalancePolicy::kStealPriority) {
      // Priority injection: lowest cost first (stable, so equal-cost
      // tokens keep their deterministic arrival order).
      std::stable_sort(pending_[d].begin(), pending_[d].end(),
                       [](std::uint64_t a, std::uint64_t b) {
                         return token_cost(a) < token_cost(b);
                       });
    }
    while (!pending_[d].empty()) {
      if (!queues[d]->host_push(*devices[d], pending_[d].front())) {
        // The ring slot has not recycled — same backpressure rule the
        // device producers obey. Retry the remainder next barrier.
        ++stats_.inject_retries;
        break;
      }
      pending_[d].pop_front();
      ++stats_.delivered;
    }
  }
}

std::vector<std::vector<std::uint64_t>> Router::pending_snapshot() const {
  std::vector<std::vector<std::uint64_t>> out(pending_.size());
  for (std::size_t d = 0; d < pending_.size(); ++d) {
    out[d].assign(pending_[d].begin(), pending_[d].end());
  }
  return out;
}

bool Router::pending_empty() const {
  for (const auto& q : pending_) {
    if (!q.empty()) return false;
  }
  return true;
}

}  // namespace scq::cluster
