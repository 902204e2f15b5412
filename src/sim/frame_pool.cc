#include "sim/frame_pool.h"

#include <new>

namespace simt::detail {
namespace {

constexpr std::size_t kGranularity = 64;
constexpr std::size_t kBuckets = 32;  // covers frames up to 2 KiB

struct Pool {
  void* heads[kBuckets] = {};

  ~Pool() {
    for (void* head : heads) {
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
    }
  }
};

thread_local Pool tls_pool;
thread_local std::uint64_t tls_above_ceiling = 0;

constexpr std::size_t bucket_of(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity;
}

}  // namespace

void* frame_allocate(std::size_t bytes) {
  const std::size_t b = bucket_of(bytes);
  if (b > kBuckets) ++tls_above_ceiling;
  if (b == 0 || b > kBuckets) return ::operator new(bytes);
  void*& head = tls_pool.heads[b - 1];
  if (head != nullptr) {
    void* p = head;
    head = *static_cast<void**>(p);
    return p;
  }
  return ::operator new(b * kGranularity);
}

std::uint64_t frames_above_ceiling() { return tls_above_ceiling; }

void frame_deallocate(void* p, std::size_t bytes) noexcept {
  const std::size_t b = bucket_of(bytes);
  if (b == 0 || b > kBuckets) {
    ::operator delete(p);
    return;
  }
  void*& head = tls_pool.heads[b - 1];
  *static_cast<void**>(p) = head;
  head = p;
}

}  // namespace simt::detail
