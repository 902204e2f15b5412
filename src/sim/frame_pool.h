// Recycling allocator for coroutine frames.
//
// Every nested Kernel<> call (the queue operations a wave co_awaits:
// acquire_slots, publish, check_arrival, ...) constructs one coroutine
// frame. With the persistent-thread drivers that is several frames per
// loop iteration, which made general-purpose malloc/free one of the
// event loop's hottest edges. Frames are small and extremely uniform in
// size, so they recycle through thread-local size-bucketed free lists:
// 64-byte granularity up to 2 KiB, larger (rare) falls through to the
// global allocator. Thread-local because sweep runners drive one Device
// per host thread; each thread's lists are torn down at thread exit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace simt::detail {

[[nodiscard]] void* frame_allocate(std::size_t bytes);
void frame_deallocate(void* p, std::size_t bytes) noexcept;

// Frames this thread has allocated above the 2 KiB ceiling.
[[nodiscard]] std::uint64_t frames_above_ceiling();

}  // namespace simt::detail
