// Heap-allocation counter for the perf benches.
//
// Including this header in a (single-TU) bench binary replaces the global
// allocation functions with counting wrappers, so a benchmark can report
// allocs/op next to ns/op — the "zero steady-state allocations" claim of
// the solver hot path is asserted by a counter column, not by eyeballing.
// The counter is sampled around the timed loop (allocations_now()), so
// framework setup noise outside the loop is excluded by construction.
// The same wrappers keep a live-heap-bytes gauge (live_heap_bytes()):
// every block is counted at its malloc_usable_size, the size the
// allocator really handed out, on allocation and again on free, so the
// difference across a scope is what the structures built in it hold.
//
// Include it in exactly one translation unit per binary: it *defines*
// the replaceable operator new/delete family.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <malloc.h>

namespace dlm::bench {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::int64_t> g_live_bytes{0};

/// Total heap allocations (operator new family) since process start.
inline std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Heap bytes currently held through the operator new family, each
/// block at its usable size.
inline std::int64_t live_heap_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

/// Counts one allocation and adds `p`'s block to the live bytes.
inline void* track(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (p != nullptr)
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p != nullptr)
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  std::free(p);
}

inline void* counted_alloc(std::size_t size) {
  if (void* p = track(std::malloc(size != 0 ? size : 1))) return p;
  throw std::bad_alloc();
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size != 0 ? size : alignment) != 0)
    throw std::bad_alloc();
  return track(p);
}

}  // namespace dlm::bench

void* operator new(std::size_t size) { return dlm::bench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return dlm::bench::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return dlm::bench::track(std::malloc(size != 0 ? size : 1));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return dlm::bench::track(std::malloc(size != 0 ? size : 1));
}
void* operator new(std::size_t size, std::align_val_t al) {
  return dlm::bench::counted_aligned_alloc(size,
                                           static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return dlm::bench::counted_aligned_alloc(size,
                                           static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { dlm::bench::counted_free(p); }
void operator delete[](void* p) noexcept { dlm::bench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  dlm::bench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  dlm::bench::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  dlm::bench::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  dlm::bench::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  dlm::bench::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  dlm::bench::counted_free(p);
}
