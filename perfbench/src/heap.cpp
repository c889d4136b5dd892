#include "heap.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {

namespace {

// Each thread batches its counts and flushes them to the shared totals only
// every kFlushBytes of net heap change or kFlushAllocations allocations:
// two threads updating shared atomics on every allocation doubled the cost
// of a testbed build and made every two-thread workload time the counter.
constexpr std::int64_t kFlushBytes = 64 * 1024;
constexpr std::uint64_t kFlushAllocations = 4096;

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

/// A thread's unflushed counts. Trivially destructible, so it stays usable
/// while the thread's other thread_local objects are destroyed.
struct Pending {
  std::uint64_t allocations = 0;
  std::int64_t live = 0;
  bool registered = false;
  bool exited = false;
};
thread_local Pending t_pending;

void flush(Pending& pending) {
  g_allocations.fetch_add(pending.allocations, std::memory_order_relaxed);
  const std::int64_t live =
      g_live.fetch_add(pending.live, std::memory_order_relaxed) +
      pending.live;
  pending.allocations = 0;
  pending.live = 0;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

/// Flushes a thread's counts when it exits.
struct ExitFlush {
  ~ExitFlush() {
    flush(t_pending);
    t_pending.exited = true;
  }
};
thread_local ExitFlush t_exit_flush;

void note(std::int64_t bytes, std::uint64_t allocations) {
  Pending& pending = t_pending;
  if (!pending.registered) {
    pending.registered = true;
    // Constructs this thread's ExitFlush, which registers its destructor.
    static_cast<void>(&t_exit_flush);
  }
  pending.allocations += allocations;
  pending.live += bytes;
  if (pending.exited || pending.allocations >= kFlushAllocations ||
      pending.live >= kFlushBytes || pending.live <= -kFlushBytes) {
    flush(pending);
  }
}

void note_alloc(void* p) {
  note(static_cast<std::int64_t>(malloc_usable_size(p)), 1);
}

void note_free(void* p) {
  if (p == nullptr) return;
  note(-static_cast<std::int64_t>(malloc_usable_size(p)), 0);
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  note_alloc(p);
  return p;
}

void release(void* p) {
  note_free(p);
  std::free(p);
}

}  // namespace

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed) +
         t_pending.allocations;
}
std::uint64_t live_bytes() {
  return static_cast<std::uint64_t>(
      g_live.load(std::memory_order_relaxed) + t_pending.live);
}
std::uint64_t peak_bytes() {
  flush(t_pending);
  return static_cast<std::uint64_t>(g_peak.load(std::memory_order_relaxed));
}
void reset_peak() {
  flush(t_pending);
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench::heap

using perfbench::heap::allocate;
using perfbench::heap::allocate_aligned;
using perfbench::heap::release;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
