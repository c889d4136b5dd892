// A program-wide counting allocator: every form of the global operator new
// bumps g_heap_allocs and allocates with malloc (or aligned_alloc), and
// every form of operator delete frees with free(), so sanitizers see
// matching pairs whichever form the standard library picks (std::nothrow
// temporary buffers in std::stable_sort, over-aligned types).
//
// Replacement operators must be defined once per program: include this
// header from exactly one translation unit of a bench binary.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<std::uint64_t> g_heap_allocs{0};

namespace counting_new {

inline void* allocate(std::size_t size, std::size_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a whole number of alignment units.
  return std::aligned_alloc(
      align, (std::max<std::size_t>(size, 1) + align - 1) / align * align);
}

inline void* allocate_or_throw(std::size_t size, std::size_t align) {
  if (void* p = allocate(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace counting_new

void* operator new(std::size_t size) {
  return counting_new::allocate_or_throw(size, 0);
}
void* operator new[](std::size_t size) {
  return counting_new::allocate_or_throw(size, 0);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counting_new::allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counting_new::allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counting_new::allocate_or_throw(size,
                                         static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counting_new::allocate_or_throw(size,
                                         static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counting_new::allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counting_new::allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
