// Cache-line-aligned storage for hot kernel arrays.
//
// SpMV streams (val, ind, displ) are read with vector loads; 64-byte
// alignment keeps those loads aligned and avoids false sharing between
// per-thread output partitions.
//
// Large allocations (kHugePageBytes and up: the operator's streams, the
// build's transient arrays, K-wide slice blocks) are rounded up to 2 MiB
// in alignment and size and advised onto transparent huge pages
// (madvise(MADV_HUGEPAGE), Linux only). A fault then maps 2 MiB instead of
// 4 KiB, and a streamed array no longer depends on where 512 separate small
// pages landed. The advice is best effort: with THP set to `never`, or
// where madvise fails, the memory stays on small pages and nothing else
// changes. The allocation itself still goes through aligned_alloc, so
// sanitizers keep intercepting it.
//
// Construction contract: `AlignedVector<T> v(n)` and `v.resize(n)`
// default-initialise trivial elements, i.e. leave them unwritten, so the
// threads that fill a large build array are the first to touch its pages
// (no serial zero-fill ahead of a parallel loop that overwrites it). Code
// that needs zeros passes a value: `v(n, T{})`, `v.resize(n, T{})`,
// `v.assign(n, T{})`. Under AddressSanitizer the unwritten elements are
// filled with 0xFF bytes instead, so a read of an element nobody wrote
// shows up as a NaN or an out-of-range index in the asan test run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/types.hpp"

namespace memxct {

/// True in AddressSanitizer builds, where count-only construction fills
/// trivial elements with 0xFF bytes instead of leaving them unwritten.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPoisonDefaultInit = true;
#else
inline constexpr bool kPoisonDefaultInit = false;
#endif

/// Test hook: process-wide count of AlignedAllocator heap allocations.
/// The hot-path contract (apply() allocates nothing after operator
/// construction) is asserted by diffing this counter around kernel calls.
inline std::atomic<std::int64_t>& aligned_alloc_count() noexcept {
  static std::atomic<std::int64_t> count{0};
  return count;
}

/// Size from which an AlignedAllocator allocation sits on huge pages.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Asks the kernel to back [p, p + bytes) with transparent huge pages.
/// Best effort: a failure (THP off, no madvise) leaves small pages.
inline void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  (void)::madvise(p, bytes, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Minimal allocator returning kCacheLineBytes-aligned memory, and
/// kHugePageBytes-aligned, huge-page-advised memory for large requests.
template <class T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    constexpr auto kMaxBytes =
        static_cast<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max());
    if (n > (kMaxBytes - kHugePageBytes) / sizeof(T)) throw std::bad_alloc();
    const std::size_t size = n * sizeof(T);
    const bool huge = size >= kHugePageBytes;
    const std::size_t align = huge ? kHugePageBytes : kCacheLineBytes;
    const std::size_t bytes = (size + align - 1) / align * align;
    void* p = std::aligned_alloc(align, bytes);
    if (p == nullptr) throw std::bad_alloc();
    if (huge) advise_huge_pages(p, bytes);
    aligned_alloc_count().fetch_add(1, std::memory_order_relaxed);
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  /// Default-initialises instead of value-initialising (see the header
  /// comment); non-trivial types keep std::allocator_traits' construction.
  template <class U>
    requires std::is_trivially_default_constructible_v<U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
    if constexpr (kPoisonDefaultInit)
      std::memset(static_cast<void*>(p), 0xFF, sizeof(U));
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Vector with cache-line-aligned backing store; used for all kernel arrays.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace memxct
