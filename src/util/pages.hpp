// Page-mapped storage for large buffers that worker threads build and free.
//
// glibc serves a request at or above its mmap threshold (128 KiB at start)
// with a private mapping, but every time such a mapping is freed it raises
// the threshold to that size (up to 32 MiB). After the first all-pairs
// matrix is freed, every later one — each DegradedNetwork rebuilds its own
// on a topology change — lands inside the malloc arena of the thread that
// built it. Freed there, it stays resident for that thread's later use
// only, and how much stays depends on which jobs overlap, so the peak RSS
// of a multi-worker experiment grid varies from run to run. PageAllocator
// maps and unmaps each buffer directly, so its pages go back to the OS
// when the buffer is freed and never move the threshold.
//
// A PageAllocator block is written in full as soon as it is built (the
// all-pairs block, its transposed copy), so it is mapped prefaulted:
// the kernel populates the whole range in one call instead of taking
// one page fault per 4 KiB on the first write. Stroll level slabs map
// lazily (map_pages' default): a slab only grows resident as its levels
// are written, and most slabs never fill.
#pragma once

#include <cstddef>

namespace ppdc {

/// `bytes` of zero-filled memory mapped from the OS; nullptr for 0.
/// `prefault` populates every page up front (MAP_POPULATE); otherwise a
/// page becomes resident on its first touch. Throws std::bad_alloc when
/// the mapping fails.
void* map_pages(std::size_t bytes, bool prefault = false);

/// Unmaps a block from map_pages() of the same size.
void unmap_pages(void* p, std::size_t bytes) noexcept;

/// Standard allocator over prefaulted map_pages(), for containers that
/// are sized once, large (hundreds of KiB and up) and written in full
/// right away: each allocation is rounded up to whole pages.
template <class T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T), /*prefault=*/true));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }

  friend bool operator==(const PageAllocator& /*a*/,
                         const PageAllocator& /*b*/) noexcept {
    return true;
  }
};

}  // namespace ppdc
