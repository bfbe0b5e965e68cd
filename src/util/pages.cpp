#include "util/pages.hpp"

#include <sys/mman.h>

#include <new>

namespace ppdc {

namespace {
#ifdef MAP_POPULATE
constexpr int kPopulate = MAP_POPULATE;
#else
constexpr int kPopulate = 0;  // first-touch faults, as a lazy mapping
#endif
}  // namespace

void* map_pages(std::size_t bytes, bool prefault) {
  if (bytes == 0) return nullptr;
  const int flags =
      MAP_PRIVATE | MAP_ANONYMOUS | (prefault ? kPopulate : 0);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) ::munmap(p, bytes);
}

}  // namespace ppdc
