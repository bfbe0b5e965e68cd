// The library's one thread pool. Every parallel loop — the all-pairs
// build, the cost-model block rescans, the sharded engine's shard pool and
// the experiment runner's job pool — runs through parallel_run().
//
// A region runs its body on `width` threads at once, the calling thread
// being one of them, and returns once every copy has returned. A body is a
// work-pulling loop: each copy claims items off shared state until none is
// left, so one copy alone finishes the region's work, and a copy that
// starts late may find nothing to do. That contract lets a region shrink
// to the caller alone without changing its result, which it does when
//   * the width is 1,
//   * another thread's region already holds the workers,
//   * it is entered from the body of a region that holds the workers (so
//     regions never nest: a job worker's APSP or refresh runs serially on
//     that worker), or from a serially() body.
// Only one region holds the workers at a time, so nothing can deadlock. A
// region that shrank to the caller does not hold them: the regions its
// body enters may still take the workers (run_simulation's kernels run at
// full width inside its one-shard region). No option or environment
// variable sets a thread count.
//
// Workers are created on first use and kept for the life of the process;
// the pool grows to the widest region requested. Bodies are noexcept: a
// caller that needs a worker's exception captures it into its own slot.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace ppdc {

namespace detail {

using RegionFn = void (*)(void*) noexcept;

void parallel_run(int width, RegionFn fn, void* ctx);
void serially(RegionFn fn, void* ctx);

}  // namespace detail

/// Runs `body()` on up to `width` threads, the caller being one of them,
/// and returns when every copy has returned. See the file comment for
/// when a region runs inline instead.
template <class Body>
void parallel_run(int width, Body&& body) {
  static_assert(std::is_nothrow_invocable_v<Body&>,
                "parallel_run bodies must be noexcept");
  using B = std::remove_reference_t<Body>;
  detail::parallel_run(
      width, [](void* ctx) noexcept { (*static_cast<B*>(ctx))(); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Runs `body()` once on the calling thread with every region it enters
/// inline: the serial reference of the parallel kernels.
template <class Body>
void serially(Body&& body) {
  static_assert(std::is_nothrow_invocable_v<Body&>,
                "serially bodies must be noexcept");
  using B = std::remove_reference_t<Body>;
  detail::serially(
      [](void* ctx) noexcept { (*static_cast<B*>(ctx))(); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Width of a region entered from this thread with no explicit limit:
/// 1 where regions run inline (see the file comment), otherwise the
/// hardware concurrency.
int parallel_width();

/// Calls `f(i)` once for every i in [0, n) on up to parallel_width()
/// threads, which claim `chunk` consecutive indices at a time off an
/// atomic counter. Which thread runs an index is unspecified, so `f` must
/// only write state owned by its index.
template <class F>
void parallel_for(std::size_t n, std::size_t chunk, F&& f) {
  static_assert(std::is_nothrow_invocable_v<F&, std::size_t>,
                "parallel_for bodies must be noexcept");
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const int width = static_cast<int>(std::min<std::size_t>(
      chunks, static_cast<std::size_t>(parallel_width())));
  std::atomic<std::size_t> next{0};
  parallel_run(width, [&]() noexcept {
    for (;;) {
      const std::size_t b = next.fetch_add(chunk, std::memory_order_relaxed);
      if (b >= n) return;
      const std::size_t e = std::min(n, b + chunk);
      for (std::size_t i = b; i < e; ++i) f(i);
    }
  });
}

}  // namespace ppdc
