// The executor's contract (util/executor.hpp): every index of a
// parallel_for runs exactly once, a work-pulling region finishes its work
// at any width, a region that cannot get the workers — nested in a body
// that holds them, inside serially(), or racing another thread's region —
// runs its body once, inline, on the calling thread, and a width-1 region
// leaves the workers free for the regions its body enters.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/executor.hpp"

namespace ppdc {
namespace {

/// Hits every index of [0, n) from a `width`-wide region whose copies
/// claim `chunk` indices at a time, the way parallel_for does.
std::vector<int> hits_at_width(int width, std::size_t n, std::size_t chunk) {
  std::vector<std::atomic<int>> hits(n);
  std::atomic<std::size_t> next{0};
  parallel_run(width, [&]() noexcept {
    for (;;) {
      const std::size_t b = next.fetch_add(chunk);
      if (b >= n) return;
      for (std::size_t i = b; i < std::min(n, b + chunk); ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<int> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = hits[i].load();
  return out;
}

std::vector<int> parallel_for_hits(std::size_t n, std::size_t chunk) {
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, chunk, [&](std::size_t i) noexcept {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = hits[i].load();
  return out;
}

TEST(Executor, EveryIndexRunsOnceAtAnyWidth) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{4097}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{8}}) {
      const std::vector<int> once(n, 1);
      EXPECT_EQ(parallel_for_hits(n, chunk), once)
          << "parallel_for n " << n << " chunk " << chunk;
      std::vector<int> serial;
      serially([&]() noexcept { serial = parallel_for_hits(n, chunk); });
      EXPECT_EQ(serial, once)
          << "serial parallel_for n " << n << " chunk " << chunk;
      for (int width = 1; width <= 8; ++width) {
        EXPECT_EQ(hits_at_width(width, n, chunk), once)
            << "n " << n << " width " << width << " chunk " << chunk;
      }
    }
  }
}

TEST(Executor, SeriallyRunsNestedRegionsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  int nested_calls = 0;
  int width_inside = 0;
  bool on_caller = true;
  serially([&]() noexcept {
    ++calls;
    width_inside = parallel_width();
    parallel_run(4, [&]() noexcept {
      ++nested_calls;
      on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    parallel_for(64, 1, [&](std::size_t) noexcept {
      on_caller = on_caller && std::this_thread::get_id() == caller;
    });
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(nested_calls, 1);
  EXPECT_EQ(width_inside, 1);
  EXPECT_TRUE(on_caller);
  EXPECT_GE(parallel_width(), 1);
}

TEST(Executor, WidthOneRegionLeavesTheWorkersFree) {
  // A width-1 region runs on the caller but does not hold the workers, so
  // a region its body enters still gets a second thread: the nested body
  // waits (bounded) until two copies have started.
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  int width_inside = 0;
  std::atomic<int> nested_calls{0};
  std::atomic<bool> off_caller{false};
  parallel_run(1, [&]() noexcept {
    ++calls;
    width_inside = parallel_width();
    parallel_run(2, [&]() noexcept {
      nested_calls.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.store(true);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (nested_calls.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(width_inside, parallel_width());
  EXPECT_EQ(nested_calls.load(), 2);
  EXPECT_TRUE(off_caller.load());
}

TEST(Executor, NestedRegionRunsInlineOnTheCallingThread) {
  std::atomic<int> outer_calls{0};
  std::atomic<int> bad{0};
  parallel_run(4, [&]() noexcept {
    outer_calls.fetch_add(1);
    const std::thread::id self = std::this_thread::get_id();
    int inner_calls = 0;
    bool inline_here = true;
    parallel_run(4, [&]() noexcept {
      ++inner_calls;
      inline_here = inline_here && std::this_thread::get_id() == self;
    });
    // parallel_for nested in a body also stays on this thread.
    parallel_for(64, 1, [&](std::size_t) noexcept {
      inline_here = inline_here && std::this_thread::get_id() == self;
    });
    if (inner_calls != 1 || !inline_here || parallel_width() != 1) {
      bad.fetch_add(1);
    }
  });
  EXPECT_GE(outer_calls.load(), 1);
  EXPECT_LE(outer_calls.load(), 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(Executor, ConcurrentRegionsFromTwoThreadsBothComplete) {
  // Thread A holds the workers until thread B's region has returned, so B's
  // region must have run inline.
  std::atomic<bool> a_entered{false};
  std::atomic<bool> b_done{false};
  std::atomic<int> a_calls{0};
  int b_calls = 0;
  bool b_inline = false;
  std::thread a([&] {
    parallel_run(2, [&]() noexcept {
      a_calls.fetch_add(1);
      a_entered.store(true);
      while (!b_done.load()) std::this_thread::yield();
    });
  });
  std::thread b([&] {
    while (!a_entered.load()) std::this_thread::yield();
    const std::thread::id self = std::this_thread::get_id();
    parallel_run(2, [&]() noexcept {
      ++b_calls;
      b_inline = std::this_thread::get_id() == self;
    });
    b_done.store(true);
  });
  a.join();
  b.join();
  EXPECT_GE(a_calls.load(), 1);
  EXPECT_EQ(b_calls, 1);
  EXPECT_TRUE(b_inline);

  // The workers are free again afterwards.
  EXPECT_EQ(hits_at_width(4, 1000, 3), std::vector<int>(1000, 1));
}

TEST(Executor, RegionWiderThanTheMachineCompletes) {
  std::atomic<int> calls{0};
  parallel_run(16, [&]() noexcept { calls.fetch_add(1); });
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 16);
  EXPECT_EQ(hits_at_width(16, 4097, 1), std::vector<int>(4097, 1));
}

}  // namespace
}  // namespace ppdc
