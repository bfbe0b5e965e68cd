#include "util/executor.hpp"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace ppdc {

namespace {

/// True while this thread runs the body of a region that holds the
/// workers, or a serially() body; regions entered then run inline.
thread_local bool t_inline = false;

/// Runs `fn` with regions it enters inline.
void run_inline(detail::RegionFn fn, void* ctx) noexcept {
  const bool outer = t_inline;
  t_inline = true;
  fn(ctx);
  t_inline = outer;
}

/// The persistent workers. One region owns them at a time; it hands out
/// width - 1 tickets, and every worker takes at most one ticket per
/// region.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Runs one region with `helpers` workers beside the caller. Returns
  /// false, having run nothing, when another thread's region holds the
  /// workers.
  bool try_run(int helpers, detail::RegionFn fn, void* ctx) {
    const std::unique_lock<std::mutex> owner(region_, std::try_to_lock);
    if (!owner.owns_lock()) return false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      while (workers_.size() < static_cast<std::size_t>(helpers)) {
        workers_.emplace_back([this] { work(); });
      }
      fn_ = fn;
      ctx_ = ctx;
      ++generation_;
      tickets_ = helpers;
    }
    wake_.notify_all();
    run_inline(fn, ctx);
    std::unique_lock<std::mutex> lock(mu_);
    // The caller's copy has run out of work, so a worker that has not
    // picked up its ticket yet would find none either.
    tickets_ = 0;
    done_.wait(lock, [this] { return running_ == 0; });
    return true;
  }

 private:
  Pool() = default;

  void work() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] {
        return stop_ || (tickets_ > 0 && generation_ != seen);
      });
      if (stop_) return;
      seen = generation_;
      --tickets_;
      ++running_;
      const detail::RegionFn fn = fn_;
      void* const ctx = ctx_;
      lock.unlock();
      run_inline(fn, ctx);
      lock.lock();
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::mutex region_;  ///< held by the thread whose region owns the workers

  std::mutex mu_;  ///< guards everything below
  std::condition_variable wake_;  ///< workers: a region or stop
  std::condition_variable done_;  ///< caller: the last copy returned
  detail::RegionFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::uint64_t generation_ = 0;  ///< regions started
  int tickets_ = 0;               ///< copies not yet picked up
  int running_ = 0;               ///< copies running on workers
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

int hardware_width() {
  static const int width = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return width;
}

}  // namespace

int parallel_width() { return t_inline ? 1 : hardware_width(); }

namespace detail {

void parallel_run(int width, RegionFn fn, void* ctx) {
  // A region that shrinks to the caller leaves t_inline as it was: it does
  // not hold the workers, so the regions its body enters may take them.
  if (width <= 1 || t_inline ||
      !Pool::instance().try_run(width - 1, fn, ctx)) {
    fn(ctx);
  }
}

void serially(RegionFn fn, void* ctx) { run_inline(fn, ctx); }

}  // namespace detail

}  // namespace ppdc
