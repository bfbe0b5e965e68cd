// Shared plumbing of the end-to-end benchmark: wall-clock helpers, the
// in-memory span log, the probes the benchmark attaches to the library's
// public extension points (an EpochObserver and a timing MigrationPolicy
// decorator), and the report every workload returns.
//
// Everything here lives outside the library: spans are recorded around
// calls the benchmark makes, or from callbacks the library already offers,
// so the measured program is exactly the one `src/` builds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "sim/policy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed on the benchmark's clock since process start.
double now_s();

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);

/// Total length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals);

/// Bitwise equality: the determinism checks compare doubles exactly.
bool same_bits(double a, double b);

constexpr double kMiB = 1024.0 * 1024.0;

/// One traced interval. `parent` is the index of the enclosing span (-1 at
/// the root) and `epoch` the simulation hour it belongs to (-1 outside the
/// epoch loop).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int epoch = -1;
};

/// Spans kept in memory while the run executes and written out once at the
/// end. Thread-safe: policy spans arrive from worker threads.
class SpanLog {
 public:
  /// Records a finished span and returns its index.
  int add(std::string name, double start_s, double end_s, int parent = -1,
          int epoch = -1);
  /// Opens a span whose end is not known yet; close() sets it.
  int open(std::string name, double start_s, int parent = -1,
           int epoch = -1);
  void close(int id, double end_s);

  std::vector<Span> snapshot() const;
  /// Writes one JSON object per line; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times a span of the benchmark's own code into `log` (when non-null) and
/// returns the elapsed seconds.
template <typename Fn>
double timed(SpanLog* log, const char* name, Fn&& fn, int parent = -1,
             int epoch = -1) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  if (log != nullptr) log->add(name, t0, t1, parent, epoch);
  return t1 - t0;
}

/// One MigrationPolicy::on_epoch call, as seen by TimedPolicy.
struct PolicyCall {
  std::string policy;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Start of this call minus the start of the same clone's previous call:
  /// one full epoch period of that simulation run (absent on the first).
  std::optional<double> period_s;
  int epoch = -1;
};

/// Collects the calls of every TimedPolicy clone, from any thread. The
/// epoch observer publishes the current hour and epoch span so that policy
/// spans of the sharded engine attach to their epoch.
class PolicyProbe {
 public:
  explicit PolicyProbe(SpanLog* log) : log_(log) {}

  void record(PolicyCall call);
  void set_epoch(int epoch, int span) {
    epoch_.store(epoch, std::memory_order_relaxed);
    epoch_span_.store(span, std::memory_order_relaxed);
  }
  int epoch() const { return epoch_.load(std::memory_order_relaxed); }

  std::vector<PolicyCall> calls() const;

 private:
  SpanLog* log_;
  std::atomic<int> epoch_{-1};
  std::atomic<int> epoch_span_{-1};
  mutable std::mutex mu_;
  std::vector<PolicyCall> calls_;  // guarded by mu_
};

/// Decorator that times every on_epoch of the wrapped policy. clone()
/// wraps the inner clone and name()/reseed() forward, so a run through the
/// decorator produces the same trace as a run of the bare policy.
class TimedPolicy final : public ppdc::MigrationPolicy {
 public:
  TimedPolicy(std::unique_ptr<ppdc::MigrationPolicy> inner,
              PolicyProbe* probe);

  std::string name() const override { return name_; }
  std::unique_ptr<ppdc::MigrationPolicy> clone() const override;
  void reseed(ppdc::Rng& attempt_rng) override { inner_->reseed(attempt_rng); }
  ppdc::EpochDecision on_epoch(const ppdc::CostModel& model,
                               ppdc::SimState& state) override;

 private:
  std::unique_ptr<ppdc::MigrationPolicy> inner_;
  PolicyProbe* probe_;
  std::string name_;
  std::optional<double> last_start_s_;
};

/// Per-epoch record of a sharded run, from the observer stream.
struct EpochSample {
  int hour = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  int resolved = 0;
  int held = 0;
  int churned = 0;
  int span = -1;
};

/// Observer of one run_sharded_simulation call: marks the end of set-up
/// (on_run_begin), times every epoch, and keeps the shard-batch counts.
/// With `stop_after_setup` it flips the run's cancel flag in on_run_begin,
/// so the engine stops before the first epoch: a set-up-only run.
class LoopProbe final : public ppdc::EpochObserver {
 public:
  LoopProbe(SpanLog* log, PolicyProbe* policies,
            std::atomic<bool>* stop_after_setup = nullptr)
      : log_(log), policies_(policies), stop_(stop_after_setup) {}

  void on_run_begin(ppdc::Hour horizon, const ppdc::Placement& initial) override;
  void on_epoch_begin(ppdc::Hour hour) override;
  void on_shard_batch(ppdc::Hour hour, int resolved, int held,
                      int churned) override;
  void on_epoch_end(ppdc::Hour hour, const ppdc::EpochDecision& d) override;

  std::optional<double> run_begin_s() const { return run_begin_s_; }
  const std::vector<EpochSample>& epochs() const { return epochs_; }

 private:
  SpanLog* log_;
  PolicyProbe* policies_;
  std::atomic<bool>* stop_;
  std::optional<double> run_begin_s_;
  EpochSample open_;
  std::vector<EpochSample> epochs_;
};

/// Algorithm 3's stroll tables over one model's egress candidates, replayed
/// outside the engine: each table's build plus its first find, and every
/// further find over the ingress candidates.
struct StrollSample {
  std::vector<double> table_s;
  std::vector<double> find_s;
  int egress_candidates = 0;
  std::size_t universe = 0;  ///< DP rows: the model's placement candidates
};
StrollSample replay_strolls(const ppdc::CostModel& model, int candidate_limit,
                            int n, SpanLog& log);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload returns to main(): the end-to-end metrics (untraced
/// runs), the per-layer metrics (traced runs), the operation counts, and
/// every correctness failure found by the gate.
struct Report {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness failure; it counts as one failed operation.
  void fail(std::string what) {
    errors.push_back(std::move(what));
    ++failed;
  }
};

/// Command-line arguments shared by every workload.
struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test size: same code path, seconds to run
  /// Worker pool of the measured runs: one per core of the 4-core box the
  /// bounds were set on. The gate runs 1.
  int threads = 4;
  std::string spans_path;
};

Report run_sharded(const std::string& workload, const RunArgs& args);
Report run_fig11_faults(const RunArgs& args);

/// Writes the span log when a path was given; a write failure is a
/// correctness failure of the traced run.
void write_spans(const SpanLog& log, const RunArgs& args, Report& report);

}  // namespace perfbench
