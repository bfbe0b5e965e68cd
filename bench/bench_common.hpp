// Shared plumbing for the figure-reproduction harnesses: workload
// construction per §VI's experiment setup, result-table helpers, and the
// robustness wiring (crash-safe checkpointing, failure containment,
// SIGINT/SIGTERM handling — DESIGN.md §10) every experiment driver shares.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/apsp.hpp"
#include "sim/experiment.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "util/executor.hpp"
#include "util/guarded_main.hpp"
#include "util/options.hpp"
#include "util/require.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc::bench {

/// Formats a byte count as MiB with one decimal, or "n/a" for the 0 the
/// RSS probes return on platforms without /proc/self/status.
inline std::string mib(std::size_t bytes, int precision = 1) {
  if (bytes == 0) return "n/a";
  return TablePrinter::num(static_cast<double>(bytes) / (1024.0 * 1024.0),
                           precision);
}

/// Standard memory footer under every result table: peak RSS of the whole
/// process so far (util/rss.hpp). Reporting-only — the value never feeds
/// a fingerprint or artifact checksum.
inline void print_rss_footer(std::ostream& os) {
  os << "peak RSS: " << mib(peak_rss_bytes()) << " MiB\n";
}

/// §VI experiment setup: fat-tree of arity k, VM pairs with 80% rack
/// locality and Facebook-like rates. `rack_zipf_s` adds tenant skew for
/// the dynamic experiments (see VmPlacementConfig::rack_zipf_s).
inline std::vector<VmFlow> paper_workload(const Topology& topo, int l,
                                          Rng& rng,
                                          double rack_zipf_s = 0.0) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  cfg.intra_rack_fraction = 0.8;
  cfg.rack_zipf_s = rack_zipf_s;
  return generate_vm_flows(topo, cfg, rng);
}

/// Prints the standard harness header: what figure, what setup.
inline void header(const std::string& figure, const std::string& setup) {
  print_banner(std::cout, figure);
  std::cout << "setup: " << setup << "\n\n";
}

/// Shared --threads option of the experiment benches: worker threads of
/// the SimJob pool (0 / absent = auto, see ExperimentConfig::threads).
inline int threads_option(const Options& opts) {
  return opts.get_int32("threads", 0);
}

/// Header label for the resolved thread count: "4", or "auto(8)" when the
/// pool size was derived from hardware concurrency.
inline std::string threads_label(int requested) {
  const int resolved = resolve_experiment_threads(requested);
  if (requested >= 1) return std::to_string(resolved);
  return "auto(" + std::to_string(resolved) + ")";
}

/// Formats a MeanCi cell.
inline std::string cell(const MeanCi& mc, int precision = 0) {
  return TablePrinter::num_ci(mc.mean, mc.ci95, precision);
}

/// Formats a MeanCi cell of a policy row, marking it absent ("n/a") when
/// keep_going quarantined every trial of that policy — an all-failed cell
/// must never render as a zero-cost result.
inline std::string cell(const PolicyStats& s, const MeanCi& mc,
                        int precision = 0) {
  if (s.completed_trials == 0) return "n/a";
  return cell(mc, precision);
}

// ---------------------------------------------------------------------------
// Robustness wiring (DESIGN.md §10): --checkpoint / --keep-going /
// --retries options, the SIGINT/SIGTERM cancellation flag, and the
// interrupted-run exit path shared by every experiment driver.
// ---------------------------------------------------------------------------

/// Process-wide cooperative cancellation flag, flipped by the signal
/// handler below and wired into SimConfig::cancel.
inline std::atomic<bool>& cancel_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

namespace detail {
inline void request_cancel(int /*signum*/) {
  // Lock-free atomic store: async-signal-safe. Every checkpointed cell
  // rewrites its journal after each epoch, so there is nothing else to
  // save here — the workers notice the flag at the next shard boundary.
  cancel_flag().store(true, std::memory_order_relaxed);
}
}  // namespace detail

/// Installs SIGINT/SIGTERM handlers that request a cooperative stop: the
/// cells in flight stop with their journals durable, then run_experiment
/// throws ExperimentInterrupted (handled by run_or_exit below).
inline void install_signal_handlers() {
  std::signal(SIGINT, &detail::request_cancel);
  std::signal(SIGTERM, &detail::request_cancel);
}

/// The three robustness options every experiment driver exposes.
struct RobustnessOptions {
  std::string checkpoint;  ///< cell-journal base path ("" = none)
  bool keep_going = false;
  int retries = 0;
};

inline RobustnessOptions robustness_options(const Options& opts) {
  RobustnessOptions r;
  r.checkpoint = opts.get_string("checkpoint", "");
  r.keep_going = opts.get_bool("keep-going", false);
  r.retries = opts.get_int32("retries", 0);
  return r;
}

/// Derives the journal base of one experiment section from the driver's
/// --checkpoint base. Drivers that run several differently-configured
/// experiments (e.g. fig11's panels) must give each its own base — their
/// cells would otherwise share journal paths, and each would warn about
/// and overwrite the other's journals.
inline std::string checkpoint_for(const std::string& base,
                                  const std::string& tag) {
  if (base.empty()) return "";
  if (tag.empty()) return base;
  return base + "." + tag;
}

/// Applies the robustness options to one experiment section and wires the
/// signal-driven cancellation flag into the simulation.
inline void apply_robustness(ExperimentConfig& cfg,
                             const RobustnessOptions& r,
                             const std::string& tag = "") {
  cfg.checkpoint_path = checkpoint_for(r.checkpoint, tag);
  cfg.keep_going = r.keep_going;
  cfg.retry_limit = r.retries;
  cfg.sim.cancel = &cancel_flag();
}

/// Reports quarantined cells of a keep-going run on stderr (stdout stays
/// reserved for the result tables, which must diff clean across resumes).
inline void report_failures(const std::vector<PolicyStats>& stats) {
  for (const PolicyStats& s : stats) {
    for (const JobFailure& f : s.failures) {
      std::cerr << "warning: policy '" << s.name << "' trial " << f.trial
                << " quarantined after " << f.attempts
                << " attempt(s): " << f.error << "\n";
    }
    if (!s.failures.empty()) {
      std::cerr << "warning: policy '" << s.name << "' aggregates "
                << s.completed_trials << " of "
                << s.completed_trials + static_cast<int>(s.failures.size())
                << " trials\n";
    }
  }
}

/// run_experiment with the drivers' shared interrupted-run exit path: on
/// ExperimentInterrupted (SIGINT/SIGTERM), print the partial per-policy
/// summary on stderr and exit 130 — the cell journals already hold every
/// finished epoch, so rerunning the same command resumes. Failure reports
/// of keep-going runs are printed as a side effect.
inline std::vector<PolicyStats> run_or_exit(
    const Topology& topo, const AllPairs& apsp, const ExperimentConfig& cfg,
    const std::vector<const MigrationPolicy*>& policies) {
  try {
    std::vector<PolicyStats> stats =
        run_experiment(topo, apsp, cfg, policies);
    report_failures(stats);
    return stats;
  } catch (const ExperimentInterrupted& e) {
    std::cerr << "\ninterrupted: " << e.what() << "\n"
              << e.partial_summary();
    std::exit(130);
  }
}

// ---------------------------------------------------------------------------
// Perf-trajectory artifacts (EXPERIMENTS.md "BENCH artifacts"): pinned-
// scenario kernel timings written as BENCH_<kernel>.json, with enough
// build and scenario metadata that tools/bench_compare can *reject*
// apples-to-oranges comparisons (different build type, flags, compiler,
// -march=native, thread count) instead of silently passing them, and can
// flag output-checksum drift as a correctness failure rather than a
// perf number.
// ---------------------------------------------------------------------------

// Build metadata is baked in by bench/CMakeLists.txt for micro_kernels;
// the fallbacks keep bench_common.hpp self-contained for every other TU.
#ifndef PPDC_BENCH_BUILD_TYPE
#define PPDC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PPDC_BENCH_CXX_FLAGS
#define PPDC_BENCH_CXX_FLAGS ""
#endif
#ifndef PPDC_BENCH_COMPILER
#define PPDC_BENCH_COMPILER "unknown"
#endif
#ifndef PPDC_BENCH_NATIVE
#define PPDC_BENCH_NATIVE 0
#endif

/// Build provenance of a BENCH artifact. Two artifacts are comparable
/// only when every field matches — a Release baseline must never be
/// compared against a RelWithDebInfo (or -march=native) run.
struct BenchBuildInfo {
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;
  bool native = false;
  int threads = 1;  ///< parallel_width() where the kernels were timed
};

inline BenchBuildInfo bench_build_info() {
  BenchBuildInfo b;
  b.build_type = PPDC_BENCH_BUILD_TYPE;
  b.cxx_flags = PPDC_BENCH_CXX_FLAGS;
  b.compiler = PPDC_BENCH_COMPILER;
  b.native = PPDC_BENCH_NATIVE != 0;
  b.threads = parallel_width();
  return b;
}

/// Calibrated timing of one kernel: per-iteration nanoseconds over
/// `repetitions` repetitions of `iterations` calls each. best_ns (the
/// minimum) is the regression-gate statistic — it is robust against
/// scheduler noise, which only ever makes a repetition slower.
struct KernelTiming {
  std::uint64_t iterations = 1;
  int repetitions = 0;
  double best_ns = 0.0;
  double median_ns = 0.0;
  double mean_ns = 0.0;
};

template <typename Fn>
KernelTiming time_kernel(Fn&& fn, bool smoke) {
  using clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(clock::now() - t0)
        .count();
  };
  // Smoke mode (the check.sh gate) trades precision for runtime; full
  // mode (baseline refresh) spends ~0.5 s per kernel for tight minima.
  const double min_rep_ns = smoke ? 2e6 : 5e7;
  const int reps = smoke ? 3 : 11;
  constexpr std::uint64_t kMaxIters = 1u << 20;

  fn();  // warm-up: faults pages, fills caches, materializes lazy state

  // Calibrate the iteration count until one repetition meets min_rep_ns.
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double ns = elapsed_ns(t0);
    if (ns >= min_rep_ns || iters >= kMaxIters) break;
    const double per = std::max(ns / static_cast<double>(iters), 1.0);
    const auto want =
        static_cast<std::uint64_t>(min_rep_ns * 1.2 / per) + 1;
    iters = std::min(kMaxIters, std::max(want, iters * 2));
  }

  std::vector<double> per_iter;
  per_iter.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    per_iter.push_back(elapsed_ns(t0) / static_cast<double>(iters));
  }
  std::sort(per_iter.begin(), per_iter.end());

  KernelTiming t;
  t.iterations = iters;
  t.repetitions = reps;
  t.best_ns = per_iter.front();
  t.median_ns = per_iter[per_iter.size() / 2];
  t.mean_ns = 0.0;
  for (const double v : per_iter) t.mean_ns += v;
  t.mean_ns /= static_cast<double>(per_iter.size());
  return t;
}

/// One pinned-scenario measurement. `fingerprint` hashes the scenario
/// parameters (topology arity, workload size, seeds, n, mu) so a baseline
/// from an edited scenario cannot be compared against the new one;
/// `checksum` hashes the kernel's *outputs* bit-exactly, so the artifact
/// doubles as a cross-PR equivalence check on the hot kernels.
struct BenchRecord {
  std::string kernel;
  std::string scenario;  ///< human-readable pinned-scenario description
  std::uint64_t fingerprint = 0;
  std::uint64_t checksum = 0;
  KernelTiming timing;
};

inline std::string bench_hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Writes BENCH_<kernel>.json under `dir`. Line-oriented on purpose: one
/// `"key": value` pair per line, so tools/bench_compare can parse it with
/// a scanner instead of a JSON library (none is baked into the image).
inline bool write_bench_json(const std::string& dir, const BenchRecord& rec,
                             const BenchBuildInfo& build, bool smoke) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/BENCH_" + rec.kernel + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  const auto ns = [](double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << v;
    return os.str();
  };
  out << "{\n"
      << "  \"schema\": 1,\n"
      << "  \"kernel\": \"" << rec.kernel << "\",\n"
      << "  \"scenario\": \"" << rec.scenario << "\",\n"
      << "  \"fingerprint\": \"" << bench_hex64(rec.fingerprint) << "\",\n"
      << "  \"checksum\": \"" << bench_hex64(rec.checksum) << "\",\n"
      << "  \"build_type\": \"" << build.build_type << "\",\n"
      << "  \"cxx_flags\": \"" << build.cxx_flags << "\",\n"
      << "  \"compiler\": \"" << build.compiler << "\",\n"
      << "  \"native\": " << (build.native ? "true" : "false") << ",\n"
      << "  \"threads\": " << build.threads << ",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"iterations\": " << rec.timing.iterations << ",\n"
      << "  \"repetitions\": " << rec.timing.repetitions << ",\n"
      << "  \"best_ns\": " << ns(rec.timing.best_ns) << ",\n"
      << "  \"median_ns\": " << ns(rec.timing.median_ns) << ",\n"
      << "  \"mean_ns\": " << ns(rec.timing.mean_ns) << "\n"
      << "}\n";
  return static_cast<bool>(out);
}

}  // namespace ppdc::bench
