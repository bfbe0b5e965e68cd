// Million-flow scale harness for the pod-sharded streaming epoch loop
// (DESIGN.md §14, EXPERIMENTS.md "bench_scale").
//
// Where the fig11 drivers reproduce the paper's cost series, this one
// answers the scaling question the sharded engine exists for: what does
// one epoch of the dynamic loop cost — wall-clock and resident memory —
// when the flow population reaches data-center scale (l >= 1,000,000 on a
// k=32 fat tree, 8192 hosts)? It runs run_sharded_simulation directly
// over ShardMap::by_ingress_pod with a streaming workload churning
// between epochs, and prints one row per epoch: live flows, applied
// churn, resolved/held shard split, communication cost, epoch latency,
// and current RSS. The footer adds the engine set-up wall (shard cost
// models and hour-0 solves: from the run_sharded_simulation call to
// on_run_begin), the fabric's stroll-table cache totals (also as they
// stood after hour 0 and after hour 1), and peak RSS.
//
// Options: --k --flows --hours --n --mu --threads --cand --seed
//          --arrivals --depart --rerate --resolve-fraction --staleness
//          --smoke   (tiny k=4 config; the scale_smoke tier-1 CTest gate)
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/sharded_cost_model.hpp"
#include "core/stroll_dp.hpp"
#include "sim/sharded.hpp"
#include "workload/streaming.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Prints one progress row per epoch as the run executes (a long l=1M run
/// must not be silent for minutes), tracking per-epoch wall latency from
/// on_epoch_begin to on_epoch_end and when the run began iterating.
class ScaleObserver final : public ppdc::EpochObserver {
 public:
  ScaleObserver(const ppdc::StreamingWorkload& workload,
                const ppdc::StrollTableCache& cache)
      : workload_(workload), cache_(cache) {}

  void on_run_begin(ppdc::Hour /*horizon*/,
                    const ppdc::Placement& /*initial*/) override {
    run_begin_ = Clock::now();
    after_hour_[0] = cache_.stats();
  }

  void on_epoch_begin(ppdc::Hour /*hour*/) override {
    epoch_start_ = Clock::now();
    churned_ = 0;
    resolved_ = 0;
    held_ = 0;
  }

  void on_shard_batch(ppdc::Hour /*hour*/, int resolved, int held,
                      int churned) override {
    resolved_ = resolved;
    held_ = held;
    churned_ = churned;
  }

  void on_epoch_end(ppdc::Hour hour, const ppdc::EpochDecision& d) override {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - epoch_start_)
            .count();
    total_ms_ += ms;
    ++epochs_;
    std::printf("%5d  %9d  %8d  %5d/%-5d  %14.6g  %10.1f  %9s\n",
                hour.value(), workload_.live_flows(), churned_, resolved_,
                held_, d.comm_cost,
                ms, ppdc::bench::mib(ppdc::current_rss_bytes()).c_str());
    std::fflush(stdout);
    if (hour.value() == 1) after_hour_[1] = cache_.stats();
  }

  double mean_epoch_ms() const {
    return epochs_ == 0 ? 0.0 : total_ms_ / epochs_;
  }
  Clock::time_point run_begin() const { return run_begin_; }
  /// The stroll-table cache after hour 0 (h = 0) and after hour 1 (h = 1).
  const ppdc::StrollTableCache::Stats& cache_after(int h) const {
    return after_hour_[h];
  }

 private:
  const ppdc::StreamingWorkload& workload_;
  const ppdc::StrollTableCache& cache_;
  ppdc::StrollTableCache::Stats after_hour_[2];
  Clock::time_point run_begin_{};
  Clock::time_point epoch_start_{};
  int churned_ = 0;
  int resolved_ = 0;
  int held_ = 0;
  double total_ms_ = 0.0;
  int epochs_ = 0;
};

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "flows", "hours", "n", "mu", "threads", "cand",
                    "seed", "arrivals", "depart", "rerate",
                    "resolve-fraction", "staleness", "smoke"});
  const bool smoke = opts.get_bool("smoke", false);

  // Smoke mode is the scale_smoke tier-1 gate: the same code path at a
  // size that finishes in seconds (and that build-tsan can re-run).
  const int k = opts.get_int32("k", smoke ? 4 : 32);
  const int flows = opts.get_int32("flows", smoke ? 2000 : 1000000);
  const int hours = opts.get_int32("hours", smoke ? 4 : 12);
  const int n = opts.get_int32("n", 7);
  const double mu = opts.get_double("mu", 1e4);
  const int threads = opts.get_int32("threads", smoke ? 2 : 0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));

  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = threads;
  sharded.churn.arrivals_per_epoch =
      opts.get_int32("arrivals", smoke ? 100 : flows / 200);
  sharded.churn.departure_prob =
      opts.get_double("depart", smoke ? 0.02 : 0.005);
  sharded.churn.rerate_prob = opts.get_double("rerate", smoke ? 0.1 : 0.05);
  sharded.resolve_churn_fraction =
      opts.get_double("resolve-fraction", smoke ? 0.05 : 0.02);
  sharded.max_staleness = opts.get_int32("staleness", 4);

  const auto t_build = Clock::now();
  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const double build_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_build)
          .count();

  VmPlacementConfig workload_cfg;
  workload_cfg.num_pairs = flows;
  workload_cfg.intra_rack_fraction = 0.8;
  workload_cfg.rack_zipf_s = 2.2;  // tenant skew, as in the fig11 dynamics
  const auto t_gen = Clock::now();
  StreamingWorkload workload(topo, workload_cfg, sharded.churn, Rng(seed));
  const double gen_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_gen).count();

  TopDpOptions dp_opts;
  dp_opts.candidate_limit =
      opts.get_int32("cand", topo.num_switches() > 100 ? 48 : 0);
  ParetoMigrationOptions pareto_opts;
  pareto_opts.placement = dp_opts;
  ParetoMigrationPolicy policy(mu, pareto_opts);

  SimConfig sim;
  sim.hours = hours;
  sim.initial_placement = dp_opts;

  bench::header(
      "bench_scale — pod-sharded streaming epoch loop at scale",
      "fat-tree k=" + std::to_string(k) + " (" +
          std::to_string(topo.num_hosts()) + " hosts, " +
          std::to_string(map.num_shards()) + " shards), l=" +
          std::to_string(flows) + ", n=" + std::to_string(n) + ", mu=" +
          TablePrinter::num(mu, 0) + ", churn=" +
          std::to_string(sharded.churn.arrivals_per_epoch) + "/epoch, " +
          "resolve-fraction=" +
          TablePrinter::num(sharded.resolve_churn_fraction, 3) +
          ", staleness<=" + std::to_string(sharded.max_staleness) +
          ", threads=" + bench::threads_label(threads));
  std::cout << "topology+APSP+shard map: " << TablePrinter::num(build_ms, 1)
            << " ms, workload generation: " << TablePrinter::num(gen_ms, 1)
            << " ms\n\n";

  std::printf("%5s  %9s  %8s  %11s  %14s  %10s  %9s\n", "hour", "live",
              "churned", "rslv/held", "comm cost", "epoch ms", "RSS MiB");

  ScaleObserver observer(workload, StrollTableCache::of(apsp));
  const auto t_run = Clock::now();
  const SimTrace trace = run_sharded_simulation(apsp, map, workload, n, sim,
                                                sharded, policy, &observer);
  const double run_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_run).count();

  std::cout << "\ntotal cost " << TablePrinter::num(trace.total_cost, 0)
            << " (comm " << TablePrinter::num(trace.total_comm_cost, 0)
            << ", migration "
            << TablePrinter::num(trace.total_migration_cost, 0) << ", "
            << trace.total_vnf_migrations << " VNF moves), shards resolved "
            << trace.total_shard_resolves << " / held "
            << trace.total_shard_holds << "\n";
  std::cout << "wall: " << TablePrinter::num(run_ms, 1) << " ms over "
            << hours << " epochs (mean "
            << TablePrinter::num(observer.mean_epoch_ms(), 1)
            << " ms/epoch, hour-0 solve included in wall only)\n";
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              observer.run_begin() - t_run)
                              .count();
  std::cout << "engine set-up (shard models + hour-0 solves): "
            << TablePrinter::num(setup_ms, 1) << " ms\n";
  const StrollTableCache::Stats cache = StrollTableCache::of(apsp).stats();
  std::cout << "stroll-table cache: " << cache.levels_built
            << " level tables built, " << cache.level_hits << " hits, "
            << bench::mib(cache.bytes) << " MiB\n";
  for (const int h : {0, 1}) {
    const StrollTableCache::Stats& at = observer.cache_after(h);
    std::cout << "stroll-table cache after hour " << h << ": "
              << at.levels_built << " tables, " << bench::mib(at.bytes)
              << " MiB\n";
  }
  bench::print_rss_footer(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
