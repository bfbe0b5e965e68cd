// Ablation (paper §VII future work): VNF replication vs VNF migration for
// dynamic traffic mitigation.
//
// Replication deploys R static replica chains (clustered per tenant mass)
// and lets every flow take its per-stage Viterbi-optimal path — no
// migration traffic, ever. Migration keeps one chain and moves it with
// mPareto. The sweep reports the 12-hour diurnal totals of both, plus the
// static single chain (NoMigration), answering "to which extent VNF
// replication could be beneficial ... when compared to VNF migration".
//
// Options: --k --trials --l --n --mu --replicas --zipf --seed --threads
//          --csv --checkpoint BASE --keep-going --retries  (robustness:
//          BASE.t<trial>p<policy> holds each cell's epoch journal; see
//          EXPERIMENTS.md "Crash-safe checkpointing")
#include <iostream>

#include "bench_common.hpp"
#include "core/replication.hpp"
#include "sim/experiment.hpp"
#include "workload/diurnal.hpp"

namespace ppdc {

/// Sim policy wrapper: a static replicated placement, provisioned for the
/// tenant layout; flows re-route (Viterbi) every hour at zero migration
/// cost. The replicas depend only on the flows' endpoints (each flow
/// weighs one unit, not one hour's rate), so whichever epoch first asks
/// computes the same placement — a run resumed mid-way from its epoch
/// journal, whose clone skips the replayed epochs, matches an
/// uninterrupted one.
class ReplicationPolicy final : public MigrationPolicy {
 public:
  ReplicationPolicy(int replicas, TopDpOptions options)
      : replicas_(replicas), options_(options) {}
  std::string name() const override {
    return "Replication-x" + std::to_string(replicas_);
  }
  std::unique_ptr<MigrationPolicy> clone() const override {
    // Fresh clone per (trial, policy) job: only the configuration travels,
    // the cached clustering restarts per trial.
    return std::make_unique<ReplicationPolicy>(replicas_, options_);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    // Cluster once per flow set; the fingerprint also catches a flow set
    // swapped mid-run (e.g. when driven manually through run_simulation).
    std::vector<NodeId> fingerprint;
    fingerprint.reserve(state.flows.size() * 2);
    for (const auto& f : state.flows) {
      fingerprint.push_back(f.src_host);
      fingerprint.push_back(f.dst_host);
    }
    if (placement_.chains.empty() || fingerprint != fingerprint_) {
      std::vector<VmFlow> unit = state.flows;
      for (VmFlow& f : unit) f.rate = 1.0;
      placement_ = solve_replicated_top(
          CostModel(model.apsp(), unit),
          static_cast<int>(state.placement.size()), replicas_, options_);
      fingerprint_ = std::move(fingerprint);
    }
    EpochDecision d;
    d.comm_cost = replicated_communication_cost(model.apsp(), state.flows,
                                                placement_);
    return d;
  }

 private:
  int replicas_;
  TopDpOptions options_;
  ReplicatedPlacement placement_;
  std::vector<NodeId> fingerprint_;
};

}  // namespace ppdc

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "trials", "l", "n", "mu", "replicas", "zipf", "seed",
                    "threads", "csv", "checkpoint", "keep-going", "retries"});
  const int k = opts.get_int32("k", 8);
  const int trials = opts.get_int32("trials", 5);
  const int l = opts.get_int32("l", 200);
  const int n = opts.get_int32("n", 5);
  const double mu = opts.get_double("mu", 1e4);
  const double zipf = opts.get_double("zipf", 2.2);
  const auto replica_counts = opts.get_int_list("replicas", {2, 3, 4});
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const int threads = bench::threads_option(opts);
  const bench::RobustnessOptions robust = bench::robustness_options(opts);
  bench::install_signal_handlers();

  bench::header("Ablation — VNF replication vs VNF migration (§VII)",
                "fat-tree k=" + std::to_string(k) + ", l=" +
                    std::to_string(l) + ", n=" + std::to_string(n) +
                    ", mu=" + TablePrinter::num(mu, 0) + ", zipf=" +
                    TablePrinter::num(zipf, 1) + ", " +
                    std::to_string(trials) + " trials, threads=" +
                    bench::threads_label(threads) + ", 12h diurnal cycle");

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);
  TopDpOptions dp_opts;
  dp_opts.candidate_limit = topo.num_switches() > 100 ? 48 : 0;

  ExperimentConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.workload.num_pairs = l;
  cfg.workload.rack_zipf_s = zipf;
  cfg.sfc_length = n;
  cfg.threads = threads;
  cfg.sim.initial_placement = dp_opts;
  bench::apply_robustness(cfg, robust);

  NoMigrationPolicy none;
  ParetoMigrationOptions pareto_opts;
  pareto_opts.placement = dp_opts;
  ParetoMigrationPolicy pareto(mu, pareto_opts);
  std::vector<std::unique_ptr<ReplicationPolicy>> reps;
  std::vector<const MigrationPolicy*> policies{&none, &pareto};
  for (const int r : replica_counts) {
    reps.push_back(std::make_unique<ReplicationPolicy>(r, dp_opts));
    policies.push_back(reps.back().get());
  }

  const auto stats = bench::run_or_exit(topo, apsp, cfg, policies);
  TablePrinter t({"strategy", "12h total", "comm", "migration",
                  "vs NoMigration (%)"});
  const double base = stats[0].total_cost.mean;
  for (const auto& s : stats) {
    t.add_row({s.name, bench::cell(s, s.total_cost),
               bench::cell(s, s.comm_cost), bench::cell(s, s.migration_cost),
               TablePrinter::num(100.0 * (1.0 - s.total_cost.mean / base),
                                 1)});
  }
  if (opts.get_bool("csv", false)) {
    t.write_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cout << "\nreading: replication buys locality without migration "
               "traffic, at the price of deploying R chains; migration "
               "adapts a single chain. Whichever wins here, the gap bounds "
               "how much §VII's replication extension can add.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
