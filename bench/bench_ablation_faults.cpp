// Ablation: placement policies under switch/link failures.
//
// Sweeps the per-switch MTBF (mean epochs between fail-stop failures;
// links fail at twice that MTBF) and compares three reactions on the same
// fault timeline:
//   - mPareto:     frontier migration (Algorithm 5) on the degraded fabric,
//   - NoMigration: never migrates voluntarily — only the engine's
//                  emergency recovery moves VNFs off dead switches,
//   - Resolve:     re-solves TOP from scratch every epoch.
// The engine's fault machinery (quarantine, emergency re-placement,
// downtime accounting — see DESIGN.md "Fault model & graceful
// degradation") is identical for all three, so the spread isolates what
// the *policy* buys once the fabric starts failing.
//
// Options: --k --trials --l --n --mu --hours --mtbf --mttr --penalty
//          --seed --threads --csv
//          --checkpoint BASE --keep-going --retries  (robustness:
//          BASE.<section>.t<trial>p<policy> holds each cell's epoch
//          journal; see
//          EXPERIMENTS.md "Crash-safe checkpointing")
#include <iostream>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "sim/experiment.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "trials", "l", "n", "mu", "hours", "mtbf", "mttr",
                    "penalty", "seed", "threads", "csv", "checkpoint",
                    "keep-going", "retries"});
  const int k = opts.get_int32("k", 4);
  const int trials = opts.get_int32("trials", 5);
  const int l = opts.get_int32("l", 100);
  const int n = opts.get_int32("n", 3);
  const double mu = opts.get_double("mu", 1e4);
  const int hours = opts.get_int32("hours", 48);
  const auto mtbf_values = opts.get_double_list("mtbf", {0, 96, 48, 24});
  const double mttr = opts.get_double("mttr", 2.0);
  // Default prices an unserved rate unit above its typical serving cost
  // (a few weighted hops/epoch), so losing flows never looks like a win.
  const double penalty = opts.get_double("penalty", 50.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const int threads = bench::threads_option(opts);
  const bench::RobustnessOptions robust = bench::robustness_options(opts);
  bench::install_signal_handlers();

  bench::header(
      "Ablation — migration policies under switch/link failures",
      "fat-tree k=" + std::to_string(k) + ", l=" + std::to_string(l) +
          ", n=" + std::to_string(n) + ", mu=" + TablePrinter::num(mu, 0) +
          ", " + std::to_string(hours) + "h, " + std::to_string(trials) +
          " trials, threads=" + bench::threads_label(threads) +
          "; MTTR=" + TablePrinter::num(mttr, 0) +
          " epochs, links at 2x switch MTBF; MTBF=0 disables faults");

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);

  TablePrinter table({"MTBF", "fail/rep", "mPareto", "NoMigration", "Resolve",
                      "recov moves", "quarantined", "downtime"});
  for (const double mtbf : mtbf_values) {
    FaultScheduleConfig fcfg;
    fcfg.hours = hours;
    fcfg.switch_mtbf = mtbf;
    fcfg.switch_mttr = mttr;
    fcfg.link_mtbf = 2.0 * mtbf;
    fcfg.link_mttr = mttr;
    fcfg.seed = seed;
    const FaultSchedule schedule = generate_fault_schedule(topo.graph, fcfg);
    int failures = 0, repairs = 0;
    for (const FaultEvent& e : schedule) {
      if (e.kind == FaultKind::kSwitchFail || e.kind == FaultKind::kLinkFail) {
        ++failures;
      } else {
        ++repairs;
      }
    }

    ExperimentConfig cfg;
    cfg.trials = trials;
    cfg.seed = seed;
    cfg.workload.num_pairs = l;
    cfg.workload.intra_rack_fraction = 0.8;
    cfg.sfc_length = n;
    cfg.sim.hours = hours;
    cfg.sim.faults = schedule;
    cfg.sim.fault.mu = mu;
    cfg.sim.fault.quarantine_penalty = penalty;
    cfg.threads = threads;
    bench::apply_robustness(cfg, robust,
                            "mtbf" + TablePrinter::num(mtbf, 0));
    ParetoMigrationPolicy pareto(mu);
    NoMigrationPolicy none;
    ResolvePlacementPolicy resolve(mu);
    const auto stats =
        bench::run_or_exit(topo, apsp, cfg, {&pareto, &none, &resolve});
    table.add_row({TablePrinter::num(mtbf, 0),
                   std::to_string(failures) + "/" + std::to_string(repairs),
                   bench::cell(stats[0], stats[0].total_cost),
                   bench::cell(stats[1], stats[1].total_cost),
                   bench::cell(stats[2], stats[2].total_cost),
                   bench::cell(stats[0], stats[0].recovery_migrations, 1),
                   bench::cell(stats[0], stats[0].quarantined_flow_epochs, 1),
                   bench::cell(stats[0], stats[0].downtime_epochs, 1)});
  }
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nnote: recovery moves / quarantined flow-epochs / downtime "
               "are schedule-driven and identical across policies up to the "
               "placements each policy left exposed to the next failure; "
               "total cost includes comm + migration + recovery + "
               "quarantine penalties (Eq. 8 extended).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
