// Fig. 10: VNF placement on *weighted* PPDCs. Link delays follow the
// setup of Greedy/Liu [34]: uniform with mean 1.5 ms and variance 0.5 ms.
// Sweeps the SFC length n and reports Optimal / DP / Greedy / Steering.
//
// Expected shape (paper): DP within 6-12% of Optimal and 56-64% below
// Steering and Greedy.
//
// Options: --k --trials --l --nvalues --seed --csv
#include <iostream>

#include "baselines/greedy_liu.hpp"
#include "baselines/steering.hpp"
#include "bench_common.hpp"
#include "core/chain_search.hpp"
#include "core/placement_dp.hpp"
#include "topology/weights.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "trials", "l", "nvalues", "seed", "csv"});
  const int k = opts.get_int32("k", 8);
  const int trials = opts.get_int32("trials", 20);
  const int l = opts.get_int32("l", 200);
  const auto n_values = opts.get_int_list("nvalues", {3, 5, 7, 9, 11, 13});
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));

  bench::header("Fig. 10 — TOP placement on weighted PPDCs vs n",
                "fat-tree k=" + std::to_string(k) +
                    ", link delays uniform(mean 1.5, var 0.5) per [34], l=" +
                    std::to_string(l) + ", " + std::to_string(trials) +
                    " runs, 95% CI");

  TablePrinter table({"n", "Optimal", "DP", "Greedy[34]", "Steering[55]",
                      "DP/Opt", "DP/Steering"});
  for (const int n : n_values) {
    RunningStats opt_s, dp_s, greedy_s, steering_s;
    bool all_proven = true;
    for (int t = 0; t < trials; ++t) {
      // Paired trials: identical delays and flows for every n.
      Rng rng(seed * 1000003 + static_cast<std::uint64_t>(t));
      // Fresh random delays per run, as in the paper's averaged setup.
      Topology topo = build_fat_tree(k);
      apply_uniform_delay_weights(topo.graph, rng(), 1.5, 0.5);
      const AllPairs apsp(topo.graph);
      const auto flows = bench::paper_workload(topo, l, rng);
      CostModel cm(apsp, flows);
      const PlacementResult dp = solve_top_dp(cm, n);
      dp_s.add(dp.comm_cost);
      greedy_s.add(solve_top_greedy_liu(cm, n).comm_cost);
      steering_s.add(solve_top_steering(cm, n).comm_cost);
      ChainSearchConfig cfg;
      cfg.initial = dp.placement;
      cfg.node_budget = 50'000'000;
      const ChainSearchResult opt = solve_top_exhaustive(cm, n, cfg);
      all_proven = all_proven && opt.proven_optimal;
      opt_s.add(opt.objective);
    }
    table.add_row(
        {std::to_string(n) + (all_proven ? "" : "*"),
         bench::cell({opt_s.mean(), opt_s.ci95_halfwidth()}),
         bench::cell({dp_s.mean(), dp_s.ci95_halfwidth()}),
         bench::cell({greedy_s.mean(), greedy_s.ci95_halfwidth()}),
         bench::cell({steering_s.mean(), steering_s.ci95_halfwidth()}),
         TablePrinter::num(dp_s.mean() / opt_s.mean(), 3),
         TablePrinter::num(dp_s.mean() / steering_s.mean(), 3)});
  }
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n(* = node budget hit)\n"
            << "paper shape: DP/Opt in 1.06-1.12, DP 56-64% below "
               "Steering/Greedy (ratio 0.36-0.44).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
