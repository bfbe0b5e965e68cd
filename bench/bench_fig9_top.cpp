// Fig. 9: comparing VNF placement algorithms for TOP on a k=8 unweighted
// fat-tree — Optimal (Algorithm 4 via branch-and-bound), DP (Algorithm 3),
// Greedy (Liu et al. [34]) and Steering (Zhang et al. [55]).
//
//   panel (a): total VM communication cost vs the number of VM pairs l
//   panel (b): total VM communication cost vs the SFC length n
//
// Expected shape (paper): DP tracks Optimal closely; both are far below
// Greedy and Steering.
//
// Options: --k --trials --n --l --lvalues --nvalues --seed --csv
#include <iostream>

#include "baselines/greedy_liu.hpp"
#include "baselines/steering.hpp"
#include "bench_common.hpp"
#include "core/chain_search.hpp"
#include "core/placement_dp.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to(
      {"k", "trials", "n", "l", "lvalues", "nvalues", "seed", "csv"});
  const int k = opts.get_int32("k", 8);
  const int trials = opts.get_int32("trials", 20);
  const int fixed_n = opts.get_int32("n", 5);
  const int fixed_l = opts.get_int32("l", 200);
  const auto l_values = opts.get_int_list("lvalues", {50, 100, 200, 400, 800});
  const auto n_values = opts.get_int_list("nvalues", {3, 5, 7, 9, 11, 13});
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const bool csv = opts.get_bool("csv", false);

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);

  auto run_panel = [&](const std::string& title, const std::string& sweep,
                       const std::vector<int>& values, bool sweep_is_l) {
    bench::header(title, "fat-tree k=" + std::to_string(k) +
                             ", unweighted, " + std::to_string(trials) +
                             " runs, 95% CI" +
                             (sweep_is_l ? ", n=" + std::to_string(fixed_n)
                                         : ", l=" + std::to_string(fixed_l)));
    TablePrinter table(
        {sweep, "Optimal", "DP", "Greedy[34]", "Steering[55]"});
    for (const int v : values) {
      const int l = sweep_is_l ? v : fixed_l;
      const int n = sweep_is_l ? fixed_n : v;
      RunningStats opt_s, dp_s, greedy_s, steering_s;
      bool all_proven = true;
      for (int t = 0; t < trials; ++t) {
        // Paired trials: the same seed stream for every sweep value.
        Rng rng(seed * 1000003 + static_cast<std::uint64_t>(t));
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
      table.add_row({std::to_string(v) + (all_proven ? "" : "*"),
                     bench::cell({opt_s.mean(), opt_s.ci95_halfwidth()}),
                     bench::cell({dp_s.mean(), dp_s.ci95_halfwidth()}),
                     bench::cell({greedy_s.mean(), greedy_s.ci95_halfwidth()}),
                     bench::cell({steering_s.mean(),
                                  steering_s.ci95_halfwidth()})});
    }
    if (csv) {
      table.write_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  };

  run_panel("Fig. 9(a) — TOP placement cost vs number of VM pairs l",
            "l", l_values, /*sweep_is_l=*/true);
  run_panel("Fig. 9(b) — TOP placement cost vs SFC length n", "n",
            n_values, /*sweep_is_l=*/false);
  std::cout << "\n(* = node budget hit; Optimal column is best-found)\n"
            << "paper shape: DP ~ Optimal << Greedy, Steering.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
