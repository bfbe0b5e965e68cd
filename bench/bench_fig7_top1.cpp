// Fig. 7: comparing TOP-1 (n-stroll) algorithms on a k=8 unweighted
// fat-tree with a single VM pair (l = 1), sweeping the SFC length n.
//
// Series, exactly as in the paper:
//   * Optimal      — exhaustive placement (Algorithm 4, as branch-and-bound)
//   * DP-Stroll    — Algorithm 2
//   * PrimalDual   — the 2+ε guarantee the paper plots, i.e. 2 x Optimal
//   * PD-grow/prune — bonus series: our concrete Goemans-Williamson
//                     implementation of Algorithm 1
//
// Expected shape (paper): DP-Stroll tracks Optimal within ~8% and sits
// far below the PrimalDual guarantee.
//
// Options: --k --trials --nmin --nmax --seed --pd (enable/disable the
// grow/prune series) --csv
#include <iostream>

#include "bench_common.hpp"
#include "core/chain_search.hpp"
#include "core/stroll_dp.hpp"
#include "core/stroll_primal_dual.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "trials", "nmin", "nmax", "seed", "pd", "csv"});
  const int k = opts.get_int32("k", 8);
  const int trials = opts.get_int32("trials", 20);
  const int nmin = opts.get_int32("nmin", 2);
  const int nmax = opts.get_int32("nmax", 13);
  const bool run_pd = opts.get_bool("pd", true);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      opts.get_int("seed", 42));

  bench::header("Fig. 7 — TOP-1 (n-stroll) algorithms",
                "fat-tree k=" + std::to_string(k) + ", l=1, unweighted, " +
                    std::to_string(trials) + " runs, 95% CI");

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);

  std::vector<std::string> cols{"n", "Optimal", "DP-Stroll",
                                "PrimalDual(2x guarantee)"};
  if (run_pd) cols.push_back("PD-grow/prune");
  TablePrinter table(std::move(cols));

  for (int n = nmin; n <= nmax; ++n) {
    RunningStats opt_s, dp_s, pd_s;
    bool all_proven = true;
    for (int t = 0; t < trials; ++t) {
      // Same per-trial workload across every n (paired sweep, as in the
      // paper's monotone curves).
      Rng rng(seed * 1000003 + static_cast<std::uint64_t>(t));
      const auto flows = bench::paper_workload(topo, 1, rng);
      CostModel cm(apsp, flows);
      const StrollResult dp = solve_top1_dp(apsp, flows[0].src_host,
                                            flows[0].dst_host, n,
                                            flows[0].rate);
      // Report every algorithm through the same Eq. 1 lens.
      Placement dp_p = dp.placement;
      dp_s.add(cm.communication_cost(dp_p));

      ChainSearchConfig cfg;
      cfg.initial = dp_p;
      cfg.node_budget = 100'000'000;
      const ChainSearchResult opt = solve_top_exhaustive(cm, n, cfg);
      all_proven = all_proven && opt.proven_optimal;
      opt_s.add(opt.objective);

      if (run_pd) {
        const StrollResult pd = solve_top1_primal_dual(
            apsp, flows[0].src_host, flows[0].dst_host, n, flows[0].rate,
            PrimalDualOptions{12});
        pd_s.add(cm.communication_cost(pd.placement));
      }
    }
    std::vector<std::string> row{
        std::to_string(n) + (all_proven ? "" : "*"),
        bench::cell({opt_s.mean(), opt_s.ci95_halfwidth()}),
        bench::cell({dp_s.mean(), dp_s.ci95_halfwidth()}),
        TablePrinter::num(2.0 * opt_s.mean(), 0)};
    if (run_pd) {
      row.push_back(bench::cell({pd_s.mean(), pd_s.ci95_halfwidth()}));
    }
    table.add_row(std::move(row));
  }
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n(* = branch-and-bound node budget hit; Optimal is the "
               "best found (an upper bound))\n"
            << "paper shape: DP-Stroll within ~8% of Optimal, well below "
               "the 2+eps guarantee.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
