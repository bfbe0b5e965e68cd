// Ablations of the two remaining §VII extensions:
//
//  (1) Co-location: how much of Eq. 1 is the distinct-switch constraint
//      (footnote 3) responsible for? Sweeps the per-switch VNF capacity —
//      capacity 1 is the paper's model, capacity n collapses the chain
//      cost entirely.
//
//  (2) Heterogeneous SFCs: when flows request only sub-ranges of the VNF
//      catalogue, how much cheaper is a range-aware placement than
//      (a) placing for the full-chain assumption, and (b) the exact
//      range-aware optimum?
//
// Options: --k --trials --l --n --seed --csv
//
// This harness runs hand-rolled trial loops (no run_experiment), so the
// per-cell checkpoint journals do not apply; it still honours
// SIGINT/SIGTERM cooperatively — an interrupted sweep prints the rows
// aggregated so far (marked partial) instead of dying mid-table.
#include <iostream>

#include "bench_common.hpp"
#include "core/chain_search.hpp"
#include "core/colocation.hpp"
#include "core/multi_sfc.hpp"
#include "core/placement_dp.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "trials", "l", "n", "seed", "csv"});
  bench::install_signal_handlers();
  const int k = opts.get_int32("k", 8);
  const int trials = opts.get_int32("trials", 10);
  const int l = opts.get_int32("l", 200);
  const int n = opts.get_int32("n", 6);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const bool csv = opts.get_bool("csv", false);

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);

  // ---- (1) co-location capacity sweep.
  bench::header("Ablation — per-switch VNF capacity (§VII co-location)",
                "fat-tree k=" + std::to_string(k) + ", l=" +
                    std::to_string(l) + ", n=" + std::to_string(n) + ", " +
                    std::to_string(trials) + " trials");
  {
    TablePrinter t({"capacity", "C_a", "vs capacity 1 (%)"});
    std::vector<double> totals;
    bool partial = false;
    for (const int cap : {1, 2, 3, n}) {
      RunningStats s;
      for (int trial = 0; trial < trials; ++trial) {
        if (bench::cancel_flag().load(std::memory_order_relaxed)) break;
        Rng rng(seed * 1000003 + static_cast<std::uint64_t>(trial));
        const auto flows = bench::paper_workload(topo, l, rng);
        CostModel cm(apsp, flows);
        s.add(solve_top_colocated(cm, n, cap).comm_cost);
      }
      if (s.count() == 0) {
        partial = true;
        break;  // interrupted before this capacity produced a sample
      }
      if (s.count() < static_cast<std::size_t>(trials)) partial = true;
      totals.push_back(s.mean());
      t.add_row({std::to_string(cap),
                 bench::cell({s.mean(), s.ci95_halfwidth()}),
                 TablePrinter::num(100.0 * (1.0 - s.mean() / totals[0]), 1)});
    }
    if (csv) {
      t.write_csv(std::cout);
    } else {
      t.print(std::cout);
    }
    if (partial) {
      std::cerr << "\ninterrupted: co-location sweep is partial (fewer "
                   "trials or capacities than requested)\n";
      return 130;
    }
  }

  // ---- (2) heterogeneous SFC ranges.
  bench::header("Ablation — heterogeneous SFC ranges (§VII multi-SFC)",
                "each flow requests a random contiguous range of the "
                "catalogue; same workloads as above");
  {
    RunningStats full_aware, range_aware, range_exact;
    bool proven = true;
    for (int trial = 0; trial < trials; ++trial) {
      if (bench::cancel_flag().load(std::memory_order_relaxed)) break;
      Rng rng(seed * 1000003 + static_cast<std::uint64_t>(trial));
      const auto flows = bench::paper_workload(topo, l, rng);
      std::vector<RangedFlow> ranged;
      for (const auto& f : flows) {
        RangedFlow rf;
        rf.flow = f;
        rf.first = static_cast<int>(rng.uniform_int(0, n - 1));
        rf.last = static_cast<int>(rng.uniform_int(rf.first, n - 1));
        ranged.push_back(rf);
      }
      const MultiSfcCostModel msm(apsp, ranged, n);
      // (a) pretend everyone needs the full chain, place accordingly,
      //     then charge only the true ranges.
      CostModel cm(apsp, flows);
      const Placement naive = solve_top_dp(cm, n).placement;
      full_aware.add(msm.communication_cost(naive));
      // (b) range-aware relaxed DP.
      const MultiSfcResult relaxed = solve_multi_sfc_relaxed(msm);
      range_aware.add(relaxed.comm_cost);
      // (c) exact range-aware optimum (branch and bound).
      ChainSearchConfig exact_cfg;
      exact_cfg.node_budget = 50'000'000;
      exact_cfg.initial = relaxed.placement;
      const MultiSfcResult exact = solve_multi_sfc_exhaustive(msm, exact_cfg);
      proven = proven && exact.proven_optimal;
      range_exact.add(exact.comm_cost);
    }
    if (full_aware.count() == 0) {
      std::cerr << "\ninterrupted: no heterogeneous-SFC trial completed\n";
      return 130;
    }
    TablePrinter t({"placer", "cost", "vs full-chain placement (%)"});
    const double base = full_aware.mean();
    auto row = [&](const std::string& name, const RunningStats& s) {
      t.add_row({name, bench::cell({s.mean(), s.ci95_halfwidth()}),
                 TablePrinter::num(100.0 * (1.0 - s.mean() / base), 1)});
    };
    row("full-chain placement", full_aware);
    row("range-aware DP (relaxed+repair)", range_aware);
    row(std::string("range-aware optimal") + (proven ? "" : "*"),
        range_exact);
    if (csv) {
      t.write_csv(std::cout);
    } else {
      t.print(std::cout);
    }
    if (full_aware.count() < static_cast<std::size_t>(trials)) {
      std::cerr << "\ninterrupted: heterogeneous-SFC table aggregates only "
                << full_aware.count() << " of " << trials << " trials\n";
      return 130;
    }
  }
  std::cout << "\nreading: co-location converts chain legs into free "
               "backplane hops; range-awareness shortens every flow's "
               "forced detour to exactly its own policy.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
