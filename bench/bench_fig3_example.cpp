// Reproduces the worked example of Fig. 1 / Fig. 3 / Example 1: a k=2
// fat-tree (equivalently the 5-switch linear PPDC), two co-located VM
// pairs, SFC (f1, f2), μ = 1. Prints every number quoted in the paper's
// §I and §III walk-through.
#include <iostream>

#include "bench_common.hpp"
#include "core/chain_search.hpp"
#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "topology/linear.hpp"

namespace {

int bench_main(int /*argc*/, char** /*argv*/) {
  using namespace ppdc;
  bench::header("Fig. 1 / Fig. 3 / Example 1 — worked example",
                "linear PPDC with 5 switches (== k=2 fat-tree), "
                "flows (v1,v1') on h1 and (v2,v2') on h2, mu = 1, n = 2");

  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];

  TablePrinter table({"step", "quantity", "paper", "measured"});

  // (a) initial optimal placement under lambda = <100, 1>.
  std::vector<VmFlow> flows{{h1, h1, 100.0}, {h2, h2, 1.0}};
  CostModel cm(apsp, flows);
  const PlacementResult initial = solve_top_dp(cm, 2);
  table.add_row({"Fig.3(a)", "C_a of initial optimal placement", "410",
                 TablePrinter::num(initial.comm_cost, 0)});

  // (b) traffic flips to <1, 100>; the old placement becomes expensive.
  set_rates(flows, {1.0, 100.0});
  cm.refresh();
  table.add_row({"Fig.3(b)", "C_a of stale placement after flip", "1004",
                 TablePrinter::num(cm.communication_cost(initial.placement),
                                   0)});

  // (c)+(d) mPareto migrates f1 -> s5, f2 -> s4.
  const MigrationResult moved = solve_tom_pareto(cm, initial.placement, 1.0);
  table.add_row({"Fig.3(c)", "VNF migration cost C_b", "6",
                 TablePrinter::num(moved.migration_cost, 0)});
  table.add_row({"Fig.3(d)", "C_a after migration", "410",
                 TablePrinter::num(moved.comm_cost, 0)});
  table.add_row({"Fig.3(d)", "total cost C_t", "416",
                 TablePrinter::num(moved.total_cost, 0)});
  const double reduction =
      100.0 * (1.0 - moved.total_cost /
                         cm.communication_cost(initial.placement));
  table.add_row({"Fig.3", "total cost reduction (%)", "58.6",
                 TablePrinter::num(reduction, 1)});

  // Cross-check against the exhaustive TOM optimum (Algorithm 6).
  const ChainSearchResult opt =
      solve_tom_exhaustive(cm, initial.placement, 1.0);
  table.add_row({"check", "exhaustive TOM optimum C_t", "416",
                 TablePrinter::num(opt.objective, 0)});

  table.print(std::cout);
  std::cout << "\nmigration chosen: ";
  for (const NodeId w : moved.migration) {
    std::cout << topo.graph.label(w) << " ";
  }
  std::cout << "(paper migrates to s5, s4; the mirror s4, s5 ties at 416)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
