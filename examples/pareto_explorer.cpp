// Interactive-ish exploration of the migration trade-off (Theorem 5).
//
// Builds one traffic change on a fat-tree, then sweeps the migration
// coefficient μ across six orders of magnitude and shows where the chosen
// frontier point lands on the (C_b, C_a) Pareto front: free migration
// jumps all the way to the fresh optimum, expensive migration stays put,
// and in between the scalarized optimum slides along the convex front.
//
// Run:  ./example_pareto_explorer [--k 8] [--l 100] [--n 5]
#include <algorithm>
#include <iostream>

#include "core/migration_pareto.hpp"
#include "core/pareto_front.hpp"
#include "core/placement_dp.hpp"
#include "topology/fat_tree.hpp"
#include "util/guarded_main.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workload/diurnal.hpp"
#include "workload/vm_placement.hpp"

namespace {

int example_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "l", "n", "seed"});
  const int k = opts.get_int32("k", 8);
  const int l = opts.get_int32("l", 100);
  const int n = opts.get_int32("n", 5);

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig workload;
  workload.num_pairs = l;
  workload.rack_zipf_s = 2.2;
  Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 3)));
  std::vector<VmFlow> flows = generate_vm_flows(topo, workload, rng);
  CostModel model(apsp, flows);

  // Morning optimum, then the afternoon coast flip.
  const DiurnalModel diurnal;
  const std::vector<double> base = rates_of(flows);
  std::vector<int> groups;
  for (const auto& f : flows) groups.push_back(f.group);
  set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, Hour{5}));
  model.refresh();
  const Placement morning = solve_top_dp(model, n).placement;
  set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, Hour{10}));
  model.refresh();

  std::cout << "Migration trade-off after the afternoon traffic flip "
            << "(k=" << k << ", l=" << l << ", n=" << n << ")\n\n";
  TablePrinter t({"mu", "C_b", "C_a", "C_t", "VNFs moved"});
  for (const double mu : {0.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6}) {
    const MigrationResult r = solve_tom_pareto(model, morning, mu);
    t.add_row({TablePrinter::num(mu, 0), TablePrinter::num(r.migration_cost, 0),
               TablePrinter::num(r.comm_cost, 0),
               TablePrinter::num(r.total_cost, 0),
               std::to_string(r.vnfs_moved)});
  }
  t.print(std::cout);

  // Show the frontier cloud once, at a mid-range mu.
  const MigrationResult mid = solve_tom_pareto(model, morning, 1e3);
  const auto front = pareto_front(mid.frontier_points);
  std::cout << "\nParetor front of the parallel frontiers ("
            << (is_convex_front(front) ? "convex" : "non-convex")
            << ", Theorem 5):\n";
  TablePrinter ft({"C_b", "C_a"});
  for (const auto& p : front) {
    ft.add_row({TablePrinter::num(p.migration_cost, 0),
                TablePrinter::num(p.comm_cost, 0)});
  }
  ft.print(std::cout);
  std::cout << "\nas mu grows the pick slides from the fresh optimum (right "
               "end) back to the current placement (left end).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(example_main, argc, argv);
}
