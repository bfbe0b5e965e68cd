// Fig. 6(b): the VNF-migration Pareto front. On a k=16 fat-tree with an
// SFC of n = 6 VNFs and migration coefficient μ = 200, the paper plots
// C_b(p, m) against C_a(m) for every parallel migration frontier and
// observes a convex Pareto front (the premise of Theorem 5).
//
// Options: --k --l --n --mu --seed --csv
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/migration_pareto.hpp"
#include "core/pareto_front.hpp"
#include "core/placement_dp.hpp"
#include "workload/diurnal.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "l", "n", "mu", "seed", "zipf", "csv"});
  const int k = opts.get_int32("k", 16);
  const int l = opts.get_int32("l", 500);
  const int n = opts.get_int32("n", 6);
  const double mu = opts.get_double("mu", 200.0);
  const double zipf = opts.get_double("zipf", 2.2);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));

  bench::header("Fig. 6(b) — Pareto front of parallel migration frontiers",
                "fat-tree k=" + std::to_string(k) + ", n=" +
                    std::to_string(n) + ", mu=" + TablePrinter::num(mu, 0) +
                    ", l=" + std::to_string(l));

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);
  Rng rng(seed);
  auto flows = bench::paper_workload(topo, l, rng, zipf);
  CostModel cm(apsp, flows);

  // Initial optimal placement while the east-coast half of the fabric is
  // at its peak, then the diurnal shift to the west-coast peak (Eq. 9 with
  // spatially grouped tenants): the traffic center of mass moves across
  // pods, so the fresh optimum p' sits far from p and the frontier
  // trade-off of Fig. 6(b) appears.
  TopDpOptions dp_opts;
  dp_opts.candidate_limit = k >= 16 ? 48 : 0;
  const DiurnalModel diurnal;
  const std::vector<double> base = rates_of(flows);
  std::vector<int> groups;
  for (const auto& f : flows) groups.push_back(f.group);
  set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, Hour{5}));
  cm.refresh();
  const PlacementResult initial = solve_top_dp(cm, n, dp_opts);
  set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, Hour{10}));
  cm.refresh();

  ParetoMigrationOptions mig_opts;
  mig_opts.placement = dp_opts;
  const MigrationResult r =
      solve_tom_pareto(cm, initial.placement, mu, mig_opts);

  TablePrinter table({"frontier", "C_b (migration)", "C_a (communication)",
                      "C_t (total)", "collision-free"});
  for (std::size_t i = 0; i < r.frontier_points.size(); ++i) {
    const auto& p = r.frontier_points[i];
    table.add_row({std::to_string(i + 1), TablePrinter::num(p.migration_cost, 0),
                   TablePrinter::num(p.comm_cost, 0),
                   TablePrinter::num(p.migration_cost + p.comm_cost, 0),
                   p.collision_free ? "yes" : "no"});
  }
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const auto front = pareto_front(r.frontier_points);
  std::cout << "\nPareto front size: " << front.size()
            << "  (mutually non-dominated: "
            << (is_mutually_nondominated(front) ? "yes" : "no")
            << ", convex: " << (is_convex_front(front) ? "yes" : "no")
            << ")\n";
  std::cout << "mPareto pick: C_b=" << TablePrinter::num(r.migration_cost, 0)
            << "  C_a=" << TablePrinter::num(r.comm_cost, 0)
            << "  C_t=" << TablePrinter::num(r.total_cost, 0) << "  ("
            << r.vnfs_moved << " of " << n << " VNFs moved)\n";
  std::cout << "paper shape: C_a falls as C_b rises along the frontiers; "
               "the front is convex so Theorem 5's scalarization is "
               "optimal over the front.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
