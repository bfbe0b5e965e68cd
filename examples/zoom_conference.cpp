// The paper's motivating workload (§I): Zoom-style cloud conferencing.
//
// Each VM flow is a conference bridge whose rate is the sum of its live
// meetings; meetings arrive and depart continuously, with heavy-tailed
// participant counts — "one Zoom Meeting Connector VM could support 200
// meetings with up to 1000 participants". The example runs 24 hours of
// session churn and shows mPareto chasing the bursty traffic, compared to
// leaving the SFC where the morning optimum put it.
//
// Run:  ./example_zoom_conference [--flows 24] [--n 4] [--mu 5000]
#include <iostream>

#include "sim/engine.hpp"
#include "topology/leaf_spine.hpp"
#include "util/guarded_main.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workload/vm_placement.hpp"
#include "workload/zoom.hpp"

namespace {

int example_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"flows", "n", "mu", "seed"});
  const int num_flows = opts.get_int32("flows", 24);
  const int n = opts.get_int32("n", 4);
  const double mu = opts.get_double("mu", 5000.0);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 11));

  // A leaf-spine fabric — the problems are topology-agnostic (§III).
  const Topology topo = build_leaf_spine(8, 4, 6);
  const AllPairs apsp(topo.graph);

  // Conference bridges live on fixed hosts; their rates churn hourly.
  VmPlacementConfig workload;
  workload.num_pairs = num_flows;
  workload.intra_rack_fraction = 0.5;  // bridges talk across racks too
  Rng rng(seed);
  std::vector<VmFlow> flows = generate_vm_flows(topo, workload, rng);

  // Pre-generate 24 hours of Zoom session churn as a rate schedule.
  ZoomWorkload zoom(num_flows, ZoomModel{}, seed);
  std::vector<std::vector<double>> schedule;
  for (int h = 0; h < 24; ++h) {
    schedule.push_back(zoom.rates());
    zoom.advance_hour();
  }

  SimConfig cfg;
  cfg.hours = 24;
  cfg.rate_schedule = [&](Hour hour) {
    return schedule[static_cast<std::size_t>(hour.value())];
  };

  NoMigrationPolicy none;
  ParetoMigrationPolicy pareto(mu);
  const SimTrace fixed = run_simulation(apsp, flows, n, cfg, none);
  const SimTrace adaptive = run_simulation(apsp, flows, n, cfg, pareto);

  std::cout << "Zoom-style conferencing on " << topo.name << ": "
            << num_flows << " bridges, SFC of " << n << " VNFs\n\n";
  TablePrinter t({"hour", "offered load", "fixed SFC", "mPareto",
                  "VNFs moved"});
  for (int h = 0; h < cfg.hours; ++h) {
    double load = 0.0;
    for (const double r : schedule[static_cast<std::size_t>(h)]) load += r;
    const auto& ef = fixed.epochs[static_cast<std::size_t>(h)];
    const auto& ea = adaptive.epochs[static_cast<std::size_t>(h)];
    t.add_row({std::to_string(h), TablePrinter::num(load, 0),
               TablePrinter::num(ef.comm_cost, 0),
               TablePrinter::num(ea.comm_cost + ea.migration_cost, 0),
               std::to_string(ea.vnf_migrations)});
  }
  t.print(std::cout);
  std::cout << "\n24h totals: fixed SFC " << TablePrinter::num(fixed.total_cost, 0)
            << " vs mPareto " << TablePrinter::num(adaptive.total_cost, 0)
            << "  (" << adaptive.total_vnf_migrations << " VNF moves, "
            << TablePrinter::num(
                   100.0 * (1.0 - adaptive.total_cost / fixed.total_cost), 1)
            << "% saved)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(example_main, argc, argv);
}
