// A day in the life of a policy-preserving data center.
//
// Simulates the paper's §VI dynamic scenario end to end: a k=8 fat-tree,
// diurnal east/west-coast traffic (Eq. 9), and four operators side by
// side — do nothing, migrate VNFs with mPareto, or migrate VMs with
// PLAN / MCF — printing an hour-by-hour cost ledger.
//
// Run:  ./example_dynamic_datacenter [--l 200] [--n 5] [--mu 10000]
#include <iostream>

#include "sim/engine.hpp"
#include "topology/fat_tree.hpp"
#include "util/guarded_main.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workload/vm_placement.hpp"

namespace {

int example_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"l", "n", "mu", "seed"});
  const int l = opts.get_int32("l", 200);
  const int n = opts.get_int32("n", 5);
  const double mu = opts.get_double("mu", 1e4);

  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);

  VmPlacementConfig workload;
  workload.num_pairs = l;
  workload.rack_zipf_s = 2.2;  // tenants concentrate (see DESIGN.md)
  Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  const std::vector<VmFlow> flows = generate_vm_flows(topo, workload, rng);

  NoMigrationPolicy none;
  ParetoMigrationPolicy pareto(mu);
  VmMigrationConfig vm_cfg;
  vm_cfg.mu = mu;
  vm_cfg.horizon_hours = 4.0;
  PlanPolicy plan(vm_cfg);
  McfPolicy mcf(vm_cfg);

  SimConfig cfg;  // 12 diurnal hours by default
  std::vector<std::pair<std::string, SimTrace>> traces;
  // Policies are cloneable prototypes (see sim/policy.hpp): each operator
  // runs on its own clone, leaving the prototypes untouched.
  for (const MigrationPolicy* proto :
       std::vector<const MigrationPolicy*>{&none, &pareto, &plan, &mcf}) {
    const auto policy = proto->clone();
    traces.emplace_back(proto->name(),
                        run_simulation(apsp, flows, n, cfg, *policy));
  }

  std::cout << "One simulated day on " << topo.name << " with l=" << l
            << " VM pairs, n=" << n << " VNFs, mu=" << mu << "\n\n";
  TablePrinter hourly({"hour", "NoMigration", "mPareto", "PLAN", "MCF"});
  for (int h = 0; h < cfg.hours; ++h) {
    std::vector<std::string> row{std::to_string(h)};
    for (const auto& [name, trace] : traces) {
      const auto& e = trace.epochs[static_cast<std::size_t>(h)];
      row.push_back(TablePrinter::num(e.comm_cost + e.migration_cost, 0));
    }
    hourly.add_row(std::move(row));
  }
  hourly.print(std::cout);

  std::cout << '\n';
  TablePrinter totals(
      {"operator", "total", "comm", "migration", "VNF moves", "VM moves"});
  for (const auto& [name, trace] : traces) {
    totals.add_row({name, TablePrinter::num(trace.total_cost, 0),
                    TablePrinter::num(trace.total_comm_cost, 0),
                    TablePrinter::num(trace.total_migration_cost, 0),
                    std::to_string(trace.total_vnf_migrations),
                    std::to_string(trace.total_vm_migrations)});
  }
  totals.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(example_main, argc, argv);
}
