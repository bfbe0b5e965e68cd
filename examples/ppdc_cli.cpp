// ppdc_cli — scriptable driver over the library's file formats.
//
// Subcommands (--cmd=...):
//   generate  --topo fat-tree|leaf-spine|vl2|bcube|dcell --k 8 --l 200
//             --zipf 0 --seed 42 --topo-out t.txt --flows-out f.txt
//   place     --topo-in t.txt --flows-in f.txt --n 5
//             [--algo dp|steering|greedy|optimal] [--out p.txt]
//   migrate   --topo-in t.txt --flows-in f.txt --placement-in p.txt
//             --mu 1e4 [--out m.txt]
//   cost      --topo-in t.txt --flows-in f.txt --placement-in p.txt
//   dot       --topo-in t.txt [--flows-in f.txt] [--placement-in p.txt]
//
// Everything reads/writes the ppdc-* text formats (src/io/serialize.hpp);
// `dot` emits Graphviz on stdout.
#include <fstream>
#include <iostream>

#include "baselines/greedy_liu.hpp"
#include "baselines/steering.hpp"
#include "core/chain_search.hpp"
#include "core/explain.hpp"
#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "graph/dot.hpp"
#include "io/serialize.hpp"
#include "topology/bcube.hpp"
#include "topology/dcell.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/vl2.hpp"
#include "util/options.hpp"
#include "workload/vm_placement.hpp"

namespace {

using namespace ppdc;

Topology make_topology(const std::string& kind, int k) {
  if (kind == "fat-tree") return build_fat_tree(k);
  if (kind == "leaf-spine") return build_leaf_spine(k, k / 2, k / 2);
  if (kind == "vl2") return build_vl2(k / 2, k / 2, k, k / 2);
  if (kind == "bcube") return build_bcube(k, 1);
  if (kind == "dcell") return build_dcell1(k);
  throw PpdcError("unknown topology kind: " + kind);
}

Topology read_topology(const std::string& path) {
  std::ifstream in(path);
  PPDC_REQUIRE(in.good(), "cannot open " + path);
  return load_topology(in);
}

std::vector<VmFlow> read_flows(const std::string& path) {
  std::ifstream in(path);
  PPDC_REQUIRE(in.good(), "cannot open " + path);
  return load_flows(in);
}

Placement read_placement(const std::string& path) {
  std::ifstream in(path);
  PPDC_REQUIRE(in.good(), "cannot open " + path);
  return load_placement(in);
}

int cmd_generate(const Options& opts) {
  Topology topo = make_topology(opts.get_string("topo", "fat-tree"),
                                opts.get_int32("k", 8));
  VmPlacementConfig cfg;
  cfg.num_pairs = opts.get_int32("l", 100);
  cfg.rack_zipf_s = opts.get_double("zipf", 0.0);
  Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 42)));
  const auto flows = generate_vm_flows(topo, cfg, rng);

  std::ofstream tout(opts.get_string("topo-out", "topology.txt"));
  save_topology(tout, topo);
  std::ofstream fout(opts.get_string("flows-out", "flows.txt"));
  save_flows(fout, flows);
  std::cout << "wrote " << topo.name << " (" << topo.num_hosts()
            << " hosts, " << topo.num_switches() << " switches) and "
            << flows.size() << " flows\n";
  return 0;
}

int cmd_place(const Options& opts) {
  const Topology topo = read_topology(opts.get_string("topo-in", "topology.txt"));
  const auto flows = read_flows(opts.get_string("flows-in", "flows.txt"));
  const AllPairs apsp(topo.graph);
  CostModel model(apsp, flows);
  const int n = opts.get_int32("n", 5);
  const std::string algo = opts.get_string("algo", "dp");

  Placement p;
  if (algo == "dp") {
    p = solve_top_dp(model, n).placement;
  } else if (algo == "steering") {
    p = solve_top_steering(model, n).placement;
  } else if (algo == "greedy") {
    p = solve_top_greedy_liu(model, n).placement;
  } else if (algo == "optimal") {
    p = solve_top_exhaustive(model, n).placement;
  } else {
    throw PpdcError("unknown placement algorithm: " + algo);
  }
  print_breakdown(std::cout, model, p, algo + " placement");
  if (opts.has("out")) {
    std::ofstream out(opts.get_string("out", ""));
    save_placement(out, p);
  }
  return 0;
}

int cmd_migrate(const Options& opts) {
  const Topology topo = read_topology(opts.get_string("topo-in", "topology.txt"));
  const auto flows = read_flows(opts.get_string("flows-in", "flows.txt"));
  const Placement from =
      read_placement(opts.get_string("placement-in", "placement.txt"));
  const AllPairs apsp(topo.graph);
  CostModel model(apsp, flows);
  const MigrationResult r =
      solve_tom_pareto(model, from, opts.get_double("mu", 1e4));
  std::cout << "mPareto: moved " << r.vnfs_moved << " VNF(s), C_b = "
            << r.migration_cost << ", C_a = " << r.comm_cost
            << ", C_t = " << r.total_cost << "\n";
  if (opts.has("out")) {
    std::ofstream out(opts.get_string("out", ""));
    save_placement(out, r.migration);
  }
  return 0;
}

int cmd_cost(const Options& opts) {
  const Topology topo = read_topology(opts.get_string("topo-in", "topology.txt"));
  const auto flows = read_flows(opts.get_string("flows-in", "flows.txt"));
  const Placement p =
      read_placement(opts.get_string("placement-in", "placement.txt"));
  const AllPairs apsp(topo.graph);
  CostModel model(apsp, flows);
  print_breakdown(std::cout, model, p, "placement");
  return 0;
}

int cmd_dot(const Options& opts) {
  const Topology topo = read_topology(opts.get_string("topo-in", "topology.txt"));
  DotOptions dot;
  if (opts.has("flows-in")) {
    dot.flows = read_flows(opts.get_string("flows-in", ""));
  }
  if (opts.has("placement-in")) {
    dot.placement = read_placement(opts.get_string("placement-in", ""));
  }
  to_dot(std::cout, topo, dot);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ppdc::Options opts = ppdc::Options::parse(argc, argv);
    const std::string cmd = opts.get_string("cmd", "");
    if (cmd == "generate") return cmd_generate(opts);
    if (cmd == "place") return cmd_place(opts);
    if (cmd == "migrate") return cmd_migrate(opts);
    if (cmd == "cost") return cmd_cost(opts);
    if (cmd == "dot") return cmd_dot(opts);
    std::cerr << "usage: ppdc_cli --cmd=generate|place|migrate|cost|dot ...\n"
                 "see the header of examples/ppdc_cli.cpp for options\n";
    return cmd.empty() ? 2 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
