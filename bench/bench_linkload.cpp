// Bandwidth view of the placement problem (the paper's §I motivation,
// quantified): routes all policy-preserving traffic with fractional ECMP
// and compares the link-level congestion produced by the different
// placers. Links are assumed provisioned so that the *no-SFC* traffic
// (direct src->dst routing) peaks at 40% utilization [31]; the table then
// shows what utilization each SFC placement actually drives.
//
// Options: --k --l --n --trials --seed --csv
#include <iostream>

#include "baselines/greedy_liu.hpp"
#include "baselines/steering.hpp"
#include "bench_common.hpp"
#include "core/placement_dp.hpp"
#include "net/link_load.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "l", "n", "trials", "seed", "csv"});
  const int k = opts.get_int32("k", 8);
  const int l = opts.get_int32("l", 200);
  const int n = opts.get_int32("n", 5);
  const int trials = opts.get_int32("trials", 10);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));

  bench::header("Link-level congestion of SFC placements (ECMP routing)",
                "fat-tree k=" + std::to_string(k) + ", l=" +
                    std::to_string(l) + ", n=" + std::to_string(n) + ", " +
                    std::to_string(trials) +
                    " trials; capacity set so direct traffic peaks at 40%");

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);

  RunningStats direct_max, dp_max, dp_mean, steer_max, greedy_max;
  for (int t = 0; t < trials; ++t) {
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(t));
    const auto flows = bench::paper_workload(topo, l, rng);
    CostModel cm(apsp, flows);

    // Baseline provisioning: direct src->dst traffic without any SFC.
    LinkLoadMap direct(topo.graph);
    for (const auto& f : flows) {
      route_ecmp(apsp, f.src_host, f.dst_host, f.rate, direct);
    }
    const double capacity = direct.max_load() / 0.4;  // 40% rule [31]
    direct_max.add(direct.max_utilization(capacity));

    const LinkLoadMap dp = policy_link_load(
        apsp, flows, solve_top_dp(cm, n).placement);
    dp_max.add(dp.max_utilization(capacity));
    dp_mean.add(dp.mean_load() / capacity);
    steer_max.add(policy_link_load(apsp, flows,
                                   solve_top_steering(cm, n).placement)
                      .max_utilization(capacity));
    greedy_max.add(policy_link_load(apsp, flows,
                                    solve_top_greedy_liu(cm, n).placement)
                       .max_utilization(capacity));
  }

  TablePrinter table({"routing", "max link utilization", "note"});
  auto pct = [](const RunningStats& s) {
    return TablePrinter::num_ci(100.0 * s.mean(),
                                100.0 * s.ci95_halfwidth(), 1) + " %";
  };
  table.add_row({"direct (no SFC)", pct(direct_max),
                 "provisioning anchor (40%)"});
  table.add_row({"SFC via DP placement", pct(dp_max),
                 "mean util " + TablePrinter::num(100.0 * dp_mean.mean(), 1) +
                     " %"});
  table.add_row({"SFC via Steering", pct(steer_max), ""});
  table.add_row({"SFC via Greedy", pct(greedy_max), ""});
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nreading: forcing traffic through the SFC multiplies link "
               "load (the paper's 'traffic storm'). The objectives pull "
               "apart here: Eq. 1 minimizes *total* hop-traffic (lowest "
               "mean utilization, the DP row) but funnels every flow "
               "through the chain's few links, while the core-parked "
               "baselines fan traffic over many equal-cost core links — "
               "lower peak, higher total. Bandwidth-aware VNF placement "
               "is a genuine open extension of the paper's model.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
