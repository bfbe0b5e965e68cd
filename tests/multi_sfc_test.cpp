#include "core/multi_sfc.hpp"

#include <gtest/gtest.h>

#include "core/chain_search.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"
#include "topology/weights.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

std::vector<RangedFlow> ranged_workload(const Topology& topo, int l, int n,
                                        std::uint64_t seed) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  Rng rng(seed);
  std::vector<RangedFlow> out;
  for (const auto& f : generate_vm_flows(topo, cfg, rng)) {
    RangedFlow rf;
    rf.flow = f;
    rf.first = static_cast<int>(rng.uniform_int(0, n - 1));
    rf.last = static_cast<int>(rng.uniform_int(rf.first, n - 1));
    out.push_back(rf);
  }
  return out;
}

TEST(MultiSfc, FullRangeFlowsReproduceEq1) {
  // When every flow requests the whole catalogue, the generalized cost
  // must equal the plain Eq. 1 CostModel.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig cfg;
  cfg.num_pairs = 8;
  Rng rng(1);
  const auto flows = generate_vm_flows(topo, cfg, rng);
  std::vector<RangedFlow> ranged;
  for (const auto& f : flows) ranged.push_back({f, 0, 3});
  const MultiSfcCostModel msm(apsp, ranged, 4);
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement p{s[0], s[5], s[10], s[15]};
  EXPECT_NEAR(msm.communication_cost(p), cm.communication_cost(p), 1e-9);
}

TEST(MultiSfc, LegLoadsCountOnlyCoveringFlows) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  std::vector<RangedFlow> ranged{{{h1, h2, 5.0, 0}, 0, 2},
                                 {{h2, h1, 3.0, 0}, 1, 2},
                                 {{h1, h1, 2.0, 0}, 0, 0}};
  const MultiSfcCostModel msm(apsp, ranged, 3);
  EXPECT_DOUBLE_EQ(msm.leg_load(0), 5.0);        // only the first flow
  EXPECT_DOUBLE_EQ(msm.leg_load(1), 8.0);        // first two flows
}

TEST(MultiSfc, EntryExitAttractionsAnchorAtRangeEnds) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  std::vector<RangedFlow> ranged{{{h1, h1, 4.0, 0}, 1, 2}};
  const MultiSfcCostModel msm(apsp, ranged, 3);
  const auto& s = topo.graph.switches();
  EXPECT_DOUBLE_EQ(msm.entry_attraction(0, s[0]), 0.0);
  EXPECT_DOUBLE_EQ(msm.entry_attraction(1, s[0]), 4.0 * 1.0);
  EXPECT_DOUBLE_EQ(msm.exit_attraction(2, s[1]), 4.0 * 2.0);
  EXPECT_DOUBLE_EQ(msm.exit_attraction(0, s[1]), 0.0);
}

TEST(MultiSfc, RelaxedSolverProducesValidDistinctPlacement) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto ranged = ranged_workload(topo, 10, 5, seed);
    const MultiSfcCostModel msm(apsp, ranged, 5);
    const MultiSfcResult r = solve_multi_sfc_relaxed(msm);
    EXPECT_NO_THROW(validate_placement(topo.graph, r.placement));
    EXPECT_NEAR(msm.communication_cost(r.placement), r.comm_cost, 1e-9);
  }
}

TEST(MultiSfc, ExhaustiveMatchesRelaxedLowerBoundOrdering) {
  // relaxed-without-repair <= exact <= relaxed-with-repair.
  const Topology topo = build_random_connected(8, 6, 6, 0.5, 2.0, 3);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto ranged = ranged_workload(topo, 6, 3, seed);
    const MultiSfcCostModel msm(apsp, ranged, 3);
    const MultiSfcResult relaxed = solve_multi_sfc_relaxed(msm);
    const MultiSfcResult exact = solve_multi_sfc_exhaustive(msm);
    ASSERT_TRUE(exact.proven_optimal);
    EXPECT_LE(exact.comm_cost, relaxed.comm_cost + 1e-9) << "seed=" << seed;
  }
}

TEST(MultiSfc, ExhaustiveMatchesChainSearchOnFullRanges) {
  // With all-full ranges the generalized exhaustive solver and the plain
  // Algorithm 4 branch-and-bound must agree exactly.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig cfg;
  cfg.num_pairs = 6;
  Rng rng(9);
  const auto flows = generate_vm_flows(topo, cfg, rng);
  std::vector<RangedFlow> ranged;
  for (const auto& f : flows) ranged.push_back({f, 0, 2});
  const MultiSfcCostModel msm(apsp, ranged, 3);
  CostModel cm(apsp, flows);
  const MultiSfcResult general = solve_multi_sfc_exhaustive(msm);
  const ChainSearchResult plain = solve_top_exhaustive(cm, 3);
  EXPECT_NEAR(general.comm_cost, plain.objective, 1e-9);
}

TEST(MultiSfc, ExhaustiveMatchesBruteForce) {
  // k=4 fat-trees, hop and weighted metric. For n >= 3 no range crosses
  // leg 1, so that leg carries zero load and its order is free.
  for (const bool weighted : {false, true}) {
    Topology topo = build_fat_tree(4);
    if (weighted) apply_uniform_delay_weights(topo.graph, 21, 1.5, 0.5);
    const AllPairs apsp(topo.graph);
    for (const int n : {1, 3, 4}) {
      auto ranged =
          ranged_workload(topo, 8, n, 31 + static_cast<std::uint64_t>(n));
      if (n >= 3) {
        for (RangedFlow& rf : ranged) {
          if (rf.first <= 1 && rf.last > 1) rf.last = 1;
        }
      }
      const MultiSfcCostModel msm(apsp, ranged, n);
      if (n >= 3) {
        ASSERT_EQ(msm.leg_load(1), 0.0);
      }
      const MultiSfcResult r = solve_multi_sfc_exhaustive(msm);
      const double opt = testing::brute_force_multi_sfc_cost(msm);
      ASSERT_TRUE(r.proven_optimal);
      EXPECT_NEAR(r.comm_cost, opt, 1e-9 * opt)
          << "weighted=" << weighted << " n=" << n;
      EXPECT_NO_THROW(validate_placement(topo.graph, r.placement));
      EXPECT_EQ(r.comm_cost, msm.communication_cost(r.placement));
    }
  }
}

TEST(MultiSfc, ShortRangesMakePlacementCheaperThanFullChains) {
  // Serving each flow only its requested range can never cost more than
  // forcing everyone through the full catalogue on the same placement.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto ranged = ranged_workload(topo, 10, 4, 11);
  std::vector<RangedFlow> full;
  for (const auto& rf : ranged) full.push_back({rf.flow, 0, 3});
  const MultiSfcCostModel short_model(apsp, ranged, 4);
  const MultiSfcCostModel full_model(apsp, full, 4);
  const Placement p = solve_multi_sfc_relaxed(full_model).placement;
  EXPECT_LE(short_model.communication_cost(p),
            full_model.communication_cost(p) + 1e-9);
}

TEST(MultiSfc, WarmStartRespected) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto ranged = ranged_workload(topo, 6, 3, 13);
  const MultiSfcCostModel msm(apsp, ranged, 3);
  const MultiSfcResult relaxed = solve_multi_sfc_relaxed(msm);
  ChainSearchConfig cfg;
  cfg.node_budget = 50'000'000;
  cfg.initial = relaxed.placement;
  const MultiSfcResult exact = solve_multi_sfc_exhaustive(msm, cfg);
  EXPECT_LE(exact.comm_cost, relaxed.comm_cost + 1e-9);
  ASSERT_TRUE(exact.proven_optimal);
}

TEST(MultiSfc, ColdStartNodeBudgetStillReturnsAPlacement) {
  // The root and one node per position precede the first complete
  // placement; a budget that small must not leave the search empty.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  constexpr int n = 3;
  const auto ranged = ranged_workload(topo, 8, n, 13);
  const MultiSfcCostModel msm(apsp, ranged, n);
  for (std::uint64_t budget = 1; budget <= n; ++budget) {
    ChainSearchConfig cfg;
    cfg.node_budget = budget;
    const MultiSfcResult r = solve_multi_sfc_exhaustive(msm, cfg);
    EXPECT_FALSE(r.proven_optimal) << "budget=" << budget;
    ASSERT_EQ(r.placement.size(), static_cast<std::size_t>(n));
    EXPECT_NO_THROW(validate_placement(topo.graph, r.placement));
    EXPECT_DOUBLE_EQ(r.comm_cost, msm.communication_cost(r.placement));
  }
}

TEST(MultiSfc, RejectsBadRanges) {
  const Topology topo = build_linear(4);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  EXPECT_THROW(MultiSfcCostModel(apsp, {{{h1, h1, 1.0, 0}, 2, 1}}, 3),
               PpdcError);
  EXPECT_THROW(MultiSfcCostModel(apsp, {{{h1, h1, 1.0, 0}, 0, 5}}, 3),
               PpdcError);
  EXPECT_THROW(MultiSfcCostModel(apsp, {{{h1, h1, -1.0, 0}, 0, 1}}, 3),
               PpdcError);
  const MultiSfcCostModel ok(apsp, {{{h1, h1, 1.0, 0}, 0, 1}}, 2);
  EXPECT_THROW(ok.communication_cost({h1}), PpdcError);
}

}  // namespace
}  // namespace ppdc
