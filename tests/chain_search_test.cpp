#include "core/chain_search.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

std::vector<VmFlow> random_flows(const Topology& topo, int l,
                                 std::uint64_t seed) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  Rng rng(seed);
  return generate_vm_flows(topo, cfg, rng);
}

TEST(ChainSearch, MatchesBruteForceTopOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology topo = build_random_connected(7, 6, 5, 0.5, 3.0, seed);
    const AllPairs apsp(topo.graph);
    const auto flows = random_flows(topo, 4, seed + 100);
    CostModel cm(apsp, flows);
    for (int n = 1; n <= 4; ++n) {
      const ChainSearchResult r = solve_top_exhaustive(cm, n);
      EXPECT_TRUE(r.proven_optimal);
      const double opt = testing::brute_force_top_cost(cm, n);
      EXPECT_NEAR(r.objective, opt, 1e-9) << "seed=" << seed << " n=" << n;
      EXPECT_NEAR(cm.communication_cost(r.placement), r.objective, 1e-9);
    }
  }
}

TEST(ChainSearch, MatchesBruteForceTomOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology topo = build_random_connected(6, 4, 6, 0.5, 2.0, seed);
    const AllPairs apsp(topo.graph);
    const auto flows = random_flows(topo, 3, seed + 7);
    CostModel cm(apsp, flows);
    const auto& sw = topo.graph.switches();
    const Placement from{sw[0], sw[1], sw[2]};
    for (const double mu : {0.0, 1.0, 50.0}) {
      const ChainSearchResult r = solve_tom_exhaustive(cm, from, mu);
      EXPECT_TRUE(r.proven_optimal);
      const double opt = testing::brute_force_tom_cost(cm, from, mu);
      EXPECT_NEAR(r.objective, opt, 1e-9) << "seed=" << seed << " mu=" << mu;
      EXPECT_NEAR(cm.total_cost(from, r.placement, mu), r.objective, 1e-9);
    }
  }
}

TEST(ChainSearch, Theorem4TomWithZeroMuEqualsTop) {
  // TOP is the special case of TOM with μ = 0 (Theorem 4).
  const Topology topo = build_random_connected(8, 5, 6, 1.0, 2.0, 9);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 4, 2);
  CostModel cm(apsp, flows);
  const auto& sw = topo.graph.switches();
  const Placement from{sw[0], sw[3], sw[5]};
  const ChainSearchResult top = solve_top_exhaustive(cm, 3);
  const ChainSearchResult tom = solve_tom_exhaustive(cm, from, 0.0);
  EXPECT_NEAR(top.objective, tom.objective, 1e-9);
}

TEST(ChainSearch, HugeMuKeepsPlacementInPlace) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 5, 3);
  CostModel cm(apsp, flows);
  const auto& sw = topo.graph.switches();
  const Placement from{sw[2], sw[9], sw[14]};
  const ChainSearchResult r = solve_tom_exhaustive(cm, from, 1e12);
  EXPECT_EQ(r.placement, from);
}

TEST(ChainSearch, Fig3ExampleOptimalIs410) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  const std::vector<VmFlow> flows{{h1, h1, 100.0}, {h2, h2, 1.0}};
  CostModel cm(apsp, flows);
  const ChainSearchResult r = solve_top_exhaustive(cm, 2);
  EXPECT_DOUBLE_EQ(r.objective, 410.0);
  const auto& sw = topo.graph.switches();
  EXPECT_EQ(r.placement, (Placement{sw[0], sw[1]}));
}

TEST(ChainSearch, SingleFlowAllUnitHopsAchievesLowerBound) {
  // Example 3 shape: optimal 7-VNF chain between different pods of a k=4
  // fat-tree costs exactly 8 (every leg one hop).
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const std::vector<VmFlow> flows{{topo.racks[RackIdx{1}][1], topo.racks[RackIdx{2}][0], 1.0}};
  CostModel cm(apsp, flows);
  const ChainSearchResult r = solve_top_exhaustive(cm, 7);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.objective, 8.0);
}

TEST(ChainSearch, WarmStartNeverHurts) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 17);
  CostModel cm(apsp, flows);
  const ChainSearchResult cold = solve_top_exhaustive(cm, 3);
  ChainSearchConfig cfg;
  cfg.initial = cold.placement;
  const ChainSearchResult warm = solve_top_exhaustive(cm, 3, cfg);
  EXPECT_NEAR(cold.objective, warm.objective, 1e-9);
  EXPECT_LE(warm.nodes_explored, cold.nodes_explored);
}

TEST(ChainSearch, NodeBudgetTruncatesButStillReturns) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 23);
  CostModel cm(apsp, flows);
  ChainSearchConfig cfg;
  cfg.node_budget = 10;
  cfg.initial = Placement{topo.graph.switches()[0],
                          topo.graph.switches()[1],
                          topo.graph.switches()[2]};
  const ChainSearchResult r = solve_top_exhaustive(cm, 3, cfg);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_EQ(r.placement.size(), 3u);
  // Budget-limited search can never be worse than its warm start.
  EXPECT_LE(r.objective, cm.communication_cost(*cfg.initial) + 1e-9);
}

TEST(ChainSearch, ColdStartNodeBudgetStillReturnsAPlacement) {
  // Without a warm start the first complete placement costs n nodes; a
  // smaller budget must still let the search reach it.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 23);
  CostModel cm(apsp, flows);
  constexpr int n = 3;
  for (std::uint64_t budget = 1; budget <= n; ++budget) {
    ChainSearchConfig cfg;
    cfg.node_budget = budget;
    const ChainSearchResult r = solve_top_exhaustive(cm, n, cfg);
    EXPECT_FALSE(r.proven_optimal) << "budget=" << budget;
    ASSERT_EQ(r.placement.size(), static_cast<std::size_t>(n));
    EXPECT_NO_THROW(validate_placement(topo.graph, r.placement));
    EXPECT_DOUBLE_EQ(r.objective, cm.communication_cost(r.placement));
  }
}

TEST(ChainSearch, RejectsBadShapes) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const std::vector<VmFlow> flows{{h1, h1, 1.0}};
  CostModel cm(apsp, flows);
  EXPECT_THROW(solve_top_exhaustive(cm, 0), PpdcError);
  EXPECT_THROW(solve_top_exhaustive(cm, 4), PpdcError);
  const auto& sw = topo.graph.switches();
  EXPECT_THROW(solve_tom_exhaustive(cm, {sw[0]}, -1.0), PpdcError);
}

TEST(ChainSearch, PlacementIsAlwaysValid) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 31);
  CostModel cm(apsp, flows);
  for (int n = 1; n <= 6; ++n) {
    const ChainSearchResult r = solve_top_exhaustive(cm, n);
    EXPECT_NO_THROW(validate_placement(topo.graph, r.placement));
    EXPECT_EQ(r.placement.size(), static_cast<std::size_t>(n));
  }
}

}  // namespace
}  // namespace ppdc
