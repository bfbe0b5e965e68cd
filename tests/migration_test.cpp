#include "core/migration_pareto.hpp"

#include <gtest/gtest.h>

#include "core/chain_search.hpp"
#include "core/pareto_front.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

TEST(MPareto, Fig3EndToEnd) {
  // Example 1: traffic flips from <100,1> to <1,100>; mPareto must migrate
  // f1 to s5 and f2 to s4 for migration cost 6 and communication cost 410.
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const auto& s = topo.graph.switches();
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  std::vector<VmFlow> flows{{h1, h1, 1.0}, {h2, h2, 100.0}};
  CostModel cm(apsp, flows);
  const Placement from{s[0], s[1]};
  const MigrationResult r = solve_tom_pareto(cm, from, 1.0);
  // The paper migrates to (s5, s4); (s4, s5) ties at the same total cost
  // 416 (C_b = 6 either way, C_a = 410 either way) — accept both optima.
  const bool matches_paper = r.migration == Placement{s[4], s[3]} ||
                             r.migration == Placement{s[3], s[4]};
  EXPECT_TRUE(matches_paper);
  EXPECT_DOUBLE_EQ(r.migration_cost, 6.0);
  EXPECT_DOUBLE_EQ(r.comm_cost, 410.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 416.0);
  EXPECT_EQ(r.vnfs_moved, 2);
  // 58.6% total-cost reduction quoted in the paper: 1 - 416/1004.
  EXPECT_NEAR(1.0 - r.total_cost / cm.communication_cost(from), 0.586, 0.01);
}

TEST(MPareto, NeverWorseThanStayingPut) {
  // The first parallel frontier row is the current placement, so mPareto's
  // total cost is bounded by the no-migration communication cost.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto flows = random_flows(topo, 8, seed);
    CostModel cm(apsp, flows);
    const Placement from = solve_top_dp(cm, 4).placement;
    // Perturb rates to force a re-optimization.
    auto flows2 = flows;
    for (std::size_t i = 0; i < flows2.size(); ++i) {
      flows2[i].rate = flows[flows.size() - 1 - i].rate;
    }
    CostModel cm2(apsp, flows2);
    const MigrationResult r = solve_tom_pareto(cm2, from, 100.0);
    EXPECT_LE(r.total_cost, cm2.communication_cost(from) + 1e-9);
  }
}

TEST(MPareto, ZeroMuJumpsToFreshOptimumCost) {
  // With free migration the chosen frontier must reach the communication
  // cost of the fresh Algorithm 3 placement.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 4);
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement from{s[0], s[1], s[2]};
  const MigrationResult r = solve_tom_pareto(cm, from, 0.0);
  const PlacementResult fresh = solve_top_dp(cm, 3);
  EXPECT_LE(r.total_cost, fresh.comm_cost + 1e-9);
}

TEST(MPareto, HugeMuStaysPut) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 5);
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement from{s[0], s[8], s[15]};
  const MigrationResult r = solve_tom_pareto(cm, from, 1e12);
  EXPECT_EQ(r.migration, from);
  EXPECT_EQ(r.vnfs_moved, 0);
  EXPECT_DOUBLE_EQ(r.migration_cost, 0.0);
}

TEST(MPareto, MigrationIsCollisionFree) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto flows = random_flows(topo, 8, seed * 3);
    CostModel cm(apsp, flows);
    const auto& s = topo.graph.switches();
    const Placement from{s[0], s[5], s[10], s[15]};
    const MigrationResult r = solve_tom_pareto(cm, from, 10.0);
    EXPECT_NO_THROW(validate_placement(topo.graph, r.migration));
  }
}

TEST(MPareto, TotalCostDecomposes) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 9);
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement from{s[1], s[6], s[12]};
  const MigrationResult r = solve_tom_pareto(cm, from, 25.0);
  EXPECT_NEAR(r.total_cost, r.migration_cost + r.comm_cost, 1e-9);
  EXPECT_NEAR(r.migration_cost, cm.migration_cost(from, r.migration, 25.0),
              1e-9);
  EXPECT_NEAR(r.comm_cost, cm.communication_cost(r.migration), 1e-9);
}

TEST(MPareto, FrontierPointsTradeOffMonotonically) {
  // Along the parallel frontiers, migration cost grows row by row; the
  // first point has zero C_b.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 11);
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement from{s[0], s[7], s[14]};
  const MigrationResult r = solve_tom_pareto(cm, from, 5.0);
  ASSERT_FALSE(r.frontier_points.empty());
  EXPECT_DOUBLE_EQ(r.frontier_points.front().migration_cost, 0.0);
  for (std::size_t i = 0; i + 1 < r.frontier_points.size(); ++i) {
    EXPECT_LE(r.frontier_points[i].migration_cost,
              r.frontier_points[i + 1].migration_cost + 1e-9);
  }
}

TEST(MPareto, ExhaustiveFrontiersNeverWorseThanParallel) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto flows = random_flows(topo, 6, seed + 20);
    CostModel cm(apsp, flows);
    const auto& s = topo.graph.switches();
    const Placement from{s[2], s[9], s[17]};
    const MigrationResult parallel = solve_tom_pareto(cm, from, 10.0);
    ParetoMigrationOptions opt;
    opt.exhaustive_frontiers = true;
    const MigrationResult full = solve_tom_pareto(cm, from, 10.0, opt);
    EXPECT_LE(full.total_cost, parallel.total_cost + 1e-9) << "seed=" << seed;
  }
}

TEST(MPareto, CloseToExhaustiveOptimalOnSmallInstances) {
  // Fig. 11(a): mPareto performs within 5-10% of Optimal. Allow 20% slack
  // on adversarial random topologies.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology topo = build_random_connected(8, 6, 6, 0.5, 2.0, seed);
    const AllPairs apsp(topo.graph);
    const auto flows = random_flows(topo, 5, seed + 31);
    CostModel cm(apsp, flows);
    const auto& s = topo.graph.switches();
    const Placement from{s[0], s[1], s[2]};
    const MigrationResult pareto = solve_tom_pareto(cm, from, 1.0);
    const double opt = testing::brute_force_tom_cost(cm, from, 1.0);
    EXPECT_GE(pareto.total_cost + 1e-9, opt);
    EXPECT_LE(pareto.total_cost, 1.2 * opt + 1e-9) << "seed=" << seed;
  }
}

TEST(EvaluateMigration, CountsAndCosts) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const auto& s = topo.graph.switches();
  const NodeId h1 = topo.graph.hosts()[0];
  const std::vector<VmFlow> flows{{h1, h1, 2.0}};
  CostModel cm(apsp, flows);
  const MigrationResult r =
      evaluate_migration(cm, {s[0], s[1]}, {s[0], s[2]}, 10.0);
  EXPECT_EQ(r.vnfs_moved, 1);
  EXPECT_DOUBLE_EQ(r.migration_cost, 10.0);
  EXPECT_NEAR(r.total_cost, r.migration_cost + r.comm_cost, 1e-12);
}

TEST(ParetoFrontTest, ExtractsNonDominatedSubset) {
  std::vector<FrontierPoint> pts{{0.0, 10.0, true},
                                 {1.0, 8.0, true},
                                 {2.0, 9.0, true},   // dominated by (1,8)
                                 {3.0, 5.0, true},
                                 {4.0, 5.0, true}};  // dominated by (3,5)
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].migration_cost, 0.0);
  EXPECT_DOUBLE_EQ(front[1].migration_cost, 1.0);
  EXPECT_DOUBLE_EQ(front[2].migration_cost, 3.0);
  EXPECT_TRUE(is_mutually_nondominated(front));
}

TEST(ParetoFrontTest, DetectsConvexityAndConcavity) {
  // Convex: slopes -4, -1 (increasing).
  std::vector<FrontierPoint> convex{{0, 10, true}, {1, 6, true}, {3, 4, true}};
  EXPECT_TRUE(is_convex_front(pareto_front(convex)));
  // Concave kink: slopes -1 then -4.
  std::vector<FrontierPoint> concave{{0, 10, true}, {2, 8, true}, {3, 2, true}};
  EXPECT_FALSE(is_convex_front(pareto_front(concave)));
}

TEST(ParetoFrontTest, SmallFrontsAreTriviallyConvex) {
  EXPECT_TRUE(is_convex_front({}));
  EXPECT_TRUE(is_convex_front({{0, 1, true}}));
  EXPECT_TRUE(is_convex_front({{0, 1, true}, {1, 0, true}}));
}

TEST(ParetoFrontTest, MigrationFrontierCloudYieldsNondominatedFront) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 12, 55);
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement from{s[0], s[6], s[12], s[18]};
  const MigrationResult r = solve_tom_pareto(cm, from, 50.0);
  const auto front = pareto_front(r.frontier_points);
  EXPECT_FALSE(front.empty());
  EXPECT_TRUE(is_mutually_nondominated(front));
}

}  // namespace
}  // namespace ppdc
