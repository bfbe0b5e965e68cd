#include "core/colocation.hpp"

#include <gtest/gtest.h>

#include "core/chain_search.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

TEST(Colocation, CapacityOneMatchesPlainDp) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 1);
  CostModel cm(apsp, flows);
  const ColocatedPlacement co = solve_top_colocated(cm, 4, 1);
  const PlacementResult dp = solve_top_dp(cm, 4);
  EXPECT_NEAR(co.comm_cost, dp.comm_cost, 1e-9);
  EXPECT_NO_THROW(validate_placement(topo.graph, co.placement));
}

TEST(Colocation, FullCapacityCollapsesChainCost) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 2);
  CostModel cm(apsp, flows);
  const ColocatedPlacement co = solve_top_colocated(cm, 5, 5);
  // All VNFs share one switch: cost = A(w) + B(w) at the best switch.
  for (std::size_t j = 1; j < co.placement.size(); ++j) {
    EXPECT_EQ(co.placement[j], co.placement[0]);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const NodeId w : topo.graph.switches()) {
    best = std::min(best,
                    cm.ingress_attraction(w) + cm.egress_attraction(w));
  }
  EXPECT_NEAR(co.comm_cost, best, 1e-9);
}

TEST(Colocation, CostMonotoneNonIncreasingInCapacity) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 3);
  CostModel cm(apsp, flows);
  double prev = std::numeric_limits<double>::infinity();
  for (const int cap : {1, 2, 3, 6}) {
    const double cost = solve_top_colocated(cm, 6, cap).comm_cost;
    EXPECT_LE(cost, prev + 1e-9) << "capacity=" << cap;
    prev = cost;
  }
}

TEST(Colocation, BlocksRespectCapacity) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 5);
  CostModel cm(apsp, flows);
  const ColocatedPlacement co = solve_top_colocated(cm, 7, 3);
  // Runs of equal switches are at most 3 long; 3 distinct blocks total.
  int run = 1, max_run = 1, blocks = 1;
  for (std::size_t j = 1; j < co.placement.size(); ++j) {
    if (co.placement[j] == co.placement[j - 1]) {
      max_run = std::max(max_run, ++run);
    } else {
      run = 1;
      ++blocks;
    }
  }
  EXPECT_LE(max_run, 3);
  EXPECT_EQ(blocks, 3);
}

TEST(Colocation, RelaxationNeverBeatsItselfWithLessCapacity) {
  // Sanity vs the strict optimum: co-located cost with cap 2 is <= the
  // distinct-switch optimum (it is a relaxation of the constraint).
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 7);
  CostModel cm(apsp, flows);
  const double strict = solve_top_exhaustive(cm, 4).objective;
  const double relaxed = solve_top_colocated(cm, 4, 2).comm_cost;
  EXPECT_LE(relaxed, strict + 1e-9);
}

TEST(Colocation, UncheckedCostMatchesManualSum) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const std::vector<VmFlow> flows{{h1, h1, 10.0, 0}};
  CostModel cm(apsp, flows);
  const auto& s = topo.graph.switches();
  const Placement repeated{s[1], s[1], s[2]};
  // A(s2)=10*2, legs: 0 + 1 -> 10, B(s3)=10*3.
  EXPECT_DOUBLE_EQ(colocated_communication_cost(cm, repeated), 60.0);
}

TEST(Colocation, RejectsBadInput) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const std::vector<VmFlow> flows{{h1, h1, 1.0, 0}};
  CostModel cm(apsp, flows);
  EXPECT_THROW(solve_top_colocated(cm, 0, 1), PpdcError);
  EXPECT_THROW(solve_top_colocated(cm, 2, 0), PpdcError);
  EXPECT_THROW(colocated_communication_cost(cm, {}), PpdcError);
  EXPECT_THROW(colocated_communication_cost(cm, {h1}), PpdcError);
}

}  // namespace
}  // namespace ppdc
