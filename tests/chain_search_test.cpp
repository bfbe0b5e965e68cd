#include "core/chain_search.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"
#include "topology/weights.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

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

/// One recorded exhaustive solve: the objective's bits, the nodes the
/// search expanded and the placement as indices into Graph::switches().
struct PinnedSolve {
  const char* name;
  std::uint64_t objective_bits;
  std::uint64_t nodes;
  std::vector<int> placement;
};

/// Runs TOP cold and at node_budget 500, and TOM warm-started at its own
/// `from` for μ in {0.7, 40} without and with that budget, on `topo`, and
/// compares every result bit for bit with `pinned`.
void expect_pinned_solves(const Topology& topo, int l, int n,
                          const std::vector<PinnedSolve>& pinned) {
  const AllPairs apsp(topo.graph);
  CostModel cm(apsp, random_flows(topo, l, 5));
  const auto& sw = topo.graph.switches();
  Placement from;
  for (int j = 0; j < n; ++j) {
    from.push_back(sw[(static_cast<std::size_t>(j) * 7 + 3) % sw.size()]);
  }
  std::vector<ChainSearchResult> got;
  got.push_back(solve_top_exhaustive(cm, n));
  ChainSearchConfig budget;
  budget.node_budget = 500;
  got.push_back(solve_top_exhaustive(cm, n, budget));
  for (const double mu : {0.7, 40.0}) {
    for (const std::uint64_t nodes : {std::uint64_t{0}, std::uint64_t{500}}) {
      ChainSearchConfig cfg;
      cfg.node_budget = nodes;
      cfg.initial = from;
      got.push_back(solve_tom_exhaustive(cm, from, mu, cfg));
    }
  }
  ASSERT_EQ(got.size(), pinned.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PinnedSolve& want = pinned[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].objective),
              want.objective_bits)
        << want.name << ": objective " << got[i].objective;
    EXPECT_EQ(got[i].nodes_explored, want.nodes) << want.name;
    Placement expected;
    for (const int k : want.placement) {
      expected.push_back(sw[static_cast<std::size_t>(k)]);
    }
    EXPECT_EQ(got[i].placement, expected) << want.name;
  }
}

TEST(ChainSearch, SearchIsPinned) {
  // Bit-level pin of the exact search. Any change to its candidate order,
  // completion bound, step sums or warm-start scoring shows up here as a
  // different objective bit, node count or tie pick. n = 8 leaves up to
  // seven legs to the leg bound; budget 500 truncates every search.
  Topology fat_tree = build_fat_tree(6);
  apply_uniform_delay_weights(fat_tree.graph, 11, 1.5, 0.5);
  expect_pinned_solves(
      fat_tree, 4, 8,
      {
          {"fat_tree/top", 0x410634905de164c2ULL, 18738,
           {5, 40, 44, 39, 2, 33, 0, 15}},
          {"fat_tree/top_b500", 0x41068f5fbfe1f7e9ULL, 501,
           {0, 33, 2, 15, 19, 16, 20, 17}},
          {"fat_tree/tom_mu0.7", 0x410634fd17e83939ULL, 18757,
           {5, 40, 44, 39, 2, 33, 0, 15}},
          {"fat_tree/tom_mu0.7_b500", 0x41068fe1ff375a70ULL, 501,
           {0, 33, 2, 15, 19, 16, 20, 17}},
          {"fat_tree/tom_mu40", 0x41064cd551b0d181ULL, 19485,
           {5, 40, 44, 39, 2, 33, 0, 15}},
          {"fat_tree/tom_mu40_b500", 0x4106ac72753a3f8eULL, 501,
           {0, 33, 2, 15, 19, 16, 20, 17}},
      });
  const Topology random = build_random_connected(16, 10, 8, 0.5, 3.0, 4);
  expect_pinned_solves(
      random, 6, 8,
      {
          {"random/top", 0x411af2be7e6f068fULL, 7513,
           {0, 5, 12, 6, 9, 11, 4, 13}},
          {"random/top_b500", 0x411af77f75d4503cULL, 501,
           {4, 9, 11, 6, 12, 5, 0, 3}},
          {"random/tom_mu0.7", 0x411af3064736c070ULL, 7519,
           {0, 5, 12, 6, 9, 11, 4, 13}},
          {"random/tom_mu0.7_b500", 0x411af7e7b26f8ba3ULL, 501,
           {4, 9, 11, 6, 12, 5, 0, 3}},
          {"random/tom_mu40", 0x411b02c474288444ULL, 7604,
           {0, 5, 12, 6, 9, 11, 4, 13}},
          {"random/tom_mu40_b500", 0x411b0ec3d87ab711ULL, 501,
           {4, 9, 11, 6, 12, 5, 0, 3}},
      });
}

TEST(ChainSearch, UnimprovedWarmStartReportsTheSearchObjective) {
  // At a huge μ staying put is optimal, so the warm start is the answer.
  // It is scored with the search's own step sums, so its objective has the
  // same bits as a cold search that reaches the same placement.
  const Topology topo = build_random_connected(16, 10, 8, 0.5, 3.0, 4);
  const AllPairs apsp(topo.graph);
  CostModel cm(apsp, random_flows(topo, 6, 5));
  const auto& sw = topo.graph.switches();
  const Placement from{sw[3], sw[10], sw[1], sw[8],
                       sw[15], sw[6], sw[13], sw[4]};
  const ChainSearchResult cold = solve_tom_exhaustive(cm, from, 1e6);
  ChainSearchConfig cfg;
  cfg.initial = from;
  const ChainSearchResult warm = solve_tom_exhaustive(cm, from, 1e6, cfg);
  ASSERT_EQ(cold.placement, from);
  EXPECT_EQ(warm.placement, from);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.objective),
            std::bit_cast<std::uint64_t>(cold.objective));
  EXPECT_NEAR(warm.objective, cm.total_cost(from, from, 1e6),
              1e-12 * warm.objective);
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

  // A hand-built objective: two positions over the three switches.
  ChainObjective obj;
  obj.candidates = IndexedVector<CandidateIdx, NodeId>(sw);
  obj.leg_weight = {1.0};
  obj.unary = {CandidateRow(sw.size(), 0.0), CandidateRow()};
  EXPECT_NO_THROW(chain_search(apsp, obj));
  ChainObjective no_leg = obj;
  no_leg.leg_weight.clear();
  EXPECT_THROW(chain_search(apsp, no_leg), PpdcError);
  ChainObjective short_row = obj;
  short_row.unary.back() = CandidateRow(1, 0.0);
  EXPECT_THROW(chain_search(apsp, short_row), PpdcError);
  ChainObjective host = obj;
  host.candidates = IndexedVector<CandidateIdx, NodeId>({sw[0], sw[1], h1});
  EXPECT_THROW(chain_search(apsp, host), PpdcError);
  ChainObjective repeated = obj;
  repeated.candidates =
      IndexedVector<CandidateIdx, NodeId>({sw[0], sw[1], sw[1]});
  EXPECT_THROW(chain_search(apsp, repeated), PpdcError);
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
