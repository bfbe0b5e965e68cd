// Equivalence of the leaf-collapsed AllPairs against a full |V|² metric.
//
// AllPairs stores only the core block (switches and relay hosts) and
// serves every leaf host through (attach, weight). The reference here is
// the full matrix the metric used to store: one public
// bfs_shortest_paths/dijkstra run per vertex, paths by reconstruct_path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/apsp.hpp"
#include "graph/shortest_paths.hpp"
#include "topology/bcube.hpp"
#include "topology/dcell.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/vl2.hpp"
#include "topology/weights.hpp"

namespace ppdc {
namespace {

bool unit_metric(const Graph& g) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& a : g.neighbors(u)) {
      if (a.weight != 1.0) return false;
    }
  }
  return true;
}

/// One SSSP per vertex over the whole graph.
std::vector<SsspResult> full_reference(const Graph& g) {
  const bool unit = unit_metric(g);
  std::vector<SsspResult> ref;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ref.push_back(unit ? bfs_shortest_paths(g, u) : dijkstra(g, u));
  }
  return ref;
}

double ref_cost(const std::vector<SsspResult>& ref, NodeId u, NodeId v) {
  return ref[static_cast<std::size_t>(u)].dist[static_cast<std::size_t>(v)];
}

/// Every pair: cost() and reachable() bit-identical, path() identical.
void expect_identical(const Graph& g, const AllPairs& apsp) {
  const auto ref = full_reference(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double want = ref_cost(ref, u, v);
      ASSERT_EQ(apsp.cost(u, v), want) << "u=" << u << " v=" << v;
      ASSERT_EQ(apsp.reachable(u, v), want != kUnreachable);
      if (want == kUnreachable) {
        EXPECT_THROW(apsp.path(u, v), PpdcError) << "u=" << u << " v=" << v;
        continue;
      }
      ASSERT_EQ(apsp.path(u, v),
                reconstruct_path(ref[static_cast<std::size_t>(u)], u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

/// diameter() and min_switch_distance() over the reference matrix.
void expect_same_summaries(const Graph& g, const AllPairs& apsp) {
  const auto ref = full_reference(g);
  double diameter = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double d = ref_cost(ref, u, v);
      if (d != kUnreachable) diameter = std::max(diameter, d);
    }
  }
  double min_switch = kUnreachable;
  for (const NodeId a : g.switches()) {
    for (const NodeId b : g.switches()) {
      if (a != b) min_switch = std::min(min_switch, ref_cost(ref, a, b));
    }
  }
  EXPECT_EQ(apsp.diameter(), diameter);
  EXPECT_EQ(apsp.min_switch_distance(), min_switch);
}

TEST(ApspLeaf, FatTreeStoresOnlySwitchesAndIsBitIdentical) {
  for (const int k : {4, 8}) {
    const Topology t = build_fat_tree(k);
    const AllPairs apsp(t.graph);
    EXPECT_EQ(apsp.num_core(), fat_tree_num_switches(k));
    for (std::size_t i = 0; i < t.graph.switches().size(); ++i) {
      EXPECT_EQ(apsp.core_index(t.graph.switches()[i]),
                static_cast<std::int32_t>(i));
    }
    for (const NodeId h : t.graph.hosts()) EXPECT_EQ(apsp.core_index(h), -1);
    expect_identical(t.graph, apsp);
    expect_same_summaries(t.graph, apsp);
  }
}

TEST(ApspLeaf, LeafSpineAndVl2AreBitIdentical) {
  const Topology ls = build_leaf_spine(4, 3, 3);
  const AllPairs a(ls.graph);
  EXPECT_EQ(a.num_core(), 7);
  expect_identical(ls.graph, a);
  expect_same_summaries(ls.graph, a);

  const Topology vl2 = build_vl2(2, 4, 6, 3);
  const AllPairs b(vl2.graph);
  EXPECT_EQ(static_cast<std::size_t>(b.num_core()),
            vl2.graph.switches().size());
  expect_identical(vl2.graph, b);
  expect_same_summaries(vl2.graph, b);
}

TEST(ApspLeaf, RelayHostFabricsAreAllCore) {
  const Topology bcube = build_bcube(3, 1);
  const AllPairs a(bcube.graph);
  EXPECT_EQ(a.num_core(), bcube.graph.num_nodes());
  expect_identical(bcube.graph, a);
  expect_same_summaries(bcube.graph, a);

  const Topology dcell = build_dcell1(3);
  const AllPairs b(dcell.graph);
  EXPECT_EQ(b.num_core(), dcell.graph.num_nodes());
  expect_identical(dcell.graph, b);
  expect_same_summaries(dcell.graph, b);
}

TEST(ApspLeaf, CoreRowsAndColumnsMatchCost) {
  Topology t = build_fat_tree(4);
  apply_uniform_delay_weights(t.graph, 5);
  const AllPairs apsp(t.graph);
  ASSERT_EQ(static_cast<std::size_t>(apsp.num_core()),
            t.graph.switches().size());
  for (NodeId u = 0; u < t.graph.num_nodes(); ++u) {
    const AllPairs::CoreRow row = apsp.cost_row(u);
    const AllPairs::CoreRow col = apsp.cost_col(u);
    for (std::size_t k = 0; k < t.graph.switches().size(); ++k) {
      const NodeId x = t.graph.switches()[k];
      if (x == u) continue;
      EXPECT_EQ(row.weight + row.cost[k], apsp.cost(u, x));
      EXPECT_EQ(col.weight + col.cost[k], apsp.cost(x, u));
    }
  }
}

/// Distance between two finite non-negative doubles in units in the last
/// place (adjacent doubles are 1 apart).
std::int64_t ulp_distance(double a, double b) {
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::memcpy(&x, &a, sizeof a);
  std::memcpy(&y, &b, sizeof b);
  return x > y ? x - y : y - x;
}

TEST(ApspLeaf, WeightedFatTreeWithinTwoUlpsAndExactIntoLeaves) {
  Topology t = build_fat_tree(8);
  apply_uniform_delay_weights(t.graph, 17);
  const AllPairs apsp(t.graph);
  const auto ref = full_reference(t.graph);
  const Graph& g = t.graph;
  std::int64_t worst = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double want = ref_cost(ref, u, v);
      const double got = apsp.cost(u, v);
      if (g.is_switch(u)) {
        // Dijkstra relaxes c(x, leaf) = c(x, attach) + w: exact.
        ASSERT_EQ(got, want) << "u=" << u << " v=" << v;
        continue;
      }
      // c(leaf, x) = w + c(attach, x) adds the same edge weights as the
      // Dijkstra run rooted at the leaf, in another order.
      worst = std::max(worst, ulp_distance(got, want));
      // Paths may break near-ties differently but stay shortest.
      const auto p = apsp.path(u, v);
      ASSERT_EQ(p.front(), u);
      ASSERT_EQ(p.back(), v);
      double len = 0.0;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        ASSERT_TRUE(g.has_edge(p[i], p[i + 1]));
        len += g.edge_weight(p[i], p[i + 1]);
      }
      EXPECT_NEAR(len, want, 1e-9);
    }
  }
  EXPECT_LE(worst, 2);
}

TEST(ApspLeaf, DegradedFabricKeepsUnreachableSemantics) {
  const Topology t = build_fat_tree(4);
  const Graph& pristine = t.graph;
  std::vector<char> dead(static_cast<std::size_t>(pristine.num_nodes()), 0);
  const NodeId dead_tor = t.rack_switches[RackIdx{0}];
  dead[static_cast<std::size_t>(dead_tor)] = 1;
  // Cut one link that is not incident to the dead ToR.
  const NodeId tor = t.rack_switches[RackIdx{3}];
  NodeId up = kInvalidNode;
  for (const auto& a : pristine.neighbors(tor)) {
    if (pristine.is_switch(a.to)) up = a.to;
  }
  ASSERT_NE(up, kInvalidNode);
  const Graph g = masked_copy(pristine, dead, {make_edge_key(tor, up)});
  const AllPairs apsp(g, /*allow_disconnected=*/true);
  EXPECT_FALSE(apsp.fully_connected());

  for (const NodeId h : t.racks[RackIdx{0}]) {
    // Isolated hosts reach only themselves.
    EXPECT_EQ(apsp.cost(h, h), 0.0);
    EXPECT_EQ(apsp.path(h, h), std::vector<NodeId>{h});
    EXPECT_FALSE(apsp.reachable(h, t.racks[RackIdx{1}][0]));
    EXPECT_FALSE(apsp.reachable(t.racks[RackIdx{1}][0], h));
    EXPECT_THROW(apsp.path(h, t.racks[RackIdx{1}][0]), PpdcError);
    EXPECT_EQ(apsp.cost_row(h).cost[0], kUnreachable);
  }
  EXPECT_FALSE(apsp.reachable(dead_tor, t.racks[RackIdx{1}][0]));
  expect_identical(g, apsp);
  expect_same_summaries(g, apsp);
}

}  // namespace
}  // namespace ppdc
