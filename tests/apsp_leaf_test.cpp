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
#include "topology/misc.hpp"
#include "topology/vl2.hpp"
#include "topology/weights.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

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
/// With `leaf_sources = false` only pairs from a core vertex are checked
/// (weighted fabrics: see WeightedFatTreeWithinTwoUlpsAndExactIntoLeaves).
void expect_identical(const Graph& g, const AllPairs& apsp,
                      bool leaf_sources = true) {
  const auto ref = full_reference(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!leaf_sources && apsp.core_index(u) < 0) continue;
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

/// `g` with every link of the listed nodes dropped, and the listed links.
Graph without(const Graph& g, const std::vector<NodeId>& dead_nodes,
              const std::vector<EdgeKey>& dead_edges = {}) {
  std::vector<char> dead(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId v : dead_nodes) dead[static_cast<std::size_t>(v)] = 1;
  return masked_copy(g, dead, dead_edges);
}

/// Every link of `g` at an integer weight drawn from [lo, hi].
void set_integer_weights(Graph& g, int lo, int hi, std::uint64_t seed) {
  Rng rng(seed);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& a : g.neighbors(u)) {
      if (u >= a.to) continue;
      const auto w = static_cast<double>(rng.uniform_int(lo, hi));
      g.set_edge_weight(u, a.to, w);
    }
  }
}

/// Core position -> vertex, from core_index().
std::vector<NodeId> core_vertices(const AllPairs& apsp) {
  std::vector<NodeId> core(static_cast<std::size_t>(apsp.num_core()),
                           kInvalidNode);
  for (NodeId v = 0; v < apsp.num_nodes(); ++v) {
    const std::int32_t k = apsp.core_index(v);
    if (k >= 0) core[static_cast<std::size_t>(k)] = v;
  }
  return core;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The core block, row by row through cost_row(), against one
/// bfs_shortest_paths/dijkstra run per core source, bit for bit.
void expect_block_matches_oracle(const Graph& g, const AllPairs& apsp) {
  const bool unit = unit_metric(g);
  const std::vector<NodeId> core = core_vertices(apsp);
  for (std::size_t x = 0; x < core.size(); ++x) {
    const SsspResult ref =
        unit ? bfs_shortest_paths(g, core[x]) : dijkstra(g, core[x]);
    const AllPairs::CoreRow row = apsp.cost_row(core[x]);
    ASSERT_EQ(row.weight, 0.0);
    for (std::size_t y = 0; y < core.size(); ++y) {
      const double want = ref.dist[static_cast<std::size_t>(core[y])];
      ASSERT_TRUE(same_bits(row.cost[y], want))
          << "x=" << core[x] << " y=" << core[y] << " got " << row.cost[y]
          << " want " << want;
    }
  }
}

TEST(ApspLeaf, HopBlockMatchesPerSourceBfsAcrossStripeWidths) {
  // The hop build fills the block 64 sources at a time: cores below one
  // stripe, exactly one, and a partial last stripe, plus a ring whose
  // 130 switches sit up to 65 hops apart.
  const Topology ft4 = build_fat_tree(4);
  const Topology ft8 = build_fat_tree(8);
  const Topology ls = build_leaf_spine(48, 16, 2);
  const Topology ring = build_ring(130);
  const Topology bcube = build_bcube(4, 1);
  const Topology dcell = build_dcell1(4);
  const Topology vl2 = build_vl2(4, 8, 12, 2);
  const std::vector<std::pair<const Topology*, std::int32_t>> cases = {
      {&ft4, 20},   {&ft8, 80},   {&ls, 64}, {&ring, 130},
      {&bcube, 24}, {&dcell, 25}, {&vl2, 24}};
  for (const auto& [t, core] : cases) {
    const AllPairs apsp(t->graph);
    EXPECT_EQ(apsp.num_core(), core);
    expect_block_matches_oracle(t->graph, apsp);
  }
  // path()'s early-exit BFS on the ring walks chains up to 65 hops long.
  expect_identical(ring.graph, AllPairs(ring.graph));
  // Masks: a pod outage isolates its hosts, a dead ToR isolates a rack.
  const Graph pod = without(ft8.graph, ft8.power_domains.front().switches);
  const AllPairs a(pod, /*allow_disconnected=*/true);
  EXPECT_FALSE(a.fully_connected());
  expect_block_matches_oracle(pod, a);
  const Graph rack = without(ft4.graph, {ft4.rack_switches[RackIdx{0}]});
  const AllPairs b(rack, /*allow_disconnected=*/true);
  expect_block_matches_oracle(rack, b);
}

/// Every core row's bits, from a build entered serially and at full width.
void expect_same_block_serially(const Graph& g) {
  std::vector<std::vector<double>> wide;
  std::vector<std::vector<double>> serial;
  auto dump = [&g](std::vector<std::vector<double>>& out) noexcept {
    const AllPairs apsp(g, /*allow_disconnected=*/true);
    const auto m = static_cast<std::size_t>(apsp.num_core());
    for (const NodeId x : core_vertices(apsp)) {
      const double* row = apsp.cost_row(x).cost;
      out.emplace_back(row, row + m);
    }
  };
  dump(wide);
  serially([&]() noexcept { dump(serial); });
  ASSERT_EQ(wide.size(), serial.size());
  for (std::size_t x = 0; x < wide.size(); ++x) {
    ASSERT_EQ(std::memcmp(wide[x].data(), serial[x].data(),
                          wide[x].size() * sizeof(double)),
              0)
        << "row " << x;
  }
}

TEST(ApspLeaf, BlockIsTheSameSeriallyAndAtFullWidth) {
  // k=16: five full stripes; the weighted k=8 build runs per source.
  const Topology ft16 = build_fat_tree(16);
  expect_same_block_serially(ft16.graph);
  const Topology ring = build_ring(130);
  expect_same_block_serially(ring.graph);
  Topology ft8 = build_fat_tree(8);
  apply_uniform_delay_weights(ft8.graph, 9);
  expect_same_block_serially(ft8.graph);
}

/// cost_row(u)[k] and cost_col(u)[k] carry the bits of cost(u, x) and
/// cost(x, u) for every node u and core vertex x at position k.
void expect_rows_and_columns_match_cost(const Graph& g, const AllPairs& apsp) {
  const std::vector<NodeId> core = core_vertices(apsp);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const AllPairs::CoreRow row = apsp.cost_row(u);
    const AllPairs::CoreRow col = apsp.cost_col(u);
    for (std::size_t k = 0; k < core.size(); ++k) {
      const NodeId x = core[k];
      if (x == u) continue;
      ASSERT_TRUE(same_bits(row.weight + row.cost[k], apsp.cost(u, x)))
          << "u=" << u << " x=" << x;
      ASSERT_TRUE(same_bits(col.weight + col.cost[k], apsp.cost(x, u)))
          << "u=" << u << " x=" << x;
    }
  }
}

TEST(ApspLeaf, CoreRowsAndColumnsMatchCost) {
  // Weighted metrics serve columns from a transposed copy.
  Topology t = build_fat_tree(4);
  apply_uniform_delay_weights(t.graph, 5);
  const AllPairs weighted(t.graph);
  ASSERT_EQ(static_cast<std::size_t>(weighted.num_core()),
            t.graph.switches().size());
  expect_rows_and_columns_match_cost(t.graph, weighted);
  const NodeId sw = t.graph.switches().front();
  EXPECT_NE(weighted.cost_col(sw).cost, weighted.cost_row(sw).cost);
  Topology dcell = build_dcell1(3);
  set_integer_weights(dcell.graph, 1, 3, 7);
  const AllPairs relay(dcell.graph);
  expect_rows_and_columns_match_cost(dcell.graph, relay);

  // A hop metric's column is its row: no copy is made.
  for (const Topology& hop : {build_fat_tree(8), build_bcube(3, 1)}) {
    const AllPairs apsp(hop.graph);
    expect_rows_and_columns_match_cost(hop.graph, apsp);
    for (const NodeId x : core_vertices(apsp)) {
      EXPECT_EQ(apsp.cost_col(x).cost, apsp.cost_row(x).cost);
    }
  }
  const Topology ft = build_fat_tree(4);
  const Graph masked = without(ft.graph, {ft.rack_switches[RackIdx{1}]});
  const AllPairs apsp(masked, /*allow_disconnected=*/true);
  expect_rows_and_columns_match_cost(masked, apsp);
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

/// Pairs from a leaf source on a weighted fabric: within two ulps of the
/// reference, along a path that is shortest. Returns the worst distance.
std::int64_t expect_leaf_rows_near(const Graph& g, const AllPairs& apsp) {
  const auto ref = full_reference(g);
  std::int64_t worst = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (apsp.core_index(u) >= 0) continue;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double want = ref_cost(ref, u, v);
      const double got = apsp.cost(u, v);
      if (want == kUnreachable) {
        EXPECT_EQ(got, kUnreachable) << "u=" << u << " v=" << v;
        continue;
      }
      // c(leaf, x) = w + c(attach, x) adds the same edge weights as the
      // Dijkstra run rooted at the leaf, in another order.
      worst = std::max(worst, ulp_distance(got, want));
      // Paths may break near-ties differently but stay shortest.
      const auto p = apsp.path(u, v);
      EXPECT_EQ(p.front(), u);
      EXPECT_EQ(p.back(), v);
      double len = 0.0;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
        len += g.edge_weight(p[i], p[i + 1]);
      }
      EXPECT_NEAR(len, want, 1e-9);
    }
  }
  return worst;
}

TEST(ApspLeaf, WeightedFatTreeWithinTwoUlpsAndExactIntoLeaves) {
  Topology t = build_fat_tree(8);
  apply_uniform_delay_weights(t.graph, 17);
  const AllPairs apsp(t.graph);
  // Dijkstra relaxes c(x, leaf) = c(x, attach) + w: exact from a switch.
  expect_identical(t.graph, apsp, /*leaf_sources=*/false);
  EXPECT_LE(expect_leaf_rows_near(t.graph, apsp), 2);
}

TEST(ApspLeaf, TiedWeightsBreakTiesByNodeId) {
  // Small integer weights run Dijkstra with exact sums and many equal
  // distances, which pop by NodeId. DCell links hosts to hosts, so a host
  // and a switch can tie as the last hop into a vertex; its core lists
  // every switch first, though most hosts have lower ids than the last
  // cell's switch, so popping by core position would pick other parents.
  for (const int n : {3, 4}) {
    Topology dcell = build_dcell1(n);
    set_integer_weights(dcell.graph, 1, 2, 5);
    ASSERT_LT(dcell.graph.hosts().front(), dcell.graph.switches().back());
    const AllPairs a(dcell.graph);
    expect_identical(dcell.graph, a);
    expect_same_summaries(dcell.graph, a);
  }
  // On a masked fat-tree every leaf splices onto exact Dijkstra rows.
  Topology ft = build_fat_tree(4);
  set_integer_weights(ft.graph, 2, 2, 1);
  const Graph g = without(ft.graph, {ft.rack_switches[RackIdx{0}]});
  const AllPairs b(g, /*allow_disconnected=*/true);
  expect_identical(g, b);
  expect_same_summaries(g, b);
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

TEST(ApspLeaf, BCubeDeadSwitchesTurnRelayHostsIntoLeaves) {
  const Topology t = build_bcube(3, 1);
  const NodeId h0 = t.graph.hosts().front();
  // Both of h0's switches die: h0 is isolated, and every other host on
  // them keeps one port and becomes a leaf of its other switch.
  std::vector<NodeId> dead;
  for (const auto& a : t.graph.neighbors(h0)) dead.push_back(a.to);
  const Graph g = without(t.graph, dead);
  const AllPairs apsp(g, /*allow_disconnected=*/true);
  EXPECT_EQ(g.degree(h0), 0);
  EXPECT_EQ(apsp.core_index(h0), -1);
  int leaves = 0;
  for (const NodeId h : g.hosts()) {
    if (g.degree(h) != 1) continue;
    ++leaves;
    EXPECT_EQ(apsp.core_index(h), -1) << "h=" << h;
  }
  EXPECT_EQ(leaves, 4);
  EXPECT_EQ(apsp.num_core(), g.num_nodes() - 5);
  expect_identical(g, apsp);
  expect_same_summaries(g, apsp);
}

TEST(ApspLeaf, DCellDeadSwitchesLeaveLeavesOnRelayHosts) {
  const Topology t = build_dcell1(3);
  const std::vector<NodeId> dead = {t.graph.switches()[0],
                                    t.graph.switches()[1]};
  const Graph g = without(t.graph, dead);
  const AllPairs apsp(g, /*allow_disconnected=*/true);
  // Cells 0 and 1 lose their switches. A host of theirs linked to a live
  // cell becomes a leaf whose attach is a relay host; the two hosts linked
  // to each other keep only that link, and both stay core.
  int relay_leaves = 0;
  int core_pairs = 0;
  for (const NodeId h : g.hosts()) {
    if (g.degree(h) != 1) continue;
    const NodeId a = g.neighbors(h)[0].to;
    if (g.degree(a) >= 2) {
      ++relay_leaves;
      EXPECT_EQ(apsp.core_index(h), -1) << "h=" << h;
      EXPECT_GE(apsp.core_index(a), 0) << "a=" << a;
    } else {
      ++core_pairs;
      EXPECT_GE(apsp.core_index(h), 0) << "h=" << h;
    }
  }
  EXPECT_EQ(relay_leaves, 4);
  EXPECT_EQ(core_pairs, 2);
  EXPECT_FALSE(apsp.fully_connected());
  expect_identical(g, apsp);
  expect_same_summaries(g, apsp);
}

TEST(ApspLeaf, FatTreePodOutageIsolatesItsHosts) {
  const int k = 8;
  const Topology t = build_fat_tree(k);
  const Graph g = without(t.graph, t.power_domains.front().switches);
  const AllPairs apsp(g, /*allow_disconnected=*/true);
  int isolated = 0;
  for (const NodeId h : g.hosts()) {
    if (g.degree(h) == 0) ++isolated;
  }
  EXPECT_EQ(isolated, k / 2 * k / 2);
  expect_identical(g, apsp);
  expect_same_summaries(g, apsp);
}

TEST(ApspLeaf, WeightedMaskedFatTreeIsExactFromTheCore) {
  Topology t = build_fat_tree(8);
  apply_uniform_delay_weights(t.graph, 23);
  // A pod outage, one more dead aggregation switch and one cut core link.
  std::vector<NodeId> dead = t.power_domains[1].switches;
  const PowerDomain& pod0 = t.power_domains[0];
  const NodeId agg = *std::find_if(
      pod0.switches.begin(), pod0.switches.end(), [&](NodeId s) {
        for (const auto& a : t.graph.neighbors(s)) {
          if (t.graph.is_host(a.to)) return false;
        }
        return true;
      });
  dead.push_back(agg);
  NodeId core = kInvalidNode;
  NodeId up = kInvalidNode;
  for (const NodeId s : t.power_domains[2].switches) {
    for (const auto& a : t.graph.neighbors(s)) {
      bool in_pod = false;
      for (const PowerDomain& d : t.power_domains) {
        in_pod = in_pod || std::count(d.switches.begin(), d.switches.end(),
                                      a.to) != 0;
      }
      if (t.graph.is_switch(a.to) && !in_pod) {
        up = s;
        core = a.to;
      }
    }
  }
  ASSERT_NE(core, kInvalidNode);
  const Graph g = without(t.graph, dead, {make_edge_key(up, core)});
  const AllPairs apsp(g, /*allow_disconnected=*/true);
  EXPECT_FALSE(apsp.fully_connected());
  expect_identical(g, apsp, /*leaf_sources=*/false);
  EXPECT_LE(expect_leaf_rows_near(g, apsp), 2);
}

}  // namespace
}  // namespace ppdc
