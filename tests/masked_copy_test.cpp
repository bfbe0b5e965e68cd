// masked_copy() against a reference built with add_node()/add_edge(), and
// the degraded AllPairs built over it.
//
// masked_copy copies the node tables whole and pushes each surviving link
// onto both endpoints' lists in the order the reference's add_edge loop
// (u ascending, then u's neighbours v > u in list order) adds it. That
// order is not the pristine lists filtered in place: with one dead switch
// of a k=8 fat-tree the two differ on 32 nodes, and path() breaks its
// ties by neighbour order, so every list must match in order. On the
// same masked graphs the AllPairs summaries (diameter, closest switch
// pair, full connectivity), which the build folds in per-column lanes,
// must equal a scalar scan over every pair, built on one thread and at
// full executor width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "topology/bcube.hpp"
#include "topology/dcell.hpp"
#include "topology/fat_tree.hpp"
#include "topology/weights.hpp"
#include "util/executor.hpp"

namespace ppdc {
namespace {

/// masked_copy as an add_node/add_edge loop.
Graph reference_copy(const Graph& g, const std::vector<char>& dead_node,
                     const std::vector<EdgeKey>& dead_edges) {
  Graph out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.add_node(g.kind(v), g.label(v));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (dead_node[static_cast<std::size_t>(u)]) continue;
    for (const Adjacency& a : g.neighbors(u)) {
      if (u >= a.to || dead_node[static_cast<std::size_t>(a.to)]) continue;
      if (std::find(dead_edges.begin(), dead_edges.end(),
                    make_edge_key(u, a.to)) != dead_edges.end()) {
        continue;
      }
      out.add_edge(u, a.to, a.weight);
    }
  }
  return out;
}

void expect_same_graph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.hosts(), want.hosts());
  EXPECT_EQ(got.switches(), want.switches());
  std::size_t mismatched_lists = 0;
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(got.kind(v), want.kind(v)) << v;
    EXPECT_EQ(got.label(v), want.label(v)) << v;
    const auto a = got.neighbors(v);
    const auto b = want.neighbors(v);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].to == b[i].to && a[i].weight == b[i].weight;
    }
    if (!same) ++mismatched_lists;
  }
  EXPECT_EQ(mismatched_lists, 0u) << "neighbour lists out of order";
}

/// The AllPairs summaries as one scalar scan over every pair of nodes.
void expect_scan_summaries(const Graph& g, const AllPairs& apsp) {
  double diameter = 0.0;
  double closest = kUnreachable;
  bool connected = true;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      const double d = apsp.cost(u, v);
      if (d == kUnreachable) {
        connected = false;
        continue;
      }
      diameter = std::max(diameter, d);
      if (g.is_switch(u) && g.is_switch(v)) closest = std::min(closest, d);
    }
  }
  if (closest == kUnreachable) closest = 0.0;
  EXPECT_EQ(apsp.diameter(), diameter);
  EXPECT_EQ(apsp.min_switch_distance(), closest);
  EXPECT_EQ(apsp.fully_connected(), connected);
}

struct Mask {
  std::string name;
  std::vector<NodeId> dead_nodes;
  std::vector<EdgeKey> dead_edges;
};

/// The k-th link out of `v` (k wraps) as a normalized key.
EdgeKey link_of(const Graph& g, NodeId v, std::size_t k) {
  const auto nbrs = g.neighbors(v);
  return make_edge_key(v, nbrs[k % nbrs.size()].to);
}

/// Dead switches, dead hosts, dead links, and all three at once.
std::vector<Mask> masks_of(const Graph& g) {
  const auto& sw = g.switches();
  const auto& hs = g.hosts();
  const NodeId s0 = sw[sw.size() / 3];
  const NodeId s1 = sw[sw.size() - 1];
  const NodeId h0 = hs[1];
  const NodeId h1 = hs[hs.size() / 2];
  const EdgeKey l0 = link_of(g, sw[0], 1);
  const EdgeKey l1 = link_of(g, sw[sw.size() / 2], 0);
  return {
      {"one dead switch", {s0}, {}},
      {"two dead switches", {s0, s1}, {}},
      {"dead hosts", {h0, h1}, {}},
      {"dead links", {}, {l1, l0}},
      {"all three", {s1, h1}, {l0}},
  };
}

void check_fabric(const Graph& pristine, const std::string& fabric) {
  for (const Mask& mask : masks_of(pristine)) {
    SCOPED_TRACE(fabric + ", " + mask.name);
    std::vector<char> dead(static_cast<std::size_t>(pristine.num_nodes()), 0);
    for (const NodeId v : mask.dead_nodes) dead[static_cast<std::size_t>(v)] = 1;
    const Graph got = masked_copy(pristine, dead, mask.dead_edges);
    const Graph want = reference_copy(pristine, dead, mask.dead_edges);
    expect_same_graph(got, want);

    const AllPairs wide(got, /*allow_disconnected=*/true);
    std::unique_ptr<AllPairs> serial;
    serially([&]() noexcept {
      serial = std::make_unique<AllPairs>(got, /*allow_disconnected=*/true);
    });
    expect_scan_summaries(got, wide);
    expect_scan_summaries(got, *serial);

    const AllPairs ref(want, /*allow_disconnected=*/true);
    std::vector<NodeId> core;
    for (NodeId v = 0; v < got.num_nodes(); ++v) {
      if (wide.core_index(v) >= 0) core.push_back(v);
    }
    std::size_t paths = 0;
    std::size_t moved = 0;
    for (const NodeId u : core) {
      for (const NodeId v : core) {
        if (!ref.reachable(u, v)) continue;
        ++paths;
        if (wide.path(u, v) != ref.path(u, v)) ++moved;
      }
    }
    EXPECT_GT(paths, 0u);
    EXPECT_EQ(moved, 0u) << "of " << paths << " core paths";
  }
}

TEST(MaskedCopy, FatTreesMatchEdgeByEdgeReference) {
  for (const int k : {4, 8}) {
    check_fabric(build_fat_tree(k).graph, "fat-tree k=" + std::to_string(k));
  }
  Topology weighted = build_fat_tree(4);
  apply_uniform_delay_weights(weighted.graph, 5);
  check_fabric(weighted.graph, "weighted fat-tree k=4");
}

TEST(MaskedCopy, RelayHostFabricsMatchEdgeByEdgeReference) {
  check_fabric(build_bcube(3, 1).graph, "BCube(3,1)");
  check_fabric(build_dcell1(3).graph, "DCell1(3)");
}

// The order the copy must reproduce is not the pristine one: filtering
// each pristine list in place keeps the pristine order, which the
// edge-by-edge build changes on many nodes as soon as a switch dies.
TEST(MaskedCopy, EdgeOrderDiffersFromPristineOrder) {
  const Graph g = build_fat_tree(8).graph;
  std::vector<char> dead(static_cast<std::size_t>(g.num_nodes()), 0);
  dead[static_cast<std::size_t>(g.switches()[0])] = 1;
  const Graph copy = masked_copy(g, dead, {});
  std::size_t reordered = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<NodeId> kept;
    for (const Adjacency& a : g.neighbors(v)) {
      if (!dead[static_cast<std::size_t>(v)] &&
          !dead[static_cast<std::size_t>(a.to)]) {
        kept.push_back(a.to);
      }
    }
    std::vector<NodeId> got;
    for (const Adjacency& a : copy.neighbors(v)) got.push_back(a.to);
    if (got != kept) ++reordered;
  }
  EXPECT_GT(reordered, 0u);
}

}  // namespace
}  // namespace ppdc
