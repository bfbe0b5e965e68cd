// Algorithm 3's bound-ordered pair loop against the full loop it replaced.
//
// solve_top_dp tries each egress row's ingress candidates by ascending
// ingress attraction A and stops the row once (Λ·L + A) + B exceeds the
// best cost so far (L: n - 1 hops of min_switch_distance()). The result
// must be the full loop's bit for bit: placement, the bits of comm_cost
// and used_fallback. full_loop_top_dp below is that loop as it stood
// before the bound, n >= 3 only (n = 1 and 2 have their own scans).
// Equal flow rates make hop-metric cost ties common, so the tie-break
// (first pair in (egress, ingress) candidate order) is exercised too.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/cost_model.hpp"
#include "core/placement_dp.hpp"
#include "core/stroll_dp.hpp"
#include "fault/degraded.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"

namespace ppdc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<NodeId> full_loop_candidates(const std::vector<NodeId>& switches,
                                         int limit, auto&& key) {
  if (limit <= 0 || static_cast<std::size_t>(limit) >= switches.size()) {
    return switches;
  }
  std::vector<NodeId> out = switches;
  std::nth_element(out.begin(), out.begin() + limit, out.end(),
                   [&](NodeId a, NodeId b) { return key(a) < key(b); });
  out.resize(static_cast<std::size_t>(limit));
  return out;
}

/// solve_top_dp's n >= 3 pair loop without the bound: every (egress,
/// ingress) pair in candidate order, first strict-< minimum wins.
PlacementResult full_loop_top_dp(const CostModel& model, int n,
                                 const TopDpOptions& options) {
  const AllPairs& apsp = model.apsp();
  const auto& switches = model.placement_candidates();
  const bool cached = !model.candidates_restricted();
  StrollTableCache* cache = cached ? &StrollTableCache::of(apsp) : nullptr;
  const std::shared_ptr<const StrollMetric> metric =
      cached ? cache->metric()
             : std::make_shared<const StrollMetric>(apsp, switches);
  const std::vector<NodeId> egress_candidates = full_loop_candidates(
      switches, options.candidate_limit,
      [&](NodeId w) { return model.egress_attraction(w); });
  const std::vector<NodeId> ingress_candidates = full_loop_candidates(
      switches, options.candidate_limit,
      [&](NodeId w) { return model.ingress_attraction(w); });
  PlacementResult best;
  double best_cost = kInf;
  StrollResult stroll;
  Placement p;
  for (const NodeId egress : egress_candidates) {
    StrollTable table(cached
                          ? cache->levels(egress)
                          : std::make_shared<const StrollLevels>(metric, egress));
    for (const NodeId ingress : ingress_candidates) {
      if (ingress == egress) continue;
      table.find(ingress, n - 2, stroll);
      p.clear();
      p.push_back(ingress);
      p.insert(p.end(), stroll.placement.begin(), stroll.placement.end());
      p.push_back(egress);
      const double c = model.total_rate() * model.chain_cost(p) +
                       model.ingress_attraction(ingress) +
                       model.egress_attraction(egress);
      if (c < best_cost) {
        best_cost = c;
        best.placement = p;
        best.used_fallback = stroll.used_fallback;
      }
    }
  }
  if (best_cost == kInf && options.candidate_limit > 0) {
    return full_loop_top_dp(model, n, TopDpOptions{});
  }
  best.comm_cost = best_cost;
  return best;
}

void expect_same(const PlacementResult& got, const PlacementResult& want) {
  EXPECT_EQ(got.placement, want.placement);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.comm_cost),
            std::bit_cast<std::uint64_t>(want.comm_cost));
  EXPECT_EQ(got.used_fallback, want.used_fallback);
}

/// Unit rates on every flow whose endpoints `keep` accepts, 0 elsewhere
/// (the engine's quarantine of flows outside a degraded serving core).
std::vector<VmFlow> equal_rate_flows(const Topology& topo, int l,
                                     std::uint64_t seed, auto&& keep) {
  std::vector<VmFlow> flows = testing::random_flows(topo, l, seed);
  for (VmFlow& f : flows) f.rate = keep(f) ? 1.0 : 0.0;
  return flows;
}

/// Every n in 3..7 (as far as the universe allows), both candidate limits.
/// Returns how many solves ran.
int compare_all(const CostModel& cm) {
  int solves = 0;
  const auto universe = static_cast<int>(cm.placement_candidates().size());
  for (int n = 3; n <= std::min(7, universe); ++n) {
    for (const int limit : {0, 8}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " limit=" << limit);
      TopDpOptions opt;
      opt.candidate_limit = limit;
      expect_same(solve_top_dp(cm, n, opt), full_loop_top_dp(cm, n, opt));
      ++solves;
    }
  }
  return solves;
}

TEST(PairLoop, PristineFatTreesMatchFullLoop) {
  for (const int k : {4, 8}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const Topology topo = build_fat_tree(k);
    const AllPairs apsp(topo.graph);
    for (const int l : {1, 2, 3, 40}) {
      SCOPED_TRACE(::testing::Message() << "l=" << l);
      const auto flows = equal_rate_flows(topo, l, 3 + l, [](const VmFlow&) {
        return true;
      });
      const CostModel cm(apsp, flows);
      EXPECT_EQ(compare_all(cm), 10);
    }
  }
}

/// The fat-tree with pod `pod` powered off (every switch of its power
/// domain dead) and `cuts` more links cut, one per core switch, from the
/// first core switches' first uplinks.
struct Faults {
  std::vector<char> dead;
  std::vector<EdgeKey> cut;
};

Faults pod_and_links(const Topology& topo, int pod, int cuts) {
  const Graph& g = topo.graph;
  Faults f;
  f.dead.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  if (pod >= 0) {
    for (const NodeId sw :
         topo.power_domains[static_cast<std::size_t>(pod)].switches) {
      f.dead[static_cast<std::size_t>(sw)] = 1;
    }
  }
  for (const NodeId sw : g.switches()) {
    if (static_cast<int>(f.cut.size()) == cuts) break;
    if (f.dead[static_cast<std::size_t>(sw)]) continue;
    for (const Adjacency& a : g.neighbors(sw)) {
      if (g.is_switch(a.to) && !f.dead[static_cast<std::size_t>(a.to)]) {
        f.cut.push_back(make_edge_key(sw, a.to));
        break;
      }
    }
  }
  return f;
}

TEST(PairLoop, DegradedUniversesMatchFullLoop) {
  struct Scenario {
    int k, pod, cuts;
  };
  for (const Scenario sc :
       {Scenario{4, 0, 0}, Scenario{4, -1, 3}, Scenario{8, 1, 0},
        Scenario{8, -1, 6}, Scenario{8, 2, 4}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << sc.k << " pod=" << sc.pod
                                      << " cuts=" << sc.cuts);
    const Topology topo = build_fat_tree(sc.k);
    const Faults f = pod_and_links(topo, sc.pod, sc.cuts);
    const DegradedNetwork net(topo.graph, f.dead, f.cut);
    ASSERT_TRUE(net.core_can_host(7));
    for (const int l : {2, 3, 40}) {
      SCOPED_TRACE(::testing::Message() << "l=" << l);
      const auto flows =
          equal_rate_flows(topo, l, 7 + l, [&](const VmFlow& fl) {
            return net.in_core(fl.src_host) && net.in_core(fl.dst_host);
          });
      CostModel cm(net.apsp(), flows);
      cm.restrict_candidates(net.core_switches());
      EXPECT_EQ(compare_all(cm), 10);
    }
  }
}

// Five switches A-E joined by unit links in a clique and a sixth, F, a
// 1000-weight link away from A. A 6-VNF chain uses every switch, and
// with candidate_limit 2 both endpoints come from the clique, so F must
// sit inside the chain. Every stroll prefers the clique's cheap cycles to
// F until its edge budget runs out: each pair's stroll hits the growth
// cap and is completed greedily.
TEST(PairLoop, GrowthCapPairMatchesFullLoop) {
  Graph g;
  std::vector<NodeId> clique;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    clique.push_back(g.add_node(NodeKind::kSwitch, name));
  }
  for (std::size_t i = 0; i < clique.size(); ++i) {
    for (std::size_t j = i + 1; j < clique.size(); ++j) {
      g.add_edge(clique[i], clique[j], 1.0);
    }
  }
  const NodeId f = g.add_node(NodeKind::kSwitch, "F");
  g.add_edge(clique[0], f, 1000.0);
  const NodeId s = g.add_node(NodeKind::kHost, "src");
  const NodeId t = g.add_node(NodeKind::kHost, "dst");
  g.add_edge(s, clique[0], 1.0);
  g.add_edge(t, clique[1], 1.0);
  const AllPairs apsp(g);
  const std::vector<VmFlow> flows = {{s, t, 1.0, 0}, {s, t, 1.0, 0}};
  const CostModel cm(apsp, flows);
  TopDpOptions opt;
  opt.candidate_limit = 2;
  const PlacementResult got = solve_top_dp(cm, 6, opt);
  EXPECT_TRUE(got.used_fallback);
  EXPECT_NE(std::find(got.placement.begin() + 1, got.placement.end() - 1, f),
            got.placement.end() - 1);
  expect_same(got, full_loop_top_dp(cm, 6, opt));
}

}  // namespace
}  // namespace ppdc
