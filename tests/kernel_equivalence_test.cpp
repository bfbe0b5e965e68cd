// Bit-exact equivalence suite for the flattened hot kernels (DESIGN.md
// §11). The flat structure-of-arrays rewrite of StrollTable, its split
// into a shared unit-rate metric and cached level tables, and the
// blocked attraction rescans of CostModel were engineered to preserve
// floating-point results to the last ulp: every candidate argmin keeps
// the strict-< first-win tie-break of an increasing-index scan, and
// every accumulator adds its terms in the original flow (or group)
// order. This suite pins that contract with == comparisons against
//
//   * RefStrollTable / ref_solve_top_dp / ref_solve_tom_pareto — the
//     pre-flattening (seed) implementations, embedded here verbatim so
//     they stay compilable as the production code evolves;
//   * naive per-switch flow-order attraction sums for CostModel.
//
// Any EXPECT_EQ failure on a double below is a behaviour change, not
// noise: tolerances would defeat the purpose.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/frontier.hpp"
#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "core/stroll_dp.hpp"
#include "fault/degraded.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "topology/bcube.hpp"
#include "topology/dcell.hpp"
#include "topology/fat_tree.hpp"
#include "topology/weights.hpp"
#include "util/executor.hpp"
#include "util/indexed_vector.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Reference: the seed StrollTable (per-level IndexedVectors, linear-scan
// dedup, per-use metric products). Verbatim from the pre-flattening
// implementation, except that the n_distinct == 0 && s == t query returns
// the fixed single-node walk {s} — that bugfix changed the *contract*
// (walks never repeat consecutive nodes) and is regression-tested in
// stroll_dp_test.cpp, so the reference follows the fixed contract here.
// ---------------------------------------------------------------------------
class RefStrollTable {
 public:
  RefStrollTable(const AllPairs& apsp, NodeId destination, double rate = 1.0,
                 std::vector<NodeId> universe = {})
      : apsp_(&apsp), t_(destination), rate_(rate) {
    const Graph& g = apsp.graph();
    if (universe.empty()) {
      switches_ = IndexedVector<CandidateIdx, NodeId>(g.switches());
    } else {
      switches_ = IndexedVector<CandidateIdx, NodeId>(std::move(universe));
    }
    switch_index_.assign(static_cast<std::size_t>(g.num_nodes()),
                         CandidateIdx::invalid());
    for (const CandidateIdx i : switches_.ids()) {
      switch_index_[static_cast<std::size_t>(switches_[i])] = i;
    }
  }

  StrollResult find(NodeId s, int n_distinct) {
    const Graph& g = apsp_->graph();
    StrollResult out;
    if (n_distinct == 0) {
      if (s == t_) {
        out.cost = 0.0;
        out.walk = {s};
        out.edges_used = 0;
        return out;
      }
      out.cost = metric(s, t_);
      out.walk = {s, t_};
      out.edges_used = 1;
      return out;
    }

    const int r_cap = n_distinct + 1 + std::max(16, n_distinct * 2);
    std::vector<NodeId> best_partial;

    for (int r = n_distinct + 1; r <= r_cap; ++r) {
      extend(r);
      const auto [total, first_hop] = source_row(s, r);
      if (total == kInf) continue;

      std::vector<NodeId> walk{s};
      std::vector<NodeId> distinct;
      NodeId cur = first_hop;
      int budget = r - 1;
      while (true) {
        walk.push_back(cur);
        if (cur != s && cur != t_ && g.is_switch(cur) &&
            std::find(distinct.begin(), distinct.end(), cur) ==
                distinct.end()) {
          distinct.push_back(cur);
        }
        if (budget == 0) break;
        const CandidateIdx row =
            switch_index_[static_cast<std::size_t>(cur)];
        cur = succ_[static_cast<std::size_t>(budget - 1)][row];
        --budget;
      }

      if (static_cast<int>(distinct.size()) >
          static_cast<int>(best_partial.size())) {
        best_partial = distinct;
      }
      if (static_cast<int>(distinct.size()) >= n_distinct) {
        out.cost = total;
        out.walk = std::move(walk);
        distinct.resize(static_cast<std::size_t>(n_distinct));
        out.placement = std::move(distinct);
        out.edges_used = r;
        return out;
      }
    }

    out.used_fallback = true;
    std::vector<NodeId> seq = best_partial;
    while (static_cast<int>(seq.size()) < n_distinct) {
      const NodeId from = seq.empty() ? s : seq.back();
      double best_d = kInf;
      NodeId best_sw = kInvalidNode;
      for (const NodeId w : switches_) {
        if (w == s || w == t_) continue;
        if (std::find(seq.begin(), seq.end(), w) != seq.end()) continue;
        const double d = apsp_->cost(from, w);
        if (d < best_d) {
          best_d = d;
          best_sw = w;
        }
      }
      seq.push_back(best_sw);
    }
    out.walk = {s};
    out.walk.insert(out.walk.end(), seq.begin(), seq.end());
    out.walk.push_back(t_);
    out.cost = 0.0;
    for (std::size_t i = 0; i + 1 < out.walk.size(); ++i) {
      out.cost += metric(out.walk[i], out.walk[i + 1]);
    }
    out.placement = std::move(seq);
    out.edges_used = static_cast<int>(out.walk.size()) - 1;
    return out;
  }

  /// Seed level e (costs at the table's rate, successors), built on
  /// demand: the reference for entry-by-entry level comparisons.
  const std::vector<double>& level_cost(int e) {
    extend(e);
    return cost_[static_cast<std::size_t>(e - 1)].raw();
  }
  const std::vector<NodeId>& level_succ(int e) {
    extend(e);
    return succ_[static_cast<std::size_t>(e - 1)].raw();
  }

  bool satisfies_theorem3(const StrollResult& result) const {
    if (result.used_fallback || result.walk.size() < 2) return false;
    const int r = result.edges_used;
    if (r > static_cast<int>(cost_.size())) return false;
    for (int i = 1; i < r; ++i) {
      const NodeId u = result.walk[static_cast<std::size_t>(i)];
      const CandidateIdx row = switch_index_[static_cast<std::size_t>(u)];
      if (!row.valid()) return false;
      const auto& level = cost_[static_cast<std::size_t>(r - i - 1)];
      const double suffix = level[row];
      const double global_min =
          *std::min_element(level.begin(), level.end());
      if (suffix > global_min + 1e-9) return false;
    }
    return true;
  }

 private:
  void extend(int e_max) {
    const std::size_t rows = switches_.size();
    while (static_cast<int>(cost_.size()) < e_max) {
      const int e = static_cast<int>(cost_.size()) + 1;
      IndexedVector<CandidateIdx, double> ce(rows, kInf);
      IndexedVector<CandidateIdx, NodeId> se(rows, kInvalidNode);
      if (e == 1) {
        for (const CandidateIdx i : switches_.ids()) {
          const NodeId u = switches_[i];
          if (u == t_) continue;
          ce[i] = metric(u, t_);
          se[i] = t_;
        }
      } else {
        const auto& prev_cost = cost_.back();
        const auto& prev_succ = succ_.back();
        for (const CandidateIdx i : switches_.ids()) {
          const NodeId u = switches_[i];
          double best = kInf;
          NodeId best_w = kInvalidNode;
          for (const CandidateIdx k : switches_.ids()) {
            const NodeId w = switches_[k];
            if (w == u || w == t_) continue;
            if (prev_succ[k] == u) continue;
            if (prev_cost[k] == kInf) continue;
            const double cand = metric(u, w) + prev_cost[k];
            if (cand < best) {
              best = cand;
              best_w = w;
            }
          }
          ce[i] = best;
          se[i] = best_w;
        }
      }
      cost_.push_back(std::move(ce));
      succ_.push_back(std::move(se));
    }
  }

  std::pair<double, NodeId> source_row(NodeId s, int e) const {
    if (e == 1) {
      if (s == t_) return {kInf, kInvalidNode};
      return {metric(s, t_), t_};
    }
    const auto& prev_cost = cost_[static_cast<std::size_t>(e - 2)];
    const auto& prev_succ = succ_[static_cast<std::size_t>(e - 2)];
    double best = kInf;
    NodeId best_w = kInvalidNode;
    for (const CandidateIdx k : switches_.ids()) {
      const NodeId w = switches_[k];
      if (w == s || w == t_) continue;
      if (prev_succ[k] == s) continue;
      if (prev_cost[k] == kInf) continue;
      const double cand = metric(s, w) + prev_cost[k];
      if (cand < best) {
        best = cand;
        best_w = w;
      }
    }
    return {best, best_w};
  }

  double metric(NodeId u, NodeId v) const { return rate_ * apsp_->cost(u, v); }

  const AllPairs* apsp_;
  NodeId t_;
  double rate_;
  IndexedVector<CandidateIdx, NodeId> switches_;
  std::vector<CandidateIdx> switch_index_;
  std::vector<IndexedVector<CandidateIdx, double>> cost_;
  std::vector<IndexedVector<CandidateIdx, NodeId>> succ_;
};

// ---------------------------------------------------------------------------
// Reference: the seed Algorithm 3 driver, on top of RefStrollTable with
// per-solve Λ-scaled tables. solve_top_dp now queries unit-rate tables
// from the process-wide cache; what this pins is that neither the stroll
// engine underneath nor the cache can change any placement or cost bit.
// ---------------------------------------------------------------------------
std::vector<NodeId> ref_top_candidates(const std::vector<NodeId>& switches,
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

PlacementResult ref_solve_top_dp(const CostModel& model, int n,
                                 const TopDpOptions& options = {},
                                 bool unit_rate_tables = false) {
  const AllPairs& apsp = model.apsp();
  const auto& switches = model.placement_candidates();
  PlacementResult best;
  double best_cost = kInf;

  if (n == 1) {
    for (const NodeId w : switches) {
      const double c =
          model.ingress_attraction(w) + model.egress_attraction(w);
      if (c < best_cost) {
        best_cost = c;
        best.placement = {w};
      }
    }
    best.comm_cost = best_cost;
    return best;
  }

  if (n == 2) {
    const std::vector<NodeId> ingress_candidates = ref_top_candidates(
        switches, options.candidate_limit,
        [&](NodeId w) { return model.ingress_attraction(w); });
    const std::vector<NodeId> egress_candidates = ref_top_candidates(
        switches, options.candidate_limit,
        [&](NodeId w) { return model.egress_attraction(w); });
    for (const NodeId a : ingress_candidates) {
      for (const NodeId b : egress_candidates) {
        if (a == b) continue;
        const double c = model.ingress_attraction(a) +
                         model.total_rate() * apsp.cost(a, b) +
                         model.egress_attraction(b);
        if (c < best_cost) {
          best_cost = c;
          best.placement = {a, b};
        }
      }
    }
    if (best_cost == kInf && options.candidate_limit > 0) {
      return ref_solve_top_dp(model, n, TopDpOptions{});
    }
    best.comm_cost = best_cost;
    return best;
  }

  const double rate = model.total_rate() > 0.0 && !unit_rate_tables
                          ? model.total_rate()
                          : 1.0;
  const std::vector<NodeId> egress_candidates = ref_top_candidates(
      switches, options.candidate_limit,
      [&](NodeId w) { return model.egress_attraction(w); });
  const std::vector<NodeId> ingress_candidates = ref_top_candidates(
      switches, options.candidate_limit,
      [&](NodeId w) { return model.ingress_attraction(w); });
  for (const NodeId egress : egress_candidates) {
    RefStrollTable table(apsp, egress, rate, switches);
    for (const NodeId ingress : ingress_candidates) {
      if (ingress == egress) continue;
      StrollResult stroll = table.find(ingress, n - 2);
      Placement p;
      p.reserve(static_cast<std::size_t>(n));
      p.push_back(ingress);
      p.insert(p.end(), stroll.placement.begin(), stroll.placement.end());
      p.push_back(egress);
      const double c = model.communication_cost(p);
      if (c < best_cost) {
        best_cost = c;
        best.placement = std::move(p);
        best.used_fallback = stroll.used_fallback;
      }
    }
  }
  if (best_cost == kInf && options.candidate_limit > 0) {
    return ref_solve_top_dp(model, n, TopDpOptions{});
  }
  best.comm_cost = best_cost;
  return best;
}

// Reference Algorithm 5 on top of ref_solve_top_dp and the public
// frontier API.
MigrationResult ref_solve_tom_pareto(
    const CostModel& model, const Placement& from, double mu,
    const ParetoMigrationOptions& options = {}) {
  const PlacementResult fresh =
      ref_solve_top_dp(model, static_cast<int>(from.size()),
                       options.placement);
  const MigrationFrontiers frontiers(model.apsp(), from, fresh.placement);

  MigrationResult best;
  double best_total = kInf;
  std::vector<FrontierPoint> points;
  auto consider = [&](const Placement& fr, bool record_point) {
    const bool free = is_collision_free(fr);
    const double cb = model.migration_cost(from, fr, mu);
    const double ca = model.total_rate() * model.chain_cost(fr) +
                      model.ingress_attraction(fr.front()) +
                      model.egress_attraction(fr.back());
    if (record_point) {
      points.push_back(FrontierPoint{cb, ca, free});
    }
    if (free && cb + ca < best_total) {
      best_total = cb + ca;
      best.migration = fr;
      best.migration_cost = cb;
      best.comm_cost = ca;
    }
  };

  for (const Placement& fr : frontiers.all_parallel_frontiers()) {
    consider(fr, /*record_point=*/true);
  }
  if (options.exhaustive_frontiers &&
      frontiers.frontier_count() <= kFrontierScanLimit) {
    frontiers.for_each_frontier(kFrontierScanLimit, [&](const Placement& fr) {
      consider(fr, /*record_point=*/false);
    });
  }

  best.total_cost = best_total;
  int moved = 0;
  for (std::size_t j = 0; j < from.size(); ++j) {
    if (from[j] != best.migration[j]) ++moved;
  }
  best.vnfs_moved = moved;
  best.frontier_points = std::move(points);
  return best;
}

// ---------------------------------------------------------------------------
// Comparison helpers: every double compares with ==.
// ---------------------------------------------------------------------------
void expect_stroll_eq(const StrollResult& got, const StrollResult& want) {
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.walk, want.walk);
  EXPECT_EQ(got.placement, want.placement);
  EXPECT_EQ(got.edges_used, want.edges_used);
  EXPECT_EQ(got.used_fallback, want.used_fallback);
}

void expect_placement_eq(const PlacementResult& got,
                         const PlacementResult& want) {
  EXPECT_EQ(got.placement, want.placement);
  EXPECT_EQ(got.comm_cost, want.comm_cost);
  EXPECT_EQ(got.used_fallback, want.used_fallback);
}

void expect_migration_eq(const MigrationResult& got,
                         const MigrationResult& want) {
  EXPECT_EQ(got.migration, want.migration);
  EXPECT_EQ(got.total_cost, want.total_cost);
  EXPECT_EQ(got.migration_cost, want.migration_cost);
  EXPECT_EQ(got.comm_cost, want.comm_cost);
  EXPECT_EQ(got.vnfs_moved, want.vnfs_moved);
  ASSERT_EQ(got.frontier_points.size(), want.frontier_points.size());
  for (std::size_t i = 0; i < got.frontier_points.size(); ++i) {
    EXPECT_EQ(got.frontier_points[i].migration_cost,
              want.frontier_points[i].migration_cost);
    EXPECT_EQ(got.frontier_points[i].comm_cost,
              want.frontier_points[i].comm_cost);
    EXPECT_EQ(got.frontier_points[i].collision_free,
              want.frontier_points[i].collision_free);
  }
}

std::vector<VmFlow> workload(const Topology& topo, int l,
                             std::uint64_t seed) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  Rng rng(seed);
  return generate_vm_flows(topo, cfg, rng);
}

// ---------------------------------------------------------------------------
// DP-Stroll equivalence: fat-trees k ∈ {4, 8}, non-unit rates, host and
// switch sources, n from the degenerate 0 up past the metric-closure
// sweet spot. Queries run in identical order on both tables so the lazily
// grown DP state matches level by level.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, StrollFindMatchesSeed) {
  for (const int k : {4, 8}) {
    const Topology topo = build_fat_tree(k);
    const AllPairs apsp(topo.graph);
    const auto& switches = topo.graph.switches();
    const auto& hosts = topo.graph.hosts();
    const std::vector<NodeId> destinations = {
        switches.front(), switches[switches.size() / 2]};
    const std::vector<NodeId> sources = {hosts[1], hosts.back(),
                                         switches[3]};
    for (const double rate : {0.75, 3.5}) {
      for (const NodeId t : destinations) {
        StrollTable cur(apsp, t, rate);
        RefStrollTable ref(apsp, t, rate);
        for (const NodeId s : sources) {
          for (const int n : {0, 1, 2, 3, 5}) {
            SCOPED_TRACE(::testing::Message()
                         << "k=" << k << " rate=" << rate << " t=" << t
                         << " s=" << s << " n=" << n);
            const StrollResult got = cur.find(s, n);
            const StrollResult want = ref.find(s, n);
            expect_stroll_eq(got, want);
            EXPECT_EQ(cur.satisfies_theorem3(got),
                      ref.satisfies_theorem3(want));
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, RestrictedUniverseStrollMatchesSeed) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& switches = topo.graph.switches();
  std::vector<NodeId> universe;
  for (std::size_t i = 0; i < switches.size(); i += 2) {
    universe.push_back(switches[i]);
  }
  const NodeId t = universe.back();
  StrollTable cur(apsp, t, 1.25, universe);
  RefStrollTable ref(apsp, t, 1.25, universe);
  for (const NodeId s : {topo.graph.hosts()[0], universe.front()}) {
    for (const int n : {0, 1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "s=" << s << " n=" << n);
      const StrollResult got = cur.find(s, n);
      const StrollResult want = ref.find(s, n);
      expect_stroll_eq(got, want);
      // Every intermediate must come from the restricted universe.
      for (std::size_t i = 1; i + 1 < got.walk.size(); ++i) {
        EXPECT_NE(std::find(universe.begin(), universe.end(), got.walk[i]),
                  universe.end());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The greedy cap fallback, exercised for real: switches A, B, C form a
// unit-weight triangle, so the anti-backtrack rule still allows the
// 3-cycle A→B→C→A and the min-cost r-edge stroll oscillates inside it for
// every r — the far switch F (weight 1000) never enters an optimal
// stroll. Requesting 4 distinct switches therefore exhausts the r cap,
// and the greedy completion must deliver F (flagged via used_fallback).
// Both implementations must agree bit-exactly on the completed result.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, FallbackCapPathMatchesSeed) {
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch, "A");
  const NodeId b = g.add_node(NodeKind::kSwitch, "B");
  const NodeId c = g.add_node(NodeKind::kSwitch, "C");
  const NodeId f = g.add_node(NodeKind::kSwitch, "F");
  const NodeId s = g.add_node(NodeKind::kHost, "src");
  const NodeId t = g.add_node(NodeKind::kHost, "dst");
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  g.add_edge(c, a, 1.0);
  g.add_edge(a, f, 1000.0);
  g.add_edge(s, a, 1.0);
  g.add_edge(t, a, 1.0);
  const AllPairs apsp(g);

  StrollTable cur(apsp, t, 2.0);
  RefStrollTable ref(apsp, t, 2.0);
  const StrollResult got = cur.find(s, 4);
  const StrollResult want = ref.find(s, 4);

  EXPECT_TRUE(got.used_fallback);
  expect_stroll_eq(got, want);
  ASSERT_EQ(got.placement.size(), 4u);
  EXPECT_NE(std::find(got.placement.begin(), got.placement.end(), f),
            got.placement.end());
  // The walk is s, <placement switches>, t with the recomputed cost.
  ASSERT_EQ(got.walk.size(), 6u);
  EXPECT_EQ(got.walk.front(), s);
  EXPECT_EQ(got.walk.back(), t);
  double cost = 0.0;
  for (std::size_t i = 0; i + 1 < got.walk.size(); ++i) {
    cost += 2.0 * apsp.cost(got.walk[i], got.walk[i + 1]);
  }
  EXPECT_EQ(got.cost, cost);
  EXPECT_FALSE(cur.satisfies_theorem3(got));
}

// ---------------------------------------------------------------------------
// The source-row readout is a lane-parallel argmin: each lane keeps its
// first strict-< minimum and the lanes merge by (cost, row). It must
// return the bits of the increasing-row scan below, the pre-vector
// production loop. The fat-tree k=4 has 20 rows, five full 4-row steps;
// k=6 has 45, which ends in a 1-row tail. Every node is a source:
// hosts, switches, the destination itself (whose e=2 level is all +inf,
// since every level-1 successor is s), and rows whose successor is s.
// ---------------------------------------------------------------------------
std::pair<double, NodeId> scan_source_row(const StrollMetric& m, NodeId t,
                                          const StrollLevels::Level& prev,
                                          NodeId s) {
  const AllPairs::CoreRow srow = m.apsp().cost_row(s);
  double best = kInf;
  NodeId best_w = kInvalidNode;
  for (std::size_t k = 0; k < m.rows(); ++k) {
    const NodeId w = m.switches()[k];
    const bool ok =
        m.members()[k] && w != s && w != t && prev.succ[k] != s;
    const double cand =
        ok ? (srow.weight + srow.cost[k]) + prev.cost[k] : kInf;
    if (cand < best) {
      best = cand;
      best_w = w;
    }
  }
  return {best, best_w};
}

TEST(KernelEquivalence, SourceRowMatchesRowScan) {
  constexpr int kEdges = 6;
  for (const int k : {4, 6}) {
    const Topology topo = build_fat_tree(k);
    const AllPairs apsp(topo.graph);
    const auto& switches = topo.graph.switches();
    std::vector<NodeId> restricted;
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (i % 3 != 1) restricted.push_back(switches[i]);
    }
    for (const bool full : {true, false}) {
      const std::vector<NodeId> universe =
          full ? std::vector<NodeId>{} : restricted;
      const auto metric = std::make_shared<const StrollMetric>(apsp, universe);
      for (const NodeId t : {restricted[1], topo.graph.hosts()[2]}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " full=" << full << " t=" << t);
        const auto levels = std::make_shared<const StrollLevels>(metric, t);
        StrollTable table(levels);
        RefStrollTable ref(apsp, t, 1.0, universe);
        // Sources: a host, a universe switch, a switch outside a
        // restricted universe, and the destination.
        for (const NodeId s : {topo.graph.hosts()[0], restricted[0],
                               switches[1], t}) {
          for (const int n : {1, 2, 3}) {
            SCOPED_TRACE(::testing::Message() << "s=" << s << " n=" << n);
            expect_stroll_eq(table.find(s, n), ref.find(s, n));
          }
        }
        // Fetch kEdges - 1 levels, then read every source at every budget.
        ASSERT_GE(table.find(topo.graph.hosts()[0], kEdges - 1).edges_used,
                  kEdges);
        std::vector<StrollLevels::Level> lv;
        levels->at_least(kEdges - 1, lv);
        int successor_is_source = 0;
        int all_inf = 0;
        for (NodeId s = 0; s < apsp.num_nodes(); ++s) {
          const std::pair<double, NodeId> direct =
              s == t ? std::pair{kInf, kInvalidNode}
                     : std::pair{apsp.cost(s, t), t};
          ASSERT_EQ(table.source_row(s, 1), direct);
          for (int e = 2; e <= kEdges; ++e) {
            const auto& prev = lv[static_cast<std::size_t>(e - 2)];
            const auto got = table.source_row(s, e);
            ASSERT_EQ(got, scan_source_row(*metric, t, prev, s))
                << "s=" << s << " e=" << e;
            successor_is_source += static_cast<int>(
                std::count(prev.succ, prev.succ + metric->rows(), s));
            if (got.second == kInvalidNode) {
              ++all_inf;
              EXPECT_EQ(got.first, kInf);
            }
          }
        }
        EXPECT_GT(successor_is_source, 0);
        EXPECT_GT(all_inf, 0);
        EXPECT_EQ(table.source_row(t, 2), (std::pair{kInf, kInvalidNode}));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact two-way ties at the minimum. Leaf switches L0..L8 hang off the
// destination switch H (row 9), and a host s hangs off H with weight 1,
// so the 2-edge stroll s, Li, H costs 1 + 2·wi. Exactly Li and Lj have
// weight 1, all other leaves weight 2: rows i < j tie at the minimum 3,
// and row i, the first, must win wherever the two fall among the lanes,
// the 2-row tail included.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, SourceRowTieGoesToFirstRow) {
  constexpr int kLeaves = 9;
  for (int i = 0; i < kLeaves; ++i) {
    for (int j = i + 1; j < kLeaves; ++j) {
      SCOPED_TRACE(::testing::Message() << "tie rows " << i << ", " << j);
      Graph g;
      std::vector<NodeId> leaf;
      for (int x = 0; x < kLeaves; ++x) {
        leaf.push_back(g.add_node(NodeKind::kSwitch, "L"));
      }
      const NodeId h = g.add_node(NodeKind::kSwitch, "H");
      const NodeId s = g.add_node(NodeKind::kHost, "s");
      for (int x = 0; x < kLeaves; ++x) {
        g.add_edge(leaf[static_cast<std::size_t>(x)], h,
                   x == i || x == j ? 1.0 : 2.0);
      }
      g.add_edge(s, h, 1.0);
      const AllPairs apsp(g);
      StrollTable table(apsp, h);
      RefStrollTable ref(apsp, h);
      const StrollResult got = table.find(s, 1);
      expect_stroll_eq(got, ref.find(s, 1));
      EXPECT_EQ(got.placement,
                std::vector<NodeId>{leaf[static_cast<std::size_t>(i)]});
      EXPECT_EQ(table.source_row(s, 2),
                (std::pair{3.0, leaf[static_cast<std::size_t>(i)]}));
    }
  }
}

// ---------------------------------------------------------------------------
// A warm table reads a switch source's r-edge answer from its cell of
// level r instead of scanning source_row(s, r). The two must agree bit
// for bit for every switch source — universe members or not, the
// destination itself included — at every budget, all-+inf cells too: on
// fat-trees k=4 and k=6, on a weighted fat-tree (whose columns are not
// its rows), each over every switch and over a restricted universe.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, NextLevelRowMatchesSourceRow) {
  constexpr int kEdges = 8;
  struct Fabric {
    int k;
    std::uint64_t weight_seed;  ///< 0: the hop metric
  };
  for (const Fabric f : {Fabric{4, 0}, Fabric{6, 0}, Fabric{4, 9}}) {
    Topology topo = build_fat_tree(f.k);
    if (f.weight_seed != 0) {
      apply_uniform_delay_weights(topo.graph, f.weight_seed);
    }
    const AllPairs apsp(topo.graph);
    const auto& switches = topo.graph.switches();
    if (f.weight_seed != 0) {
      std::size_t asymmetric = 0;
      for (const NodeId u : switches) {
        for (const NodeId v : switches) {
          asymmetric += apsp.cost(u, v) != apsp.cost(v, u) ? 1 : 0;
        }
      }
      EXPECT_GT(asymmetric, 0u);
    }
    std::vector<NodeId> restricted;
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (i % 3 != 1) restricted.push_back(switches[i]);
    }
    for (const bool full : {true, false}) {
      const std::vector<NodeId> universe =
          full ? std::vector<NodeId>{} : restricted;
      const auto metric = std::make_shared<const StrollMetric>(apsp, universe);
      // A universe switch, a switch outside a restricted universe, a host.
      for (const NodeId t :
           {restricted[1], switches[1], topo.graph.hosts()[2]}) {
        SCOPED_TRACE(::testing::Message() << "k=" << f.k << " weights="
                                          << f.weight_seed << " full=" << full
                                          << " t=" << t);
        const auto levels = std::make_shared<const StrollLevels>(metric, t);
        StrollTable table(levels);
        // A host query scans source_row, so the table fetches kEdges - 1
        // levels; level kEdges comes straight from the shared levels.
        ASSERT_GE(table.find(topo.graph.hosts()[0], kEdges - 1).edges_used,
                  kEdges);
        std::vector<StrollLevels::Level> lv;
        levels->at_least(kEdges, lv);
        int non_members = 0;
        int all_inf = 0;
        for (const NodeId s : switches) {
          const auto ks = static_cast<std::size_t>(metric->row_of(s).value());
          non_members += metric->members()[ks] ? 0 : 1;
          for (int e = 1; e <= kEdges; ++e) {
            const StrollLevels::Level& level =
                lv[static_cast<std::size_t>(e - 1)];
            const std::pair<double, NodeId> want = table.source_row(s, e);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(level.cost[ks]),
                      std::bit_cast<std::uint64_t>(want.first))
                << "s=" << s << " e=" << e;
            ASSERT_EQ(level.succ[ks], want.second) << "s=" << s << " e=" << e;
            all_inf += want.second == kInvalidNode ? 1 : 0;
          }
        }
        EXPECT_EQ(non_members > 0, !full);
        if (topo.graph.is_switch(t)) {
          // Every level-1 successor is t, so t has no 2-edge stroll.
          EXPECT_EQ(table.source_row(t, 2), (std::pair{kInf, kInvalidNode}));
          EXPECT_GT(all_inf, 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Warm and cold tables. Once an earlier solve has built a destination's
// levels, a switch source reads its answer from level r; a fresh fabric's
// tables scan source_row instead. Both must give the same placements,
// costs and fallback flags, bit for bit: for Algorithm 3 and the Pareto
// migration that calls it, after warming at the query's own chain length
// (the readout builds level r) and at another (more or fewer levels than
// the query reads), and per table for every switch source, queries that
// need an r+1 round and the cap-hit fallback included.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, WarmAndColdTablesGiveSameResults) {
  const Topology topo = build_fat_tree(8);
  const auto flows = workload(topo, 200, 41);
  // Reversed rates: the traffic shift that makes Pareto migration move.
  auto shifted = flows;
  std::vector<double> rates = rates_of(flows);
  std::reverse(rates.begin(), rates.end());
  set_rates(shifted, rates);
  struct Case {
    int n;
    std::vector<int> warm_up;  ///< earlier solves on the warm fabric
  };
  for (const Case& c : {Case{5, {5}}, Case{5, {5, 3}}, Case{5, {7}},
                        Case{7, {3}}, Case{3, {7, 5}}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.n);
    const AllPairs warm_apsp(topo.graph);
    const CostModel warm(warm_apsp, flows);
    for (const int n : c.warm_up) solve_top_dp(warm, n);
    // Each cold solve runs on a fabric of its own, whose cache is empty.
    const auto cold = [&](const std::vector<VmFlow>& fl, auto&& solve) {
      const AllPairs cold_apsp(topo.graph);
      return solve(CostModel(cold_apsp, fl));
    };
    const PlacementResult got = solve_top_dp(warm, c.n);
    expect_placement_eq(got, cold(flows, [&](const CostModel& m) {
                          return solve_top_dp(m, c.n);
                        }));
    TopDpOptions pruned;
    pruned.candidate_limit = 12;
    expect_placement_eq(solve_top_dp(warm, c.n, pruned),
                        cold(flows, [&](const CostModel& m) {
                          return solve_top_dp(m, c.n, pruned);
                        }));
    // Same fabric, so the same warm tables, under the shifted traffic.
    const CostModel warm_shifted(warm_apsp, shifted);
    for (const double mu : {0.0, 1e4}) {
      SCOPED_TRACE(::testing::Message() << "mu=" << mu);
      expect_migration_eq(solve_tom_pareto(warm_shifted, got.placement, mu),
                          cold(shifted, [&](const CostModel& m) {
                            return solve_tom_pareto(m, got.placement, mu);
                          }));
    }
  }

  // Per table: a view over levels an earlier host query built against a
  // fresh private table, for every switch source.
  const Topology small = build_fat_tree(4);
  const AllPairs apsp(small.graph);
  const auto& sw = small.graph.switches();
  int extra_rounds = 0;
  for (const NodeId t : {sw[3], small.graph.hosts()[1]}) {
    for (const int n : {2, 4, 6, 9}) {
      SCOPED_TRACE(::testing::Message() << "t=" << t << " n=" << n);
      const auto shared = std::make_shared<const StrollLevels>(
          std::make_shared<const StrollMetric>(apsp), t);
      StrollTable(shared).find(small.graph.hosts()[0], n);
      StrollTable warm(shared, 1.5);
      for (const NodeId s : sw) {
        if (s == t) continue;
        StrollTable cold(apsp, t, 1.5);
        const StrollResult got = warm.find(s, n);
        expect_stroll_eq(got, cold.find(s, n));
        extra_rounds += got.edges_used > n + 1 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(extra_rounds, 0);

  // The cap-hit fallback from a switch source (the triangle of
  // FallbackCapPathMatchesSeed, entered from switch S): every round is
  // read from a warm level and none covers F.
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch, "A");
  const NodeId b = g.add_node(NodeKind::kSwitch, "B");
  const NodeId cc = g.add_node(NodeKind::kSwitch, "C");
  const NodeId f = g.add_node(NodeKind::kSwitch, "F");
  const NodeId s = g.add_node(NodeKind::kSwitch, "S");
  const NodeId t = g.add_node(NodeKind::kHost, "dst");
  g.add_edge(a, b, 1.0);
  g.add_edge(b, cc, 1.0);
  g.add_edge(cc, a, 1.0);
  g.add_edge(a, f, 1000.0);
  g.add_edge(s, a, 1.0);
  g.add_edge(t, a, 1.0);
  const AllPairs tri(g);
  const auto shared = std::make_shared<const StrollLevels>(
      std::make_shared<const StrollMetric>(tri), t);
  StrollTable(shared).find(s, 4);
  StrollTable warm(shared, 2.0);
  StrollTable cold(tri, t, 2.0);
  const StrollResult got = warm.find(s, 4);
  EXPECT_TRUE(got.used_fallback);
  expect_stroll_eq(got, cold.find(s, 4));
  expect_stroll_eq(got, RefStrollTable(tri, t, 2.0).find(s, 4));
}

// ---------------------------------------------------------------------------
// Algorithm 3 equivalence across chain lengths (all three n branches),
// candidate pruning, and restricted candidate universes.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, PlacementDpMatchesSeed) {
  struct Scenario {
    int k, l;
    std::uint64_t seed;
  };
  for (const Scenario sc : {Scenario{4, 37, 5}, Scenario{8, 200, 11}}) {
    const Topology topo = build_fat_tree(sc.k);
    const AllPairs apsp(topo.graph);
    const auto flows = workload(topo, sc.l, sc.seed);
    const CostModel cm(apsp, flows);
    for (const int n : {1, 2, 3, 5, 7}) {
      for (const int limit : {0, 6}) {
        SCOPED_TRACE(::testing::Message() << "k=" << sc.k << " n=" << n
                                          << " limit=" << limit);
        TopDpOptions opt;
        opt.candidate_limit = limit;
        expect_placement_eq(solve_top_dp(cm, n, opt),
                            ref_solve_top_dp(cm, n, opt));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Weighted fabrics: the one intended numeric change. The stroll DP sums
// unit-rate distances and scales the total once, where the seed summed
// rate-scaled terms. Scaling cannot move an argmin in exact arithmetic,
// and on hop metrics (every test above) the rounded sums agree too. On
// weighted metrics a walk and its reversal around a cycle cost the same
// in exact arithmetic, and which of them the rounded scaled sums prefer
// varies with the rate — so the seed's walk could change with Λ alone.
// The unit-rate DP equals the seed DP run at rate 1, bit for bit, and
// scales exactly.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, WeightedFabricMatchesSeedAtUnitRate) {
  for (const std::uint64_t weight_seed : {3u, 9u}) {
    Topology topo = build_fat_tree(4);
    apply_uniform_delay_weights(topo.graph, weight_seed);
    const AllPairs apsp(topo.graph);
    const auto& switches = topo.graph.switches();
    const NodeId t = switches[7];
    StrollTable unit(apsp, t);
    StrollTable scaled(apsp, t, 1.7);
    RefStrollTable ref(apsp, t);
    for (const NodeId s : {topo.graph.hosts()[3], switches[0]}) {
      for (const int n : {1, 3, 6}) {
        SCOPED_TRACE(::testing::Message() << "weights=" << weight_seed
                                          << " s=" << s << " n=" << n);
        const StrollResult got = unit.find(s, n);
        expect_stroll_eq(got, ref.find(s, n));
        const StrollResult at_rate = scaled.find(s, n);
        EXPECT_EQ(at_rate.walk, got.walk);
        EXPECT_EQ(at_rate.cost, 1.7 * got.cost);
      }
    }
    const auto flows = workload(topo, 80, 31);
    const CostModel cm(apsp, flows);
    for (const int n : {3, 5, 7}) {
      SCOPED_TRACE(::testing::Message() << "weights=" << weight_seed
                                        << " n=" << n);
      expect_placement_eq(solve_top_dp(cm, n),
                          ref_solve_top_dp(cm, n, {}, /*unit_rate_tables=*/true));
    }
  }
}

// ---------------------------------------------------------------------------
// Level tables, entry by entry: every cost and successor of levels 1..L
// must equal the seed's row-by-row recurrence bit for bit. The level
// kernel streams metric columns, so the fabrics below are the ones where
// a column is not a row: weighted metrics (c(u,v) and c(v,u) differ in
// the last bits), restricted universes that mask candidates, and a
// partitioned fabric with +inf entries and kInvalidNode successors.
// ---------------------------------------------------------------------------
struct LevelCounts {
  std::size_t infinite = 0;  ///< +inf costs seen in the reference
  std::size_t no_succ = 0;   ///< kInvalidNode successors seen
};

LevelCounts expect_levels_eq(const AllPairs& apsp, NodeId t,
                             const std::vector<NodeId>& universe,
                             int levels) {
  const StrollLevels cur(std::make_shared<const StrollMetric>(apsp, universe),
                         t);
  RefStrollTable ref(apsp, t, 1.0, universe);
  // The seed's row i is universe switch i; ours is that switch's row.
  const std::vector<NodeId>& rows =
      universe.empty() ? apsp.graph().switches() : universe;
  std::vector<StrollLevels::Level> got;
  cur.at_least(levels, got);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(levels));
  LevelCounts counts;
  for (int e = 1; e <= levels; ++e) {
    const std::vector<double>& want_cost = ref.level_cost(e);
    const std::vector<NodeId>& want_succ = ref.level_succ(e);
    const StrollLevels::Level& level = got[static_cast<std::size_t>(e - 1)];
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want_cost.size(); ++i) {
      const auto row =
          static_cast<std::size_t>(cur.metric().row_of(rows[i]).value());
      const bool same =
          std::bit_cast<std::uint64_t>(level.cost[row]) ==
              std::bit_cast<std::uint64_t>(want_cost[i]) &&
          level.succ[row] == want_succ[i];
      if (!same && mismatches++ == 0) {
        ADD_FAILURE() << "t=" << t << " level " << e << " switch " << rows[i]
                      << ": cost " << level.cost[row] << " succ "
                      << level.succ[row] << ", seed " << want_cost[i] << " "
                      << want_succ[i];
      }
      counts.infinite += want_cost[i] == kInf ? 1 : 0;
      counts.no_succ += want_succ[i] == kInvalidNode ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "t=" << t << " level " << e;
  }
  return counts;
}

TEST(KernelEquivalence, WeightedLevelTablesMatchSeedBitForBit) {
  for (const std::uint64_t weight_seed : {3u, 9u}) {
    SCOPED_TRACE(::testing::Message() << "weights=" << weight_seed);
    Topology topo = build_fat_tree(8);
    apply_uniform_delay_weights(topo.graph, weight_seed);
    const AllPairs apsp(topo.graph);
    const auto& switches = topo.graph.switches();
    // The scenario must have columns that are not rows.
    std::size_t asymmetric = 0;
    for (const NodeId u : switches) {
      for (const NodeId v : switches) {
        asymmetric += apsp.cost(u, v) != apsp.cost(v, u) ? 1 : 0;
      }
    }
    EXPECT_GT(asymmetric, 0u);
    for (const NodeId t : {switches[7], topo.graph.hosts()[5]}) {
      expect_levels_eq(apsp, t, {}, 10);
    }
    // Restricted universes mask candidates out of the fabric's columns:
    // once toward a host, once toward a switch outside the universe.
    std::vector<NodeId> universe;
    for (std::size_t i = 0; i < switches.size(); i += 3) {
      universe.push_back(switches[i]);
    }
    expect_levels_eq(apsp, topo.graph.hosts().back(), universe, 10);
    expect_levels_eq(apsp, switches[1], universe, 10);
  }
}

/// The faults of a partitioned k=8 fabric: every uplink of pod 0 cut and
/// one core switch dead. Pod 0's switches and the dead one cannot reach
/// the rest of the fabric, so stroll rows toward it stay +inf with no
/// successor, and their columns are +inf toward the rest of the fabric.
struct PartitionFaults {
  std::vector<char> dead;
  std::vector<EdgeKey> cut;
  NodeId dead_core = kInvalidNode;
};

PartitionFaults partition_pod0(const Topology& topo) {
  const Graph& g = topo.graph;
  PartitionFaults f;
  const std::vector<NodeId>& pod = topo.power_domains[0].switches;
  for (const NodeId sw : pod) {
    for (const auto& adj : g.neighbors(sw)) {
      if (g.is_switch(adj.to) &&
          std::find(pod.begin(), pod.end(), adj.to) == pod.end()) {
        f.cut.push_back(make_edge_key(sw, adj.to));
      }
    }
  }
  f.dead.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  // Core switches belong to no pod's power domain.
  for (const NodeId sw : g.switches()) {
    bool in_pod = false;
    for (const PowerDomain& d : topo.power_domains) {
      in_pod = in_pod || std::find(d.switches.begin(), d.switches.end(),
                                   sw) != d.switches.end();
    }
    if (!in_pod) f.dead_core = sw;
  }
  if (f.dead_core != kInvalidNode) {
    f.dead[static_cast<std::size_t>(f.dead_core)] = 1;
  }
  return f;
}

TEST(KernelEquivalence, PartitionedLevelTablesMatchSeedBitForBit) {
  const Topology topo = build_fat_tree(8);
  const Graph& g = topo.graph;
  const PartitionFaults faults = partition_pod0(topo);
  ASSERT_FALSE(faults.cut.empty());
  ASSERT_NE(faults.dead_core, kInvalidNode);
  const DegradedNetwork net(g, faults.dead, faults.cut);
  const NodeId t = g.hosts().back();
  ASSERT_TRUE(net.in_core(t));
  // Every switch, and every alive switch (a masked universe).
  std::vector<NodeId> alive;
  for (const NodeId sw : g.switches()) {
    if (sw != faults.dead_core) alive.push_back(sw);
  }
  for (const std::vector<NodeId>& universe : {std::vector<NodeId>{}, alive}) {
    SCOPED_TRACE(::testing::Message() << "universe=" << universe.size());
    const LevelCounts counts = expect_levels_eq(net.apsp(), t, universe, 8);
    EXPECT_GT(counts.infinite, 0u);
    EXPECT_GT(counts.no_succ, 0u);
  }
}

// ---------------------------------------------------------------------------
// Level tables against Algorithm 2's recurrence written plainly, row by
// row: level 1 is the metric edge into t (none from t itself); level e
// keeps, for each row i, the first strict-< minimum over candidates k in
// increasing order of c(sw_i, sw_k) + cost_{e-1}[k], where k is a
// universe switch other than t, and neither k itself nor k's
// continuation succ_{e-1}[k] is sw_i. The row counts (20, 45, 6 and 4)
// leave a partial tail after the last 16- or 8-row vector step of the
// v4 and v3 relax_column clones, and the tables of one scenario are
// built one after another on one thread, more levels than one slab
// holds, so later tables carve from slabs an earlier table left dirty.
// ---------------------------------------------------------------------------
struct ScalarLevel {
  std::vector<double> cost;
  std::vector<NodeId> succ;
};

std::vector<ScalarLevel> scalar_levels(const AllPairs& apsp, NodeId t,
                                       const std::vector<NodeId>& universe,
                                       int levels) {
  const std::vector<NodeId>& sw = apsp.graph().switches();
  const std::size_t rows = sw.size();
  std::vector<char> member(rows, universe.empty() ? 1 : 0);
  for (const NodeId u : universe) {
    member[static_cast<std::size_t>(
        std::find(sw.begin(), sw.end(), u) - sw.begin())] = 1;
  }
  std::vector<ScalarLevel> out(static_cast<std::size_t>(levels));
  for (ScalarLevel& level : out) {
    level.cost.assign(rows, kInf);
    level.succ.assign(rows, kInvalidNode);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    if (sw[i] == t) continue;
    out[0].cost[i] = apsp.cost(sw[i], t);
    out[0].succ[i] = t;
  }
  for (std::size_t e = 1; e < out.size(); ++e) {
    const ScalarLevel& prev = out[e - 1];
    ScalarLevel& level = out[e];
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < rows; ++k) {
        if (!member[k] || sw[k] == t || k == i || prev.succ[k] == sw[i]) {
          continue;
        }
        const double cand = apsp.cost(sw[i], sw[k]) + prev.cost[k];
        if (cand < level.cost[i]) {
          level.cost[i] = cand;
          level.succ[i] = sw[k];
        }
      }
    }
  }
  return out;
}

/// Builds `levels` levels toward every switch and the first and last host,
/// one table after another, and compares every cell with scalar_levels().
void expect_levels_match_scalar(const AllPairs& apsp,
                                const std::vector<NodeId>& universe,
                                int levels) {
  const auto metric = std::make_shared<const StrollMetric>(apsp, universe);
  const Graph& g = apsp.graph();
  std::vector<NodeId> destinations = g.switches();
  destinations.push_back(g.hosts().front());
  destinations.push_back(g.hosts().back());
  std::vector<StrollLevels::Level> got;
  std::size_t finite = 0;
  for (const NodeId t : destinations) {
    const StrollLevels cur(metric, t);
    cur.at_least(levels, got);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(levels));
    const std::vector<ScalarLevel> want =
        scalar_levels(apsp, t, universe, levels);
    for (std::size_t e = 0; e < want.size(); ++e) {
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < metric->rows(); ++i) {
        const bool same = std::bit_cast<std::uint64_t>(got[e].cost[i]) ==
                              std::bit_cast<std::uint64_t>(want[e].cost[i]) &&
                          got[e].succ[i] == want[e].succ[i];
        if (!same && mismatches++ == 0) {
          ADD_FAILURE() << "t=" << t << " level " << e + 1 << " row " << i
                        << ": cost " << got[e].cost[i] << " succ "
                        << got[e].succ[i] << ", scalar " << want[e].cost[i]
                        << " " << want[e].succ[i];
        }
        finite += want[e].cost[i] < kInf ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0u) << "t=" << t << " level " << e + 1;
    }
  }
  EXPECT_GT(finite, 0u);
}

/// Every switch of `g` that still has a link: the alive serving core.
std::vector<NodeId> linked_switches(const Graph& g) {
  std::vector<NodeId> out;
  for (const NodeId sw : g.switches()) {
    if (g.degree(sw) > 0) out.push_back(sw);
  }
  return out;
}

/// `g` with every link of the listed nodes dropped.
Graph without_nodes(const Graph& g, const std::vector<NodeId>& dead_nodes) {
  std::vector<char> dead(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId v : dead_nodes) dead[static_cast<std::size_t>(v)] = 1;
  return masked_copy(g, dead, {});
}

TEST(KernelEquivalence, LevelsMatchScalarRecurrence) {
  constexpr int kLevels = StrollLevels::kSlabLevels + 2;
  for (const int k : {4, 6}) {
    SCOPED_TRACE(::testing::Message() << "fat-tree k=" << k);
    const Topology topo = build_fat_tree(k);
    const AllPairs apsp(topo.graph);
    ASSERT_NE(topo.graph.switches().size() % 16, 0u);
    std::vector<NodeId> every_other;
    for (std::size_t i = 0; i < topo.graph.switches().size(); i += 2) {
      every_other.push_back(topo.graph.switches()[i]);
    }
    expect_levels_match_scalar(apsp, {}, kLevels);
    expect_levels_match_scalar(apsp, every_other, kLevels);
  }
  {
    SCOPED_TRACE("weighted fat-tree k=4");
    Topology topo = build_fat_tree(4);
    apply_uniform_delay_weights(topo.graph, 5);
    const AllPairs apsp(topo.graph);
    const std::vector<NodeId>& sw = topo.graph.switches();
    expect_levels_match_scalar(apsp, {}, kLevels);
    expect_levels_match_scalar(apsp, {sw.begin() + 3, sw.end()}, kLevels);
  }
  {
    // Both switches of the first host die (apsp_leaf_test's masked BCube).
    SCOPED_TRACE("masked BCube(3,1)");
    const Topology t = build_bcube(3, 1);
    std::vector<NodeId> dead;
    for (const auto& a : t.graph.neighbors(t.graph.hosts().front())) {
      dead.push_back(a.to);
    }
    const Graph g = without_nodes(t.graph, dead);
    const AllPairs apsp(g, /*allow_disconnected=*/true);
    expect_levels_match_scalar(apsp, {}, kLevels);
    expect_levels_match_scalar(apsp, linked_switches(g), kLevels);
  }
  {
    // Cells 0 and 1 lose their switches (apsp_leaf_test's masked DCell).
    SCOPED_TRACE("masked DCell1(3)");
    const Topology t = build_dcell1(3);
    const Graph g = without_nodes(
        t.graph, {t.graph.switches()[0], t.graph.switches()[1]});
    const AllPairs apsp(g, /*allow_disconnected=*/true);
    expect_levels_match_scalar(apsp, {}, kLevels);
    expect_levels_match_scalar(apsp, linked_switches(g), kLevels);
  }
}

TEST(KernelEquivalence, RestrictedCandidatesPlacementMatchesSeed) {
  {
    const Topology topo = build_fat_tree(4);
    const AllPairs apsp(topo.graph);
    const auto flows = workload(topo, 60, 17);
    CostModel cm(apsp, flows);
    const auto& switches = topo.graph.switches();
    std::vector<NodeId> alive;
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (i % 3 != 0) alive.push_back(switches[i]);
    }
    cm.restrict_candidates(alive);
    for (const int n : {1, 3, 5}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      expect_placement_eq(solve_top_dp(cm, n), ref_solve_top_dp(cm, n));
    }
  }
  // A degraded fabric, set up as the fault-tolerant engine does: the cost
  // model runs over the degraded metric, flows with an endpoint outside
  // the serving core are quarantined at rate 0, and placements are
  // restricted to the core's alive switches.
  const Topology topo = build_fat_tree(8);
  const PartitionFaults faults = partition_pod0(topo);
  const DegradedNetwork net(topo.graph, faults.dead, faults.cut);
  auto flows = workload(topo, 200, 29);
  std::vector<double> rates = rates_of(flows);
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!net.in_core(flows[i].src_host) || !net.in_core(flows[i].dst_host)) {
      rates[i] = 0.0;
      ++quarantined;
    }
  }
  EXPECT_GT(quarantined, 0u);
  set_rates(flows, rates);
  CostModel cm(net.apsp(), flows);
  cm.restrict_candidates(net.core_switches());
  for (const int n : {3, 5, 7}) {
    SCOPED_TRACE(::testing::Message() << "degraded n=" << n);
    expect_placement_eq(solve_top_dp(cm, n), ref_solve_top_dp(cm, n));
  }
}

// ---------------------------------------------------------------------------
// Algorithm 5 equivalence, parallel rows and the exhaustive general-
// frontier scan, under shifted traffic (the migration trigger).
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, ParetoMigrationMatchesSeed) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  auto flows = workload(topo, 200, 13);
  CostModel cm(apsp, flows);
  const Placement from = solve_top_dp(cm, 7).placement;
  std::vector<double> rates = rates_of(flows);
  std::reverse(rates.begin(), rates.end());
  set_rates(flows, rates);
  cm.refresh();
  for (const double mu : {0.0, 1e4}) {
    SCOPED_TRACE(::testing::Message() << "mu=" << mu);
    expect_migration_eq(solve_tom_pareto(cm, from, mu),
                        ref_solve_tom_pareto(cm, from, mu));
  }
}

TEST(KernelEquivalence, ExhaustiveFrontierMigrationMatchesSeed) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  auto flows = workload(topo, 30, 23);
  CostModel cm(apsp, flows);
  const Placement from = solve_top_dp(cm, 3).placement;
  std::vector<double> rates = rates_of(flows);
  for (double& r : rates) r *= 2.5;
  std::reverse(rates.begin(), rates.end());
  set_rates(flows, rates);
  cm.refresh();
  ParetoMigrationOptions opt;
  opt.exhaustive_frontiers = true;
  expect_migration_eq(solve_tom_pareto(cm, from, 5e2, opt),
                      ref_solve_tom_pareto(cm, from, 5e2, opt));
}

// ---------------------------------------------------------------------------
// Width invariance of the parallel kernels: each writes disjoint rows or
// switch blocks, so the all-pairs build and the attraction rescans run
// inside serially(…) (on the calling thread alone) must equal the
// full-width run bit for bit.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, AllPairsBuildIsWidthInvariant) {
  for (const std::uint64_t weight_seed : {0u, 5u}) {
    Topology topo = build_fat_tree(8);
    if (weight_seed != 0) {
      apply_uniform_delay_weights(topo.graph, weight_seed);  // Dijkstra
    }
    const AllPairs wide(topo.graph);
    std::unique_ptr<AllPairs> serial;
    serially([&]() noexcept {
      serial = std::make_unique<AllPairs>(topo.graph);
    });
    ASSERT_EQ(serial->num_core(), wide.num_core());
    const auto m = static_cast<std::size_t>(wide.num_core());
    std::size_t cost_mismatches = 0;
    for (NodeId u = 0; u < topo.graph.num_nodes(); ++u) {
      const AllPairs::CoreRow a = wide.cost_row(u);
      const AllPairs::CoreRow b = serial->cost_row(u);
      if (a.weight != b.weight) ++cost_mismatches;
      for (std::size_t y = 0; y < m; ++y) {
        if (a.cost[y] != b.cost[y]) ++cost_mismatches;
      }
    }
    EXPECT_EQ(cost_mismatches, 0u) << "weights=" << weight_seed;
    EXPECT_EQ(serial->diameter(), wide.diameter());
    EXPECT_EQ(serial->min_switch_distance(), wide.min_switch_distance());
    const auto& hosts = topo.graph.hosts();
    for (std::size_t i = 0; i < hosts.size(); i += 7) {
      const NodeId u = hosts[i];
      const NodeId v = hosts[(i * 13 + 5) % hosts.size()];
      EXPECT_EQ(serial->path(u, v), wide.path(u, v))
          << "weights=" << weight_seed << " " << u << "->" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// CostModel attraction equivalence: the blocked (and parallel) rescans
// must reproduce a naive per-switch flow-order sum bit-exactly, because
// each accumulator still adds its terms in flow order. k=24 has 720
// switches, so its rescans span two switch blocks; a model built and
// refreshed inside serially(…) must equal the full-width one.
// ---------------------------------------------------------------------------
TEST(KernelEquivalence, AttractionsMatchNaiveFlowOrderSums) {
  struct Scenario {
    int k, l;
    std::uint64_t seed;
  };
  for (const Scenario sc : {Scenario{4, 37, 3}, Scenario{8, 200, 19},
                            Scenario{24, 150, 23}}) {
    const Topology topo = build_fat_tree(sc.k);
    const AllPairs apsp(topo.graph);
    auto flows = workload(topo, sc.l, sc.seed);
    CostModel cm(apsp, flows);
    std::unique_ptr<CostModel> serial;
    serially([&]() noexcept {
      serial = std::make_unique<CostModel>(apsp, flows);
    });
    const auto check = [&] {
      double lambda = 0.0;
      for (const VmFlow& f : flows) lambda += f.rate;
      EXPECT_EQ(cm.total_rate(), lambda);
      for (const NodeId sw : topo.graph.switches()) {
        double a = 0.0, b = 0.0;
        for (const VmFlow& f : flows) {
          a += f.rate * apsp.cost(f.src_host, sw);
          b += f.rate * apsp.cost(sw, f.dst_host);
        }
        EXPECT_EQ(cm.ingress_attraction(sw), a) << "switch " << sw;
        EXPECT_EQ(cm.egress_attraction(sw), b) << "switch " << sw;
        EXPECT_EQ(serial->ingress_attraction(sw), a) << "switch " << sw;
        EXPECT_EQ(serial->egress_attraction(sw), b) << "switch " << sw;
      }
    };
    check();
    // Shift the rate vector and rescan.
    std::vector<double> rates = rates_of(flows);
    for (double& r : rates) r *= 1.75;
    std::reverse(rates.begin(), rates.end());
    set_rates(flows, rates);
    cm.refresh();
    serially([&]() noexcept { serial->refresh(); });
    check();
  }
}

TEST(KernelEquivalence, GroupRecombineMatchesNaiveGroupOrderSums) {
  // k=24 spans two switch blocks in the grouped base build, which is also
  // run inside serially(…) and must match the full-width build.
  for (const int k : {4, 24}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const Topology topo = build_fat_tree(k);
    const AllPairs apsp(topo.graph);
    auto flows = workload(topo, 45, 29);
    CostModel cm(apsp, flows);

    const std::vector<double> base_rates = rates_of(flows);
    std::vector<int> groups(flows.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      groups[i] = static_cast<int>(i % 3);
    }
    cm.enable_group_refresh(base_rates, groups);
    std::unique_ptr<CostModel> serial;
    serially([&]() noexcept {
      serial = std::make_unique<CostModel>(apsp, flows);
      serial->enable_group_refresh(base_rates, groups);
    });
    const std::vector<double> scales = {1.0, 0.5, 2.25};
    // Keep the bound flow vector coherent, as refresh_scaled documents.
    std::vector<double> scaled = base_rates;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] *= scales[static_cast<std::size_t>(groups[i])];
    }
    set_rates(flows, scaled);
    cm.refresh_scaled(scales);
    serial->refresh_scaled(scales);

    // Λ recombines in *flow* order (bit-identical to refresh()).
    double lambda = 0.0;
    for (std::size_t i = 0; i < base_rates.size(); ++i) {
      lambda += base_rates[i] * scales[static_cast<std::size_t>(groups[i])];
    }
    EXPECT_EQ(cm.total_rate(), lambda);
    EXPECT_EQ(serial->total_rate(), lambda);

    // Attractions recombine in *group* order over flow-order base vectors.
    for (const NodeId sw : topo.graph.switches()) {
      double a = 0.0, b = 0.0;
      for (std::size_t g = 0; g < scales.size(); ++g) {
        double ag = 0.0, bg = 0.0;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (groups[i] != static_cast<int>(g)) continue;
          ag += base_rates[i] * apsp.cost(flows[i].src_host, sw);
          bg += base_rates[i] * apsp.cost(sw, flows[i].dst_host);
        }
        a += scales[g] * ag;
        b += scales[g] * bg;
      }
      EXPECT_EQ(cm.ingress_attraction(sw), a) << "switch " << sw;
      EXPECT_EQ(cm.egress_attraction(sw), b) << "switch " << sw;
      EXPECT_EQ(serial->ingress_attraction(sw), a) << "switch " << sw;
      EXPECT_EQ(serial->egress_attraction(sw), b) << "switch " << sw;
    }
  }
}


// ---------------------------------------------------------------------------
// Attraction-kernel clones (DESIGN.md §11). refresh(), the grouped base
// build, the churn-patch drain and the endpoint move run on whichever
// clone of their kernel the host picks (AVX or baseline). Each result must
// equal, bit for bit, a plain scalar loop below that does the same
// multiply and add in the same order. Fabrics: k=4 and k=8, a weighted
// k=4, k=6 (45 switches, so a 4-wide clone ends on a tail lane), and a
// degraded k=8 metric where quarantined zero-rate flows have +inf
// distances.
// ---------------------------------------------------------------------------
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// g[off + j] += a · (weight + cost[j]) for every switch j.
void ref_add_row(std::vector<double>& g, std::size_t off,
                 AllPairs::CoreRow c, std::size_t ns, double a) {
  for (std::size_t j = 0; j < ns; ++j) {
    g[off + j] += a * (c.weight + c.cost[j]);
  }
}

/// The two-term re-rate: g = (g + a·c) + b·c.
void ref_rerate_row(std::vector<double>& g, std::size_t off,
                    AllPairs::CoreRow c, std::size_t ns, double a, double b) {
  for (std::size_t j = 0; j < ns; ++j) {
    const double cj = c.weight + c.cost[j];
    g[off + j] = (g[off + j] + a * cj) + b * cj;
  }
}

/// The endpoint move: g += base · (c_to − c_from).
void ref_move_row(std::vector<double>& g, std::size_t off,
                  AllPairs::CoreRow to, AllPairs::CoreRow from,
                  std::size_t ns, double base) {
  for (std::size_t j = 0; j < ns; ++j) {
    g[off + j] += base * ((to.weight + to.cost[j]) -
                          (from.weight + from.cost[j]));
  }
}

/// Base rows of a grouped model as the scalar reference builds them: one
/// row per distinct group id, ascending, flows added in flow order.
struct RefBases {
  std::vector<int> row_groups;
  std::vector<double> gi, ge;

  std::size_t row(int group) const {
    return static_cast<std::size_t>(
        std::find(row_groups.begin(), row_groups.end(), group) -
        row_groups.begin());
  }
};

RefBases ref_group_bases(const AllPairs& apsp,
                         const std::vector<VmFlow>& flows,
                         const std::vector<double>& base,
                         const std::vector<int>& groups) {
  const std::size_t ns = apsp.graph().switches().size();
  RefBases ref;
  ref.row_groups = groups;
  std::sort(ref.row_groups.begin(), ref.row_groups.end());
  ref.row_groups.erase(
      std::unique(ref.row_groups.begin(), ref.row_groups.end()),
      ref.row_groups.end());
  ref.gi.assign(ref.row_groups.size() * ns, 0.0);
  ref.ge.assign(ref.row_groups.size() * ns, 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (base[i] == 0.0) continue;
    const std::size_t off = ref.row(groups[i]) * ns;
    ref_add_row(ref.gi, off, apsp.cost_row(flows[i].src_host), ns, base[i]);
    ref_add_row(ref.ge, off, apsp.cost_col(flows[i].dst_host), ns, base[i]);
  }
  return ref;
}

void expect_bases_eq(const CostModel::GroupSnapshot& got,
                     const RefBases& want) {
  ASSERT_EQ(got.row_groups, want.row_groups);
  ASSERT_EQ(got.group_ingress.size(), want.gi.size());
  ASSERT_EQ(got.group_egress.size(), want.ge.size());
  for (std::size_t c = 0; c < want.gi.size(); ++c) {
    EXPECT_EQ(bits(got.group_ingress[c]), bits(want.gi[c])) << "cell " << c;
    EXPECT_EQ(bits(got.group_egress[c]), bits(want.ge[c])) << "cell " << c;
  }
}

/// refresh() and build_grouped() on `apsp`, against the scalar loops.
void check_refresh_and_build(const AllPairs& apsp,
                             const std::vector<VmFlow>& flows) {
  const std::vector<NodeId>& switches = apsp.graph().switches();
  const std::size_t ns = switches.size();
  const CostModel cm(apsp, flows);
  for (std::size_t j = 0; j < ns; ++j) {
    double a = 0.0, b = 0.0;
    for (const VmFlow& f : flows) {
      if (f.rate == 0.0) continue;
      const AllPairs::CoreRow src = apsp.cost_row(f.src_host);
      const AllPairs::CoreRow dst = apsp.cost_col(f.dst_host);
      a += f.rate * (src.weight + src.cost[j]);
      b += f.rate * (dst.weight + dst.cost[j]);
    }
    EXPECT_FALSE(std::isnan(cm.ingress_attraction(switches[j])));
    EXPECT_EQ(bits(cm.ingress_attraction(switches[j])), bits(a))
        << "switch " << switches[j];
    EXPECT_EQ(bits(cm.egress_attraction(switches[j])), bits(b))
        << "switch " << switches[j];
  }

  const std::vector<double> base = rates_of(flows);
  std::vector<int> groups(flows.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i] = static_cast<int>(i % 3);
  }
  const CostModel::GroupedFlows set{&flows, &base, &groups};
  auto models = CostModel::build_grouped(apsp, {&set, 1}, 0);
  expect_bases_eq(models.front()->group_snapshot(),
                  ref_group_bases(apsp, flows, base, groups));
}

TEST(KernelEquivalence, AttractionClonesMatchScalarLoops) {
  struct Fabric {
    int k;
    std::uint64_t weight_seed;  ///< 0 = hop metric
  };
  for (const Fabric fab : {Fabric{4, 0}, Fabric{6, 0}, Fabric{8, 0},
                           Fabric{4, 3}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << fab.k
                                      << " weights=" << fab.weight_seed);
    Topology topo = build_fat_tree(fab.k);
    if (fab.weight_seed != 0) {
      apply_uniform_delay_weights(topo.graph, fab.weight_seed);
    }
    const AllPairs apsp(topo.graph);
    auto flows = workload(topo, 120, 31 + static_cast<std::uint64_t>(fab.k));
    flows[5].rate = 0.0;  // a zero-rate flow in the base build
    check_refresh_and_build(apsp, flows);
  }
}

TEST(KernelEquivalence, DegradedAttractionClonesSkipInfiniteZeroRateFlows) {
  const Topology topo = build_fat_tree(8);
  const PartitionFaults faults = partition_pod0(topo);
  const DegradedNetwork net(topo.graph, faults.dead, faults.cut);
  auto flows = workload(topo, 200, 37);
  std::vector<double> rates = rates_of(flows);
  std::size_t infinite = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!net.in_core(flows[i].src_host) || !net.in_core(flows[i].dst_host)) {
      rates[i] = 0.0;
      const AllPairs::CoreRow src = net.apsp().cost_row(flows[i].src_host);
      const AllPairs::CoreRow dst = net.apsp().cost_col(flows[i].dst_host);
      for (std::size_t j = 0; j < topo.graph.switches().size(); ++j) {
        if (std::isinf(src.weight + src.cost[j]) ||
            std::isinf(dst.weight + dst.cost[j])) {
          ++infinite;
          break;
        }
      }
    }
  }
  ASSERT_GT(infinite, 0u) << "no quarantined flow sees +inf distances";
  set_rates(flows, rates);
  check_refresh_and_build(net.apsp(), flows);
}

TEST(KernelEquivalence, DrainedPatchesMatchScalarLoops) {
  for (const int k : {4, 6, 8}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const Topology topo = build_fat_tree(k);
    const AllPairs apsp(topo.graph);
    const std::vector<NodeId>& hosts = topo.graph.hosts();
    const std::size_t ns = topo.graph.switches().size();
    auto flows = workload(topo, 60, 41 + static_cast<std::uint64_t>(k));
    std::vector<double> base = rates_of(flows);
    std::vector<int> groups(flows.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      groups[i] = static_cast<int>(i % 3);
    }
    const CostModel::GroupedFlows set{&flows, &base, &groups};
    auto models = CostModel::build_grouped(apsp, {&set, 1}, 0);
    CostModel& cm = *models.front();
    RefBases ref = ref_group_bases(apsp, flows, base, groups);
    const auto ref_patch = [&](int group, const VmFlow& f, double a) {
      const std::size_t off = ref.row(group) * ns;
      ref_add_row(ref.gi, off, apsp.cost_row(f.src_host), ns, a);
      ref_add_row(ref.ge, off, apsp.cost_col(f.dst_host), ns, a);
    };

    // A departure: flow 0 leaves (base → 0).
    cm.rebase_flow(FlowId{0}, 0.0, groups[0]);
    ref_patch(groups[0], flows[0], -base[0]);
    // An arrival: a new flow appended to group 1.
    VmFlow arrival = flows[7];
    arrival.src_host = hosts[1];
    arrival.dst_host = hosts[hosts.size() - 2];
    flows.push_back(arrival);
    cm.flows_appended({0.75}, {1});
    ref_patch(1, arrival, 0.75);
    // An in-place re-rate of flow 4: one two-term pass.
    const double rerated = base[4] * 1.5;
    cm.rebase_flow(FlowId{4}, rerated, groups[4]);
    {
      const std::size_t off = ref.row(groups[4]) * ns;
      ref_rerate_row(ref.gi, off, apsp.cost_row(flows[4].src_host), ns,
                     -base[4], rerated);
      ref_rerate_row(ref.ge, off, apsp.cost_col(flows[4].dst_host), ns,
                     -base[4], rerated);
    }
    // A group change: flow 2 moves from group 2 to group 0.
    ASSERT_EQ(groups[2], 2);
    cm.rebase_flow(FlowId{2}, base[2], 0);
    ref_patch(2, flows[2], -base[2]);
    ref_patch(0, flows[2], base[2]);

    ASSERT_TRUE(cm.has_queued_patches());
    cm.drain_patches();
    EXPECT_FALSE(cm.has_queued_patches());
    expect_bases_eq(cm.group_snapshot(), ref);

    // An endpoint move of flow 9 (both ends), after a recombine so the
    // move patches the rows instead of rebuilding them.
    cm.refresh_scaled({1.0, 1.0, 1.0});
    const VmFlow before = flows[9];
    flows[9].src_host = hosts[hosts.size() - 1];
    flows[9].dst_host = hosts[2];
    ASSERT_NE(flows[9].src_host, before.src_host);
    ASSERT_NE(flows[9].dst_host, before.dst_host);
    cm.endpoints_moved({FlowId{9}});
    {
      const std::size_t off = ref.row(groups[9]) * ns;
      ref_move_row(ref.gi, off, apsp.cost_row(flows[9].src_host),
                   apsp.cost_row(before.src_host), ns, base[9]);
      ref_move_row(ref.ge, off, apsp.cost_col(flows[9].dst_host),
                   apsp.cost_col(before.dst_host), ns, base[9]);
    }
    expect_bases_eq(cm.group_snapshot(), ref);
  }
}

}  // namespace
}  // namespace ppdc
