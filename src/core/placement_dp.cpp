#include "core/placement_dp.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The `limit` switches with the smallest attraction under `key`.
std::vector<NodeId> top_candidates(const std::vector<NodeId>& switches,
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

}  // namespace

PlacementResult solve_top_dp(const CostModel& model, int n,
                             const TopDpOptions& options) {
  const AllPairs& apsp = model.apsp();
  // The candidate universe: every switch normally, only the alive switches
  // of the serving partition on a degraded fabric.
  const auto& switches = model.placement_candidates();
  PPDC_REQUIRE(n >= 1, "need at least one VNF");
  PPDC_REQUIRE(static_cast<std::size_t>(n) <= switches.size(),
               "more VNFs than eligible switches");

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
    // Same ingress/egress candidate pruning as the n >= 3 DP: without it
    // this branch scans all O(|V_s|²) ordered pairs even when the caller
    // asked for a bounded sweep.
    const std::vector<NodeId> ingress_candidates = top_candidates(
        switches, options.candidate_limit,
        [&](NodeId w) { return model.ingress_attraction(w); });
    const std::vector<NodeId> egress_candidates = top_candidates(
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
      // Degenerate pruning (e.g. limit 1 selecting the same switch for
      // both roles): redo without pruning.
      return solve_top_dp(model, n, TopDpOptions{});
    }
    PPDC_REQUIRE(best_cost < kInf, "no feasible placement found");
    best.comm_cost = best_cost;
    return best;
  }

  // n >= 3: one stroll table per egress candidate, shared across ingress
  // candidates (§IV.3). The tables run at unit rate — Λ scales every
  // stroll alike, and candidates are scored by their true Eq. 1 cost — so
  // on the full switch set the fabric's table cache serves them to every
  // shard and epoch. A restricted universe masks the same distances and
  // builds its level tables for this solve only (DESIGN.md §11).
  const bool cached = !model.candidates_restricted();
  StrollTableCache* cache = cached ? &StrollTableCache::of(apsp) : nullptr;
  const std::shared_ptr<const StrollMetric> metric =
      cached ? cache->metric()
             : std::make_shared<const StrollMetric>(apsp, switches);
  const std::vector<NodeId> egress_candidates = top_candidates(
      switches, options.candidate_limit,
      [&](NodeId w) { return model.egress_attraction(w); });
  const std::vector<NodeId> ingress_candidates = top_candidates(
      switches, options.candidate_limit,
      [&](NodeId w) { return model.ingress_attraction(w); });
  // Each row tries its ingress candidates by ascending A (a stable sort,
  // so equal A keep candidate order) and stops at the first whose bound
  // (Λ·L + A) + B exceeds the best cost so far, where L is the cheapest
  // chain: n - 1 hops of min_switch_distance(), summed as chain_cost
  // sums. A placement's n switches are distinct, so each hop costs at
  // least min_switch_distance(), and fp addition and multiplication by
  // Λ >= 0 are monotone: every skipped pair costs strictly more than the
  // final minimum (DESIGN.md §11). A tie goes to the pair that comes
  // first in (egress, ingress) candidate order, as in the full loop.
  const double lambda = model.total_rate();
  double cheapest_chain = 0.0;
  for (int hop = 1; hop < n; ++hop) {
    cheapest_chain += apsp.min_switch_distance();
  }
  const double chain_floor = lambda * cheapest_chain;
  std::vector<double> ingress_a(ingress_candidates.size());
  for (std::size_t i = 0; i < ingress_candidates.size(); ++i) {
    ingress_a[i] = model.ingress_attraction(ingress_candidates[i]);
  }
  std::vector<std::size_t> by_a(ingress_candidates.size());
  std::iota(by_a.begin(), by_a.end(), std::size_t{0});
  std::stable_sort(by_a.begin(), by_a.end(), [&](std::size_t x, std::size_t y) {
    return ingress_a[x] < ingress_a[y];
  });
  // One stroll and one candidate buffer for every (ingress, egress) pair,
  // so the pair loop allocates nothing; `p` is copied into `best` only
  // when it wins.
  StrollResult stroll;
  Placement p;
  p.reserve(static_cast<std::size_t>(n));
  std::size_t best_pair = 0;  // (egress, ingress) order of the winner
  for (std::size_t e = 0; e < egress_candidates.size(); ++e) {
    const NodeId egress = egress_candidates[e];
    const double b = model.egress_attraction(egress);
    StrollTable table(cached
                          ? cache->levels(egress)
                          : std::make_shared<const StrollLevels>(metric, egress));
    for (const std::size_t i : by_a) {
      if ((chain_floor + ingress_a[i]) + b > best_cost) break;
      const NodeId ingress = ingress_candidates[i];
      if (ingress == egress) continue;
      table.find(ingress, n - 2, stroll);
      p.clear();
      p.push_back(ingress);
      p.insert(p.end(), stroll.placement.begin(), stroll.placement.end());
      p.push_back(egress);
      // Score by the true Eq. 1 cost of the materialized placement (the
      // stroll walk may detour; shortcutting it can only help), in
      // communication_cost's own expression: `p` is built from distinct
      // universe switches, so only the winner is validated, once.
      const double c = lambda * model.chain_cost(p) + ingress_a[i] + b;
      const std::size_t pair = e * ingress_candidates.size() + i;
      if (c < best_cost || (c == best_cost && pair < best_pair)) {
        best_cost = c;
        best_pair = pair;
        best.placement = p;
        best.used_fallback = stroll.used_fallback;
      }
    }
  }
  if (best_cost == kInf && options.candidate_limit > 0) {
    // Degenerate pruning (e.g. limit 1 selecting the same switch twice for
    // both roles): redo without pruning.
    return solve_top_dp(model, n, TopDpOptions{});
  }
  PPDC_REQUIRE(best_cost < kInf, "no feasible placement found");
  validate_placement(apsp.graph(), best.placement);
  best.comm_cost = best_cost;
  return best;
}

}  // namespace ppdc
