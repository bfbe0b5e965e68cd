// Shared helpers for the ppdc test suite: tiny brute-force references the
// optimized algorithms are validated against, and instance builders.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "core/cost_model.hpp"
#include "core/multi_sfc.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"

namespace ppdc::testing {

/// Brute-force optimal n-stroll on the metric closure: the cheapest simple
/// sequence of n distinct switches between s and t (triangle inequality
/// makes simple sequences optimal among walks). Exponential — use only on
/// tiny instances.
inline double brute_force_stroll_cost(const AllPairs& apsp, NodeId s,
                                      NodeId t, int n, double rate = 1.0) {
  std::vector<NodeId> switches;
  for (const NodeId w : apsp.graph().switches()) {
    if (w != s && w != t) switches.push_back(w);
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<NodeId> seq(static_cast<std::size_t>(n));
  std::vector<char> used(switches.size(), 0);
  const std::function<void(int, double, NodeId)> rec =
      [&](int depth, double cost, NodeId last) {
        if (cost >= best) return;
        if (depth == n) {
          const double total = cost + rate * apsp.cost(last, t);
          best = std::min(best, total);
          return;
        }
        for (std::size_t i = 0; i < switches.size(); ++i) {
          if (used[i]) continue;
          used[i] = 1;
          rec(depth + 1, cost + rate * apsp.cost(last, switches[i]),
              switches[i]);
          used[i] = 0;
        }
      };
  rec(0, 0.0, s);
  return best;
}

/// Min of `cost(p)` over every ordered tuple p of n distinct switches of
/// `g`. Exponential — tiny instances only.
template <class Cost>
double min_over_distinct_switch_tuples(const Graph& g, int n, Cost cost) {
  const auto& switches = g.switches();
  double best = std::numeric_limits<double>::infinity();
  Placement p;
  std::vector<char> used(switches.size(), 0);
  const std::function<void(int)> rec = [&](int depth) {
    if (depth == n) {
      best = std::min(best, cost(p));
      return;
    }
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (used[i]) continue;
      used[i] = 1;
      p.push_back(switches[i]);
      rec(depth + 1);
      p.pop_back();
      used[i] = 0;
    }
  };
  rec(0);
  return best;
}

/// Brute-force optimal TOP: the least Eq. 1 cost.
inline double brute_force_top_cost(const CostModel& model, int n) {
  return min_over_distinct_switch_tuples(
      model.apsp().graph(), n,
      [&](const Placement& p) { return model.communication_cost(p); });
}

/// Brute-force optimal TOM: the least Eq. 8 cost C_t(from, m).
inline double brute_force_tom_cost(const CostModel& model,
                                   const Placement& from, double mu) {
  return min_over_distinct_switch_tuples(
      model.apsp().graph(), static_cast<int>(from.size()),
      [&](const Placement& p) { return model.total_cost(from, p, mu); });
}

/// Brute-force optimal heterogeneous-SFC placement: the least generalized
/// Eq. 1 cost.
inline double brute_force_multi_sfc_cost(const MultiSfcCostModel& model) {
  return min_over_distinct_switch_tuples(
      model.apsp().graph(), model.sfc_length(),
      [&](const Placement& p) { return model.communication_cost(p); });
}

}  // namespace ppdc::testing
