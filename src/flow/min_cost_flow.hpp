// Minimum-cost maximum-flow solver.
//
// Substrate for the MCF VM-migration baseline (Flores et al., INFOCOM 2020
// [24]), which casts "which VM moves to which host" as a transportation
// problem. Implementation: successive shortest augmenting paths with
// Johnson potentials — Bellman-Ford once to admit negative edge costs,
// Dijkstra with reduced costs afterwards. Exact on integer capacities.
//
// Each Dijkstra stops when it pops the sink. The potentials then move the
// standard way for an early exit: a settled node v gets π(v) += d(v), every
// other node π(v) += d(sink). That keeps every residual reduced cost ≥ 0,
// so each augmenting path is a shortest one and the flow stays min-cost.
// The potentials live in the network and stay valid between calls, so a
// second solve() continues optimally from the flow the first one left;
// arcs cannot be added once a solve has run.
//
// Tie contract: the flow value and its optimal cost are those of a solver
// that labels every node, but where two augmenting paths tie exactly in
// reduced cost the early-exit potentials may steer a later Dijkstra onto
// the other one. Callers get *an* optimal flow, not a fixed one among
// equal-cost optima (the MCF baseline may then pick another host of
// exactly equal cost; its objective is unchanged).
#pragma once

#include <cstdint>
#include <vector>

#include "util/require.hpp"

namespace ppdc {

/// Min-cost max-flow network on dense integer vertex ids.
class MinCostFlow {
 public:
  /// Creates a network with `num_nodes` vertices.
  explicit MinCostFlow(int num_nodes);

  /// Adds a directed arc u -> v; returns the arc id (for flow queries).
  /// Capacity must be >= 0. Costs may be negative (no negative cycles).
  /// Only before the first solve().
  int add_arc(int u, int v, std::int64_t capacity, double cost);

  /// Result of a solve: achieved flow value and its total cost.
  struct Result {
    std::int64_t flow = 0;
    double cost = 0.0;
  };

  /// Sends up to `max_flow` more units from `source` to `sink` at minimum
  /// cost, on top of the flow earlier calls routed (the result counts this
  /// call's units only). Pass max_flow = kInfiniteFlow for a full max-flow
  /// computation. Every call must use the same source.
  Result solve(int source, int sink,
               std::int64_t max_flow = kInfiniteFlow);

  /// Flow currently routed on arc `arc_id` (after solve()).
  std::int64_t flow_on(int arc_id) const;

  static constexpr std::int64_t kInfiniteFlow =
      std::int64_t{1} << 62;

 private:
  struct Arc {
    int to;
    std::int64_t cap;
    double cost;
    int rev;  ///< index of the reverse arc in graph_[to]
  };

  /// Johnson potentials from the source by Bellman-Ford (zero when no arc
  /// cost is negative); run by the first solve().
  void init_potentials(int source);

  int n_;
  std::vector<std::vector<Arc>> graph_;
  /// (node, index) locator for each externally added arc.
  std::vector<std::pair<int, int>> arc_locator_;
  std::vector<std::int64_t> initial_cap_;
  bool has_negative_cost_ = false;
  /// Johnson potentials; empty until the first solve().
  std::vector<double> potential_;
  int source_ = -1;
};

}  // namespace ppdc
