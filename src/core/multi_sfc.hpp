// Heterogeneous SFC requirements (paper §VII, future work): "different VM
// flows can request different SFCs".
//
// We model each flow as requesting a contiguous *range* [first, last] of
// the data center's VNF catalogue (f_1 .. f_n) — e.g. internal flows skip
// the ingress firewall, cached flows stop at the proxy. Eq. 1 generalizes
// position-wise:
//
//   C(p) = Σ_j W_j c(p_j, p_{j+1})  +  Σ_j A_j(p_j)  +  Σ_j B_j(p_j)
//
//   W_j    = Σ_{i : first_i <= j < last_i} λ_i    (chain-leg load)
//   A_j(w) = Σ_{i : first_i == j} λ_i c(s(v_i), w) (range entry)
//   B_j(w) = Σ_{i : last_i == j} λ_i c(w, s(v'_i)) (range exit)
//
// Two solvers:
//  * `solve_multi_sfc_relaxed`: exact Viterbi DP over positions *without*
//    the distinct-switch constraint, followed by greedy duplicate repair —
//    the natural generalization of Algorithm 3's spirit.
//  * `solve_multi_sfc_exhaustive`: the exact chain search of Algorithms 4
//    and 6 (core/chain_search.hpp) with W_j the leg loads and
//    U_j = A_j + B_j, over all switches.
#pragma once

#include <cstddef>
#include <vector>

#include "core/chain_search.hpp"
#include "core/cost_model.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// A flow that must traverse VNFs f_{first+1} .. f_{last+1} (0-based
/// inclusive indices into the catalogue).
struct RangedFlow {
  VmFlow flow;
  int first = 0;
  int last = 0;
};

/// Position-wise cost evaluator for heterogeneous SFC ranges.
class MultiSfcCostModel {
 public:
  /// `n` is the catalogue length; every range must satisfy
  /// 0 <= first <= last < n.
  MultiSfcCostModel(const AllPairs& apsp, std::vector<RangedFlow> flows,
                    int n);

  int sfc_length() const noexcept { return n_; }
  const AllPairs& apsp() const noexcept { return *apsp_; }
  const std::vector<RangedFlow>& flows() const noexcept { return flows_; }

  /// Chain-leg load W_j for the leg j -> j+1 (0 <= j < n-1).
  double leg_load(int j) const;
  /// Entry attraction A_j(w) of switch w.
  double entry_attraction(int j, NodeId w) const;
  /// Exit attraction B_j(w) of switch w.
  double exit_attraction(int j, NodeId w) const;

  /// Generalized Eq. 1. Requires a valid placement of n distinct switches
  /// unless `allow_colocation`.
  double communication_cost(const Placement& p,
                            bool allow_colocation = false) const;

 private:
  /// Flat index of (position j, switch w) in entry_/exit_.
  std::size_t slot(int j, NodeId w) const;

  const AllPairs* apsp_;
  std::vector<RangedFlow> flows_;
  int n_;
  std::vector<double> leg_load_;  ///< size n-1
  std::vector<double> entry_;     ///< [j · |V_s| + SwitchIdx] = A_j
  std::vector<double> exit_;      ///< [j · |V_s| + SwitchIdx] = B_j
};

/// Result of a multi-SFC placement.
struct MultiSfcResult {
  Placement placement;
  double comm_cost = 0.0;
  bool proven_optimal = false;
};

/// Exact position-Viterbi on the relaxed problem (duplicates allowed),
/// then greedy repair to distinct switches. Polynomial:
/// O(n |V_s|^2 + repairs).
MultiSfcResult solve_multi_sfc_relaxed(const MultiSfcCostModel& model);

/// Exact solver with distinctness: chain_search over the model's chain
/// objective. comm_cost is model.communication_cost of the placement.
MultiSfcResult solve_multi_sfc_exhaustive(const MultiSfcCostModel& model,
                                          const ChainSearchConfig& config = {});

}  // namespace ppdc
