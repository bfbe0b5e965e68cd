// Exact chain search shared by Algorithm 4 (Optimal TOP), Algorithm 6
// (Optimal TOM) and the §VII heterogeneous-SFC extension.
//
// All three minimize one chain objective over ordered tuples of n distinct
// candidate switches (p_0 .. p_{n-1}):
//
//   Σ_j U_j(p_j)  +  Σ_{j<n-1} W_j c(p_j, p_{j+1})  +  T(p_{n-1})
//
// TOP (Eq. 1) is U_0 = A, W_j = Λ, T = B; TOM (Eq. 8) adds μ c(from_j, ·)
// to every U_j; multi-SFC (core/multi_sfc.hpp) is W_j = leg load,
// U_j = entry_j + exit_j and no T. The paper runs Algorithms 4 and 6 as
// plain enumeration in O(|V_s|^n); we add admissible-bound pruning
// (depth-first branch and bound) so the "Optimal" curves of Fig. 7/9/10
// are computable at k = 8 scale. With `depth` positions fixed at cost
// `partial`, every completion costs at least
//
//   partial + Σ_{j>=depth} min U_j + (Σ_{remaining legs} W_j) · min c + min T
//
// where min c is the least switch-switch distance, so the search stays
// exact. A node budget bounds worst-case running time; when it is
// exhausted the best placement found so far is returned with
// proven_optimal = false. The budget is a count, so a truncated search is
// as reproducible as a complete one, and it never stops before a first
// complete placement.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/indexed_vector.hpp"

namespace ppdc {

/// A row of per-candidate costs, subscripted by the CandidateIdx of a
/// switch in the objective's candidate order. The typed subscript keeps raw
/// NodeIds (a different domain) out of the rows.
using CandidateRow = IndexedVector<CandidateIdx, double>;

/// The chain objective above, over an explicit candidate universe.
struct ChainObjective {
  /// Candidate universe: CandidateIdx k is the switch candidates[k].
  IndexedVector<CandidateIdx, NodeId> candidates;
  /// W_j of leg j -> j+1 (n - 1 values).
  std::vector<double> leg_weight;
  /// U_j, one row per position (n rows; n = unary.size()). Row 0 (the
  /// ingress term) covers every candidate; an empty row j >= 1 is all zero.
  std::vector<CandidateRow> unary;
  /// T, added after the last position; empty is all zero.
  CandidateRow tail;
};

/// Result of an exact (or budget-truncated) chain search.
struct ChainSearchResult {
  Placement placement;     ///< best tuple found
  double objective = 0.0;  ///< value of the objective above
  bool proven_optimal = false;
  std::uint64_t nodes_explored = 0;
};

/// Configuration of the branch-and-bound run.
struct ChainSearchConfig {
  /// Max partial assignments expanded before giving up on proof of
  /// optimality. 0 means unlimited. When it runs out the search stops at
  /// the incumbent (proven_optimal = false), but never before a first
  /// complete placement exists, so the result is always valid.
  std::uint64_t node_budget = 200'000'000;
  /// Optional warm-start placement (e.g. the DP solution); its objective
  /// seeds the incumbent so pruning bites immediately.
  std::optional<Placement> initial;
};

/// Minimizes `objective` over tuples of distinct switches of its candidate
/// universe; distances are read from `apsp`.
ChainSearchResult chain_search(const AllPairs& apsp,
                               const ChainObjective& objective,
                               const ChainSearchConfig& config = {});

/// Algorithm 4: exhaustive traffic-optimal VNF placement. The search
/// universe is placement_candidates(): all switches normally, only the
/// alive serving partition on a degraded fabric.
ChainSearchResult solve_top_exhaustive(const CostModel& model, int n,
                                       const ChainSearchConfig& config = {});

/// Algorithm 6: exhaustive traffic-optimal VNF migration away from `from`.
/// The returned objective equals C_t(from, m) of Eq. 8.
ChainSearchResult solve_tom_exhaustive(const CostModel& model,
                                       const Placement& from, double mu,
                                       const ChainSearchConfig& config = {});

}  // namespace ppdc
