// Exact chain search shared by Algorithm 4 (Optimal TOP) and Algorithm 6
// (Optimal TOM).
//
// Both exhaustive algorithms minimize, over ordered tuples of n distinct
// switches (m_1 .. m_n):
//
//   A(m_1) + Λ Σ_j c(m_j, m_{j+1}) + B(m_n) + Σ_j extra(j, m_j)
//
// where extra == 0 reproduces Eq. 1 (TOP) and extra(j, w) = μ c(p(j), w)
// reproduces Eq. 8 (TOM). The paper runs these as plain enumeration in
// O(|V_s|^n); we add admissible-bound pruning (depth-first branch and
// bound) so the "Optimal" curves of Fig. 7/9/10 are computable at k = 8
// scale. Pruning uses:
//   * remaining chain >= (n - depth) * Λ * min switch-switch distance,
//   * the egress term >= min_b B(b),
//   * remaining extra >= Σ_{j>depth} min_w extra(j, w),
// all of which lower-bound any completion, so the search stays exact.
// A node budget bounds worst-case running time; when it is exhausted the
// best placement found so far is returned with proven_optimal = false.
// The budget is a count, so a truncated search is as reproducible as a
// complete one, and it never stops before a first complete placement.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "util/ids.hpp"
#include "util/indexed_vector.hpp"

namespace ppdc {

/// Per-position additive cost term of the chain objective: extra[j] is a
/// row over the candidate universe, subscripted by the CandidateIdx of a
/// switch in model.placement_candidates() order. The typed subscript keeps
/// raw NodeIds (a different domain) out of the matrix.
using ExtraMatrix = std::vector<IndexedVector<CandidateIdx, double>>;

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

/// Minimizes the chain objective. `extra` is either empty (TOP) or an
/// n x |candidates| matrix indexed by [position][CandidateIdx] in the
/// order of model.placement_candidates() (TOM). The search universe is
/// placement_candidates(): all switches normally, only the alive serving
/// partition on a degraded fabric.
ChainSearchResult chain_search(const CostModel& model, int n,
                               const ExtraMatrix& extra,
                               const ChainSearchConfig& config = {});

/// Algorithm 4: exhaustive traffic-optimal VNF placement.
ChainSearchResult solve_top_exhaustive(const CostModel& model, int n,
                                       const ChainSearchConfig& config = {});

/// Algorithm 6: exhaustive traffic-optimal VNF migration away from `from`.
/// The returned objective equals C_t(from, m) of Eq. 8.
ChainSearchResult solve_tom_exhaustive(const CostModel& model,
                                       const Placement& from, double mu,
                                       const ChainSearchConfig& config = {});

}  // namespace ppdc
