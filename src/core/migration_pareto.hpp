// mPareto: Algorithm 5 of the paper, traffic-optimal VNF migration.
//
// Given the current placement p and the new traffic vector (already
// reflected in the CostModel), the algorithm:
//   1. computes the fresh optimum p' with Algorithm 3 (DP placement),
//   2. lays the parallel migration frontiers between p and p' (Def. 2),
//   3. evaluates C_t(p, fr) = C_b(p, fr) + C_a(fr) on every frontier row
//      and returns the minimum — i.e. it scans the Pareto front between
//      "stay put" (zero migration cost) and "jump all the way" (minimum
//      communication cost) and picks the scalarized optimum (Theorem 5).
//
// The frontier points are exposed for the Fig. 6(b) Pareto-front analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "core/placement_dp.hpp"

namespace ppdc {

/// One point of the migration trade-off curve.
struct FrontierPoint {
  double migration_cost = 0.0;  ///< C_b(p, fr)
  double comm_cost = 0.0;       ///< C_a(fr)
  bool collision_free = true;   ///< eligible as a final migration
};

/// Outcome of a VNF migration decision.
struct MigrationResult {
  Placement migration;          ///< m
  double total_cost = 0.0;      ///< C_t(p, m), Eq. 8
  double migration_cost = 0.0;  ///< C_b(p, m)
  double comm_cost = 0.0;       ///< C_a(m)
  int vnfs_moved = 0;           ///< |{j : m(j) != p(j)}|
  std::vector<FrontierPoint> frontier_points;  ///< Fig. 6(b) data
};

/// Options for mPareto.
struct ParetoMigrationOptions {
  /// Forwarded to the inner Algorithm 3 run.
  TopDpOptions placement;
  /// When true, in addition to the h_max parallel frontiers, every general
  /// frontier (Def. 1, Π h_j combinations) is scanned, provided the count
  /// is at most kFrontierScanLimit. This is the FrontierExhaustive
  /// near-optimal reference used as the "Optimal" proxy at k = 16 scale.
  bool exhaustive_frontiers = false;
};

/// Largest general-frontier count the exhaustive scan enumerates; above
/// it only the parallel rows are scanned.
inline constexpr std::int64_t kFrontierScanLimit = 2'000'000;

/// Algorithm 5 (and its frontier-exhaustive extension). `model` must
/// already reflect the *new* traffic rates. The returned migration is
/// always collision-free and never worse than staying at `from` (the first
/// parallel frontier row is `from` itself).
MigrationResult solve_tom_pareto(const CostModel& model,
                                 const Placement& from, double mu,
                                 const ParetoMigrationOptions& options = {});

/// Evaluates a fixed migration target (used by baseline policies and by
/// the NoMigration reference, where to == from).
MigrationResult evaluate_migration(const CostModel& model,
                                   const Placement& from,
                                   const Placement& to, double mu);

}  // namespace ppdc
