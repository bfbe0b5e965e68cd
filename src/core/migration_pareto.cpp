#include "core/migration_pareto.hpp"

#include <limits>

#include "core/frontier.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

int count_moved(const Placement& from, const Placement& to) {
  int moved = 0;
  for (std::size_t j = 0; j < from.size(); ++j) {
    if (from[j] != to[j]) ++moved;
  }
  return moved;
}
}  // namespace

MigrationResult evaluate_migration(const CostModel& model,
                                   const Placement& from, const Placement& to,
                                   double mu) {
  MigrationResult r;
  r.migration = to;
  r.migration_cost = model.migration_cost(from, to, mu);
  r.comm_cost = model.communication_cost(to);
  r.total_cost = r.migration_cost + r.comm_cost;
  r.vnfs_moved = count_moved(from, to);
  return r;
}

MigrationResult solve_tom_pareto(const CostModel& model,
                                 const Placement& from, double mu,
                                 const ParetoMigrationOptions& options) {
  validate_placement(model.apsp().graph(), from);
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");

  // Step 1: fresh optimum under the new rates (Algorithm 3).
  const PlacementResult fresh =
      solve_top_dp(model, static_cast<int>(from.size()), options.placement);

  // Step 2: frontiers between p and p'.
  const MigrationFrontiers frontiers(model.apsp(), from, fresh.placement);

  // Step 3: scan the parallel frontier rows.
  MigrationResult best;
  double best_total = kInf;
  std::vector<FrontierPoint> points;
  auto consider = [&](const Placement& fr, bool record_point) {
    const bool free = is_collision_free(fr);
    const double cb = model.migration_cost(from, fr, mu);
    // C_a is well defined even on colliding rows (two VNFs sharing a
    // switch just contribute a zero chain hop); bypass the placement
    // validator by summing Eq. 1 terms directly.
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

  PPDC_REQUIRE(best_total < kInf,
               "no collision-free frontier (row 1 is always valid)");
  best.total_cost = best_total;
  best.vnfs_moved = count_moved(from, best.migration);
  best.frontier_points = std::move(points);
  return best;
}

}  // namespace ppdc
