#include "sim/policy.hpp"

#include <utility>

#include "core/cost_model.hpp"
#include "core/placement_dp.hpp"
#include "util/require.hpp"

namespace ppdc {

const char* to_string(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kFull:
      return "full";
    case DegradationRung::kRefreshOnly:
      return "refresh-only";
    case DegradationRung::kFrozen:
      return "frozen";
  }
  return "?";
}

EpochDecision NoMigrationPolicy::on_epoch(const CostModel& model,
                                          SimState& state) {
  EpochDecision d;
  d.comm_cost = model.communication_cost(state.placement);
  return d;
}

ParetoMigrationPolicy::ParetoMigrationPolicy(double mu,
                                             ParetoMigrationOptions options,
                                             std::string display_name)
    : mu_(mu), options_(std::move(options)), name_(std::move(display_name)) {
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
}

EpochDecision ParetoMigrationPolicy::on_epoch(const CostModel& model,
                                              SimState& state) {
  const MigrationResult r =
      solve_tom_pareto(model, state.placement, mu_, options_);
  EpochDecision d;
  d.comm_cost = r.comm_cost;
  d.migration_cost = r.migration_cost;
  d.vnf_migrations = r.vnfs_moved;
  state.placement = r.migration;
  return d;
}

ExhaustiveMigrationPolicy::ExhaustiveMigrationPolicy(double mu,
                                                     ChainSearchConfig config)
    : mu_(mu), config_(std::move(config)) {
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
}

EpochDecision ExhaustiveMigrationPolicy::on_epoch(const CostModel& model,
                                                  SimState& state) {
  ChainSearchConfig cfg = config_;
  cfg.initial = state.placement;  // warm start: staying put is feasible
  const ChainSearchResult r =
      solve_tom_exhaustive(model, state.placement, mu_, cfg);
  MigrationResult eval =
      evaluate_migration(model, state.placement, r.placement, mu_);
  if (!r.proven_optimal) {
    // Budget-truncated search: the incumbent may barely improve on staying
    // put. mPareto is cheap and never worse than NoMigration — degrade to
    // it and keep the cheaper of the two answers.
    MigrationResult pareto = solve_tom_pareto(model, state.placement, mu_);
    if (pareto.total_cost < eval.total_cost) eval = std::move(pareto);
  }
  EpochDecision d;
  d.truncated_solves = r.proven_optimal ? 0 : 1;
  d.comm_cost = eval.comm_cost;
  d.migration_cost = eval.migration_cost;
  d.vnf_migrations = eval.vnfs_moved;
  state.placement = eval.migration;
  return d;
}

ResolvePlacementPolicy::ResolvePlacementPolicy(double mu, TopDpOptions options)
    : mu_(mu), options_(options) {
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
}

EpochDecision ResolvePlacementPolicy::on_epoch(const CostModel& model,
                                               SimState& state) {
  const PlacementResult fresh = solve_top_dp(
      model, static_cast<int>(state.placement.size()), options_);
  const MigrationResult eval =
      evaluate_migration(model, state.placement, fresh.placement, mu_);
  EpochDecision d;
  d.comm_cost = eval.comm_cost;
  d.migration_cost = eval.migration_cost;
  d.vnf_migrations = eval.vnfs_moved;
  state.placement = fresh.placement;
  return d;
}

PlanPolicy::PlanPolicy(VmMigrationConfig config) : config_(config) {}

EpochDecision PlanPolicy::on_epoch(const CostModel& model, SimState& state) {
  const VmMigrationResult r = solve_vm_migration_plan(
      model.apsp(), state.flows, state.placement, config_);
  state.flows = r.flows;
  EpochDecision d;
  d.comm_cost = r.comm_cost;
  d.migration_cost = r.migration_cost;
  d.vm_migrations = r.vms_moved;
  d.moved_flows = r.moved_flow_indices;
  return d;
}

McfPolicy::McfPolicy(VmMigrationConfig config) : config_(config) {}

EpochDecision McfPolicy::on_epoch(const CostModel& model, SimState& state) {
  const VmMigrationResult r = solve_vm_migration_mcf(
      model.apsp(), state.flows, state.placement, config_);
  state.flows = r.flows;
  EpochDecision d;
  d.comm_cost = r.comm_cost;
  d.migration_cost = r.migration_cost;
  d.vm_migrations = r.vms_moved;
  d.moved_flows = r.moved_flow_indices;
  return d;
}

}  // namespace ppdc
