// Migration-policy interface for the dynamic PPDC simulation (§VI,
// Fig. 11). Every hour, after traffic rates change, the engine hands the
// policy the refreshed cost model and the mutable system state; the policy
// may migrate VNFs (mPareto / frontier-exhaustive / exhaustive optimal) or
// VMs (PLAN / MCF) or do nothing (NoMigration), and reports what it spent.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/vm_migration.hpp"
#include "core/chain_search.hpp"
#include "core/cost_model.hpp"
#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// Mutable world state owned by the simulation engine.
struct SimState {
  std::vector<VmFlow> flows;  ///< endpoints + current rates
  Placement placement;        ///< current VNF placement
};

/// Rung of the engine's graceful-degradation ladder (DESIGN.md §12).
/// Under sustained stress — solver budget blow-outs, a policy throwing,
/// too many quarantined flows, blackout — the engine steps down one rung
/// per stressed epoch and climbs back one rung per clean streak.
enum class DegradationRung : std::uint8_t {
  kFull = 0,         ///< normal operation: the policy solves the epoch
  kRefreshOnly = 1,  ///< placement held; only the exact cost refresh runs
  kFrozen = 2,       ///< placement and cost refresh frozen; stale accounting
};

/// Human-readable rung name ("full" / "refresh-only" / "frozen").
const char* to_string(DegradationRung rung);

/// What one policy invocation did in one epoch.
struct EpochDecision {
  double comm_cost = 0.0;       ///< C_a charged for the epoch
  double migration_cost = 0.0;  ///< migration traffic spent this epoch
  int vnf_migrations = 0;
  int vm_migrations = 0;
  /// Ids of flows whose endpoints the policy relocated this epoch.
  /// Policies that mutate `SimState::flows` MUST report every touched flow
  /// here — the engine uses it to patch the cost model incrementally
  /// instead of re-scanning every flow (CostModel::endpoints_moved).
  std::vector<FlowId> moved_flows;
  /// Exponential solves behind this decision that exhausted their budget
  /// and fell back to the incumbent (observers see the epoch's sum over
  /// shards via on_budget_truncation).
  int truncated_solves = 0;

  // Fault bookkeeping, filled in by the engine (all zero on a pristine
  // fabric; policies never touch these).
  int switch_failures = 0;     ///< switch failures applied this epoch
  int link_failures = 0;       ///< link failures applied this epoch
  int repairs = 0;             ///< switch + link repairs this epoch
  int recovery_migrations = 0; ///< VNFs force-moved off failed switches
  double recovery_cost = 0.0;  ///< μ-weighted emergency migration traffic
  int quarantined_flows = 0;   ///< flows cut off from the serving core
  double quarantine_penalty = 0.0;  ///< SLA penalty charged for them
  /// True when the serving core could not host the chain this epoch
  /// (blackout: no placement, every flow quarantined).
  bool service_down = false;
  /// Ladder rung the epoch *executed* at (kFull unless the ladder is
  /// enabled and had stepped down before this epoch). At kRefreshOnly
  /// the policy was skipped; at kFrozen comm_cost is the previous
  /// epoch's estimate (stale by design — the auditor exempts it).
  DegradationRung rung = DegradationRung::kFull;
  /// True when the ladder contained a policy throw this epoch (the
  /// pre-policy state was restored and the epoch charged at the held
  /// placement).
  bool policy_failed = false;

  // Shard bookkeeping (sim/sharded.hpp). A shard counts as resolved on
  // every epoch that charged its placement through the policy path
  // (including hour 0), as held on epochs that kept it (bounded
  // staleness, kRefreshOnly, kFrozen), and as neither on blackout epochs.
  int resolved_shards = 0;  ///< shards whose placement was re-solved
  int held_shards = 0;      ///< shards that kept their placement

  // Per-shard failure containment (sim/sharded.hpp, DESIGN.md §15). A
  // shard whose policy clone throws is quarantined — placement held,
  // costs patched exactly, SLA-penalized — while the other shards keep
  // solving.
  int quarantined_shards = 0;   ///< shards that spent this epoch quarantined
  int shard_retries = 0;        ///< backoff re-solve attempts this epoch
  double shard_penalty = 0.0;   ///< SLA penalty for quarantined shard-epochs
};

/// Interface implemented by every migration strategy.
///
/// Policies are *cloneable prototypes*: the experiment runner never calls
/// `on_epoch` on the instance it is handed — it derives one fresh clone
/// per (trial, policy) SimJob, so any mutable per-run state a policy
/// keeps is isolated per trial and safe to run in parallel. `clone()`
/// must produce an independent instance carrying the configuration but
/// none of the shared mutable state (a copy of `*this` is correct for
/// value-semantic policies). `on_epoch` must derive its answer from the
/// model and state it is handed: a run resumed from its epoch journal
/// skips the replayed epochs' calls (DESIGN.md §10), so state carried
/// across epochs diverges — unless it is a cache of a pure function of
/// inputs every epoch sees alike.
class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;
  virtual std::string name() const = 0;
  /// Independent copy for one simulation run (the clone()/factory
  /// contract of the parallel experiment runner).
  virtual std::unique_ptr<MigrationPolicy> clone() const = 0;
  /// Retry hook of the experiment runner: when a job fails with
  /// TransientError and is re-attempted, the fresh clone of attempt a >= 1
  /// receives a deterministically resplit per-attempt stream here before
  /// its first epoch. Stochastic policies may re-derive tie-break state
  /// from it to escape the transient condition; deterministic policies
  /// (every built-in) ignore it — the default body draws nothing, so
  /// attempt 0 remains bit-identical to a runner without retry support.
  virtual void reseed(Rng& /*attempt_rng*/) {}
  /// Reacts to the epoch's (already refreshed) cost model; may mutate
  /// `state` (placement and/or flow endpoints). Endpoint mutations must be
  /// reported via EpochDecision::moved_flows so the engine can patch the
  /// cost model incrementally.
  virtual EpochDecision on_epoch(const CostModel& model, SimState& state) = 0;
};

/// Keeps the initial placement forever.
class NoMigrationPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "NoMigration"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<NoMigrationPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override;
};

/// mPareto (Algorithm 5); optionally frontier-exhaustive ("Optimal" proxy
/// at k = 16 scale when `options.exhaustive_frontiers` is set).
class ParetoMigrationPolicy final : public MigrationPolicy {
 public:
  ParetoMigrationPolicy(double mu, ParetoMigrationOptions options = {},
                        std::string display_name = "mPareto");
  std::string name() const override { return name_; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ParetoMigrationPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override;

 private:
  double mu_;
  ParetoMigrationOptions options_;
  std::string name_;
};

/// Exhaustive Algorithm 6 via branch and bound (tractable small PPDCs).
/// When the search is truncated (node budget exhausted, proven_optimal =
/// false) the policy degrades gracefully to mPareto and keeps whichever
/// answer is cheaper — both are warm-started at "stay put", so the
/// result is never worse than NoMigration.
class ExhaustiveMigrationPolicy final : public MigrationPolicy {
 public:
  ExhaustiveMigrationPolicy(double mu, ChainSearchConfig config = {});
  std::string name() const override { return "Optimal"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ExhaustiveMigrationPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override;

 private:
  double mu_;
  ChainSearchConfig config_;
};

/// Re-solves TOP from scratch every epoch and jumps straight to the fresh
/// optimum, paying the full migration bill (ablation reference: what
/// mPareto's frontier scan saves against always re-placing).
class ResolvePlacementPolicy final : public MigrationPolicy {
 public:
  explicit ResolvePlacementPolicy(double mu, TopDpOptions options = {});
  std::string name() const override { return "Resolve"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ResolvePlacementPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override;

 private:
  double mu_;
  TopDpOptions options_;
};

/// PLAN VM migration [17].
class PlanPolicy final : public MigrationPolicy {
 public:
  explicit PlanPolicy(VmMigrationConfig config);
  std::string name() const override { return "PLAN"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<PlanPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override;

 private:
  VmMigrationConfig config_;
};

/// MCF VM migration [24].
class McfPolicy final : public MigrationPolicy {
 public:
  explicit McfPolicy(VmMigrationConfig config);
  std::string name() const override { return "MCF"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<McfPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override;

 private:
  VmMigrationConfig config_;
};

}  // namespace ppdc
