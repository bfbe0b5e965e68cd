// Runtime invariant auditing for the dynamic simulation (DESIGN.md §12).
//
// The engine's fault machinery, degradation ladder, and incremental
// cost-model maintenance each preserve invariants that no unit test can
// check across every epoch of a chaotic run: the placement must stay
// feasible on whatever is left of the fabric, the costs stamped into the
// trace must equal what the cost model would recompute from scratch, the
// injector's dead set and the degraded view must agree, and the observer
// event stream must be shaped like a run. `ShardedInvariantAuditor` is
// an opt-in per-epoch checker of exactly those properties: the engine
// (sim/sharded.hpp, also behind run_simulation) constructs one per run
// when `AuditOptions::enabled` is set, feeds it the same event stream
// every other observer sees, and checks every shard and then the merged
// epoch after each epoch is fully costed. A violation throws
// `AuditError`, which carries a structured diagnostic (epoch, policy,
// violated invariant, offending FlowId / switch NodeId, shard) on top of
// the formatted message.
//
// The auditor is a pure observer of one run on one thread — parallel
// experiment jobs each get their own instance (plain-data AuditOptions
// live in SimConfig; nothing is shared).
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/sharded_cost_model.hpp"
#include "fault/degraded.hpp"
#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// Knobs of the runtime invariant auditor (plain data, safe to copy into
/// every parallel simulation job).
struct AuditOptions {
  bool enabled = false;
};

/// Structured description of one invariant violation.
struct AuditViolation {
  Hour epoch = Hour::invalid();
  std::string policy;
  /// One of "placement-feasibility", "cost-conservation",
  /// "injector-consistency", "id-map-consistency", "event-stream",
  /// "stroll-cache" (a cached stroll DP answer differs from a fresh one).
  std::string invariant;
  FlowId flow = FlowId::invalid();     ///< offending flow, when one exists
  NodeId node = kInvalidNode;          ///< offending switch, when one exists
  std::string shard;                   ///< offending shard name (sharded runs)
  std::string detail;                  ///< human-readable specifics
};

/// Thrown by ShardedInvariantAuditor on the first violated invariant.
class AuditError : public PpdcError {
 public:
  explicit AuditError(AuditViolation violation);
  const AuditViolation& violation() const noexcept { return violation_; }

 private:
  AuditViolation violation_;
};

class ShardedCostModel;  // core/sharded_cost_model.hpp
class StreamingWorkload;  // workload/streaming.hpp

/// Everything the sharded auditor needs to re-derive one *shard's* epoch
/// truth (DESIGN.md §15). `model` is the model the shard's epoch was
/// costed on (the degraded model on faulty epochs); `flows` carry the
/// epoch's quarantine-adjusted rates.
struct ShardAuditContext {
  Hour epoch = Hour::invalid();
  int shard = -1;
  const std::string* name = nullptr;
  const CostModel* model = nullptr;
  const std::vector<VmFlow>* flows = nullptr;
  const Placement* placement = nullptr;
  double charged_comm = 0.0;  ///< the comm cost the merge charged this shard
  bool frozen = false;        ///< executed at kFrozen (stale charge, exempt)
  bool service_down = false;  ///< blackout epoch (nothing served)
  const DegradedNetwork* degraded = nullptr;
  int n = 0;
};

/// The epoch-global inputs of the sharded audit (after the merge).
struct ShardedAuditContext {
  Hour epoch = Hour::invalid();
  const ShardedCostModel* shards = nullptr;
  const std::vector<VmFlow>* global_flows = nullptr;  ///< base-rate vector
  const EpochDecision* decision = nullptr;
  const DegradedNetwork* degraded = nullptr;
  const FaultInjector* injector = nullptr;
};

/// Per-run invariant checker of the epoch engine (sim/sharded.hpp).
/// Reasons per shard: placement feasibility on each shard's degraded
/// core, with a finite cost for every served flow, per-shard comm-cost
/// conservation against from-scratch flow_cost sums (including the
/// exactly-patched costs of held shards), the sampled stroll-cache check,
/// global↔local id-map consistency in ShardedCostModel (endpoints
/// included), injector consistency, and the merged event stream with its
/// per-shard ladder. Attach to the engine's event stream, call
/// check_shard_epoch once per shard (fixed shard order) after
/// on_epoch_end, then check_epoch for the merged decision, and check_run
/// on the finished trace. Violations throw AuditError naming the shard.
class ShardedInvariantAuditor final : public EpochObserver {
 public:
  ShardedInvariantAuditor(std::string policy_name,
                          std::vector<std::string> shard_names);

  // -- Event-stream sanity tracking (invariant "event-stream") ----------
  void on_run_begin(Hour horizon, const Placement& initial) override;
  void on_epoch_begin(Hour hour) override;
  void on_faults(Hour hour, const EpochFaults& events) override;
  void on_quarantine(Hour hour, int flows, double unserved_rate,
                     double penalty) override;
  void on_shard_ladder_transition(Hour hour, int shard,
                                  const std::string& name,
                                  DegradationRung from, DegradationRung to,
                                  const std::string& reason) override;
  void on_epoch_end(Hour hour, const EpochDecision& decision) override;

  /// Validates one shard's fully costed epoch. Call in fixed shard order
  /// after the epoch's on_epoch_end, before check_epoch.
  void check_shard_epoch(const ShardAuditContext& ctx);

  /// Validates the merged epoch: injector consistency, id-map
  /// consistency, and the merged comm cost against the per-shard charges
  /// accumulated by check_shard_epoch.
  void check_epoch(const ShardedAuditContext& ctx);

  /// Validates the finished trace (TraceRecorder conservation, stream
  /// closure, per-shard counter sums).
  void check_run(const SimTrace& trace) const;

  int checked_epochs() const noexcept { return checked_epochs_; }

 private:
  [[noreturn]] void fail(Hour epoch, std::string invariant,
                         std::string detail, int shard = -1,
                         FlowId flow = FlowId::invalid(),
                         NodeId node = kInvalidNode) const;

  void check_shard_placement(const ShardAuditContext& ctx) const;
  void check_shard_conservation(const ShardAuditContext& ctx) const;
  void check_idmap(const ShardedAuditContext& ctx) const;
  void check_injector(const ShardedAuditContext& ctx) const;

  std::string policy_;
  std::vector<std::string> shard_names_;
  int checked_epochs_ = 0;
  int transitions_seen_ = 0;

  // Stream state accumulated from the observer callbacks.
  Hour horizon_ = Hour::invalid();
  Hour open_epoch_ = Hour::invalid();
  Hour last_ended_ = Hour::invalid();
  bool epoch_ended_ = false;
  EpochFaults last_faults_;
  bool saw_faults_event_ = false;
  int stream_quarantined_ = 0;
  double stream_penalty_ = 0.0;
  std::vector<DegradationRung> shard_rungs_;  ///< from per-shard transitions

  // Per-epoch accumulation from check_shard_epoch (reset by
  // on_epoch_begin; compared by check_epoch).
  double epoch_comm_sum_ = 0.0;  ///< Σ charged_comm, fixed shard order
  int shards_checked_ = 0;
};

}  // namespace ppdc
