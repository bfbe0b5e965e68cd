// Structured epoch-event stream of the dynamic simulation.
//
// The engine used to accumulate its accounting ad hoc into trace totals;
// benches and tests that wanted to know *when* something happened had to
// poke at per-epoch fields after the fact. `EpochObserver` turns the
// engine inside out: every notable event — epoch boundaries, fault fires
// and repairs, emergency recovery, solver budget truncation, quarantine,
// blackout — is pushed through a sink interface while the run executes.
// `SimTrace` itself is rebuilt on top of the stream: `TraceRecorder` is
// the one observer the engine always installs, and the trace returned by
// `run_simulation` is exactly what the recorder accumulated. External
// observers (progress meters, CSV event logs, convergence probes) attach
// as a second sink without touching the engine.
//
// Every callback has an empty default body, so observers override only
// what they care about. Callbacks fire on the thread running the
// simulation; an observer shared across parallel SimJobs must synchronise
// itself (the experiment runner never shares one — each job owns its
// recorder).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "fault/fault.hpp"
#include "sim/policy.hpp"
#include "util/ids.hpp"

namespace ppdc {

/// Sink interface for the engine's epoch event stream.
class EpochObserver {
 public:
  virtual ~EpochObserver() = default;

  /// The hour-0 TOP solve finished; the run is about to iterate `horizon`
  /// epochs starting from `initial`.
  virtual void on_run_begin(Hour /*horizon*/, const Placement& /*initial*/) {}

  /// A new epoch starts (before fault events and traffic are applied).
  virtual void on_epoch_begin(Hour /*hour*/) {}

  /// Fault events fired this epoch (only called when at least one switch
  /// or link failed or was repaired).
  virtual void on_faults(Hour /*hour*/, const EpochFaults& /*events*/) {}

  /// `flows` flows were cut off from the serving core this epoch; their
  /// `unserved_rate` went unserved and `penalty` was charged for it.
  virtual void on_quarantine(Hour /*hour*/, int /*flows*/,
                             double /*unserved_rate*/, double /*penalty*/) {}

  /// The surviving core cannot host the chain: a downtime epoch.
  virtual void on_blackout(Hour /*hour*/) {}

  /// Emergency recovery force-moved `migrations` VNFs off dead or
  /// unreachable switches at `cost` migration traffic.
  virtual void on_recovery(Hour /*hour*/, int /*migrations*/,
                           double /*cost*/) {}

  /// `truncated_solves` exponential solves behind this epoch's decision
  /// ran out of budget and fell back to their incumbent.
  virtual void on_budget_truncation(Hour /*hour*/, int /*truncated_solves*/) {}

  /// The epoch's shard batch was solved (sim/sharded.hpp; a
  /// run_simulation run is one shard) — `resolved` shards re-ran their
  /// policy, `held` shards kept their placement (bounded staleness or a
  /// held ladder rung), out of a `churned`-flow churn applied this epoch.
  /// Fires after recovery and before on_epoch_end.
  virtual void on_shard_batch(Hour /*hour*/, int /*resolved*/, int /*held*/,
                              int /*churned*/) {}

  /// Shard `shard` (named `name`) stepped its private graceful-degradation
  /// ladder from rung `from` to `to` after epoch `hour` executed (always
  /// one rung at a time; `reason` is a short tag like "solve-budget",
  /// "policy-throw", "quarantine", "blackout", or "recovered"). The epoch
  /// that *triggered* the step still executed at `from`; the shard's next
  /// epoch runs at `to`.
  virtual void on_shard_ladder_transition(Hour /*hour*/, int /*shard*/,
                                          const std::string& /*name*/,
                                          DegradationRung /*from*/,
                                          DegradationRung /*to*/,
                                          const std::string& /*reason*/) {}

  /// Shard `shard` entered (or stayed in) failure quarantine after its
  /// policy clone threw for the `fail_streak`-th consecutive attempt;
  /// `required_clean` clean epochs (seeded backoff) must pass before its
  /// next re-solve attempt.
  virtual void on_shard_quarantine(Hour /*hour*/, int /*shard*/,
                                   const std::string& /*name*/,
                                   int /*fail_streak*/,
                                   int /*required_clean*/) {}

  /// A quarantined shard's backoff elapsed and its policy was
  /// re-attempted this epoch; `healed` reports whether the attempt
  /// completed (ending the quarantine) or threw again.
  virtual void on_shard_retry(Hour /*hour*/, int /*shard*/,
                              const std::string& /*name*/, bool /*healed*/) {}

  /// The epoch is fully costed; `decision` carries the final bookkeeping
  /// (policy costs plus the engine's fault stamps).
  virtual void on_epoch_end(Hour /*hour*/, const EpochDecision& /*decision*/) {}

  /// The horizon is exhausted; no further callbacks follow.
  virtual void on_run_end() {}

  /// Cooperative cancellation fired before epoch `hour` ran
  /// (SimConfig::cancel): the run is being abandoned mid-horizon and
  /// SimInterrupted is about to be thrown. Neither on_epoch_end for this
  /// hour nor on_run_end follows — the partial run must not be mistaken
  /// for a complete trace (its epoch journal, if any, resumes it).
  virtual void on_interrupted(Hour /*hour*/) {}
};

/// Full record of one simulation run, accumulated by `TraceRecorder` from
/// the observer stream.
struct SimTrace {
  std::vector<EpochDecision> epochs;
  Placement initial_placement;
  double total_comm_cost = 0.0;
  double total_migration_cost = 0.0;
  /// Grand total: communication + policy migration + emergency recovery
  /// migration + quarantine penalties (flow and shard).
  double total_cost = 0.0;
  int total_vnf_migrations = 0;
  int total_vm_migrations = 0;

  // Fault accounting (all zero for a pristine run).
  int total_switch_failures = 0;
  int total_link_failures = 0;
  int total_repairs = 0;
  int total_recovery_migrations = 0;  ///< VNFs force-moved off failures
  double total_recovery_cost = 0.0;
  int quarantined_flow_epochs = 0;  ///< Σ per-epoch quarantined flow count
  double total_quarantine_penalty = 0.0;
  int downtime_epochs = 0;  ///< epochs the core could not host the chain
  /// Budget-truncated exponential solves across the run (the policies'
  /// EpochDecision::truncated_solves).
  int total_truncated_solves = 0;

  // Graceful-degradation ladder accounting (all zero when the ladder is
  // disabled or never tripped).
  int ladder_transitions = 0;    ///< rung changes (down steps + recoveries)
  int refresh_only_epochs = 0;   ///< epochs executed at kRefreshOnly
  int frozen_epochs = 0;         ///< epochs executed at kFrozen
  int policy_failures = 0;       ///< policy throws contained by the ladder
  /// Epochs the invariant auditor checked (0 when auditing is off).
  int audited_epochs = 0;

  // Shard accounting (sim/sharded.hpp; see EpochDecision::resolved_shards).
  int total_shard_resolves = 0;  ///< Σ per-epoch resolved shards
  int total_shard_holds = 0;     ///< Σ per-epoch held shards

  // Per-shard failure containment (DESIGN.md §15).
  int quarantined_shard_epochs = 0;  ///< Σ per-epoch quarantined shards
  int total_shard_retries = 0;       ///< backoff re-solve attempts
  double total_shard_penalty = 0.0;  ///< SLA penalty for quarantined shards
};

/// The observer that builds `SimTrace`. The engine always installs one;
/// external code may also use it standalone to aggregate a custom event
/// stream into trace form.
class TraceRecorder final : public EpochObserver {
 public:
  void on_run_begin(Hour horizon, const Placement& initial) override {
    trace_.initial_placement = initial;
    trace_.epochs.reserve(static_cast<std::size_t>(horizon.value()));
  }

  void on_shard_ladder_transition(Hour /*hour*/, int /*shard*/,
                                  const std::string& /*name*/,
                                  DegradationRung /*from*/,
                                  DegradationRung /*to*/,
                                  const std::string& /*reason*/) override {
    ++trace_.ladder_transitions;
  }

  void on_epoch_end(Hour /*hour*/, const EpochDecision& d) override {
    if (d.rung == DegradationRung::kRefreshOnly) ++trace_.refresh_only_epochs;
    if (d.rung == DegradationRung::kFrozen) ++trace_.frozen_epochs;
    if (d.policy_failed) ++trace_.policy_failures;
    trace_.total_comm_cost += d.comm_cost;
    trace_.total_migration_cost += d.migration_cost;
    trace_.total_vnf_migrations += d.vnf_migrations;
    trace_.total_vm_migrations += d.vm_migrations;
    trace_.total_switch_failures += d.switch_failures;
    trace_.total_link_failures += d.link_failures;
    trace_.total_repairs += d.repairs;
    trace_.total_recovery_migrations += d.recovery_migrations;
    trace_.total_recovery_cost += d.recovery_cost;
    trace_.quarantined_flow_epochs += d.quarantined_flows;
    trace_.total_quarantine_penalty += d.quarantine_penalty;
    trace_.total_truncated_solves += d.truncated_solves;
    trace_.total_shard_resolves += d.resolved_shards;
    trace_.total_shard_holds += d.held_shards;
    trace_.quarantined_shard_epochs += d.quarantined_shards;
    trace_.total_shard_retries += d.shard_retries;
    trace_.total_shard_penalty += d.shard_penalty;
    if (d.service_down) ++trace_.downtime_epochs;
    trace_.epochs.push_back(d);
  }

  void on_run_end() override {
    trace_.total_cost = trace_.total_comm_cost +
                        trace_.total_migration_cost +
                        trace_.total_recovery_cost +
                        trace_.total_quarantine_penalty +
                        trace_.total_shard_penalty;
  }

  /// Hands the accumulated trace out (recorder is spent afterwards).
  SimTrace take() { return std::move(trace_); }

 private:
  SimTrace trace_;
};

}  // namespace ppdc
