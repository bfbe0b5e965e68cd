// Epoch-driven dynamic PPDC simulation (§VI "Effects of VNF Migrations on
// Dynamic Traffic", Fig. 11).
//
// Lifecycle reproduced from the paper: TOP computes the initial optimal
// placement under the hour-0 rates, then every subsequent hour the traffic
// vector is re-scaled by the diurnal model (Eq. 9, east/west coast split)
// and the migration policy reacts. Costs accounted per epoch: the
// communication cost C_a of that hour plus whatever migration traffic the
// policy generated.
//
// There is one epoch loop, run_sharded_simulation (sim/sharded.hpp).
// run_simulation is that loop over a single shard holding every flow, fed
// by a churn-free flow source, driving the caller's own policy object.
//
// Cost-model maintenance is incremental on the diurnal path: the hourly
// rescaling multiplies whole groups, so each epoch's attraction refresh is
// an O(|groups| · |V_s|) recombination of precomputed per-group base
// vectors instead of an O(l · |V_s|) rescan, and VM-migration policies
// report their moved flows (EpochDecision::moved_flows) so only those are
// patched. A custom rate_schedule takes the full rescan instead (rates may
// change arbitrarily per flow).
//
// Fault tolerance: an optional FaultSchedule fails and repairs switches
// and fabric links while the simulation runs. On every topology change the
// engine rebuilds a DegradedNetwork (masked graph + allow-disconnected
// APSP + serving core) and fault-epoch CostModels restricted to the
// core's alive switches. Flows cut off from the core are quarantined for
// the epoch (rate zeroed, SLA penalty charged); VNFs stranded on dead or
// unreachable switches are emergency-migrated to the restricted fresh
// optimum before the policy runs; epochs whose core cannot host the chain
// at all are counted as downtime. A run with an empty (or never-firing)
// schedule takes exactly the pristine code path, including the incremental
// group-refresh fast path, and reproduces the fault-free trace bit for
// bit.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/placement_dp.hpp"
#include "fault/fault.hpp"
#include "graph/apsp.hpp"
#include "sim/audit.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "workload/diurnal.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// Switch of the graceful-degradation ladder (DESIGN.md §12). When
/// enabled, sustained stress steps the engine down one rung per stressed
/// epoch — full re-solve (kFull) → refresh-only (kRefreshOnly, the
/// placement is held and only the exact cost refresh runs) → frozen
/// (kFrozen, placement and cost refresh held, the previous epoch's comm
/// cost is charged as a stale estimate) — and a clean streak steps it
/// back up one rung at a time. Every transition is emitted as a
/// first-class EpochObserver event and counted in SimTrace. Quarantine,
/// SLA penalties, downtime accounting, and emergency recovery (stranded
/// VNFs must move) keep running at every rung. The trips and the recovery
/// streak are fixed constants of sim/sharded.cpp.
struct LadderOptions {
  bool enabled = false;
};

/// Knobs of the fault-handling machinery (only consulted when the
/// schedule actually degrades the fabric).
struct FaultOptions {
  /// μ of emergency recovery migrations. Their distance is measured on the
  /// *pristine* metric — the bits of a VNF stranded on a dead switch still
  /// have to travel that far — so the cost is finite even when the source
  /// switch is down.
  double mu = 1.0;
  /// SLA penalty per unit of quarantined (unserved) traffic rate per
  /// epoch. 0 only counts quarantined flows without charging them.
  double quarantine_penalty = 0.0;
  /// Knobs for the emergency re-placement DP on the degraded fabric.
  TopDpOptions placement;
};

/// Per-run configuration.
struct SimConfig {
  int hours = 12;             ///< simulated horizon (one diurnal cycle)
  DiurnalModel diurnal;       ///< rate schedule
  TopDpOptions initial_placement;  ///< knobs for the hour-0 TOP solve
  /// Optional custom rate schedule; when set it overrides the diurnal
  /// model: schedule(hour) must return the per-flow rates of that hour
  /// (validated: one non-negative rate per flow).
  std::function<std::vector<double>(Hour)> rate_schedule;
  /// Switch/link failure timeline (empty = pristine run). Events must
  /// start at epoch 1: the initial placement always sees the full fabric.
  FaultSchedule faults;
  FaultOptions fault;  ///< recovery / quarantine knobs
  /// Graceful-degradation ladder; disabled by default (a throwing policy
  /// then aborts the run, exactly the pre-ladder contract). With the
  /// ladder on, a policy throw is contained per shard: the policy's
  /// changes are dropped, the epoch is charged at the held placement, and
  /// the shard steps down and retries after a seeded backoff.
  LadderOptions ladder;
  /// Runtime invariant auditing (sim/audit.hpp); disabled by default.
  /// The engine constructs one ShardedInvariantAuditor per run —
  /// plain-data options copy safely into parallel experiment jobs.
  AuditOptions audit;
  /// Cooperative cancellation (SIGINT/SIGTERM plumbing of bench_common):
  /// when non-null and the pointee flips to true, the engine stops at the
  /// next epoch boundary by throwing SimInterrupted. A cancelled run
  /// produced no trace; its epoch journal, when it keeps one, resumes it
  /// bit-identically. Not part of the run fingerprint (it never
  /// influences results, only whether they are produced).
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown by run_simulation when SimConfig::cancel flips mid-run. The
/// simulation state is abandoned; no partial trace escapes.
class SimInterrupted : public PpdcError {
 public:
  using PpdcError::PpdcError;
};

/// Runs `policy` itself (not a clone) over the horizon: the single-shard
/// run_sharded_simulation. `base_flows` carry the base rates (the diurnal
/// scale multiplies them); `n` is the SFC length.
///
/// The returned `SimTrace` (see sim/observer.hpp) is accumulated by the
/// engine's own `TraceRecorder`; pass an `observer` to additionally
/// receive the structured epoch event stream (epoch boundaries, fault
/// fires/repairs, recovery, budget truncation, quarantine, blackout,
/// shard batches and ladder steps) while the run executes. The observer
/// is invoked on the calling thread. `journal` and `attempt` are the
/// epoch journal's path and retry attempt, as for run_sharded_simulation.
SimTrace run_simulation(const AllPairs& apsp,
                        const std::vector<VmFlow>& base_flows, int n,
                        const SimConfig& config, MigrationPolicy& policy,
                        EpochObserver* observer = nullptr,
                        const std::string& journal = {}, int attempt = 0);

}  // namespace ppdc
