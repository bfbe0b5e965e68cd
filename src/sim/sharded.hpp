// The epoch engine: a sharded loop over a streaming workload (DESIGN.md
// §14). run_simulation() (sim/engine.hpp) is this loop over one shard.
//
// run_sharded_simulation() runs the dynamic experiment over the shards of
// core/sharded_cost_model.hpp (one per ingress pod, or a single shard):
// every shard owns its own flow subset, cost model, policy clone, and
// placement, and the epoch loop solves the shards concurrently in one
// executor region (util/executor.hpp). Between epochs the
// StreamingWorkload churns (arrivals / departures / re-rates), and each
// shard re-solves only when its accumulated churn crosses
// ShardedStreamingConfig::resolve_churn_fraction or it has been held for
// max_staleness epochs (bounded staleness). Held shards keep their
// placement but are re-costed *exactly* — their cost model still refreshes
// under the epoch's diurnal scales and the epoch charges
// communication_cost(placement), never a stale estimate.
//
// The loop is a file-local runner in sharded.cpp with one member
// function per phase (DESIGN.md §14). It opens the journal and solves
// hour 0 on the shard pool. Then, per epoch, the main thread commits the
// churn and applies the faults, one executor region runs every shard's
// task (churn apply, traffic and quarantine, model maintenance, recovery,
// policy or hold) and draws the next epoch's churn, and the main thread
// checks a replayed epoch against the journal, merges, steps the ladders,
// audits and appends to the journal.
//
// Determinism contract: shard state is exact per shard and decisions
// merge field-wise in fixed pod order, so the trace is bit-identical at
// any thread count. Over ShardMap::single with a churn-free workload the
// trace equals run_simulation's field for field.
//
// Every policy family runs here. VM-migration policies (PLAN/MCF) move
// endpoints in their shard's flows; the engine patches the shard model
// (CostModel::endpoints_moved) and mirrors the moves into the workload's
// global flow vector. A custom SimConfig::rate_schedule gives per-flow
// rates over the global flow vector and is served by full refreshes.
//
// Fault containment (DESIGN.md §15): with the ladder enabled each shard
// owns a private degradation ladder. A shard whose policy clone throws is
// quarantined — placement held, costs patched exactly on the refreshed
// model, SLA-penalized via `quarantine_sla` — while the other shards keep
// solving; seeded-backoff re-solve attempts (on_shard_retry) end the
// quarantine once a retry completes. Runtime invariant auditing
// (SimConfig::audit) attaches a ShardedInvariantAuditor that re-derives
// every shard's epoch from scratch.
//
// Epoch checkpointing: with a journal path, the run journals what its
// solvers answered — the hour-0 placements, then per epoch and shard the
// recovery target of a stranded shard and the policy's outcome — to a
// CRC32-framed file, rewritten atomically after every epoch
// (sim/checkpoint.hpp, DESIGN.md §10). A killed run relaunched with the
// same journal path re-executes from hour 0 with fresh state and takes the
// journaled answers instead of solving, so it is bit-identical to an
// uninterrupted run at any thread count, and observers see every epoch as
// live. A finished run's journal replays it without a solver call.
#pragma once

#include <string>

#include "core/sharded_cost_model.hpp"
#include "graph/apsp.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "workload/streaming.hpp"

namespace ppdc {

/// Knobs of the sharded streaming loop.
struct ShardedStreamingConfig {
  /// Experiment-level gate (sim/experiment.hpp): when false the runner
  /// takes the single-shard run_simulation path over its static flows
  /// and every other field is ignored.
  bool enabled = false;
  /// Inter-epoch churn intensities of the StreamingWorkload.
  StreamingChurnConfig churn;
  /// A shard re-solves when its churned-flow count since the last solve
  /// reaches this fraction of its live flows. 0 (default) re-solves every
  /// shard every epoch. Fault epochs and
  /// shards with stranded VNFs always re-solve regardless.
  double resolve_churn_fraction = 0.0;
  /// Hard bound on consecutive held epochs per shard (bounded staleness);
  /// only consulted when resolve_churn_fraction > 0.
  int max_staleness = 4;
  /// Worker threads solving shards concurrently. 0 = auto (hardware
  /// concurrency). A run_experiment job on a multi-worker job pool solves
  /// its shards inline (util/executor.hpp). Any value is bit-identical —
  /// the merge order is fixed — so threads are never fingerprinted.
  /// This sizes the shard pool, which also applies each epoch's churn
  /// (every shard task applies its own). The kernels the main thread
  /// runs between shard phases — the APSP build, the shard-model build
  /// and full refreshes — run at executor width whatever the value, so a
  /// 1-thread run is not a serial run.
  int threads = 1;
  /// SLA penalty per unit of served traffic rate per quarantined
  /// shard-epoch (a shard sitting out its failure backoff still serves on
  /// a stale placement; this prices that staleness). Shapes results, so
  /// it is part of the run fingerprint. 0 only counts quarantined
  /// shard-epochs without charging them.
  double quarantine_sla = 0.0;
};

/// Runs one policy prototype over the horizon, sharded by `map`. The
/// workload is advanced in place (one churn step per epoch from hour 1
/// on); `n` is the per-shard SFC length. The trace's per-epoch decisions
/// are the fixed-order field-wise merge of the per-shard decisions;
/// resolved/held shard counts land in EpochDecision::resolved_shards /
/// held_shards and observers additionally see on_shard_batch.
///
/// `journal` is the epoch journal's path (empty = no checkpointing). An
/// existing journal of this very run resumes it; a foreign, stale or
/// corrupt one warns and the run starts fresh. `attempt` is the retry
/// attempt the run belongs to (run_experiment's TransientError retries):
/// it is recorded in the journal and keys its fingerprint. A custom
/// SimConfig::rate_schedule cannot be journaled (the fingerprint cannot
/// hash it) and is rejected together with a journal path.
SimTrace run_sharded_simulation(const AllPairs& apsp, const ShardMap& map,
                                StreamingWorkload& workload, int n,
                                const SimConfig& config,
                                const ShardedStreamingConfig& sharded,
                                const MigrationPolicy& prototype,
                                EpochObserver* observer = nullptr,
                                const std::string& journal = {},
                                int attempt = 0);

}  // namespace ppdc
