// Repeated-trial experiment runner.
//
// Every §VI data point is "an average of 20 runs with a 95% confidence
// interval". This runner regenerates the workload per trial from a
// deterministic seed stream, runs every policy on identical copies of the
// state, and aggregates totals plus per-hour series (Fig. 11(a)/(b) plot
// the per-hour breakdown, Fig. 11(c)/(d) the totals). Each trial × policy
// × hour rides the engine's incremental group-scaled cost-model refresh
// (see sim/engine.hpp), which is what keeps Fig. 8/11-style sweeps with
// tens of thousands of flows tractable.
//
// Execution model: the trials × policies grid is decomposed into
// independent SimJobs pulled by the workers of one executor region
// (util/executor.hpp). When that region runs on several workers, a job's
// own shard loop and kernels run inline on its worker, so regions never
// nest; at one worker (threads = 1, or a single job) they keep the full
// width. Each job derives its
// own policy instance from the caller's prototype via
// MigrationPolicy::clone() and consumes a pre-split, trial-indexed RNG
// stream, so no mutable state is shared between jobs. Per-job
// RunningStats are merged in deterministic trial order, which makes the
// result bit-identical for every thread count (the merge schedule is
// fixed, not a function of worker interleaving). For single-sample
// bundles merge() degenerates to Welford's add() on the mean, so the
// reported means also match the historical serial runner bit for bit.
//
// Robustness (DESIGN.md §10): with `checkpoint_path` set, every
// (trial, policy) cell keeps its own epoch journal (sim/checkpoint.hpp).
// A relaunched run runs every cell again: a finished cell's journal
// replays it without a solver call, an interrupted cell resumes
// mid-run, and a missing or foreign journal starts the cell fresh — the
// result is bit-identical to an uninterrupted run at any thread count.
// `keep_going` quarantines throwing policy clones into per-policy failure
// records instead of aborting the grid; `retry_limit` bounds reruns of
// TransientError jobs; SimConfig::cancel wires SIGINT/SIGTERM into a
// clean partial stop (ExperimentInterrupted) with every journal durable.
#pragma once

#include <string>
#include <vector>

#include "graph/apsp.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "topology/topology.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {

/// Experiment-level configuration.
struct ExperimentConfig {
  int trials = 20;
  std::uint64_t seed = 42;
  VmPlacementConfig workload;  ///< how flows are generated each trial
  int sfc_length = 7;          ///< n
  /// Worker threads of the SimJob pool. 0 = auto: hardware concurrency.
  /// Any value yields bit-identical results; only wall-clock changes.
  int threads = 0;
  /// Base path of the cell journals (empty = no checkpointing). Cell
  /// (trial, policy) journals its epochs at `<base>.t<trial>p<policy>`;
  /// a finished cell keeps its journal as its terminal record, a failed
  /// cell's journal is deleted so the cell reruns on resume.
  std::string checkpoint_path;
  /// Failure containment: instead of rethrowing the first failing job in
  /// grid order, quarantine the failing (trial, policy) cell — record the
  /// exception text in PolicyStats::failures, leave that cell's samples
  /// absent, and keep running the rest of the grid untouched.
  bool keep_going = false;
  /// Extra attempts for jobs that fail with TransientError (0 = fail on
  /// first throw). Each retry runs a fresh policy clone that is handed a
  /// deterministically resplit per-attempt RNG stream via
  /// MigrationPolicy::reseed; deterministic errors (plain PpdcError) are
  /// never retried.
  int retry_limit = 0;
  SimConfig sim;
  /// Pod-sharded streaming execution (sim/sharded.hpp). When enabled,
  /// each trial regenerates a StreamingWorkload from its per-trial RNG
  /// stream (same seeder order as the static path, so trial t's initial
  /// flows match the single-shard runner bit for bit) and every job runs
  /// run_sharded_simulation over ShardMap::by_ingress_pod(topo). The
  /// churn/staleness knobs are fingerprinted; `sharded.threads` (like
  /// `threads` above) is not — any value is bit-identical.
  ShardedStreamingConfig sharded;
};

/// One (trial, policy) cell that was quarantined under keep_going.
struct JobFailure {
  int trial = 0;
  int attempts = 1;    ///< total attempts, including retries
  std::string error;   ///< what() of the final attempt
};

/// Aggregated outcome of one policy across trials.
struct PolicyStats {
  std::string name;
  MeanCi total_cost;
  MeanCi comm_cost;
  MeanCi migration_cost;
  MeanCi vnf_migrations;
  MeanCi vm_migrations;
  // Fault accounting (all zero when the simulation runs fault-free).
  MeanCi recovery_migrations;       ///< VNFs force-moved off failures
  MeanCi recovery_cost;             ///< emergency migration traffic
  MeanCi quarantined_flow_epochs;   ///< Σ per-epoch quarantined flows
  MeanCi quarantine_penalty;        ///< SLA penalty for unserved demand
  MeanCi downtime_epochs;           ///< epochs with no feasible placement
  MeanCi truncated_solves;          ///< budget-truncated exponential solves
  // Graceful-degradation ladder accounting (all zero with the ladder off).
  MeanCi ladder_transitions;        ///< rung changes per run
  MeanCi refresh_only_epochs;       ///< epochs executed at kRefreshOnly
  MeanCi frozen_epochs;             ///< epochs executed at kFrozen
  MeanCi policy_failures;           ///< policy throws contained per run
  // Shard accounting (a run_simulation run is one shard; see
  // EpochDecision::resolved_shards).
  MeanCi shard_resolves;            ///< Σ per-epoch re-solved shards
  MeanCi shard_holds;               ///< Σ per-epoch held shards
  // Shard failure containment (DESIGN.md §15; zero unless a policy throws
  // under the ladder).
  MeanCi quarantined_shard_epochs;  ///< Σ per-epoch failure-quarantined shards
  MeanCi shard_retries;             ///< quarantine re-solve attempts per run
  MeanCi shard_penalty;             ///< Σ quarantine_sla · served rate
  /// Per-hour mean of comm + migration cost and of migration counts.
  std::vector<MeanCi> hourly_cost;
  std::vector<MeanCi> hourly_migrations;
  /// Trials that contributed samples. Equal to ExperimentConfig::trials
  /// unless keep_going quarantined cells of this policy; 0 means every
  /// trial failed and all MeanCi fields above are absent (not zero-cost).
  int completed_trials = 0;
  /// Quarantined cells of this policy (empty unless keep_going).
  std::vector<JobFailure> failures;
};

/// Thrown by run_experiment when SimConfig::cancel flips mid-grid (the
/// SIGINT/SIGTERM path of bench_common). With checkpointing configured,
/// every cell's journal is durable up to its last finished epoch;
/// partial_summary() reports per-policy completion so the harness can
/// print what the interrupted campaign already knows.
class ExperimentInterrupted : public PpdcError {
 public:
  ExperimentInterrupted(const std::string& what, std::string summary)
      : PpdcError(what), summary_(std::move(summary)) {}

  /// Human-readable per-policy "completed trials / total" table.
  const std::string& partial_summary() const noexcept { return summary_; }

 private:
  std::string summary_;
};

/// Resolves an ExperimentConfig::threads request to the worker count the
/// pool will actually use: values >= 1 pass through; 0 (auto) means
/// parallel_width() — the hardware concurrency, or 1 where regions run
/// inline (util/executor.hpp).
int resolve_experiment_threads(int requested);

/// Runs every policy over `config.trials` independently seeded workloads.
/// All policies see the same workload in each trial (paired comparison).
///
/// `policies` are prototypes: each (trial, policy) SimJob runs on a fresh
/// `clone()` of its prototype, so the instances passed in are never
/// mutated and stateful policies start every trial from a clean slate.
std::vector<PolicyStats> run_experiment(
    const Topology& topo, const AllPairs& apsp, const ExperimentConfig& config,
    const std::vector<const MigrationPolicy*>& policies);

}  // namespace ppdc
