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
// Robustness (DESIGN.md §10): with `checkpoint_path` set, every completed
// (trial, policy) job is journaled durably (sim/checkpoint.hpp) and a
// relaunched run validates the config fingerprint, skips journaled cells
// and merges them in the same fixed trial order — bit-identical to an
// uninterrupted run at any thread count. `keep_going` quarantines
// throwing policy clones into per-policy failure records instead of
// aborting the grid; `retry_limit` bounds reruns of TransientError jobs;
// SimConfig::cancel wires SIGINT/SIGTERM into a clean partial stop
// (ExperimentInterrupted) with the journal already flushed.
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
  /// Crash-safe journal path (empty = no checkpointing). When the file
  /// exists its fingerprint is validated against this experiment and the
  /// journaled jobs are skipped; when it does not, it is created. Never
  /// part of the fingerprint itself.
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

/// One simulation run's samples, and the per-policy accumulator: every
/// field is a RunningStats so a job result and the reduction target are
/// the same type, merged with RunningStats::merge. The reduction order is
/// fixed (trial-major), never a function of worker interleaving — that
/// alone makes every thread count bit-identical. On top of that, merging
/// a single-sample bundle runs Welford's add() arithmetic on the mean
/// (Chan's update degenerates for nb = 1), so reported means also match
/// the historical serial loop bit for bit (see stats_test.cpp). Public
/// because the checkpoint journal persists one bundle per completed job
/// (raw IEEE bits, sim/checkpoint.hpp) and must restore it bit-exactly.
struct StatsBundle {
  RunningStats total, comm, migration, vnf_moves, vm_moves, recovery_moves,
      recovery_cost, quarantined, penalty, downtime, truncated,
      ladder_transitions, refresh_only, frozen, policy_failures,
      shard_resolves, shard_holds, shard_quarantines, shard_retries,
      shard_penalty;
  std::vector<RunningStats> hourly_cost, hourly_moves;

  explicit StatsBundle(std::size_t hours = 0)
      : hourly_cost(hours), hourly_moves(hours) {}

  void add(const SimTrace& trace);
  void merge(const StatsBundle& other);
};

/// One per-run statistic: its StatsBundle accumulator, the SimTrace total
/// sampled into it once per run (a cost, or a count widened to double),
/// and the PolicyStats mean it is reported as.
struct StatField {
  constexpr StatField(RunningStats StatsBundle::*acc, double SimTrace::*cost,
                      MeanCi PolicyStats::*report)
      : bundle(acc), real(cost), policy(report) {}
  constexpr StatField(RunningStats StatsBundle::*acc, int SimTrace::*count_of,
                      MeanCi PolicyStats::*report)
      : bundle(acc), count(count_of), policy(report) {}

  double sample(const SimTrace& trace) const {
    return real != nullptr ? trace.*real : static_cast<double>(trace.*count);
  }

  RunningStats StatsBundle::*bundle;
  double SimTrace::*real = nullptr;
  int SimTrace::*count = nullptr;
  MeanCi PolicyStats::*policy;
};

/// Every scalar statistic, in checkpoint-journal order (sim/checkpoint.hpp
/// serializes the accumulators in this order, then the hourly series).
inline constexpr StatField kStatFields[] = {
    {&StatsBundle::total, &SimTrace::total_cost, &PolicyStats::total_cost},
    {&StatsBundle::comm, &SimTrace::total_comm_cost, &PolicyStats::comm_cost},
    {&StatsBundle::migration, &SimTrace::total_migration_cost,
     &PolicyStats::migration_cost},
    {&StatsBundle::vnf_moves, &SimTrace::total_vnf_migrations,
     &PolicyStats::vnf_migrations},
    {&StatsBundle::vm_moves, &SimTrace::total_vm_migrations,
     &PolicyStats::vm_migrations},
    {&StatsBundle::recovery_moves, &SimTrace::total_recovery_migrations,
     &PolicyStats::recovery_migrations},
    {&StatsBundle::recovery_cost, &SimTrace::total_recovery_cost,
     &PolicyStats::recovery_cost},
    {&StatsBundle::quarantined, &SimTrace::quarantined_flow_epochs,
     &PolicyStats::quarantined_flow_epochs},
    {&StatsBundle::penalty, &SimTrace::total_quarantine_penalty,
     &PolicyStats::quarantine_penalty},
    {&StatsBundle::downtime, &SimTrace::downtime_epochs,
     &PolicyStats::downtime_epochs},
    {&StatsBundle::truncated, &SimTrace::total_truncated_solves,
     &PolicyStats::truncated_solves},
    {&StatsBundle::ladder_transitions, &SimTrace::ladder_transitions,
     &PolicyStats::ladder_transitions},
    {&StatsBundle::refresh_only, &SimTrace::refresh_only_epochs,
     &PolicyStats::refresh_only_epochs},
    {&StatsBundle::frozen, &SimTrace::frozen_epochs,
     &PolicyStats::frozen_epochs},
    {&StatsBundle::policy_failures, &SimTrace::policy_failures,
     &PolicyStats::policy_failures},
    {&StatsBundle::shard_resolves, &SimTrace::total_shard_resolves,
     &PolicyStats::shard_resolves},
    {&StatsBundle::shard_holds, &SimTrace::total_shard_holds,
     &PolicyStats::shard_holds},
    {&StatsBundle::shard_quarantines, &SimTrace::quarantined_shard_epochs,
     &PolicyStats::quarantined_shard_epochs},
    {&StatsBundle::shard_retries, &SimTrace::total_shard_retries,
     &PolicyStats::shard_retries},
    {&StatsBundle::shard_penalty, &SimTrace::total_shard_penalty,
     &PolicyStats::shard_penalty},
};

/// Thrown by run_experiment when SimConfig::cancel flips mid-grid (the
/// SIGINT/SIGTERM path of bench_common). Every job that completed before
/// the stop is already durable in the journal (when one is configured);
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
