#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/sharded_cost_model.hpp"
#include "graph/apsp.hpp"
#include "sim/checkpoint.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "util/checksum.hpp"
#include "util/executor.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

namespace {

/// One simulation run's samples, and the per-policy accumulator: every
/// field is a RunningStats so a job result and the reduction target are
/// the same type, merged with RunningStats::merge. The reduction order is
/// fixed (trial-major), never a function of worker interleaving — that
/// alone makes every thread count bit-identical. On top of that, merging
/// a single-sample bundle runs Welford's add() arithmetic on the mean
/// (Chan's update degenerates for nb = 1), so reported means also match
/// the historical serial loop bit for bit (see stats_test.cpp).
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

/// Every scalar statistic.
constexpr StatField kStatFields[] = {
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

void StatsBundle::add(const SimTrace& trace) {
  for (const StatField& f : kStatFields) {
    (this->*f.bundle).add(f.sample(trace));
  }
  for (std::size_t h = 0; h < hourly_cost.size(); ++h) {
    const EpochDecision& d = trace.epochs[h];
    hourly_cost[h].add(d.comm_cost + d.migration_cost);
    hourly_moves[h].add(
        static_cast<double>(d.vnf_migrations + d.vm_migrations));
  }
}

void StatsBundle::merge(const StatsBundle& other) {
  for (const StatField& f : kStatFields) {
    (this->*f.bundle).merge(other.*f.bundle);
  }
  for (std::size_t h = 0; h < hourly_cost.size(); ++h) {
    hourly_cost[h].merge(other.hourly_cost[h]);
    hourly_moves[h].merge(other.hourly_moves[h]);
  }
}

MeanCi mean_ci_of(const RunningStats& s) {
  return MeanCi{s.mean(), s.ci95_halfwidth()};
}

/// Per-attempt RNG stream for TransientError retries: attempt a >= 1 of
/// cell (trial, policy) derives its stream from a deterministic resplit of
/// the experiment seed, so a retried grid is reproducible end to end.
/// Attempt 0 never consumes this (bit-identity with the retry-free runner).
std::uint64_t attempt_seed(std::uint64_t seed, std::size_t trial,
                           std::size_t policy, int attempt) {
  return Hash64()
      .u64(seed)
      .u64(trial)
      .u64(policy)
      .u64(static_cast<std::uint64_t>(attempt))
      .value();
}

/// The retry attempt that wrote the cell journal at `path`, or 0 when
/// there is nothing to resume: no journal, an unreadable one (the engine
/// warns and starts fresh), or an attempt beyond the retry budget (its
/// fingerprint then mismatches and the engine starts fresh).
int journaled_attempt(const std::string& path, int retry_limit) {
  if (path.empty()) return 0;
  EpochJournalState state;
  try {
    if (!read_epoch_journal(path, state)) return 0;
  } catch (const PpdcError&) {
    return 0;
  }
  return state.attempt <= static_cast<std::uint32_t>(retry_limit)
             ? static_cast<int>(state.attempt)
             : 0;
}

}  // namespace

int resolve_experiment_threads(int requested) {
  return requested >= 1 ? requested : parallel_width();
}

std::vector<PolicyStats> run_experiment(
    const Topology& topo, const AllPairs& apsp, const ExperimentConfig& config,
    const std::vector<const MigrationPolicy*>& policies) {
  PPDC_REQUIRE(config.trials >= 1, "need at least one trial");
  PPDC_REQUIRE(!policies.empty(), "need at least one policy");
  PPDC_REQUIRE(config.retry_limit >= 0, "negative retry limit");
  for (const MigrationPolicy* p : policies) {
    PPDC_REQUIRE(p != nullptr, "null policy prototype");
  }

  const std::size_t num_policies = policies.size();
  const std::size_t num_trials = static_cast<std::size_t>(config.trials);
  const std::size_t hours = static_cast<std::size_t>(config.sim.hours);
  const std::atomic<bool>* cancel = config.sim.cancel;

  // Pre-split the per-trial RNG streams and regenerate each trial's
  // workload before dispatch — same seeder order as the serial runner, so
  // trial t sees the same flows regardless of how jobs are scheduled.
  // Sharded streaming jobs instead keep a copy of the trial stream: every
  // (trial, policy) job regenerates its own StreamingWorkload from that
  // copy, so all policies of a trial see the identical initial draw *and*
  // churn trace (the streaming analogue of the shared trial_flows vector).
  std::vector<std::vector<VmFlow>> trial_flows;
  std::vector<Rng> trial_rngs;
  {
    Rng seeder(config.seed);
    for (std::size_t trial = 0; trial < num_trials; ++trial) {
      Rng trial_rng = seeder.split();
      if (config.sharded.enabled) {
        trial_rngs.push_back(trial_rng);
      } else {
        trial_flows.push_back(generate_vm_flows(topo, config.workload,
                                                trial_rng));
      }
    }
  }
  std::optional<ShardMap> shard_map;
  if (config.sharded.enabled) {
    shard_map.emplace(ShardMap::by_ingress_pod(topo));
  }

  // The terminal record of every (trial, policy) cell, trial-major: its
  // single-trial bundle, or its failure. A cell left without either was
  // cancelled mid-run.
  const std::size_t num_cells = num_trials * num_policies;
  std::vector<std::optional<StatsBundle>> done(num_cells);
  std::vector<std::optional<JobFailure>> failed(num_cells);
  // Per-cell failure slots for deterministic surfacing under !keep_going
  // (first failing cell in grid order wins, independent of thread timing).
  std::vector<std::exception_ptr> errors(num_cells);

  // Every cell runs, journaled or not, trial-major so the reduction below
  // walks trials in order per policy. A cell's journal decides how much
  // of it runs live.
  std::atomic<std::size_t> next{0};
  auto worker = [&]() noexcept {
    for (;;) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return;  // stop pulling; every journal is durable
      }
      const std::size_t cell = next.fetch_add(1, std::memory_order_relaxed);
      if (cell >= num_cells) return;
      const std::size_t trial = cell / num_policies;
      const std::size_t pi = cell % num_policies;

      const std::string journal =
          config.checkpoint_path.empty()
              ? std::string()
              : config.checkpoint_path + ".t" + std::to_string(trial) + "p" +
                    std::to_string(pi);
      // A resume continues the attempt that wrote the journal, reseeded
      // as that attempt was.
      const int first_attempt = journaled_attempt(journal, config.retry_limit);
      std::string error;
      int attempt = first_attempt;
      for (;; ++attempt) {
        try {
          // Every attempt owns an isolated policy instance: stateful
          // policies start each trial fresh and never race across threads,
          // and a retry never sees half-updated state of the failed run.
          const std::unique_ptr<MigrationPolicy> policy =
              policies[pi]->clone();
          PPDC_REQUIRE(policy != nullptr, "policy '" + policies[pi]->name() +
                                              "' returned a null clone()");
          if (attempt > 0) {
            Rng attempt_rng(attempt_seed(config.seed, trial, pi, attempt));
            policy->reseed(attempt_rng);
          }
          // A retry never resumes the failed attempt's answers.
          if (attempt > first_attempt) remove_epoch_journal(journal);
          SimTrace trace;
          if (config.sharded.enabled) {
            StreamingWorkload streaming(topo, config.workload,
                                        config.sharded.churn,
                                        trial_rngs[trial]);
            trace = run_sharded_simulation(
                apsp, *shard_map, streaming, config.sfc_length, config.sim,
                config.sharded, *policy, nullptr, journal, attempt);
          } else {
            trace = run_simulation(apsp, trial_flows[trial],
                                   config.sfc_length, config.sim, *policy,
                                   nullptr, journal, attempt);
          }
          PPDC_REQUIRE(trace.epochs.size() == hours,
                       "policy '" + policies[pi]->name() + "' trial " +
                           std::to_string(trial) + " produced " +
                           std::to_string(trace.epochs.size()) +
                           " epochs for a " + std::to_string(hours) +
                           "-hour horizon");
          StatsBundle& bundle = done[cell].emplace(hours);
          bundle.add(trace);
          break;
        } catch (const SimInterrupted&) {
          // Cancelled mid-run: the cell keeps its journal, which resumes
          // it on the next run.
          return;
        } catch (const TransientError& e) {
          if (attempt < config.retry_limit) continue;
          error = e.what();
          errors[cell] = std::current_exception();
        } catch (const std::exception& e) {
          error = e.what();
          errors[cell] = std::current_exception();
        } catch (...) {
          error = "unknown exception";
          errors[cell] = std::current_exception();
        }
        break;
      }
      if (errors[cell]) {
        // A failed cell leaves no journal, so it reruns on resume —
        // deterministic failures recur harmlessly, transient ones get a
        // fresh chance.
        remove_epoch_journal(journal);
        failed[cell] = JobFailure{static_cast<int>(trial), attempt + 1,
                                  std::move(error)};
      }
    }
  };

  const int want = resolve_experiment_threads(config.threads);
  parallel_run(
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(want),
                                             num_cells)),
      worker);

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    // Cooperative stop (SIGINT/SIGTERM via bench_common): report what is
    // already known — and, when checkpointing, already durable.
    std::ostringstream summary;
    for (std::size_t pi = 0; pi < num_policies; ++pi) {
      std::size_t completed = 0;
      for (std::size_t trial = 0; trial < num_trials; ++trial) {
        if (done[trial * num_policies + pi].has_value()) ++completed;
      }
      summary << "  " << policies[pi]->name() << ": " << completed << "/"
              << num_trials << " trials completed\n";
    }
    std::string what = "experiment cancelled mid-grid";
    what += config.checkpoint_path.empty()
                ? "; no checkpoint journal configured — completed work "
                  "is lost"
                : "; every cell's epoch journal '" + config.checkpoint_path +
                      ".t<trial>p<policy>' is durable and resumes it";
    throw ExperimentInterrupted(what, std::move(summary).str());
  }

  if (!config.keep_going) {
    // Deterministic error surfacing: the first failing cell in grid order
    // wins, independent of which thread hit it first.
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Deterministic reduction: per policy, merge single-trial bundles in
  // trial order (the cells are trial-major). Replayed and live cells are
  // indistinguishable here — that is the resume contract.
  std::vector<StatsBundle> acc(num_policies, StatsBundle(hours));
  std::vector<std::vector<JobFailure>> failures(num_policies);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    const std::size_t pi = cell % num_policies;
    if (failed[cell].has_value()) {
      failures[pi].push_back(std::move(*failed[cell]));
    } else {
      PPDC_REQUIRE(done[cell].has_value(),
                   "cell (" + std::to_string(cell / num_policies) + ", " +
                       std::to_string(pi) + ") has no terminal record");
      acc[pi].merge(*done[cell]);
    }
  }

  std::vector<PolicyStats> stats;
  stats.reserve(num_policies);
  for (std::size_t pi = 0; pi < num_policies; ++pi) {
    const StatsBundle& b = acc[pi];
    PolicyStats s;
    s.name = policies[pi]->name();
    for (const StatField& f : kStatFields) {
      s.*f.policy = mean_ci_of(b.*f.bundle);
    }
    s.hourly_cost.reserve(hours);
    s.hourly_migrations.reserve(hours);
    for (std::size_t h = 0; h < hours; ++h) {
      s.hourly_cost.push_back(mean_ci_of(b.hourly_cost[h]));
      s.hourly_migrations.push_back(mean_ci_of(b.hourly_moves[h]));
    }
    s.completed_trials = static_cast<int>(b.total.count());
    s.failures = std::move(failures[pi]);
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace ppdc
