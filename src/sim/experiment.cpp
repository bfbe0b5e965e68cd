#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
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

namespace {

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
  // trial t sees the same flows regardless of how jobs are scheduled (and
  // regardless of which cells a resumed run skips). Sharded streaming
  // jobs instead keep a copy of the trial stream: every (trial, policy)
  // job regenerates its own StreamingWorkload from that copy, so all
  // policies of a trial see the identical initial draw *and* churn trace
  // (the streaming analogue of the shared trial_flows vector).
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

  // The terminal record of every (trial, policy) cell, trial-major. Cells
  // recovered from the journal are filled before dispatch; the workers
  // fill the rest. Their provenance does not matter for the reduction —
  // a journaled bundle carries the same raw IEEE bits a fresh run would.
  std::vector<std::optional<JobRecord>> cells(num_trials * num_policies);

  std::unique_ptr<CheckpointJournal> journal;
  if (!config.checkpoint_path.empty()) {
    const ExperimentFingerprint fingerprint =
        fingerprint_experiment(topo, config, policies);
    const JournalDims dims{
        checked_cast<std::uint32_t>(config.trials, "experiment trials"),
        checked_cast<std::uint32_t>(num_policies, "experiment policies"),
        checked_cast<std::uint32_t>(config.sim.hours, "experiment hours")};
    journal = std::make_unique<CheckpointJournal>(config.checkpoint_path,
                                                  fingerprint, dims);
    if (!journal->load_warning().empty()) {
      std::cerr << "warning: " << journal->load_warning() << "\n";
    }
    std::size_t skipped = 0;
    for (const JobRecord& rec : journal->resumed()) {
      PPDC_REQUIRE(rec.policy_name == policies[rec.policy]->name(),
                   "journal record for cell (" + std::to_string(rec.trial) +
                       ", " + std::to_string(rec.policy) + ") names policy '" +
                       rec.policy_name + "' but the experiment runs '" +
                       policies[rec.policy]->name() +
                       "' at that index (corrupt journal?)");
      std::optional<JobRecord>& cell =
          cells[rec.trial * num_policies + rec.policy];
      // File order is append order: the latest record for a cell wins. A
      // journaled failure is rerun rather than resumed — deterministic
      // failures recur harmlessly, transient ones get a fresh chance.
      if (rec.outcome == JobOutcome::kFailed) {
        cell.reset();
      } else {
        cell = rec;
      }
    }
    for (const std::optional<JobRecord>& cell : cells) {
      if (cell.has_value()) ++skipped;
    }
    if (skipped > 0) {
      std::cerr << "note: resuming from checkpoint journal '"
                << journal->path() << "': " << skipped << " of "
                << cells.size() << " jobs already journaled\n";
    }
  }

  // The unfilled cells of the (trial, policy) grid as independent jobs,
  // trial-major so the reduction below walks trials in order per policy.
  struct SimJob {
    std::size_t trial;
    std::size_t policy;
  };
  std::vector<SimJob> jobs;
  jobs.reserve(cells.size());
  for (std::size_t trial = 0; trial < num_trials; ++trial) {
    for (std::size_t pi = 0; pi < num_policies; ++pi) {
      if (!cells[trial * num_policies + pi].has_value()) {
        jobs.push_back(SimJob{trial, pi});
      }
    }
  }

  // Per-job failure slots for deterministic surfacing under !keep_going
  // (first failing job in grid order wins, independent of thread timing).
  std::vector<std::exception_ptr> errors(jobs.size());

  std::atomic<std::size_t> next{0};
  auto worker = [&]() noexcept {
    for (;;) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return;  // stop pulling; completed jobs are already journaled
      }
      const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
      if (j >= jobs.size()) return;
      const SimJob& job = jobs[j];

      JobRecord rec;
      rec.trial = static_cast<std::uint32_t>(job.trial);
      rec.policy = static_cast<std::uint32_t>(job.policy);
      rec.policy_name = policies[job.policy]->name();

      // Intra-cell epoch journal (DESIGN.md §15): one path per (trial,
      // policy) cell, derived from the configured base so concurrent
      // cells never clobber each other's journals.
      ShardedStreamingConfig cell_sharded = config.sharded;
      if (!cell_sharded.epoch_journal.empty()) {
        cell_sharded.epoch_journal += ".t" + std::to_string(job.trial) + "p" +
                                      std::to_string(job.policy);
      }

      bool interrupted = false;
      for (int attempt = 0;; ++attempt) {
        rec.attempts = static_cast<std::uint32_t>(attempt + 1);
        try {
          // Every attempt owns an isolated policy instance: stateful
          // policies start each trial fresh and never race across threads,
          // and a retry never sees half-updated state of the failed run.
          const std::unique_ptr<MigrationPolicy> policy =
              policies[job.policy]->clone();
          PPDC_REQUIRE(policy != nullptr,
                       "policy '" + policies[job.policy]->name() +
                           "' returned a null clone()");
          if (attempt > 0) {
            Rng attempt_rng(
                attempt_seed(config.seed, job.trial, job.policy, attempt));
            policy->reseed(attempt_rng);
            // A retry must never resume the failed attempt's state: the
            // reseeded policy clone would diverge from the journaled
            // trajectory (the fingerprint does not cover attempt seeds).
            remove_epoch_journal(cell_sharded.epoch_journal);
          }
          SimTrace trace;
          if (config.sharded.enabled) {
            StreamingWorkload streaming(topo, config.workload,
                                        config.sharded.churn,
                                        trial_rngs[job.trial]);
            trace = run_sharded_simulation(apsp, *shard_map, streaming,
                                           config.sfc_length, config.sim,
                                           cell_sharded, *policy);
          } else {
            trace = run_simulation(apsp, trial_flows[job.trial],
                                   config.sfc_length, config.sim, *policy);
          }
          PPDC_REQUIRE(trace.epochs.size() == hours,
                       "policy '" + policies[job.policy]->name() + "' trial " +
                           std::to_string(job.trial) + " produced " +
                           std::to_string(trace.epochs.size()) +
                           " epochs for a " + std::to_string(hours) +
                           "-hour horizon");
          rec.stats = StatsBundle(hours);
          rec.stats.add(trace);
          rec.outcome = trace.total_truncated_solves > 0
                            ? JobOutcome::kTruncated
                            : JobOutcome::kOk;
          rec.error.clear();
          break;
        } catch (const SimInterrupted&) {
          // Cancelled mid-run: the job never happened. It is not journaled
          // and not recorded, so a resumed campaign reruns it from epoch 0
          // — the only way the resumed bundle stays bit-identical.
          interrupted = true;
          break;
        } catch (const TransientError& e) {
          if (attempt < config.retry_limit) continue;
          rec.outcome = JobOutcome::kFailed;
          rec.error = e.what();
          errors[j] = std::current_exception();
          break;
        } catch (const std::exception& e) {
          rec.outcome = JobOutcome::kFailed;
          rec.error = e.what();
          errors[j] = std::current_exception();
          break;
        } catch (...) {
          rec.outcome = JobOutcome::kFailed;
          rec.error = "unknown exception";
          errors[j] = std::current_exception();
          break;
        }
      }
      if (interrupted) return;

      if (journal) {
        try {
          journal->append(rec);
        } catch (...) {
          // Journal I/O failure must not silently downgrade durability:
          // surface it like a job failure (first-in-grid-order wins).
          if (!errors[j]) errors[j] = std::current_exception();
        }
      }
      // The cell reached a terminal record, so its intra-cell epoch
      // journal is spent (a cancelled job keeps its journal — that is
      // the mid-run resume path).
      remove_epoch_journal(cell_sharded.epoch_journal);
      cells[job.trial * num_policies + job.policy] = std::move(rec);
    }
  };

  const int want = resolve_experiment_threads(config.threads);
  parallel_run(static_cast<int>(std::min<std::size_t>(
                   static_cast<std::size_t>(want), jobs.size())),
               worker);

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    // Cooperative stop (SIGINT/SIGTERM via bench_common): report what is
    // already known — and, when a journal is configured, already durable.
    std::ostringstream summary;
    for (std::size_t pi = 0; pi < num_policies; ++pi) {
      std::size_t done = 0;
      for (std::size_t trial = 0; trial < num_trials; ++trial) {
        const std::optional<JobRecord>& cell =
            cells[trial * num_policies + pi];
        if (cell.has_value() && cell->outcome != JobOutcome::kFailed) ++done;
      }
      summary << "  " << policies[pi]->name() << ": " << done << "/"
              << num_trials << " trials completed\n";
    }
    std::string what = "experiment cancelled mid-grid";
    what += journal ? "; completed jobs are durable in '" + journal->path() +
                          "' and will be skipped on resume"
                    : "; no checkpoint journal configured — completed work "
                      "is lost";
    throw ExperimentInterrupted(what, std::move(summary).str());
  }

  if (!config.keep_going) {
    // Deterministic error surfacing: the first failing job in grid order
    // wins, independent of which thread hit it first.
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Deterministic reduction: per policy, merge single-trial bundles in
  // trial order (the cells vector is trial-major). Journaled and freshly
  // run cells are indistinguishable here — that is the resume contract.
  std::vector<StatsBundle> acc(num_policies, StatsBundle(hours));
  std::vector<std::vector<JobFailure>> failures(num_policies);
  for (std::size_t trial = 0; trial < num_trials; ++trial) {
    for (std::size_t pi = 0; pi < num_policies; ++pi) {
      const std::optional<JobRecord>& cell = cells[trial * num_policies + pi];
      PPDC_REQUIRE(cell.has_value(),
                   "cell (" + std::to_string(trial) + ", " +
                       std::to_string(pi) + ") has no terminal record");
      if (cell->outcome == JobOutcome::kFailed) {
        failures[pi].push_back(JobFailure{static_cast<int>(trial),
                                          static_cast<int>(cell->attempts),
                                          cell->error});
      } else {
        acc[pi].merge(cell->stats);
      }
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
