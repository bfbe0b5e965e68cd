#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/placement_dp.hpp"
#include "fault/degraded.hpp"
#include "fault/fault.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "sim/audit.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "util/checksum.hpp"
#include "util/executor.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "workload/diurnal.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

namespace {

/// Persistent per-shard runtime state across epochs.
struct ShardRun {
  Placement placement;
  std::unique_ptr<MigrationPolicy> policy;
  std::unique_ptr<CostModel> degraded_model;
  double last_comm = 0.0;     ///< stale estimate charged at kFrozen
  int staleness = 0;          ///< consecutive held epochs
  int churned = 0;            ///< churned flows since the last re-solve
  bool resync_pending = false;  ///< primary bases stale after faults

  // Private degradation ladder + failure containment (DESIGN.md §15).
  DegradationRung rung = DegradationRung::kFull;
  int clean_streak = 0;  ///< trip-free epochs at the current rung
  int fail_streak = 0;   ///< consecutive failed policy attempts (quarantine)
};

/// One shard's contribution to one epoch, merged in fixed shard order.
struct ShardEpochResult {
  /// What the shard's policy answered (take_policy_answer) plus the
  /// engine's per-shard counts: quarantined flows, recovery, and
  /// resolved, held and retried as 0 or 1. The merge sums it field-wise.
  EpochDecision d;
  int live = 0;  ///< non-vacant slots (counted while faults are active)
  double unserved = 0.0;
  double served_rate = 0.0;  ///< Σ served rates (quarantine-SLA base)
  bool frozen = false;  ///< executed at kFrozen (stale charge, audit-exempt)
  ShardAnswer answer;   ///< what the solvers answered (the journal record)
};

// Degradation-ladder trips and recovery (DESIGN.md §12).
/// A shard trips when more than this fraction of its live flows is
/// quarantined in one epoch.
constexpr double kMaxQuarantinedFraction = 0.5;
/// A shard trips when its epoch's budget-truncated solves reach this count.
constexpr int kTripTruncations = 1;
/// Clean (trip-free) epochs required at a rung before stepping back up.
constexpr int kRecoveryEpochs = 2;

/// Clean epochs a shard must string together before climbing one rung:
/// kRecoveryEpochs after a first failure and after every non-throw trip.
/// Repeat failures back off exponentially (capped) with a seeded jitter,
/// so repeatedly-failing shards across a pod-sharded run do not retry in
/// lockstep.
int required_clean_epochs(int shard, int fail_streak) {
  if (fail_streak <= 1) return kRecoveryEpochs;
  const int backoff = (1 << std::min(fail_streak - 1, 4)) - 1;
  const int jitter = static_cast<int>(
      Hash64().i64(shard).i64(fail_streak).value() %
      static_cast<std::uint64_t>(fail_streak));
  return kRecoveryEpochs + backoff + jitter;
}

/// The shards' claim order: heaviest first, by live slots plus the
/// epoch's routed churn events (`touched`), ties by shard index. A
/// region's wall is at least its slowest shard, so that shard starts
/// first, on the calling thread.
std::vector<int> heaviest_first(const ShardedCostModel& shards,
                                const std::vector<int>& touched) {
  auto weight = [&](int s) {
    return static_cast<long long>(shards.shard(s).live) +
           touched[static_cast<std::size_t>(s)];
  };
  std::vector<int> order(touched.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return weight(a) > weight(b); });
  return order;
}

/// True when a fingerprint-matched journal fits the run: its dimensions
/// match and every journaled placement is a valid n-VNF chain on
/// `graph`. A journal that does not fit is corrupt; the run starts fresh.
bool journal_fits(const EpochJournalState& journal, const Graph& graph,
                  int num_shards, int n, int hours) {
  if (journal.shards != static_cast<std::uint32_t>(num_shards) ||
      journal.hours != static_cast<std::uint32_t>(hours) ||
      journal.merged_initial.size() !=
          static_cast<std::size_t>(num_shards) * static_cast<std::size_t>(n)) {
    return false;
  }
  auto chain = [&](const Placement& p) {
    PPDC_REQUIRE(p.size() == static_cast<std::size_t>(n),
                 "placement length differs from the chain length");
    validate_placement(graph, p);
  };
  try {
    for (int s = 0; s < num_shards; ++s) {
      const auto first = journal.merged_initial.begin() + s * n;
      chain(Placement(first, first + n));
    }
    for (const EpochRecord& rec : journal.epochs) {
      for (const ShardAnswer& a : rec.shards) {
        if (a.recovered) chain(a.recovery_target);
        if (a.policy == ShardAnswer::Policy::kAnswered) chain(a.placement);
      }
    }
  } catch (const PpdcError&) {
    return false;
  }
  return true;
}

/// A replayed epoch whose solver calls disagree with the journal.
[[noreturn]] void journal_diverged(Hour hour, const std::string& shard,
                                   const std::string& what) {
  throw PpdcError("epoch journal diverges from the run at epoch " +
                  std::to_string(hour.value()) + ", shard '" + shard +
                  "': " + what);
}

/// Copies what a policy answers into a shard's decision. The engine fills
/// in every other field (faults, quarantine, recovery, shard counts).
void take_policy_answer(EpochDecision& d, const EpochDecision& answer) {
  d.comm_cost = answer.comm_cost;
  d.migration_cost = answer.migration_cost;
  d.vnf_migrations = answer.vnf_migrations;
  d.vm_migrations = answer.vm_migrations;
  d.moved_flows = answer.moved_flows;
  d.truncated_solves = answer.truncated_solves;
  d.policy_failed = answer.policy_failed;
}

/// Adds one shard's decision into the epoch's merged decision.
void add_shard_decision(EpochDecision& sum, const EpochDecision& d) {
  sum.comm_cost += d.comm_cost;
  sum.migration_cost += d.migration_cost;
  sum.vnf_migrations += d.vnf_migrations;
  sum.vm_migrations += d.vm_migrations;
  sum.truncated_solves += d.truncated_solves;
  sum.recovery_migrations += d.recovery_migrations;
  sum.recovery_cost += d.recovery_cost;
  sum.quarantined_flows += d.quarantined_flows;
  sum.resolved_shards += d.resolved_shards;
  sum.held_shards += d.held_shards;
  sum.shard_retries += d.shard_retries;
  if (d.policy_failed) sum.policy_failed = true;
}

/// What one epoch's shard tasks read. The main thread builds it before
/// the epoch's region, and nothing in the region writes it.
struct EpochView {
  Hour hour;
  std::vector<int> touched;      ///< churn events routed to each shard
  std::vector<double> scales;    ///< diurnal group scales (from hour 1)
  std::vector<double> schedule;  ///< rate_schedule's per-flow rates
  std::vector<char> departed;    ///< free global slots (faults active)
  const DegradedNetwork* degraded = nullptr;  ///< null on a pristine fabric
  bool faults_active = false;
  bool blackout = false;  ///< the serving core cannot host the chain
  const EpochRecord* journaled = nullptr;  ///< a replayed epoch's answers

  /// Shard `s`'s journaled answers on a replayed epoch, else null.
  const ShardAnswer* journaled_answer(int s) const {
    return journaled != nullptr
               ? &journaled->shards[static_cast<std::size_t>(s)]
               : nullptr;
  }
};

/// One run of the epoch engine (DESIGN.md §14): the run's state, and one
/// member function per phase, which run_sharded_simulation calls in
/// order. The main-thread phases read and write everything. A shard task
/// reads its epoch's EpochView and writes only its own shard's state and
/// ShardEpochResult.
struct EpochRunner {
  // Epoch journal (DESIGN.md §10): when configured, try to resume from a
  // previous incarnation of this exact run. The fingerprint is computed
  // over the fabric and the *entry* state — the workload before any epoch
  // ran — plus every result-shaping knob and the retry attempt, so a
  // journal from a different fabric, trial, policy, attempt or
  // configuration warns and is ignored instead of resuming garbage. A
  // resumed run re-executes every epoch from hour 0 and takes the
  // solvers' answers from the journal for the epochs it holds.
  void open_journal(int attempt) {
    if (!journaling) return;
    const std::uint64_t run_fp = fingerprint_sharded_run(
        apsp.graph(), map, workload.snapshot(), config, sharded, n,
        prototype.name(), attempt);
    bool have = false;
    try {
      have = read_epoch_journal(journal_path, journal);
    } catch (const PpdcError& e) {
      std::cerr << "warning: " << e.what() << " — starting the run fresh\n";
    }
    if (have) {
      if (journal.fingerprint != run_fp) {
        std::cerr << "warning: epoch journal '" << journal_path
                  << "' was written by a different run — starting fresh\n";
      } else if (!journal_fits(journal, apsp.graph(), shards.num_shards(), n,
                               config.hours)) {
        std::cerr << "warning: epoch journal '" << journal_path
                  << "' does not fit the run its fingerprint names (corrupt "
                     "journal?) — starting fresh\n";
      } else {
        resumed = true;
        std::cerr << "note: resuming from epoch journal '" << journal_path
                  << "': " << journal.epochs.size() << " of "
                  << config.hours << " epochs already journaled\n";
      }
    }
    if (!resumed) {
      journal = EpochJournalState{};
      journal.fingerprint = run_fp;
      journal.attempt = static_cast<std::uint32_t>(attempt);
      journal.hours = static_cast<std::uint32_t>(config.hours);
      journal.shards = static_cast<std::uint32_t>(shards.num_shards());
    }
  }

  // Hour 0: per-shard initial traffic-optimal placement (TOP, Algorithm
  // 3) on the pristine fabric, on the shard pool — or the journaled one
  // on a resume. Each shard touches only its own flows and model; the
  // stroll tables its solve shares with other shards come from the
  // fabric's cache, whose levels are a deterministic function of their
  // destination, so the placements do not depend on the thread count.
  // A parallel kernel called here (a full refresh) runs inline on its
  // shard's worker when the shard pool is wider than one, and the cached
  // levels live in page-mapped slabs rather than in the workers' malloc
  // arenas (DESIGN.md §11). The rates written and the models refreshed
  // here serve epoch 0 as well.
  void solve_hour_zero() {
    const std::vector<double> scales =
        config.diurnal.group_scales(Hour{0}, n_groups);
    const std::vector<double> schedule = schedule_at(Hour{0});
    for_each_shard(std::vector<int>(runs.size(), 0), std::nullopt, [&](int s) {
      ShardedCostModel::Shard& sh = shards.shard(s);
      write_rates(sh, scales, schedule);
      refresh(sh, scales);
      Placement& placement = runs[static_cast<std::size_t>(s)].placement;
      if (resumed) {
        const auto first = journal.merged_initial.begin() + s * n;
        placement.assign(first, first + n);
      } else {
        placement =
            solve_top_dp(*sh.model, n, config.initial_placement).placement;
      }
    });
    // A resumed run's clones never see the replayed epochs' on_epoch
    // calls; the policy contract makes that exact (a policy is stateless
    // across epochs: on_epoch derives everything from the model and state
    // it is handed).
    Placement merged_initial;
    merged_initial.reserve(static_cast<std::size_t>(shards.num_shards() * n));
    for (ShardRun& run : runs) {
      run.policy = prototype.clone();
      PPDC_REQUIRE(run.policy != nullptr, "policy '" + prototype.name() +
                                              "' returned a null clone()");
      merged_initial.insert(merged_initial.end(), run.placement.begin(),
                            run.placement.end());
    }
    if (journaling && !resumed) journal.merged_initial = merged_initial;
    emit([&](EpochObserver& o) {
      o.on_run_begin(Hour{config.hours}, merged_initial);
    });
  }

  // One epoch: the main-thread phases around one shard region. A cancel
  // seen before the epoch abandons it before any of its work.
  void run_epoch(Hour hour) {
    if (cancelled()) interrupt(hour, "before");
    emit([&](EpochObserver& o) { o.on_epoch_begin(hour); });
    EpochView v;
    v.hour = hour;
    // Epochs the journal holds take their solver answers from it.
    const auto h = static_cast<std::size_t>(hour.value());
    if (h < journal.epochs.size()) v.journaled = &journal.epochs[h];
    const int epoch_churn = commit_churn(v);
    const EpochFaults events = apply_faults(v);
    if (hour > Hour{0}) {
      v.scales = config.diurnal.group_scales(hour, n_groups);
      v.schedule = schedule_at(hour);
    }
    std::vector<ShardEpochResult> results(runs.size());
    for_each_shard(v.touched, hour, [&](int s) {
      shard_task(s, v, results[static_cast<std::size_t>(s)]);
    });
    if (v.journaled != nullptr) check_replay(v, results);
    const EpochDecision d = merge(v, events, epoch_churn, results);
    if (config.ladder.enabled) step_ladders(hour, v.blackout, results);
    if (auditor) audit(v, results, d);
    if (journaling && v.journaled == nullptr) append_journal(results);
  }

  SimTrace finish() {
    emit([&](EpochObserver& o) { o.on_run_end(); });
    SimTrace trace = recorder.take();
    if (auditor) {
      trace.audited_epochs = auditor->checked_epochs();
      auditor->check_run(trace);
    }
    return trace;
  }

  std::vector<double> schedule_at(Hour hour) const {
    if (!scheduled) return {};
    std::vector<double> r = config.rate_schedule(hour);
    const std::size_t flows = workload.flows().size();
    PPDC_REQUIRE(r.size() == flows,
                 "rate_schedule(hour " + std::to_string(hour.value()) +
                     ") returned " + std::to_string(r.size()) +
                     " rates for " + std::to_string(flows) + " flows");
    for (std::size_t i = 0; i < r.size(); ++i) {
      PPDC_REQUIRE(r[i] >= 0.0,
                   "rate_schedule(hour " + std::to_string(hour.value()) +
                       ") returned a negative rate for flow " +
                       std::to_string(i));
    }
    return r;
  }

  // Writes one shard's per-slot rates for the epoch into its flows: its
  // base rates under the epoch's group scales, or the schedule mapped
  // through global_ids (vacant slots carry nothing). Every group id of a
  // shard's slots is below its model's num_groups(), so one check that
  // the scales cover that domain bounds every read.
  void write_rates(ShardedCostModel::Shard& sh,
                   const std::vector<double>& scales,
                   const std::vector<double>& schedule) {
    if (!scheduled) {
      PPDC_REQUIRE(static_cast<std::size_t>(sh.model->num_groups()) <=
                       scales.size(),
                   "shard " + sh.name + " has " +
                       std::to_string(sh.model->num_groups()) +
                       " diurnal groups but the epoch scales only " +
                       std::to_string(scales.size()));
      for (std::size_t i = 0; i < sh.flows.size(); ++i) {
        sh.flows[i].rate =
            sh.base_rates[i] * scales[static_cast<std::size_t>(sh.groups[i])];
      }
      return;
    }
    for (std::size_t i = 0; i < sh.flows.size(); ++i) {
      const FlowId g = sh.global_ids[i];
      sh.flows[i].rate =
          g.valid() ? schedule[static_cast<std::size_t>(g.value())] : 0.0;
    }
  }

  void refresh(ShardedCostModel::Shard& sh,
               const std::vector<double>& scales) {
    if (scheduled) {
      sh.model->refresh();
    } else {
      sh.model->refresh_scaled(scales);
    }
  }

  template <class Fn>
  void emit(Fn&& fn) {
    fn(static_cast<EpochObserver&>(recorder));
    if (auditor) fn(static_cast<EpochObserver&>(*auditor));
    if (observer != nullptr) fn(*observer);
  }

  bool cancelled() const {
    return config.cancel != nullptr &&
           config.cancel->load(std::memory_order_relaxed);
  }

  [[noreturn]] void interrupt(Hour hour, const char* where) {
    emit([&](EpochObserver& o) { o.on_interrupted(hour); });
    throw SimInterrupted(std::string("simulation cancelled ") + where +
                         " epoch " + std::to_string(hour.value()) + " of " +
                         std::to_string(config.hours));
  }

  // Churn pipeline (DESIGN.md §14): epoch h's shard region also draws
  // epoch h+1's churn into `next_churn`, and epoch h+1 commits it where
  // it would have called advance(). The draw reads only the workload's
  // free list, slot count and generator, which nothing in the region
  // writes, so every width draws the same bits. A cancelled run drops the
  // draw uncommitted.
  void draw_next(Hour hour) noexcept {
    if (!drawing || hour.value() + 1 >= config.hours) return;
    try {
      workload.draw(next_churn);
    } catch (...) {
      draw_error = std::current_exception();
    }
  }

  /// Runs `work(s)` for every shard on one executor region, claimed
  /// heaviest first (heaviest_first over `touched`), and throws the first
  /// shard error in shard order: a throw lands in its shard's slot and the
  /// remaining shards still run, so every width fails the same way. The
  /// hour-0 region (no `epoch`) takes at most one worker per shard. An
  /// epoch region of a drawing run takes one worker more for the next
  /// epoch's churn draw, its second item, not its first: the
  /// calling thread, which claims first, keeps order[0], and the shards'
  /// large per-epoch buffers stay in the malloc arenas they used before
  /// (drawing first raised peak RSS by 2 MiB on shard_resolve and 11 MiB
  /// on bench_scale k=32, EXPERIMENTS.md).
  ///
  /// Cooperative cancellation is honored at *shard* boundaries of an epoch
  /// region (hour 0 always completes; run_epoch checks the flag before
  /// epoch 0): a worker stops pulling shards the moment the flag flips, so a
  /// SIGINT during a million-flow epoch responds in milliseconds instead
  /// of waiting out the epoch. A stopped region may have left shards (and
  /// their churn) or the draw unrun, so the epoch is abandoned wholesale
  /// even if the flag was cleared since — mutated state never escapes
  /// because a cancelled run is rerun (or journal-resumed) from a clean
  /// snapshot. A region that no worker stopped ran every shard and the
  /// draw.
  template <class Work>
  void for_each_shard(const std::vector<int>& touched,
                      std::optional<Hour> epoch, Work&& work) {
    std::vector<std::exception_ptr> errors(runs.size());
    const std::vector<int> order = heaviest_first(shards, touched);
    const int width =
        std::min(threads, shards.num_shards() + (epoch && drawing ? 1 : 0));
    std::atomic<int> next{0};
    std::atomic<bool> stopped{false};
    parallel_run(width, [&]() noexcept {
      for (;;) {
        if (epoch && cancelled()) {
          stopped.store(true, std::memory_order_relaxed);
          return;
        }
        const int item = next.fetch_add(1, std::memory_order_relaxed);
        if (item > shards.num_shards()) return;
        if (item == 1) {
          if (epoch) draw_next(*epoch);
          continue;
        }
        const int s =
            order[static_cast<std::size_t>(item == 0 ? 0 : item - 1)];
        try {
          work(s);
        } catch (...) {
          errors[static_cast<std::size_t>(s)] = std::current_exception();
        }
      }
    });
    if (stopped.load(std::memory_order_relaxed)) interrupt(*epoch, "inside");
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Inter-epoch churn: a streaming workload advances once per epoch from
  // hour 1 on, by committing the draw the previous epoch's region made (a
  // draw that threw surfaces here, as advance() would have thrown here).
  // The churn is routed into per-shard buckets here, and each shard task
  // applies its own bucket with O(|V_s|) patches before anything else;
  // nothing in the region writes the workload's flows, which the buckets
  // are applied from. Returns the epoch's churned-flow count.
  int commit_churn(EpochView& v) {
    v.touched.assign(runs.size(), 0);
    if (!streaming || v.hour < Hour{1}) return 0;
    if (draw_error) std::rethrow_exception(draw_error);
    workload.commit(next_churn);
    const int epoch_churn = static_cast<int>(next_churn.churn.total());
    if (epoch_churn > 0) {
      v.touched = shards.route_churn(workload.flows(), next_churn.churn);
    }
    return epoch_churn;
  }

  // Fault events and the shared degraded view (read-only for the shard
  // tasks, so it is rebuilt here on the main thread).
  EpochFaults apply_faults(EpochView& v) {
    EpochFaults events;
    if (injector && v.hour >= Hour{1}) events = injector->advance_to(v.hour);
    if (events.switch_failures + events.link_failures + events.repairs > 0) {
      emit([&](EpochObserver& o) { o.on_faults(v.hour, events); });
    }
    v.faults_active = injector && injector->any_faults_active();
    if (events.topology_changed) {
      for (ShardRun& run : runs) run.degraded_model.reset();
      degraded.reset();
      if (v.faults_active) {
        degraded = std::make_unique<DegradedNetwork>(
            apsp.graph(), injector->dead_nodes(), injector->dead_edges());
      }
    }
    v.degraded = degraded.get();
    v.blackout = v.faults_active && !degraded->core_can_host(n);
    if (v.faults_active) {
      // Departed slots hold no flow, so quarantine skips them.
      v.departed.assign(workload.flows().size(), 0);
      for (const FlowId g : workload.free_slots()) {
        v.departed[static_cast<std::size_t>(g.value())] = 1;
      }
    }
    return events;
  }

  // One shard's epoch: churn apply, then traffic and quarantine, model
  // maintenance, emergency recovery, and policy or bounded-staleness
  // hold. Shards are independent; results merge in fixed shard order.
  // Each shard executes at its *own* ladder rung.
  void shard_task(int s, const EpochView& v, ShardEpochResult& r) {
    ShardedCostModel::Shard& sh = shards.shard(s);
    ShardRun& run = runs[static_cast<std::size_t>(s)];
    const int churned = v.touched[static_cast<std::size_t>(s)];
    if (churned > 0) {
      shards.apply_shard_churn(s, workload.flows());
      run.churned += churned;
    }
    r.frozen = config.ladder.enabled && run.rung == DegradationRung::kFrozen;
    if (v.hour == Hour{0}) {
      // solve_hour_zero wrote the rates, refreshed the model and placed
      // the chain on the pristine fabric; the epoch charges that chain.
      r.d.comm_cost = sh.model->communication_cost(run.placement);
      r.d.resolved_shards = 1;
    } else {
      serve_traffic(sh, v, r);
      // On a blackout nothing is served and nothing is charged; the stale
      // estimate a later frozen epoch would charge is this epoch's zero.
      if (!v.blackout) {
        CostModel& m = maintain_model(sh, run, v, r.frozen);
        const bool stranded = recover(s, v, m, r);
        policy_or_hold(s, v, m, stranded, r);
      }
    }
    run.last_comm = r.d.comm_cost;
  }

  // This epoch's traffic; flows cut off from the core quarantine.
  void serve_traffic(ShardedCostModel::Shard& sh, const EpochView& v,
                     ShardEpochResult& r) {
    write_rates(sh, v.scales, v.schedule);
    if (v.faults_active) {
      for (std::size_t i = 0; i < sh.flows.size(); ++i) {
        VmFlow& f = sh.flows[i];
        const FlowId g = sh.global_ids[i];
        if (!g.valid() || v.departed[static_cast<std::size_t>(g.value())]) {
          continue;  // vacant slot
        }
        ++r.live;
        const bool served = !v.blackout && v.degraded->in_core(f.src_host) &&
                            v.degraded->in_core(f.dst_host);
        if (!served) {
          ++r.d.quarantined_flows;
          r.unserved += f.rate;
          f.rate = 0.0;
        }
      }
    }
    for (const VmFlow& f : sh.flows) r.served_rate += f.rate;
  }

  // Cost-model maintenance: a dedicated full-rescan model over the
  // degraded metric, restricted to the core's alive switches, while
  // faults are active (quarantine breaks the base x scale
  // decomposition); group recombination on the pristine path, with a
  // lazy base resync when the fabric heals. Returns the model that
  // serves the epoch.
  CostModel& maintain_model(ShardedCostModel::Shard& sh, ShardRun& run,
                            const EpochView& v, bool frozen) {
    if (v.faults_active) {
      if (!run.degraded_model) {
        run.degraded_model =
            std::make_unique<CostModel>(v.degraded->apsp(), sh.flows);
        run.degraded_model->restrict_candidates(v.degraded->core_switches());
      } else if (!frozen) {
        run.degraded_model->refresh();
      }
      run.resync_pending = true;
      return *run.degraded_model;
    }
    if (!frozen) {
      // Heal: endpoints may have moved while the degraded model was
      // authoritative, so a full refresh resyncs the group bases first
      // (the scheduled path refreshes in full every epoch anyway).
      if (run.resync_pending && !scheduled) sh.model->refresh();
      run.resync_pending = false;
      refresh(sh, v.scales);
    }
    return *sh.model;
  }

  // Emergency re-placement of VNFs stranded outside the core. Returns
  // whether the shard was stranded.
  bool recover(int s, const EpochView& v, const CostModel& m,
               ShardEpochResult& r) {
    ShardRun& run = runs[static_cast<std::size_t>(s)];
    auto in_core = [&](NodeId sw) { return v.degraded->in_core(sw); };
    if (!v.faults_active || std::ranges::all_of(run.placement, in_core)) {
      return false;
    }
    ShardAnswer& answer = r.answer;
    if (const ShardAnswer* journaled = v.journaled_answer(s)) {
      if (!journaled->recovered) {
        journal_diverged(v.hour, shards.shard(s).name,
                         "the shard is stranded but the journal holds no "
                         "recovery target");
      }
      answer.recovery_target = journaled->recovery_target;
    } else {
      answer.recovery_target =
          solve_top_dp(m, n, config.fault.placement).placement;
    }
    answer.recovered = true;
    const Placement& target = answer.recovery_target;
    double distance = 0.0;
    for (std::size_t j = 0; j < run.placement.size(); ++j) {
      if (run.placement[j] == target[j]) continue;
      ++r.d.recovery_migrations;
      distance += apsp.cost(run.placement[j], target[j]);
    }
    r.d.recovery_cost = config.fault.mu * distance;
    run.placement = target;
    return true;
  }

  // Policy, or a bounded-staleness hold. Held shards charge the exact
  // communication cost of the kept placement on the *refreshed* model —
  // never a stale estimate (kFrozen excepted).
  void policy_or_hold(int s, const EpochView& v, CostModel& m, bool stranded,
                      ShardEpochResult& r) {
    ShardedCostModel::Shard& sh = shards.shard(s);
    ShardRun& run = runs[static_cast<std::size_t>(s)];
    EpochDecision& d = r.d;
    const bool refresh_only = config.ladder.enabled &&
                              run.rung == DegradationRung::kRefreshOnly;
    const bool resolve =
        sharded.resolve_churn_fraction <= 0.0 || v.faults_active ||
        stranded || run.fail_streak > 0 ||
        static_cast<double>(run.churned) >=
            sharded.resolve_churn_fraction *
                static_cast<double>(std::max(sh.live, 1)) ||
        run.staleness >= sharded.max_staleness;
    if (r.frozen || refresh_only || !resolve) {
      d.comm_cost =
          r.frozen ? run.last_comm : m.communication_cost(run.placement);
      d.held_shards = 1;
      if (!r.frozen && !refresh_only) ++run.staleness;
      return;
    }
    if (run.fail_streak > 0) d.shard_retries = 1;
    // The solvers' answers: a live epoch records them for the journal, a
    // replayed one copies them from the journal instead of solving.
    ShardAnswer& answer = r.answer;
    if (const ShardAnswer* journaled = v.journaled_answer(s)) {
      if (journaled->policy == ShardAnswer::Policy::kNone) {
        journal_diverged(v.hour, sh.name,
                         "the shard re-solves but the journal holds no "
                         "policy answer");
      }
      for (const FlowId i : journaled->decision.moved_flows) {
        if (!i.valid() || i >= flow_count(sh.flows)) {
          journal_diverged(v.hour, sh.name,
                           "the journal moves flow " +
                               std::to_string(i.value()) +
                               " outside the shard's flow vector");
        }
      }
      answer.policy = journaled->policy;
      answer.decision = journaled->decision;
      answer.placement = journaled->placement;
      answer.moved = journaled->moved;
    } else {
      solve_policy(sh, run, m, v, answer);
    }
    if (answer.policy == ShardAnswer::Policy::kThrew) {
      // Failure containment: the throw was absorbed per shard — this
      // shard holds its placement, gets charged the exactly refreshed
      // cost, and the post-merge ladder step quarantines it; every other
      // shard's epoch is untouched.
      d.policy_failed = true;
      d.comm_cost = m.communication_cost(run.placement);
    } else {
      take_policy_answer(d, answer.decision);
      run.placement = answer.placement;
      if (!d.moved_flows.empty()) {
        // VM migration (PLAN/MCF): adopt the moved endpoints and patch
        // only those flows; the merge mirrors them into the global flow
        // vector. Shard models cost against the full metric, so a VM may
        // leave its ingress pod.
        for (std::size_t k = 0; k < d.moved_flows.size(); ++k) {
          const FlowId l = d.moved_flows[k];
          VmFlow& f = sh.flows[static_cast<std::size_t>(l.value())];
          f.src_host = answer.moved[k].src_host;
          f.dst_host = answer.moved[k].dst_host;
        }
        m.endpoints_moved(d.moved_flows);
      }
    }
    d.resolved_shards = 1;
    run.staleness = 0;
    run.churned = 0;
  }

  // Runs one shard's policy clone on a copy of the shard's state, so a
  // throw leaves nothing to roll back, and records the outcome in
  // `answer`: the decision exactly as on_epoch returned it, the new
  // placement and the moved flows' new endpoints. With the ladder enabled
  // a throw — an invalid placement counts as one — is recorded as such;
  // without the ladder it aborts the run.
  void solve_policy(const ShardedCostModel::Shard& sh, ShardRun& run,
                    const CostModel& m, const EpochView& v,
                    ShardAnswer& answer) {
    SimState st{sh.flows, run.placement};
    try {
      answer.decision = run.policy->on_epoch(m, st);
      try {
        PPDC_REQUIRE(st.placement.size() == static_cast<std::size_t>(n),
                     "placement length changed");
        validate_placement(m.apsp().graph(), st.placement);
        if (v.faults_active) {
          for (const NodeId sw : st.placement) {
            PPDC_REQUIRE(v.degraded->in_core(sw),
                         "VNF placed on a dead or unreachable switch");
          }
        }
      } catch (const PpdcError& e) {
        throw PpdcError("policy '" + run.policy->name() +
                        "' produced an invalid placement at epoch " +
                        std::to_string(v.hour.value()) + " (shard '" +
                        sh.name + "'): " + e.what());
      }
    } catch (const PpdcError&) {
      if (!config.ladder.enabled) throw;
      answer.policy = ShardAnswer::Policy::kThrew;
      answer.decision = EpochDecision{};
      return;
    }
    for (const FlowId i : answer.decision.moved_flows) {
      PPDC_REQUIRE(i.valid() && i < flow_count(sh.flows),
                   "policy '" + run.policy->name() + "' reported moved flow " +
                       std::to_string(i.value()) +
                       " outside its flow vector");
      const VmFlow& moved = st.flows[static_cast<std::size_t>(i.value())];
      answer.moved.push_back({moved.src_host, moved.dst_host});
    }
    answer.policy = ShardAnswer::Policy::kAnswered;
    answer.placement = std::move(st.placement);
  }

  // A replayed shard that asked for no answer the journal holds (asking
  // for one it lacks threw in its task).
  void check_replay(const EpochView& v,
                    const std::vector<ShardEpochResult>& results) const {
    for (int s = 0; s < shards.num_shards(); ++s) {
      const ShardAnswer& got = results[static_cast<std::size_t>(s)].answer;
      const ShardAnswer& want = *v.journaled_answer(s);
      if (got.recovered != want.recovered || got.policy != want.policy) {
        journal_diverged(v.hour, shards.shard(s).name,
                         "the journal holds an answer the shard did not "
                         "ask for");
      }
    }
  }

  // Fixed-order merge: sums accumulate in shard order, so the merged
  // decision is a pure function of shard state — identical at every
  // thread count. The merged rung is the worst rung any shard executed
  // at; quarantined shards (failure backoff, rung below kFull) accrue the
  // shard-SLA penalty on their served rate.
  EpochDecision merge(const EpochView& v, const EpochFaults& events,
                      int epoch_churn,
                      const std::vector<ShardEpochResult>& results) {
    EpochDecision d;
    double unserved = 0.0;
    for (int s = 0; s < shards.num_shards(); ++s) {
      const ShardEpochResult& r = results[static_cast<std::size_t>(s)];
      const ShardRun& run = runs[static_cast<std::size_t>(s)];
      const ShardedCostModel::Shard& sh = shards.shard(s);
      for (const FlowId l : r.d.moved_flows) {
        const VmFlow& f = sh.flows[static_cast<std::size_t>(l.value())];
        const FlowId g = sh.global_ids[static_cast<std::size_t>(l.value())];
        if (g.valid()) workload.relocate(g, f.src_host, f.dst_host);
      }
      add_shard_decision(d, r.d);
      unserved += r.unserved;
      d.rung = std::max(d.rung, run.rung);
      if (run.fail_streak > 0 && run.rung != DegradationRung::kFull) {
        ++d.quarantined_shards;
        d.shard_penalty += sharded.quarantine_sla * r.served_rate;
      }
    }
    d.quarantine_penalty = config.fault.quarantine_penalty * unserved;
    if (d.quarantined_flows > 0) {
      emit([&](EpochObserver& o) {
        o.on_quarantine(v.hour, d.quarantined_flows, unserved,
                        d.quarantine_penalty);
      });
    }
    if (v.blackout) {
      d.service_down = true;
      emit([&](EpochObserver& o) { o.on_blackout(v.hour); });
    } else if (d.recovery_migrations > 0) {
      emit([&](EpochObserver& o) {
        o.on_recovery(v.hour, d.recovery_migrations, d.recovery_cost);
      });
    }
    d.switch_failures = events.switch_failures;
    d.link_failures = events.link_failures;
    d.repairs = events.repairs;
    if (d.truncated_solves > 0) {
      emit([&](EpochObserver& o) {
        o.on_budget_truncation(v.hour, d.truncated_solves);
      });
    }
    emit([&](EpochObserver& o) {
      o.on_shard_batch(v.hour, d.resolved_shards, d.held_shards, epoch_churn);
    });
    emit([&](EpochObserver& o) { o.on_epoch_end(v.hour, d); });
    return d;
  }

  // Per-shard ladder transitions, evaluated in fixed shard order after
  // the merge (many private control loops, one deterministic event
  // stream). Trip priority per shard: policy-throw > blackout >
  // solve-budget > quarantine.
  void step_ladders(Hour hour, bool blackout,
                    const std::vector<ShardEpochResult>& results) {
    for (int s = 0; s < shards.num_shards(); ++s) {
      ShardRun& run = runs[static_cast<std::size_t>(s)];
      const ShardEpochResult& r = results[static_cast<std::size_t>(s)];
      const std::string& name = shards.shard(s).name;
      if (r.d.shard_retries > 0) {
        const bool healed = !r.d.policy_failed;
        emit([&](EpochObserver& o) {
          o.on_shard_retry(hour, s, name, healed);
        });
        if (healed) run.fail_streak = 0;
      }
      const char* trip = nullptr;
      if (r.d.policy_failed) {
        trip = "policy-throw";
      } else if (blackout) {
        trip = "blackout";
      } else if (r.d.truncated_solves >= kTripTruncations) {
        trip = "solve-budget";
      } else if (static_cast<double>(r.d.quarantined_flows) >
                 kMaxQuarantinedFraction * static_cast<double>(r.live)) {
        trip = "quarantine";
      }
      const DegradationRung from = run.rung;
      if (trip != nullptr) {
        run.clean_streak = 0;
        if (r.d.policy_failed) {
          ++run.fail_streak;
          const int need = required_clean_epochs(s, run.fail_streak);
          emit([&](EpochObserver& o) {
            o.on_shard_quarantine(hour, s, name, run.fail_streak, need);
          });
        }
        if (run.rung == DegradationRung::kFrozen) continue;
        run.rung = static_cast<DegradationRung>(static_cast<int>(run.rung) + 1);
      } else {
        ++run.clean_streak;
        if (run.rung == DegradationRung::kFull ||
            run.clean_streak < required_clean_epochs(s, run.fail_streak)) {
          continue;
        }
        run.rung = static_cast<DegradationRung>(static_cast<int>(run.rung) - 1);
        run.clean_streak = 0;
        trip = "recovered";
      }
      emit([&](EpochObserver& o) {
        o.on_shard_ladder_transition(hour, s, name, from, run.rung, trip);
      });
    }
  }

  // Runtime audit (after the ladder step): each shard's epoch re-derived
  // from scratch in fixed shard order, then the merged epoch's global
  // invariants.
  void audit(const EpochView& v, const std::vector<ShardEpochResult>& results,
             const EpochDecision& d) {
    for (int s = 0; s < shards.num_shards(); ++s) {
      const ShardRun& run = runs[static_cast<std::size_t>(s)];
      const ShardEpochResult& r = results[static_cast<std::size_t>(s)];
      const ShardedCostModel::Shard& sh = shards.shard(s);
      auditor->check_shard_epoch(
          {.epoch = v.hour, .shard = s, .name = &sh.name,
           .model = v.faults_active && run.degraded_model
                        ? run.degraded_model.get()
                        : sh.model.get(),
           .flows = &sh.flows, .placement = &run.placement,
           .charged_comm = r.d.comm_cost, .frozen = r.frozen,
           .service_down = v.blackout, .degraded = v.degraded, .n = n});
    }
    auditor->check_epoch({.epoch = v.hour, .shards = &shards,
                          .global_flows = &workload.flows(), .decision = &d,
                          .degraded = v.degraded,
                          .injector = injector ? &*injector : nullptr});
  }

  // Epoch journal: a live epoch appends its shards' answers and rewrites
  // the file — the final epoch too, so a finished run's journal replays
  // it whole. A replayed epoch is in the journal already.
  void append_journal(std::vector<ShardEpochResult>& results) {
    EpochRecord& rec = journal.epochs.emplace_back();
    rec.shards.reserve(results.size());
    for (ShardEpochResult& r : results) {
      rec.shards.push_back(std::move(r.answer));
    }
    write_epoch_journal(journal_path, journal);
  }

  // run_sharded_simulation initializes these nine in order; every later
  // member derives from them or starts empty.
  const AllPairs& apsp;
  const ShardMap& map;
  StreamingWorkload& workload;
  const int n;
  const SimConfig& config;
  const ShardedStreamingConfig& sharded;
  const MigrationPolicy& prototype;
  EpochObserver* const observer;
  const std::string& journal_path;
  const bool journaling = !journal_path.empty();

  std::optional<FaultInjector> injector =
      config.faults.empty() ? std::nullopt
                            : std::optional<FaultInjector>(
                                  std::in_place, apsp.graph(), config.faults);
  const bool streaming = workload.churn_config().arrivals_per_epoch > 0 ||
                         workload.churn_config().departure_prob > 0.0 ||
                         workload.churn_config().rerate_prob > 0.0;
  // Global diurnal group domain: every shard's scale vector has this
  // length. Streaming arrivals draw from the same generator as the
  // initial population and may introduce either coast, so a churning run
  // widens the domain to at least the two-coast model even when the
  // initial draw happened to be single-group.
  const int n_groups =
      std::max(num_groups(groups_of(workload.flows())), streaming ? 2 : 0);
  ShardedCostModel shards{apsp, map, workload.flows(), n_groups};
  // A custom rate schedule replaces the diurnal group scaling with
  // per-flow rates over the global flow vector (validated: one
  // non-negative rate per flow). Those rates need not decompose into
  // base x scale, so shard models then serve each epoch by a full
  // refresh() instead of the group recombination.
  const bool scheduled = static_cast<bool>(config.rate_schedule);
  std::vector<ShardRun> runs =
      std::vector<ShardRun>(static_cast<std::size_t>(shards.num_shards()));
  const int threads = resolve_experiment_threads(sharded.threads);
  // Epoch regions draw the next epoch's churn (draw_next).
  const bool drawing = streaming && config.hours > 1;
  EpochJournalState journal{};
  bool resumed = false;
  ChurnDraw next_churn = ChurnDraw();  // its Rng's default is explicit
  std::exception_ptr draw_error{};
  // One per-run checker that re-derives every shard's epoch from scratch
  // (sim/audit.hpp, DESIGN.md §15).
  std::unique_ptr<ShardedInvariantAuditor> auditor =
      config.audit.enabled ? std::make_unique<ShardedInvariantAuditor>(
                                 prototype.name(), map.names)
                           : nullptr;
  TraceRecorder recorder{};
  std::unique_ptr<DegradedNetwork> degraded{};
};

}  // namespace

SimTrace run_sharded_simulation(const AllPairs& apsp, const ShardMap& map,
                                StreamingWorkload& workload, int n,
                                const SimConfig& config,
                                const ShardedStreamingConfig& sharded,
                                const MigrationPolicy& prototype,
                                EpochObserver* observer,
                                const std::string& journal_path,
                                int attempt) {
  PPDC_REQUIRE(!workload.flows().empty(),
               "simulation needs at least one flow");
  PPDC_REQUIRE(config.hours >= 1, "simulation needs at least one hour");
  PPDC_REQUIRE(config.fault.mu >= 0.0,
               "negative recovery migration coefficient");
  PPDC_REQUIRE(config.fault.quarantine_penalty >= 0.0,
               "negative quarantine penalty");
  PPDC_REQUIRE(sharded.resolve_churn_fraction >= 0.0 &&
                   sharded.resolve_churn_fraction <= 1.0,
               "resolve_churn_fraction outside [0,1]");
  PPDC_REQUIRE(sharded.max_staleness >= 1,
               "bounded staleness needs max_staleness >= 1");
  PPDC_REQUIRE(sharded.quarantine_sla >= 0.0,
               "negative shard quarantine SLA penalty");
  // The journal's run fingerprint cannot hash a std::function, so a
  // journal written under one schedule would resume under another.
  PPDC_REQUIRE(!config.rate_schedule || journal_path.empty(),
               "a custom rate_schedule cannot be combined with an epoch "
               "journal (the journal cannot fingerprint the schedule); run "
               "without a journal, or use the built-in diurnal model");

  PPDC_REQUIRE(config.faults.empty() || config.faults.front().epoch >= Hour{1},
               "fault events must start at epoch 1 (the initial placement "
               "sees the pristine fabric)");

  EpochRunner runner{apsp,    map,       workload, n,       config,
                     sharded, prototype, observer, journal_path};
  runner.open_journal(attempt);
  runner.solve_hour_zero();
  for (const Hour hour : id_range(Hour{0}, Hour{config.hours})) {
    runner.run_epoch(hour);
  }
  return runner.finish();
}

}  // namespace ppdc
