#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
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
  EpochDecision d;
  int quarantined = 0;
  int live = 0;  ///< non-vacant slots (counted while faults are active)
  double unserved = 0.0;
  double served_rate = 0.0;  ///< Σ served rates (quarantine-SLA base)
  int recovery_migrations = 0;
  double recovery_cost = 0.0;
  bool resolved = false;
  bool held = false;
  bool frozen = false;   ///< executed at kFrozen (stale charge, audit-exempt)
  bool retried = false;  ///< re-solve attempt of a failure-quarantined shard
  ShardAnswer answer;    ///< what the solvers answered (the journal record)
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

/// Runs `work(s)` for every shard, claimed in the sequence `order`, and
/// `extra()` once on a `pool`-wide region until `stop()` turns true.
/// `extra` is the region's second item: a long one starts at once, on
/// the first worker to arrive, and the calling thread, which claims
/// first, still takes order[0]. `extra` must not throw. A throw from
/// `work(s)` lands in errors[s] and the remaining shards still run;
/// callers surface errors in shard order, so every width fails the same
/// way. Returns whether any worker saw stop(): only then may an item
/// have been left unrun.
template <class Extra, class Work, class Stop>
bool for_each_shard(const std::vector<int>& order, int pool,
                    std::vector<std::exception_ptr>& errors, Extra&& extra,
                    Work&& work, Stop&& stop) {
  static_assert(std::is_nothrow_invocable_v<Extra&>,
                "for_each_shard extras must be noexcept");
  const int num_shards = static_cast<int>(order.size());
  std::atomic<int> next{0};
  std::atomic<bool> stopped{false};
  parallel_run(pool, [&]() noexcept {
    for (;;) {
      if (stop()) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      const int item = next.fetch_add(1, std::memory_order_relaxed);
      if (item > num_shards) return;
      if (item == 1) {
        extra();
        continue;
      }
      const int s = order[static_cast<std::size_t>(item == 0 ? 0 : item - 1)];
      try {
        work(s);
      } catch (...) {
        errors[static_cast<std::size_t>(s)] = std::current_exception();
      }
    }
  });
  return stopped.load(std::memory_order_relaxed);
}

/// The shards' claim order: heaviest first, by live slots plus the
/// epoch's routed churn events (`touched`), ties by shard index. A
/// region's wall is at least its slowest shard, so that shard starts
/// first, on the calling thread.
std::vector<int> heaviest_first(const ShardedCostModel& shards,
                                const std::vector<int>& touched) {
  std::vector<long long> weight;
  std::vector<int> order;
  for (int s = 0; s < shards.num_shards(); ++s) {
    weight.push_back(static_cast<long long>(shards.shard(s).live) +
                     touched[static_cast<std::size_t>(s)]);
    order.push_back(s);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weight[static_cast<std::size_t>(a)] >
           weight[static_cast<std::size_t>(b)];
  });
  return order;
}

/// Rethrows the first error in shard order, if any.
void rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
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

  const Graph& graph = apsp.graph();
  std::optional<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(graph, config.faults);
    PPDC_REQUIRE(config.faults.front().epoch >= Hour{1},
                 "fault events must start at epoch 1 (the initial placement "
                 "sees the pristine fabric)");
  }

  // Global diurnal group domain: every shard's scale vector has this
  // length. Streaming arrivals draw from the same generator as the
  // initial population and may introduce either coast, so a churning run
  // widens the domain to at least the two-coast model even when the
  // initial draw happened to be single-group.
  const StreamingChurnConfig& churn_cfg = workload.churn_config();
  const bool streaming = churn_cfg.arrivals_per_epoch > 0 ||
                         churn_cfg.departure_prob > 0.0 ||
                         churn_cfg.rerate_prob > 0.0;
  int n_groups = num_groups(groups_of(workload.flows()));
  if (streaming) n_groups = std::max(n_groups, 2);

  ShardedCostModel shards(apsp, map, workload.flows(), n_groups);
  const int num_shards = shards.num_shards();
  auto scales_at = [&](Hour hour) {
    return config.diurnal.group_scales(hour, n_groups);
  };
  // A custom rate schedule replaces the diurnal group scaling with
  // per-flow rates over the global flow vector (validated: one
  // non-negative rate per flow). Those rates need not decompose into
  // base x scale, so shard models then serve each epoch by a full
  // refresh() instead of the group recombination.
  const bool scheduled = static_cast<bool>(config.rate_schedule);
  auto schedule_at = [&](Hour hour) {
    std::vector<double> r;
    if (!scheduled) return r;
    r = config.rate_schedule(hour);
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
  };
  // Writes one shard's per-slot rates for the epoch into its flows: its
  // base rates under the epoch's group scales, or the schedule mapped
  // through global_ids (vacant slots carry nothing). Every group id of a
  // shard's slots is below its model's num_groups(), so one check that
  // the scales cover that domain bounds every read.
  auto set_shard_rates = [&](ShardedCostModel::Shard& sh,
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
  };
  auto refresh = [&](ShardedCostModel::Shard& sh,
                     const std::vector<double>& scales) {
    if (scheduled) {
      sh.model->refresh();
    } else {
      sh.model->refresh_scaled(scales);
    }
  };
  std::vector<std::string> shard_names;
  shard_names.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_names.push_back(shards.shard(s).name);
  }

  // Epoch journal (DESIGN.md §10): when configured, try to resume from a
  // previous incarnation of this exact run. The fingerprint is computed
  // over the fabric and the *entry* state — the workload before any epoch
  // ran — plus every result-shaping knob and the retry attempt, so a
  // journal from a different fabric, trial, policy, attempt or
  // configuration warns and is ignored instead of resuming garbage. A
  // resumed run re-executes every epoch from hour 0 and takes the
  // solvers' answers from the journal for the epochs it holds.
  const bool journaling = !journal_path.empty();
  EpochJournalState journal;
  bool resumed = false;
  if (journaling) {
    const std::uint64_t run_fp =
        fingerprint_sharded_run(graph, map, workload.snapshot(), config,
                                sharded, n, prototype.name(), attempt);
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
      } else if (!journal_fits(journal, graph, num_shards, n, config.hours)) {
        std::cerr << "warning: epoch journal '" << journal_path
                  << "' does not fit the run its fingerprint names (corrupt "
                     "journal?) — starting fresh\n";
      } else {
        resumed = true;
        std::cerr << "note: resuming from epoch journal '" << journal_path
                  << "': " << journal.epochs.size() << " of " << config.hours
                  << " epochs already journaled\n";
      }
    }
    if (!resumed) {
      journal = EpochJournalState{};
      journal.fingerprint = run_fp;
      journal.attempt = static_cast<std::uint32_t>(attempt);
      journal.hours = static_cast<std::uint32_t>(config.hours);
      journal.shards = static_cast<std::uint32_t>(num_shards);
    }
  }
  // Epochs before `replayed` take their solver answers from the journal.
  const int replayed = static_cast<int>(journal.epochs.size());

  std::vector<ShardRun> runs(static_cast<std::size_t>(num_shards));
  const int threads = resolve_experiment_threads(sharded.threads);
  const int pool = std::min(threads, num_shards);
  // Churn pipeline (DESIGN.md §14): epoch h's shard region also draws
  // epoch h+1's churn into `next_churn`, and epoch h+1 commits it where
  // it would have called advance(). The draw reads only the workload's
  // free list, slot count and generator, which nothing in the region
  // writes, so every width draws the same bits. The epoch region takes
  // one worker more than the shards need for it. The draw is the
  // region's second item, not its first, so the calling thread keeps
  // shard 0 and the shards' large per-epoch buffers stay in the malloc
  // arenas they used before: drawing first raised peak RSS by 2 MiB on
  // shard_resolve and 11 MiB on bench_scale k=32 (EXPERIMENTS.md).
  const bool drawing = streaming && config.hours > 1;
  const int epoch_pool = drawing ? std::min(threads, num_shards + 1) : pool;
  ChurnDraw next_churn;
  std::exception_ptr draw_error;

  // Hour 0: per-shard initial traffic-optimal placement (TOP, Algorithm
  // 3) on the pristine fabric, on the shard pool — or the journaled one
  // on a resume. Each shard touches only its own flows and model; the
  // stroll tables its solve shares with other shards come from the
  // fabric's cache, whose levels are a deterministic function of their
  // destination, so the placements do not depend on the thread count.
  // A parallel kernel called here (a full refresh) runs inline on its
  // shard's worker when the shard pool is wider than one, and the cached
  // levels live in page-mapped slabs rather than in the workers' malloc
  // arenas (DESIGN.md §11).
  {
    const std::vector<double> scales0 = scales_at(Hour{0});
    const std::vector<double> schedule0 = schedule_at(Hour{0});
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(num_shards));
    for_each_shard(
        heaviest_first(shards, std::vector<int>(
                                   static_cast<std::size_t>(num_shards), 0)),
        pool, errors, []() noexcept {},
        [&](int s) {
          ShardedCostModel::Shard& sh = shards.shard(s);
          set_shard_rates(sh, scales0, schedule0);
          refresh(sh, scales0);
          Placement& placement = runs[static_cast<std::size_t>(s)].placement;
          if (resumed) {
            const auto first = journal.merged_initial.begin() + s * n;
            placement.assign(first, first + n);
          } else {
            placement =
                solve_top_dp(*sh.model, n, config.initial_placement).placement;
          }
        },
        [] { return false; });
    rethrow_first(errors);
  }
  // A resumed run's clones never see the replayed epochs' on_epoch calls;
  // the policy contract makes that exact (a policy is stateless across
  // epochs: on_epoch derives everything from the model and state it is
  // handed).
  Placement merged_initial;
  merged_initial.reserve(static_cast<std::size_t>(num_shards * n));
  for (ShardRun& run : runs) {
    run.policy = prototype.clone();
    PPDC_REQUIRE(run.policy != nullptr,
                 "policy '" + prototype.name() + "' returned a null clone()");
    merged_initial.insert(merged_initial.end(), run.placement.begin(),
                          run.placement.end());
  }
  if (journaling && !resumed) journal.merged_initial = merged_initial;

  // Sharded runtime invariant auditing (sim/audit.hpp, DESIGN.md §15):
  // one per-run checker that re-derives every shard's epoch from scratch.
  std::unique_ptr<ShardedInvariantAuditor> auditor;
  if (config.audit.enabled) {
    auditor = std::make_unique<ShardedInvariantAuditor>(prototype.name(),
                                                        shard_names);
  }

  TraceRecorder recorder;
  auto emit = [&](auto&& fn) {
    fn(static_cast<EpochObserver&>(recorder));
    if (auditor) fn(static_cast<EpochObserver&>(*auditor));
    if (observer != nullptr) fn(*observer);
  };
  emit([&](EpochObserver& o) {
    o.on_run_begin(Hour{config.hours}, merged_initial);
  });

  std::unique_ptr<DegradedNetwork> degraded;

  // Runs one shard's policy clone on a copy of the shard's state, so a
  // throw leaves nothing to roll back, and records the outcome in
  // `answer`: the decision exactly as on_epoch returned it, the new
  // placement and the moved flows' new endpoints. With the ladder enabled
  // a throw — an invalid placement counts as one — is recorded as such;
  // without the ladder it aborts the run.
  auto solve_policy = [&](const ShardedCostModel::Shard& sh, ShardRun& run,
                          const CostModel& m, bool faults_active, Hour hour,
                          ShardAnswer& answer) {
    SimState st;
    st.flows = sh.flows;
    st.placement = run.placement;
    try {
      answer.decision = run.policy->on_epoch(m, st);
      try {
        PPDC_REQUIRE(st.placement.size() == static_cast<std::size_t>(n),
                     "placement length changed");
        validate_placement(m.apsp().graph(), st.placement);
        if (faults_active) {
          for (const NodeId sw : st.placement) {
            PPDC_REQUIRE(degraded->in_core(sw),
                         "VNF placed on a dead or unreachable switch");
          }
        }
      } catch (const PpdcError& e) {
        throw PpdcError("policy '" + run.policy->name() +
                        "' produced an invalid placement at epoch " +
                        std::to_string(hour.value()) + " (shard '" + sh.name +
                        "'): " + e.what());
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
  };

  for (const Hour hour : id_range(Hour{0}, Hour{config.hours})) {
    if (config.cancel != nullptr &&
        config.cancel->load(std::memory_order_relaxed)) {
      emit([&](EpochObserver& o) { o.on_interrupted(hour); });
      throw SimInterrupted("simulation cancelled before epoch " +
                           std::to_string(hour.value()) + " of " +
                           std::to_string(config.hours));
    }
    emit([&](EpochObserver& o) { o.on_epoch_begin(hour); });

    // 0. Inter-epoch churn: a streaming workload advances once per epoch
    // from hour 1 on, by committing the draw the previous epoch's region
    // made (a draw that threw surfaces here, as advance() would have
    // thrown here). The churn is routed into per-shard buckets here, and
    // each shard task below applies its own bucket with O(|V_s|) patches
    // before anything else; nothing in the region writes the workload's
    // flows, which the buckets are applied from.
    int epoch_churn = 0;
    std::vector<int> touched(static_cast<std::size_t>(num_shards), 0);
    if (streaming && hour >= Hour{1}) {
      if (draw_error) std::rethrow_exception(draw_error);
      workload.commit(next_churn);
      const FlowChurn& churn = next_churn.churn;
      epoch_churn = static_cast<int>(churn.total());
      if (epoch_churn > 0) {
        touched = shards.route_churn(workload.flows(), churn);
      }
    }

    // 1. Fault events and the shared degraded view (read-only for the
    // parallel shard phase, so it is rebuilt here on the main thread).
    EpochFaults events;
    if (injector && hour >= Hour{1}) events = injector->advance_to(hour);
    if (events.switch_failures + events.link_failures + events.repairs > 0) {
      emit([&](EpochObserver& o) { o.on_faults(hour, events); });
    }
    const bool faults_active = injector && injector->any_faults_active();
    if (events.topology_changed) {
      for (ShardRun& run : runs) run.degraded_model.reset();
      degraded.reset();
      if (faults_active) {
        degraded = std::make_unique<DegradedNetwork>(
            graph, injector->dead_nodes(), injector->dead_edges());
      }
    }
    const bool blackout = faults_active && !degraded->core_can_host(n);

    const std::vector<double> scales = scales_at(hour);
    const std::vector<double> schedule = schedule_at(hour);
    // Departed slots hold no flow, so quarantine skips them.
    std::vector<char> departed;
    if (faults_active) {
      departed.assign(workload.flows().size(), 0);
      for (const FlowId g : workload.free_slots()) {
        departed[static_cast<std::size_t>(g.value())] = 1;
      }
    }

    // 2.-5. Per-shard epoch work — traffic, quarantine, model
    // maintenance, emergency recovery, policy or bounded-staleness hold.
    // Shards are independent; results merge in fixed shard order below.
    // Each shard executes at its *own* ladder rung.
    std::vector<ShardEpochResult> results(
        static_cast<std::size_t>(num_shards));
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(num_shards));

    auto shard_epoch = [&](int s) {
      ShardedCostModel::Shard& sh = shards.shard(s);
      ShardRun& run = runs[static_cast<std::size_t>(s)];
      ShardEpochResult& r = results[static_cast<std::size_t>(s)];
      const int churned = touched[static_cast<std::size_t>(s)];
      if (churned > 0) {
        shards.apply_shard_churn(s, workload.flows());
        run.churned += churned;
      }
      const bool frozen =
          config.ladder.enabled && run.rung == DegradationRung::kFrozen;
      const bool refresh_only =
          config.ladder.enabled && run.rung == DegradationRung::kRefreshOnly;
      r.frozen = frozen;
      // The solvers' answers: a live epoch records them for the journal,
      // a replayed one copies them from the journal instead of solving.
      ShardAnswer& answer = r.answer;
      const ShardAnswer* journaled =
          hour.value() < replayed
              ? &journal.epochs[static_cast<std::size_t>(hour.value())]
                     .shards[static_cast<std::size_t>(s)]
              : nullptr;

      // 2. This epoch's traffic; flows cut off from the core quarantine.
      set_shard_rates(sh, scales, schedule);
      if (faults_active) {
        for (std::size_t i = 0; i < sh.flows.size(); ++i) {
          VmFlow& f = sh.flows[i];
          const FlowId g = sh.global_ids[i];
          if (!g.valid() || departed[static_cast<std::size_t>(g.value())]) {
            continue;  // vacant slot
          }
          ++r.live;
          const bool served = !blackout && degraded->in_core(f.src_host) &&
                              degraded->in_core(f.dst_host);
          if (!served) {
            ++r.quarantined;
            r.unserved += f.rate;
            f.rate = 0.0;
          }
        }
      }
      for (const VmFlow& f : sh.flows) r.served_rate += f.rate;

      if (blackout) {
        // Nothing is served and nothing is charged; the stale estimate a
        // later frozen epoch would charge is this epoch's zero.
        r.d.service_down = true;
        run.last_comm = 0.0;
        return;
      }

      // 3. Cost-model maintenance: a dedicated full-rescan model over the
      // degraded metric, restricted to the core's alive switches, while
      // faults are active (quarantine breaks the base x scale
      // decomposition); group recombination on the pristine path, with a
      // lazy base resync when the fabric heals.
      CostModel* m = sh.model.get();
      if (faults_active) {
        if (!run.degraded_model) {
          run.degraded_model =
              std::make_unique<CostModel>(degraded->apsp(), sh.flows);
          run.degraded_model->restrict_candidates(degraded->core_switches());
        } else if (!frozen) {
          run.degraded_model->refresh();
        }
        m = run.degraded_model.get();
        run.resync_pending = true;
      } else if (!frozen) {
        // Heal: endpoints may have moved while the degraded model was
        // authoritative, so a full refresh resyncs the group bases first
        // (the scheduled path refreshes in full every epoch anyway).
        if (run.resync_pending && !scheduled) sh.model->refresh();
        run.resync_pending = false;
        refresh(sh, scales);
      }

      // 4. Emergency re-placement of VNFs stranded outside the core.
      bool stranded = false;
      if (faults_active) {
        for (const NodeId sw : run.placement) {
          if (!degraded->in_core(sw)) {
            stranded = true;
            break;
          }
        }
      }
      if (stranded) {
        if (journaled != nullptr) {
          if (!journaled->recovered) {
            journal_diverged(hour, sh.name,
                             "the shard is stranded but the journal holds "
                             "no recovery target");
          }
          answer.recovery_target = journaled->recovery_target;
        } else {
          answer.recovery_target =
              solve_top_dp(*m, n, config.fault.placement).placement;
        }
        answer.recovered = true;
        const Placement& target = answer.recovery_target;
        double distance = 0.0;
        for (std::size_t j = 0; j < run.placement.size(); ++j) {
          if (run.placement[j] == target[j]) continue;
          ++r.recovery_migrations;
          distance += apsp.cost(run.placement[j], target[j]);
        }
        r.recovery_cost = config.fault.mu * distance;
        run.placement = target;
      }

      // 5. Policy, or a bounded-staleness hold. Held shards charge the
      // exact communication cost of the kept placement on the *refreshed*
      // model — never a stale estimate (kFrozen excepted).
      EpochDecision& d = r.d;
      if (hour == Hour{0}) {
        d.comm_cost = sh.model->communication_cost(run.placement);
        r.resolved = true;
      } else if (frozen) {
        d.comm_cost = run.last_comm;
        r.held = true;
      } else if (refresh_only) {
        d.comm_cost = m->communication_cost(run.placement);
        r.held = true;
      } else {
        const bool resolve =
            sharded.resolve_churn_fraction <= 0.0 || faults_active ||
            stranded || run.fail_streak > 0 ||
            static_cast<double>(run.churned) >=
                sharded.resolve_churn_fraction *
                    static_cast<double>(std::max(sh.live, 1)) ||
            run.staleness >= sharded.max_staleness;
        if (!resolve) {
          d.comm_cost = m->communication_cost(run.placement);
          r.held = true;
          ++run.staleness;
        } else {
          if (run.fail_streak > 0) r.retried = true;
          if (journaled != nullptr) {
            if (journaled->policy == ShardAnswer::Policy::kNone) {
              journal_diverged(hour, sh.name,
                               "the shard re-solves but the journal holds "
                               "no policy answer");
            }
            for (const FlowId i : journaled->decision.moved_flows) {
              if (!i.valid() || i >= flow_count(sh.flows)) {
                journal_diverged(hour, sh.name,
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
            solve_policy(sh, run, *m, faults_active, hour, answer);
          }
          if (answer.policy == ShardAnswer::Policy::kThrew) {
            // Failure containment: the throw was absorbed per shard — this
            // shard holds its placement, gets charged the exactly
            // refreshed cost, and the post-merge ladder block quarantines
            // it; every other shard's epoch is untouched.
            d = EpochDecision{};
            d.policy_failed = true;
            d.comm_cost = m->communication_cost(run.placement);
          } else {
            d = answer.decision;
            run.placement = answer.placement;
            if (!d.moved_flows.empty()) {
              // VM migration (PLAN/MCF): adopt the moved endpoints and
              // patch only those flows; the merge mirrors them into the
              // global flow vector. Shard models cost against the full
              // metric, so a VM may leave its ingress pod.
              for (std::size_t k = 0; k < d.moved_flows.size(); ++k) {
                const FlowId l = d.moved_flows[k];
                VmFlow& f = sh.flows[static_cast<std::size_t>(l.value())];
                f.src_host = answer.moved[k].src_host;
                f.dst_host = answer.moved[k].dst_host;
              }
              m->endpoints_moved(d.moved_flows);
            }
          }
          r.resolved = true;
          run.staleness = 0;
          run.churned = 0;
        }
      }
      run.last_comm = d.comm_cost;
    };

    // Cooperative cancellation is honored at *shard* boundaries: a worker
    // stops pulling shards the moment the flag flips, so a SIGINT during
    // a million-flow epoch responds in milliseconds instead of waiting
    // out the epoch. A region a worker stopped may have left shards (and
    // their churn) or the draw unrun, so the epoch is abandoned wholesale
    // (SimInterrupted below) even if the flag was cleared since —
    // mutated state never escapes because a cancelled run is rerun (or
    // journal-resumed) from a clean snapshot. A region that no worker
    // stopped ran every shard and the draw.
    const std::atomic<bool>* cancel = config.cancel;
    auto cancelled = [&]() {
      return cancel != nullptr && cancel->load(std::memory_order_relaxed);
    };
    // The next epoch's churn draw; a cancelled run drops it uncommitted.
    auto draw_next = [&]() noexcept {
      if (!drawing || hour.value() + 1 >= config.hours) return;
      try {
        workload.draw(next_churn);
      } catch (...) {
        draw_error = std::current_exception();
      }
    };
    if (for_each_shard(heaviest_first(shards, touched), epoch_pool, errors,
                       draw_next, shard_epoch, cancelled)) {
      emit([&](EpochObserver& o) { o.on_interrupted(hour); });
      throw SimInterrupted("simulation cancelled inside epoch " +
                           std::to_string(hour.value()) + " of " +
                           std::to_string(config.hours));
    }
    // Deterministic error surfacing: first failing shard in pod order.
    rethrow_first(errors);
    // A replayed shard that asked for no answer the journal holds (asking
    // for one it lacks threw above).
    if (hour.value() < replayed) {
      const EpochRecord& rec =
          journal.epochs[static_cast<std::size_t>(hour.value())];
      for (int s = 0; s < num_shards; ++s) {
        const ShardAnswer& got = results[static_cast<std::size_t>(s)].answer;
        const ShardAnswer& want = rec.shards[static_cast<std::size_t>(s)];
        if (got.recovered != want.recovered || got.policy != want.policy) {
          journal_diverged(hour, shard_names[static_cast<std::size_t>(s)],
                           "the journal holds an answer the shard did not "
                           "ask for");
        }
      }
    }

    // 6. Fixed-order merge: sums accumulate in shard order, so the
    // merged decision is a pure function of shard state — identical at
    // every thread count. The merged rung is the worst rung any shard
    // executed at; quarantined shards (failure backoff, rung below
    // kFull) accrue the shard-SLA penalty on their served rate.
    EpochDecision d;
    int quarantined = 0;
    double unserved = 0.0;
    int recovery_migrations = 0;
    double recovery_cost = 0.0;
    for (int s = 0; s < num_shards; ++s) {
      const ShardEpochResult& r = results[static_cast<std::size_t>(s)];
      const ShardRun& run = runs[static_cast<std::size_t>(s)];
      const ShardedCostModel::Shard& sh = shards.shard(s);
      for (const FlowId l : r.d.moved_flows) {
        const VmFlow& f = sh.flows[static_cast<std::size_t>(l.value())];
        const FlowId g = sh.global_ids[static_cast<std::size_t>(l.value())];
        if (g.valid()) workload.relocate(g, f.src_host, f.dst_host);
      }
      quarantined += r.quarantined;
      unserved += r.unserved;
      recovery_migrations += r.recovery_migrations;
      recovery_cost += r.recovery_cost;
      d.comm_cost += r.d.comm_cost;
      d.migration_cost += r.d.migration_cost;
      d.vnf_migrations += r.d.vnf_migrations;
      d.vm_migrations += r.d.vm_migrations;
      d.truncated_solves += r.d.truncated_solves;
      d.resolved_shards += r.resolved ? 1 : 0;
      d.held_shards += r.held ? 1 : 0;
      if (r.d.policy_failed) d.policy_failed = true;
      if (static_cast<int>(run.rung) > static_cast<int>(d.rung)) {
        d.rung = run.rung;
      }
      if (r.retried) ++d.shard_retries;
      if (run.fail_streak > 0 && run.rung != DegradationRung::kFull) {
        ++d.quarantined_shards;
        d.shard_penalty += sharded.quarantine_sla * r.served_rate;
      }
    }
    const double epoch_penalty = config.fault.quarantine_penalty * unserved;
    if (quarantined > 0) {
      emit([&](EpochObserver& o) {
        o.on_quarantine(hour, quarantined, unserved, epoch_penalty);
      });
    }
    if (blackout) {
      d.service_down = true;
      emit([&](EpochObserver& o) { o.on_blackout(hour); });
    } else if (recovery_migrations > 0) {
      emit([&](EpochObserver& o) {
        o.on_recovery(hour, recovery_migrations, recovery_cost);
      });
    }
    d.switch_failures = events.switch_failures;
    d.link_failures = events.link_failures;
    d.repairs = events.repairs;
    d.recovery_migrations = recovery_migrations;
    d.recovery_cost = recovery_cost;
    d.quarantined_flows = quarantined;
    d.quarantine_penalty = epoch_penalty;
    if (d.truncated_solves > 0) {
      emit([&](EpochObserver& o) {
        o.on_budget_truncation(hour, d.truncated_solves);
      });
    }
    emit([&](EpochObserver& o) {
      o.on_shard_batch(hour, d.resolved_shards, d.held_shards, epoch_churn);
    });
    emit([&](EpochObserver& o) { o.on_epoch_end(hour, d); });

    // 7. Per-shard ladder transitions, evaluated in fixed shard order
    // after the merge (many private control loops, one deterministic
    // event stream). Trip priority per shard: policy-throw > blackout >
    // solve-budget > quarantine.
    if (config.ladder.enabled) {
      for (int s = 0; s < num_shards; ++s) {
        ShardRun& run = runs[static_cast<std::size_t>(s)];
        const ShardEpochResult& r = results[static_cast<std::size_t>(s)];
        if (r.retried) {
          const bool healed = !r.d.policy_failed;
          emit([&](EpochObserver& o) {
            o.on_shard_retry(hour, s, shard_names[static_cast<std::size_t>(s)],
                             healed);
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
        } else if (static_cast<double>(r.quarantined) >
                   kMaxQuarantinedFraction * static_cast<double>(r.live)) {
          trip = "quarantine";
        }
        if (trip != nullptr) {
          run.clean_streak = 0;
          if (r.d.policy_failed) {
            ++run.fail_streak;
            const int need = required_clean_epochs(s, run.fail_streak);
            emit([&](EpochObserver& o) {
              o.on_shard_quarantine(hour, s,
                                    shard_names[static_cast<std::size_t>(s)],
                                    run.fail_streak, need);
            });
          }
          if (run.rung != DegradationRung::kFrozen) {
            const DegradationRung from = run.rung;
            run.rung =
                static_cast<DegradationRung>(static_cast<int>(run.rung) + 1);
            emit([&](EpochObserver& o) {
              o.on_shard_ladder_transition(
                  hour, s, shard_names[static_cast<std::size_t>(s)], from,
                  run.rung, trip);
            });
          }
        } else {
          ++run.clean_streak;
          const int need = required_clean_epochs(s, run.fail_streak);
          if (run.rung != DegradationRung::kFull &&
              run.clean_streak >= need) {
            const DegradationRung from = run.rung;
            run.rung =
                static_cast<DegradationRung>(static_cast<int>(run.rung) - 1);
            run.clean_streak = 0;
            emit([&](EpochObserver& o) {
              o.on_shard_ladder_transition(
                  hour, s, shard_names[static_cast<std::size_t>(s)], from,
                  run.rung, "recovered");
            });
          }
        }
      }
    }

    // 8. Runtime audit (after the ladder block): each shard's epoch
    // re-derived from scratch in fixed shard order, then the merged
    // epoch's global invariants.
    if (auditor) {
      for (int s = 0; s < num_shards; ++s) {
        const ShardRun& run = runs[static_cast<std::size_t>(s)];
        const ShardEpochResult& r = results[static_cast<std::size_t>(s)];
        ShardAuditContext sc;
        sc.epoch = hour;
        sc.shard = s;
        sc.name = &shard_names[static_cast<std::size_t>(s)];
        sc.model = (faults_active && run.degraded_model)
                       ? run.degraded_model.get()
                       : shards.shard(s).model.get();
        sc.flows = &shards.shard(s).flows;
        sc.placement = &run.placement;
        sc.charged_comm = r.d.comm_cost;
        sc.frozen = r.frozen;
        sc.service_down = blackout;
        sc.degraded = degraded.get();
        sc.n = n;
        auditor->check_shard_epoch(sc);
      }
      ShardedAuditContext gc;
      gc.epoch = hour;
      gc.shards = &shards;
      gc.global_flows = &workload.flows();
      gc.decision = &d;
      gc.degraded = degraded.get();
      gc.injector = injector ? &*injector : nullptr;
      auditor->check_epoch(gc);
    }

    // 9. Epoch journal: a live epoch appends its shards' answers and
    // rewrites the file — the final epoch too, so a finished run's journal
    // replays it whole. A replayed epoch is in the journal already.
    if (journaling && hour.value() >= replayed) {
      EpochRecord rec;
      rec.shards.reserve(static_cast<std::size_t>(num_shards));
      for (ShardEpochResult& r : results) {
        rec.shards.push_back(std::move(r.answer));
      }
      journal.epochs.push_back(std::move(rec));
      write_epoch_journal(journal_path, journal);
    }
  }
  emit([&](EpochObserver& o) { o.on_run_end(); });
  SimTrace trace = recorder.take();
  if (auditor) {
    trace.audited_epochs = auditor->checked_epochs();
    auditor->check_run(trace);
  }
  return trace;
}

}  // namespace ppdc
