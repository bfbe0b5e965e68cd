#include "sim/engine.hpp"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/chain_search.hpp"
#include "core/cost_model.hpp"
#include "fault/degraded.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

SimTrace run_simulation(const AllPairs& apsp,
                        const std::vector<VmFlow>& base_flows, int n,
                        const SimConfig& config, MigrationPolicy& policy,
                        EpochObserver* observer) {
  PPDC_REQUIRE(!base_flows.empty(), "simulation needs at least one flow");
  PPDC_REQUIRE(config.hours >= 1, "simulation needs at least one hour");
  PPDC_REQUIRE(config.fault.mu >= 0.0,
               "negative recovery migration coefficient");
  PPDC_REQUIRE(config.fault.quarantine_penalty >= 0.0,
               "negative quarantine penalty");
  PPDC_REQUIRE(config.ladder.max_quarantined_fraction >= 0.0 &&
                   config.ladder.max_quarantined_fraction <= 1.0,
               "ladder quarantine trip must be a fraction in [0,1]");
  PPDC_REQUIRE(config.ladder.trip_truncations >= 0,
               "negative ladder truncation trip");
  PPDC_REQUIRE(config.ladder.recovery_epochs >= 1,
               "ladder recovery needs at least one clean epoch");
  PPDC_REQUIRE(config.audit.rel_tol >= 0.0 && config.audit.abs_tol >= 0.0,
               "negative audit tolerance");

  const Graph& graph = apsp.graph();
  std::optional<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(graph, config.faults);  // validates shape + ordering
    PPDC_REQUIRE(config.faults.front().epoch >= Hour{1},
                 "fault events must start at epoch 1 (the initial placement "
                 "sees the pristine fabric)");
  }

  const std::vector<double> base_rates = rates_of(base_flows);
  const std::vector<int> groups = groups_of(base_flows);
  const int n_groups = num_groups(groups);

  // The diurnal model rescales whole groups by one factor per hour
  // (Eq. 9), so the cost model can serve each epoch by group
  // recombination. A custom rate schedule may change rates arbitrarily per
  // flow and keeps the full per-flow rescan.
  const bool grouped = !config.rate_schedule;

  auto rates_at = [&](Hour hour) {
    if (!config.rate_schedule) {
      return diurnal_rates_grouped(config.diurnal, base_rates, groups, hour);
    }
    std::vector<double> r = config.rate_schedule(hour);
    PPDC_REQUIRE(r.size() == base_flows.size(),
                 "rate_schedule(hour " + std::to_string(hour.value()) +
                     ") returned " + std::to_string(r.size()) +
                     " rates for " + std::to_string(base_flows.size()) +
                     " flows");
    for (std::size_t i = 0; i < r.size(); ++i) {
      PPDC_REQUIRE(r[i] >= 0.0,
                   "rate_schedule(hour " + std::to_string(hour.value()) +
                       ") returned a negative rate for flow " +
                       std::to_string(i));
    }
    return r;
  };
  auto scales_at = [&](Hour hour) {
    return config.diurnal.group_scales(hour, n_groups);
  };

  SimState state;
  state.flows = base_flows;

  // Hour 0: initial traffic-optimal placement (TOP, Algorithm 3) on the
  // pristine fabric.
  set_rates(state.flows, rates_at(Hour{0}));
  CostModel model = grouped ? CostModel(apsp, state.flows, base_rates, groups)
                            : CostModel(apsp, state.flows);
  if (grouped) model.refresh_scaled(scales_at(Hour{0}));
  const PlacementResult initial =
      solve_top_dp(model, n, config.initial_placement);
  state.placement = initial.placement;

  // The recorder is the engine's own trace-building observer; an external
  // observer, when present, sees the identical event stream, and so does
  // the per-run invariant auditor when auditing is on.
  TraceRecorder recorder;
  std::optional<InvariantAuditor> auditor;
  if (config.audit.enabled) auditor.emplace(config.audit, policy.name());
  auto emit = [&](auto&& fn) {
    fn(static_cast<EpochObserver&>(recorder));
    if (observer != nullptr) fn(*observer);
    if (auditor) fn(*auditor);
  };
  emit([&](EpochObserver& o) {
    o.on_run_begin(Hour{config.hours}, initial.placement);
  });

  // Fault-epoch machinery; both stay null while the fabric is pristine, so
  // a fault-free run never deviates from the incremental fast path.
  std::unique_ptr<DegradedNetwork> degraded;
  std::unique_ptr<CostModel> degraded_model;
  bool base_resync_pending = false;  ///< primary bases stale after faults

  // Graceful-degradation ladder state (DESIGN.md §12). The rung is the
  // mode the *next* epoch executes at; transitions are evaluated after
  // each epoch is costed and emitted.
  DegradationRung rung = DegradationRung::kFull;
  int clean_streak = 0;
  double last_comm_cost = 0.0;  ///< stale estimate charged at kFrozen

  for (const Hour hour : id_range(Hour{0}, Hour{config.hours})) {
    if (config.cancel != nullptr &&
        config.cancel->load(std::memory_order_relaxed)) {
      emit([&](EpochObserver& o) { o.on_interrupted(hour); });
      throw SimInterrupted("simulation cancelled before epoch " +
                           std::to_string(hour.value()) + " of " +
                           std::to_string(config.hours));
    }
    emit([&](EpochObserver& o) { o.on_epoch_begin(hour); });

    // 1. Apply this epoch's fault events and refresh the degraded view.
    EpochFaults events;
    if (injector && hour >= Hour{1}) events = injector->advance_to(hour);
    if (events.switch_failures + events.link_failures + events.repairs > 0) {
      emit([&](EpochObserver& o) { o.on_faults(hour, events); });
    }
    const bool faults_active = injector && injector->any_faults_active();
    if (events.topology_changed) {
      degraded_model.reset();
      degraded.reset();
      if (faults_active) {
        degraded = std::make_unique<DegradedNetwork>(
            graph, injector->dead_nodes(), injector->dead_edges());
      }
    }
    const bool blackout = faults_active && !degraded->core_can_host(n);

    // 2. This epoch's traffic. Flows cut off from the serving core are
    // quarantined: their rate is zeroed for the epoch (they cannot be
    // served) and an SLA penalty is charged for the unserved demand.
    std::vector<double> rates = rates_at(hour);
    int quarantined = 0;
    double unserved = 0.0;
    if (faults_active) {
      for (std::size_t i = 0; i < state.flows.size(); ++i) {
        const VmFlow& f = state.flows[i];
        const bool served = !blackout && degraded->in_core(f.src_host) &&
                            degraded->in_core(f.dst_host);
        if (!served) {
          ++quarantined;
          unserved += rates[i];
          rates[i] = 0.0;
        }
      }
    }
    set_rates(state.flows, rates);
    const double epoch_penalty = config.fault.quarantine_penalty * unserved;
    if (quarantined > 0) {
      emit([&](EpochObserver& o) {
        o.on_quarantine(hour, quarantined, unserved, epoch_penalty);
      });
    }

    int recovery_migrations = 0;
    double recovery_cost = 0.0;
    int recovery_truncations = 0;
    EpochDecision d;
    // The epoch executes at the current rung; stamped into the decision
    // below. At kFrozen the per-epoch cost refresh is skipped (rebuilds on
    // topology changes still happen — emergency recovery needs a valid
    // metric), the policy is skipped, and a stale comm estimate is
    // charged.
    const bool frozen = config.ladder.enabled &&
                        rung == DegradationRung::kFrozen;
    CostModel* m = &model;

    if (blackout) {
      // The surviving core cannot host an n-VNF chain: nothing is served.
      // The stranded placement stays where it is and is emergency-migrated
      // once enough switches return.
      d.service_down = true;
      emit([&](EpochObserver& o) { o.on_blackout(hour); });
    } else {
      // 3. Cost-model maintenance. Degraded epochs use a dedicated model
      // over the masked metric, restricted to the core's alive switches;
      // it is rebuilt on topology changes and fully re-scanned otherwise
      // (quarantine breaks the base-rate x scale decomposition, so the
      // group fast path does not apply). The primary model is resynced
      // lazily when the fabric heals.
      if (faults_active) {
        if (!degraded_model) {
          degraded_model =
              std::make_unique<CostModel>(degraded->apsp(), state.flows);
          degraded_model->restrict_candidates(degraded->core_switches());
        } else if (!frozen) {
          degraded_model->refresh();
        }
        m = degraded_model.get();
        base_resync_pending = true;
      } else if (!frozen) {
        if (base_resync_pending) {
          // Heal: endpoints may have moved while the degraded model was
          // authoritative; resync the per-group base vectors before
          // recombining.
          if (grouped) model.refresh();
          base_resync_pending = false;
        }
        if (grouped) {
          model.refresh_scaled(scales_at(hour));
        } else {
          model.refresh();
        }
      }

      // 4. Emergency re-placement: every VNF must sit on an alive switch
      // of the serving core before the policy reasons about the epoch.
      // Recovery distance is measured on the pristine metric — the bits of
      // a VNF stranded on a dead switch still travel that far — so the
      // cost is finite even when the old host is down or unreachable.
      bool stranded = false;
      if (faults_active) {
        for (const NodeId s : state.placement) {
          if (!degraded->in_core(s)) {
            stranded = true;
            break;
          }
        }
      }
      if (stranded) {
        const PlacementResult rec = solve_top_dp(*m, n, config.fault.placement);
        Placement target = rec.placement;
        if (config.fault.exhaustive_recovery) {
          ChainSearchConfig cc;
          cc.budget = config.fault.budget;
          cc.initial = target;  // degradation floor: the DP answer
          const ChainSearchResult refined = solve_top_exhaustive(*m, n, cc);
          if (!refined.proven_optimal) ++recovery_truncations;
          target = refined.placement;
        }
        double distance = 0.0;
        for (std::size_t j = 0; j < state.placement.size(); ++j) {
          if (state.placement[j] == target[j]) continue;
          ++recovery_migrations;
          distance += apsp.cost(state.placement[j], target[j]);
        }
        recovery_cost = config.fault.mu * distance;
        state.placement = std::move(target);
        emit([&](EpochObserver& o) {
          o.on_recovery(hour, recovery_migrations, recovery_cost);
        });
      }

      // 5. The policy reacts to the epoch — at rung kFull. kRefreshOnly
      // holds the placement and re-charges it on the refreshed metric;
      // kFrozen holds the placement *and* charges the previous epoch's
      // (stale) comm estimate. With the ladder enabled, a policy throw is
      // contained: the pre-policy state is restored, the epoch is charged
      // at the held placement, and the throw becomes a trip signal.
      if (hour == Hour{0}) {
        // The initial placement is already optimal for hour 0; policies
        // only react to *changes*, so hour 0 just charges the
        // communication cost.
        d.comm_cost = model.communication_cost(state.placement);
      } else if (frozen) {
        d.comm_cost = last_comm_cost;
      } else if (config.ladder.enabled &&
                 rung == DegradationRung::kRefreshOnly) {
        d.comm_cost = m->communication_cost(state.placement);
      } else {
        std::optional<SimState> snapshot;
        if (config.ladder.enabled) snapshot = state;
        try {
          d = policy.on_epoch(*m, state);
          // Contract check before the decision is costed into the trace:
          // the placement must be n distinct in-range switches, all alive
          // and inside the serving core.
          try {
            PPDC_REQUIRE(state.placement.size() ==
                             static_cast<std::size_t>(n),
                         "placement length changed");
            validate_placement(m->apsp().graph(), state.placement);
            if (faults_active) {
              for (const NodeId s : state.placement) {
                PPDC_REQUIRE(degraded->in_core(s),
                             "VNF placed on a dead or unreachable switch");
              }
            }
          } catch (const PpdcError& e) {
            throw PpdcError("policy '" + policy.name() +
                            "' produced an invalid placement at epoch " +
                            std::to_string(hour.value()) + ": " + e.what());
          }
        } catch (const PpdcError&) {
          if (!config.ladder.enabled) throw;
          // Contain the failure: roll back whatever the policy did
          // (flows and placement; the cost model was not patched, so it
          // still matches the restored state) and hold position.
          state = std::move(*snapshot);
          d = EpochDecision{};
          d.policy_failed = true;
          d.comm_cost = m->communication_cost(state.placement);
        }
        if (!d.policy_failed) {
          // PLAN/MCF may have moved endpoints: patch only the touched
          // flows (CostModel reads the flow vector it was bound to).
          // Epochs without endpoint moves need no refresh at all — rates
          // are untouched by policies.
          if (!d.moved_flows.empty()) {
            m->endpoints_moved(d.moved_flows);
          }
          if (config.downtime_factor > 0.0) {
            d.migration_cost += config.downtime_factor * m->total_rate() *
                                d.migration_distance;
          }
        }
      }
    }

    // 6. Stamp the epoch's fault bookkeeping and hand it to the sinks
    // (the recorder accumulates the trace; an external observer watches).
    d.switch_failures = events.switch_failures;
    d.link_failures = events.link_failures;
    d.repairs = events.repairs;
    d.recovery_migrations = recovery_migrations;
    d.recovery_cost = recovery_cost;
    d.quarantined_flows = quarantined;
    d.quarantine_penalty = epoch_penalty;
    d.truncated_solves += recovery_truncations;
    d.rung = rung;
    // The monolithic engine is one shard: it resolved unless the epoch
    // held the placement (refresh-only / frozen) or nothing was served.
    if (blackout) {
      d.resolved_shards = 0;
      d.held_shards = 0;
    } else if (frozen || (config.ladder.enabled &&
                          rung == DegradationRung::kRefreshOnly &&
                          hour != Hour{0})) {
      d.resolved_shards = 0;
      d.held_shards = 1;
    } else {
      d.resolved_shards = 1;
      d.held_shards = 0;
    }
    if (d.truncated_solves > 0) {
      emit([&](EpochObserver& o) {
        o.on_budget_truncation(hour, d.truncated_solves);
      });
    }
    emit([&](EpochObserver& o) { o.on_epoch_end(hour, d); });
    last_comm_cost = d.comm_cost;

    // 7. Ladder transition: evaluate this epoch's stress signals and step
    // one rung down (or, after a clean streak, one rung up). The epoch
    // that tripped still executed at the old rung; the new rung governs
    // the next epoch.
    if (config.ladder.enabled) {
      const char* trip = nullptr;
      if (d.policy_failed) {
        trip = "policy-throw";
      } else if (blackout) {
        trip = "blackout";
      } else if (config.ladder.trip_truncations > 0 &&
                 d.truncated_solves >= config.ladder.trip_truncations) {
        trip = "solve-budget";
      } else if (static_cast<double>(quarantined) >
                 config.ladder.max_quarantined_fraction *
                     static_cast<double>(state.flows.size())) {
        trip = "quarantine";
      }
      if (trip != nullptr) {
        clean_streak = 0;
        if (rung != DegradationRung::kFrozen) {
          const DegradationRung from = rung;
          rung = static_cast<DegradationRung>(static_cast<int>(rung) + 1);
          emit([&](EpochObserver& o) {
            o.on_ladder_transition(hour, from, rung, trip);
          });
        }
      } else {
        ++clean_streak;
        if (rung != DegradationRung::kFull &&
            clean_streak >= config.ladder.recovery_epochs) {
          const DegradationRung from = rung;
          rung = static_cast<DegradationRung>(static_cast<int>(rung) - 1);
          clean_streak = 0;
          emit([&](EpochObserver& o) {
            o.on_ladder_transition(hour, from, rung, "recovered");
          });
        }
      }
    }

    // 8. Runtime invariant audit of the fully costed epoch (opt-in).
    if (auditor) {
      AuditContext actx;
      actx.epoch = hour;
      actx.model = m;
      actx.state = &state;
      actx.decision = &d;
      actx.degraded = degraded.get();
      actx.injector = injector ? &*injector : nullptr;
      actx.n = n;
      auditor->check_epoch(actx);
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
