// Chaos soak: correlated fault domains under the invariant auditor.
//
// Sweeps a fixed set of fault-domain scenarios (DESIGN.md §12) over a
// fat-tree and runs every epoch with the graceful-degradation ladder AND
// the runtime invariant auditor enabled:
//   - indep:       independent switch/link renewal processes (control),
//   - pod-outage:  pod-scale power-domain outages,
//   - cascade:     aggregation-switch failures drag their pod down,
//   - gray-links:  flapping fabric links (fail/repair bursts),
//   - maintenance: scheduled pod drain windows,
//   - storm:       everything at once.
// Every scenario also applies solver budget pressure (a deliberately tiny
// node budget on the exhaustive policy), so the ladder actually steps
// down and back up while the auditor re-checks placement feasibility,
// cost conservation, injector consistency, and the observer event stream
// each epoch.
//
// Exit status: nonzero when any invariant audit violation surfaced —
// with --keep-going the violating (trial, policy) cells are quarantined,
// reported, and counted; without it the first violation aborts the sweep.
//
// --sharded reruns the soak through the pod-sharded streaming engine
// (sim/sharded.hpp) on the two scenarios whose fault structure lines up
// with ingress-pod shards — pod-outage and gray-links — with churn, the
// per-shard containment ladder, the sharded invariant auditor, and a
// quarantine SLA price on contained shard failures. --checkpoint BASE
// journals every cell at epoch granularity, so a killed soak resumes
// mid-cell (tools/smoke_resume_sharded.sh drives that path with
// PPDC_EPOCH_CRASH_AFTER).
//
// Options: --k --trials --l --n --mu --hours --mtbf --mttr --penalty
//          --node-budget --seed --threads --csv --smoke
//          --sharded --shard-threads --resolve-frac --quarantine-sla
//          --checkpoint BASE --keep-going --retries  (robustness:
//          BASE.<section>.t<trial>p<policy> holds each cell's epoch
//          journal; see
//          EXPERIMENTS.md "Chaos soak")
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/chain_search.hpp"
#include "fault/fault.hpp"
#include "sim/experiment.hpp"

namespace {

struct Scenario {
  std::string name;
  ppdc::FaultScheduleConfig faults;
};

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"k", "trials", "l", "n", "mu", "hours", "mtbf", "mttr",
                    "penalty", "node-budget", "seed", "threads", "csv",
                    "smoke", "sharded", "shard-threads", "resolve-frac",
                    "quarantine-sla", "checkpoint",
                    "keep-going", "retries"});
  // Smoke mode is the tier-1 / sanitizer gate: one trial of every
  // scenario at the smallest fabric that still has four pods to fail.
  const bool smoke = opts.get_bool("smoke", false);
  const bool sharded_mode = opts.get_bool("sharded", false);
  const int k = opts.get_int32("k", smoke ? 4 : 8);
  const int trials = opts.get_int32("trials", smoke ? 1 : 5);
  const int l = opts.get_int32("l", smoke ? 30 : 200);
  const int n = opts.get_int32("n", 3);
  const double mu = opts.get_double("mu", 1e4);
  const int hours = opts.get_int32("hours", smoke ? 16 : 48);
  const double mtbf = opts.get_double("mtbf", smoke ? 12.0 : 32.0);
  const double mttr = opts.get_double("mttr", 2.0);
  const double penalty = opts.get_double("penalty", 50.0);
  // Deliberate budget pressure: a node budget this small truncates every
  // full re-solve of the exhaustive policy, which trips the ladder. The
  // budget counts nodes, so the trips are the same at any thread count.
  const std::uint64_t node_budget =
      static_cast<std::uint64_t>(opts.get_int("node-budget", 1));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const int threads = bench::threads_option(opts);
  const int shard_threads = opts.get_int32("shard-threads", 0);
  const double resolve_frac = opts.get_double("resolve-frac", 0.15);
  const double quarantine_sla = opts.get_double("quarantine-sla", 5.0);
  const bench::RobustnessOptions robust = bench::robustness_options(opts);
  bench::install_signal_handlers();

  bench::header(
      sharded_mode
          ? "Chaos soak (sharded) — shard containment, sharded audit"
          : "Chaos soak — fault domains, degradation ladder, invariant audit",
      "fat-tree k=" + std::to_string(k) + ", l=" + std::to_string(l) +
          ", n=" + std::to_string(n) + ", mu=" + TablePrinter::num(mu, 0) +
          ", " + std::to_string(hours) + "h, " + std::to_string(trials) +
          " trials, threads=" + bench::threads_label(threads) +
          "; MTBF=" + TablePrinter::num(mtbf, 0) + ", MTTR=" +
          TablePrinter::num(mttr, 0) + ", node budget=" +
          std::to_string(node_budget) + (smoke ? " [smoke]" : ""));

  const Topology topo = build_fat_tree(k);
  const AllPairs apsp(topo.graph);

  // The scenario grid. Every config shares the horizon and seed so the
  // spread across rows is the fault structure, not the draw.
  std::vector<Scenario> scenarios;
  {
    FaultScheduleConfig base;
    base.hours = hours;
    base.seed = seed;

    Scenario indep{"indep", base};
    indep.faults.switch_mtbf = mtbf;
    indep.faults.switch_mttr = mttr;
    indep.faults.link_mtbf = 2.0 * mtbf;
    indep.faults.link_mttr = mttr;
    scenarios.push_back(indep);

    Scenario pod{"pod-outage", base};
    pod.faults.domain_mtbf = static_cast<double>(hours);
    pod.faults.domain_mttr = 3.0;
    scenarios.push_back(pod);

    Scenario cascade{"cascade", base};
    cascade.faults.switch_mtbf = mtbf;
    cascade.faults.switch_mttr = mttr;
    cascade.faults.cascade_prob = 0.5;
    scenarios.push_back(cascade);

    Scenario gray{"gray-links", base};
    gray.faults.flap_mtbf = mtbf;
    gray.faults.flap_cycles = 3;
    scenarios.push_back(gray);

    Scenario drain{"maintenance", base};
    drain.faults.maintenance = {
        {"pod0", Hour{hours / 4}, Hour{hours / 4 + 3}},
        {"pod1", Hour{hours / 2}, Hour{hours / 2 + 3}},
    };
    scenarios.push_back(drain);

    Scenario storm{"storm", base};
    storm.faults = indep.faults;
    storm.faults.domain_mtbf = static_cast<double>(hours);
    storm.faults.domain_mttr = 3.0;
    storm.faults.cascade_prob = 0.25;
    storm.faults.flap_mtbf = 2.0 * mtbf;
    storm.faults.maintenance = {
        {"pod2", Hour{hours / 3}, Hour{hours / 3 + 3}},
    };
    scenarios.push_back(storm);
  }

  // The sharded soak keeps the two scenarios whose fault structure maps
  // onto ingress-pod shards: pod-scale outages (whole shards lose their
  // fabric at once) and gray links (every shard sees flapping paths).
  if (sharded_mode) {
    std::vector<Scenario> keep;
    for (Scenario& sc : scenarios) {
      if (sc.name == "pod-outage" || sc.name == "gray-links") {
        keep.push_back(std::move(sc));
      }
    }
    scenarios = std::move(keep);
  }

  TablePrinter table(
      sharded_mode
          ? std::vector<std::string>{"scenario", "fail/rep", "mPareto",
                                     "Optimal", "quarantined", "ladder",
                                     "qshards", "retries", "shardpen",
                                     "polfail"}
          : std::vector<std::string>{"scenario", "fail/rep", "mPareto",
                                     "Optimal", "quarantined", "downtime",
                                     "ladder", "refresh/frozen", "polfail"});
  int audit_violations = 0;
  // Without --keep-going the first audit violation (or any other
  // failing job) throws out of the sweep; guarded_main prints it and
  // fails the gate.
  for (const Scenario& sc : scenarios) {
    const FaultSchedule schedule = generate_fault_schedule(topo, sc.faults);
    int failures = 0, repairs = 0;
    for (const FaultEvent& e : schedule) {
      if (e.kind == FaultKind::kSwitchFail ||
          e.kind == FaultKind::kLinkFail) {
        ++failures;
      } else {
        ++repairs;
      }
    }

    ExperimentConfig cfg;
    cfg.trials = trials;
    cfg.seed = seed;
    cfg.workload.num_pairs = l;
    cfg.workload.intra_rack_fraction = 0.8;
    cfg.sfc_length = n;
    cfg.sim.hours = hours;
    cfg.sim.faults = schedule;
    cfg.sim.fault.mu = mu;
    cfg.sim.fault.quarantine_penalty = penalty;
    cfg.sim.ladder.enabled = true;
    cfg.sim.audit.enabled = true;
    cfg.threads = threads;
    if (sharded_mode) {
      // Pod-sharded streaming path: churn every epoch, re-solve on the
      // churn threshold, contain per-shard failures under the ladder,
      // and price quarantined shard-epochs via the SLA.
      cfg.sharded.enabled = true;
      cfg.sharded.threads = shard_threads;
      cfg.sharded.resolve_churn_fraction = resolve_frac;
      cfg.sharded.quarantine_sla = quarantine_sla;
      cfg.sharded.churn.arrivals_per_epoch = std::max(1, l / 10);
      cfg.sharded.churn.departure_prob = 0.05;
      cfg.sharded.churn.rerate_prob = 0.1;
    }
    bench::apply_robustness(cfg, robust, sc.name);

    ParetoMigrationPolicy pareto(mu);
    ChainSearchConfig pressured;
    pressured.node_budget = node_budget;
    ExhaustiveMigrationPolicy optimal(mu, pressured);
    const auto stats =
        bench::run_or_exit(topo, apsp, cfg, {&pareto, &optimal});
    for (const PolicyStats& s : stats) {
      for (const JobFailure& f : s.failures) {
        if (f.error.find("invariant audit") != std::string::npos) {
          ++audit_violations;
        }
      }
    }

    // The Optimal column is the pressured one — its ladder columns show
    // the soak actually exercising the degradation machinery.
    const PolicyStats& hot = stats[1];
    if (sharded_mode) {
      table.add_row(
          {sc.name,
           std::to_string(failures) + "/" + std::to_string(repairs),
           bench::cell(stats[0], stats[0].total_cost),
           bench::cell(hot, hot.total_cost),
           bench::cell(hot, hot.quarantined_flow_epochs, 1),
           bench::cell(hot, hot.ladder_transitions, 1),
           bench::cell(hot, hot.quarantined_shard_epochs, 1),
           bench::cell(hot, hot.shard_retries, 1),
           bench::cell(hot, hot.shard_penalty, 1),
           bench::cell(hot, hot.policy_failures, 1)});
    } else {
      table.add_row(
          {sc.name,
           std::to_string(failures) + "/" + std::to_string(repairs),
           bench::cell(stats[0], stats[0].total_cost),
           bench::cell(hot, hot.total_cost),
           bench::cell(hot, hot.quarantined_flow_epochs, 1),
           bench::cell(hot, hot.downtime_epochs, 1),
           bench::cell(hot, hot.ladder_transitions, 1),
           bench::cell(hot, hot.refresh_only_epochs, 1) + "/" +
               bench::cell(hot, hot.frozen_epochs, 1),
           bench::cell(hot, hot.policy_failures, 1)});
    }
  }
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (sharded_mode) {
    std::cout << "\nnote: every epoch ran under the sharded invariant "
                 "auditor (per-shard placement feasibility and cost "
                 "conservation, id-map and injector consistency, merged "
                 "event stream); 'qshards' counts failure-quarantined "
                 "shard-epochs, 'retries' the seeded-backoff re-solve "
                 "attempts, and 'shardpen' the quarantine SLA charge. The "
                 "Optimal policy runs under a node budget of "
              << node_budget << " to keep the per-shard ladders busy on "
                                "purpose.\n";
  } else {
    std::cout << "\nnote: every epoch ran under the invariant auditor "
                 "(placement feasibility, cost conservation, injector "
                 "consistency, event-stream sanity); 'ladder' counts rung "
                 "transitions and 'refresh/frozen' the epochs spent "
                 "degraded. The Optimal policy runs under a node budget of "
              << node_budget << " to keep the ladder busy on purpose.\n";
  }
  if (audit_violations > 0) {
    std::cerr << "error: " << audit_violations
              << " invariant audit violation(s) — see warnings above\n";
    return 1;
  }
  std::cout << "audit: 0 violations\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
