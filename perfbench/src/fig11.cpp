// fig11_faults: the monolithic Fig. 11(a) grid (mPareto, Optimal(frontier),
// PLAN, MCF, NoMigration) on a k=16 fat-tree under a seeded correlated
// fault schedule, with the degradation ladder and the quarantine penalty
// on, run through run_experiment's worker pool.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/placement_dp.hpp"
#include "fault/degraded.hpp"
#include "fault/fault.hpp"
#include "graph/apsp.hpp"
#include "harness.hpp"
#include "sim/experiment.hpp"
#include "topology/fat_tree.hpp"
#include "util/rss.hpp"
#include "workload/diurnal.hpp"
#include "workload/vm_placement.hpp"

namespace perfbench {

namespace {

using namespace ppdc;

struct FigSpec {
  int k = 16;
  int l = 400;
  int n = 7;
  double mu = 1e4;
  int hours = 12;
  int cand = 48;
  double trials_per_second = 0.6;  ///< trials = seconds * this
  int gate_hours = 2;
  int setup_runs = 7;
};

FigSpec fig_spec(bool tiny) {
  FigSpec s;
  if (tiny) {
    s.k = 8;
    s.l = 200;
    s.hours = 5;
  }
  return s;
}

/// Correlated faults over the horizon: pod power outages, gray (flapping)
/// fabric links and independent switch failures. The timeline is part of
/// the workload and does not follow --seed, which draws the traffic: where
/// a pod outage lands in the diurnal cycle moves the total cost by half,
/// and that would swamp every comparison across seeds.
FaultScheduleConfig fault_config(const FigSpec& spec) {
  FaultScheduleConfig f;
  f.hours = spec.hours;
  f.seed = 7;
  f.switch_mtbf = 400.0;
  f.switch_mttr = 2.0;
  f.domain_mtbf = 4.0 * spec.hours;
  f.domain_mttr = 3.0;
  f.flap_mtbf = 2000.0;
  f.flap_cycles = 3;
  return f;
}

/// The benchmark's inputs, built the way every fig11 driver builds them.
/// Heap-held: the APSP points into the topology.
struct Inputs {
  Topology topo;
  std::unique_ptr<AllPairs> apsp;
  FaultSchedule schedule;
  double apsp_s = 0.0;
};

std::unique_ptr<Inputs> build_inputs(const FigSpec& spec, SpanLog* log) {
  auto in = std::make_unique<Inputs>();
  timed(log, "topology.build_fat_tree", [&] { in->topo = build_fat_tree(spec.k); });
  in->apsp_s = timed(log, "graph.apsp_build", [&] {
    in->apsp = std::make_unique<AllPairs>(in->topo.graph);
  });
  timed(log, "fault.generate_schedule", [&] {
    in->schedule = generate_fault_schedule(in->topo, fault_config(spec));
  });
  return in;
}

ExperimentConfig experiment_config(const FigSpec& spec, const Inputs& in,
                                   std::uint64_t seed, int trials,
                                   int threads) {
  ExperimentConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.workload.num_pairs = spec.l;
  cfg.workload.intra_rack_fraction = 0.8;
  cfg.workload.rack_zipf_s = 2.2;
  cfg.sfc_length = spec.n;
  cfg.threads = threads;
  cfg.keep_going = true;
  cfg.sim.hours = spec.hours;
  cfg.sim.initial_placement.candidate_limit = spec.cand;
  cfg.sim.faults = in.schedule;
  cfg.sim.fault.mu = spec.mu;
  cfg.sim.fault.quarantine_penalty = 50.0;
  cfg.sim.fault.placement.candidate_limit = spec.cand;
  cfg.sim.ladder.enabled = true;
  return cfg;
}

/// The five Fig. 11(a) policies, configured as bench_fig11_dynamic does.
/// The pool takes a trial's jobs in this order, so the slowest policies
/// come first: the grid then ends on short jobs, and its wall time does
/// not hinge on when the last MCF job happens to start.
struct Policies {
  std::vector<std::unique_ptr<MigrationPolicy>> owned;

  Policies(const FigSpec& spec, int num_hosts) {
    ParetoMigrationOptions pareto;
    pareto.placement.candidate_limit = spec.cand;
    ParetoMigrationOptions frontier = pareto;
    frontier.exhaustive_frontiers = true;
    VmMigrationConfig vm;
    vm.mu = spec.mu;
    vm.candidate_hosts = num_hosts > 256 ? 16 : 0;
    vm.host_capacity = 4;
    vm.horizon_hours = 4.0;
    owned.push_back(std::make_unique<McfPolicy>(vm));
    owned.push_back(std::make_unique<ParetoMigrationPolicy>(spec.mu, pareto));
    owned.push_back(std::make_unique<ParetoMigrationPolicy>(
        spec.mu, frontier, "Optimal(frontier)"));
    owned.push_back(std::make_unique<PlanPolicy>(vm));
    owned.push_back(std::make_unique<NoMigrationPolicy>());
  }

  /// Each prototype wrapped in the timing decorator.
  std::vector<std::unique_ptr<MigrationPolicy>> decorated(
      PolicyProbe* probe) const {
    std::vector<std::unique_ptr<MigrationPolicy>> out;
    for (const auto& p : owned) {
      out.push_back(std::make_unique<TimedPolicy>(p->clone(), probe));
    }
    return out;
  }
};

std::vector<const MigrationPolicy*> view(
    const std::vector<std::unique_ptr<MigrationPolicy>>& v) {
  std::vector<const MigrationPolicy*> out;
  for (const auto& p : v) out.push_back(p.get());
  return out;
}

/// Metric-name suffix of each policy.
const std::map<std::string, std::string>& policy_keys() {
  static const std::map<std::string, std::string> keys{
      {"mPareto", "mpareto"}, {"Optimal(frontier)", "frontier"},
      {"PLAN", "plan"},       {"MCF", "mcf"},
      {"NoMigration", "nomig"}};
  return keys;
}

/// Output checks of one grid: no failed cell, every trial completed, and
/// every hourly cost finite and positive.
void check_grid(const std::vector<PolicyStats>& stats, int trials, int hours,
                const std::string& what, Report& rep) {
  for (const PolicyStats& s : stats) {
    rep.attempted += trials;
    for (const JobFailure& f : s.failures) {
      rep.fail(what + ": " + s.name + " trial " + std::to_string(f.trial) +
               ": " + f.error);
    }
    if (s.completed_trials != trials) {
      rep.fail(what + ": " + s.name + " completed " +
               std::to_string(s.completed_trials) + " of " +
               std::to_string(trials) + " trials");
    }
    rep.failed += std::lround(s.policy_failures.mean * s.completed_trials);
    if (static_cast<int>(s.hourly_cost.size()) != hours) {
      rep.fail(what + ": " + s.name + " is missing epochs");
    }
    for (const MeanCi& h : s.hourly_cost) {
      if (!std::isfinite(h.mean) || h.mean <= 0.0) {
        rep.fail(what + ": " + s.name + " charged a non-positive hourly cost");
        break;
      }
    }
  }
}

/// Gate: the audited 1-thread grid over the first hours must equal the
/// N-thread grid's hourly means bit for bit.
void check_gate(const std::vector<PolicyStats>& gate,
                const std::vector<PolicyStats>& ref, int trials,
                int gate_hours, Report& rep) {
  check_grid(gate, trials, gate_hours, "gate", rep);
  rep.attempted += static_cast<long>(gate.size()) * trials * gate_hours;
  for (std::size_t p = 0; p < gate.size() && p < ref.size(); ++p) {
    for (int h = 0; h < gate_hours; ++h) {
      const auto i = static_cast<std::size_t>(h);
      if (i >= gate[p].hourly_cost.size() || i >= ref[p].hourly_cost.size() ||
          !same_bits(gate[p].hourly_cost[i].mean, ref[p].hourly_cost[i].mean) ||
          !same_bits(gate[p].hourly_migrations[i].mean,
                     ref[p].hourly_migrations[i].mean)) {
        rep.fail("gate: " + gate[p].name + " hour " + std::to_string(h) +
                 " differs between 1 and N threads");
      }
    }
  }
}

struct GridRun {
  std::vector<PolicyStats> stats;
  double setup_s = 0.0;
  double run_s = 0.0;
  double apsp_s = 0.0;
  std::size_t apsp_nodes = 0;
  std::vector<PolicyCall> calls;
};

/// Builds the inputs and runs the grid; set-up ends when run_experiment is
/// entered. `gate_hours` > 0 runs the audited, 1-thread, shortened grid
/// on the bare prototypes instead.
GridRun run_grid(const FigSpec& spec, const RunArgs& args, int trials,
                 int gate_hours, SpanLog* log) {
  GridRun r;
  PolicyProbe probe(log);
  const double t0 = now_s();
  const std::unique_ptr<Inputs> in = build_inputs(spec, log);
  const Policies policies(spec, in->topo.num_hosts());
  ExperimentConfig cfg =
      experiment_config(spec, *in, args.seed, trials, args.threads);
  std::vector<std::unique_ptr<MigrationPolicy>> timed_protos;
  std::vector<const MigrationPolicy*> protos = view(policies.owned);
  if (gate_hours > 0) {
    cfg.threads = 1;
    cfg.sim.hours = gate_hours;
    cfg.sim.audit.enabled = true;
  } else {
    timed_protos = policies.decorated(&probe);
    protos = view(timed_protos);
  }
  const double t1 = now_s();
  int span = -1;
  if (log != nullptr) {
    span = log->open("experiment.run", t1);
    probe.set_epoch(-1, span);
  }
  r.stats = run_experiment(in->topo, *in->apsp, cfg, protos);
  const double t2 = now_s();
  if (log != nullptr) log->close(span, t2);
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1;
  r.apsp_s = in->apsp_s;
  r.apsp_nodes = static_cast<std::size_t>(in->apsp->num_nodes());
  r.calls = probe.calls();
  return r;
}

/// Replays of the layers run_experiment calls internally: the fault
/// injector and degraded views over the schedule, each trial's workload
/// generation and hour-0 TOP solve, and Algorithm 3's stroll tables on
/// trial 0.
struct Replay {
  int topology_changes = 0;
  std::vector<double> degraded_s;
  double gen_s = 0.0;
  std::vector<double> dp_solve_s;
  int dp_fallbacks = 0;
  StrollSample strolls;
};

Replay replay(const FigSpec& spec, const RunArgs& args, int trials,
              SpanLog& log) {
  Replay out;
  const std::unique_ptr<Inputs> in = build_inputs(spec, nullptr);
  {
    FaultInjector injector(in->topo.graph, in->schedule);
    for (int h = 1; h < spec.hours; ++h) {
      EpochFaults ev;
      timed(&log, "replay.fault_advance", [&] { ev = injector.advance_to(Hour{h}); },
            -1, h);
      if (!ev.topology_changed) continue;
      ++out.topology_changes;
      if (!injector.any_faults_active()) continue;
      out.degraded_s.push_back(timed(&log, "replay.degraded_build", [&] {
        const DegradedNetwork dn(in->topo.graph, injector.dead_nodes(),
                                 injector.dead_edges());
      }, -1, h));
    }
  }
  const ExperimentConfig cfg =
      experiment_config(spec, *in, args.seed, trials, args.threads);
  const DiurnalModel diurnal;
  Rng seeder(cfg.seed);
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng = seeder.split();
    std::vector<VmFlow> flows;
    out.gen_s += timed(&log, "replay.workload_generate", [&] {
      flows = generate_vm_flows(in->topo, cfg.workload, trial_rng);
    });
    const std::vector<double> base = rates_of(flows);
    const std::vector<int> groups = groups_of(flows);
    set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, Hour{0}));
    CostModel model(*in->apsp, flows);
    model.enable_group_refresh(base, groups);
    model.refresh_scaled(diurnal.group_scales(Hour{0}, num_groups(groups)));
    PlacementResult placed;
    out.dp_solve_s.push_back(timed(&log, "replay.dp_solve", [&] {
      placed = solve_top_dp(model, spec.n, cfg.sim.initial_placement);
    }, -1, 0));
    if (placed.used_fallback) ++out.dp_fallbacks;
    if (t == 0) out.strolls = replay_strolls(model, spec.cand, spec.n, log);
  }
  return out;
}

/// Wall time of one epoch of the grid row: per policy, the median period
/// between consecutive on_epoch calls of one job (one engine epoch of that
/// run), summed over the policies. Returns the sum and the sample count.
std::pair<double, std::size_t> grid_epoch(const std::vector<PolicyCall>& calls) {
  std::map<std::string, std::vector<double>> by_policy;
  std::size_t samples = 0;
  for (const PolicyCall& c : calls) {
    if (!c.period_s) continue;
    by_policy[c.policy].push_back(*c.period_s);
    ++samples;
  }
  double sum = 0.0;
  for (const auto& [name, periods] : by_policy) sum += median(periods);
  return {sum, samples};
}

}  // namespace

Report run_fig11_faults(const RunArgs& args) {
  const FigSpec spec = fig_spec(args.tiny);
  const int trials =
      args.tiny ? 2
                : std::max(1, static_cast<int>(std::lround(
                                  args.seconds * spec.trials_per_second)));
  const int gate_hours = std::min(spec.gate_hours, spec.hours);
  {
    const Topology topo = build_fat_tree(spec.k);
    const FaultSchedule schedule =
        generate_fault_schedule(topo, fault_config(spec));
    std::printf(
        "workload fig11_faults: fat-tree k=%d, l=%d, n=%d, mu=%g, %d hours, "
        "%d trials x 5 policies on %d job workers, %zu fault events, ladder "
        "on, quarantine penalty 50; gate: %d audited hours at 1 thread\n",
        spec.k, spec.l, spec.n, spec.mu, spec.hours, trials, args.threads,
        schedule.size(), gate_hours);
  }

  Report rep;
  if (!args.trace) {
    std::vector<double> setup;
    for (int i = 0; i < spec.setup_runs; ++i) {
      const double t0 = now_s();
      const std::unique_ptr<Inputs> in = build_inputs(spec, nullptr);
      const Policies policies(spec, in->topo.num_hosts());
      setup.push_back(now_s() - t0);
    }
    const GridRun main_run = run_grid(spec, args, trials, 0, nullptr);
    check_grid(main_run.stats, trials, spec.hours, "main", rep);
    setup.push_back(main_run.setup_s);
    const GridRun gate = run_grid(spec, args, trials, gate_hours, nullptr);
    check_gate(gate.stats, main_run.stats, trials, gate_hours, rep);

    const auto [epoch_s, epoch_samples] = grid_epoch(main_run.calls);
    std::printf("set-up samples: %zu, epoch periods: %zu\n", setup.size(),
                epoch_samples);
    rep.add("setup_s", median(setup), "s");
    rep.add("epoch_s_p50", epoch_s, "s");
    rep.add("run_s", main_run.run_s, "s");
    rep.add("peak_rss_mib", static_cast<double>(peak_rss_bytes()) / kMiB,
            "MiB");
    const auto pareto = std::find_if(
        main_run.stats.begin(), main_run.stats.end(),
        [](const PolicyStats& s) { return s.name == "mPareto"; });
    rep.add("total_cost", pareto->total_cost.mean, "cost");
    return rep;
  }

  const GridRun plain = run_grid(spec, args, trials, 0, nullptr);
  check_grid(plain.stats, trials, spec.hours, "untraced", rep);
  SpanLog log;
  const GridRun traced = run_grid(spec, args, trials, 0, &log);
  check_grid(traced.stats, trials, spec.hours, "traced", rep);
  for (std::size_t p = 0; p < traced.stats.size(); ++p) {
    if (!same_bits(traced.stats[p].total_cost.mean,
                   plain.stats[p].total_cost.mean)) {
      rep.fail("tracing changed the total cost of " + traced.stats[p].name);
    }
  }
  const Replay rp = replay(spec, args, trials, log);
  const GridRun gate = run_grid(spec, args, trials, gate_hours, nullptr);
  check_gate(gate.stats, plain.stats, trials, gate_hours, rep);

  std::map<std::string, double> busy_by;
  std::map<std::string, int> calls_by;
  std::vector<double> on_epoch;
  double busy = 0.0;
  for (const PolicyCall& c : traced.calls) {
    const double d = c.end_s - c.start_s;
    busy_by[c.policy] += d;
    ++calls_by[c.policy];
    on_epoch.push_back(d);
    busy += d;
  }
  const int jobs = trials * static_cast<int>(traced.stats.size());
  const int dp_solves =
      jobs + calls_by["mPareto"] + calls_by["Optimal(frontier)"];
  double resolves = 0.0;
  double holds = 0.0;
  for (const PolicyStats& s : traced.stats) {
    resolves += s.shard_resolves.mean * s.completed_trials;
    holds += s.shard_holds.mean * s.completed_trials;
  }
  const double n_nodes = static_cast<double>(traced.apsp_nodes);
  const double rows = static_cast<double>(rp.strolls.universe);

  rep.add("graph.apsp_build_s", traced.apsp_s, "s");
  rep.add("graph.apsp_mib", n_nodes * n_nodes * 12.0 / kMiB, "MiB");
  rep.add("workload.gen_s", rp.gen_s, "s");
  rep.add("workload.advance_s_p50", 0.0, "s");
  rep.add("shards.build_s", 0.0, "s");
  rep.add("churn.apply_s_p50", 0.0, "s");
  rep.add("churn.flows_p50", 0.0, "count");
  rep.add("churn.us_per_flow", 0.0, "us");
  rep.add("dp.solve_s_p50", median(rp.dp_solve_s), "s");
  rep.add("dp.solves", dp_solves, "count");
  rep.add("dp.fallback_frac",
          static_cast<double>(rp.dp_fallbacks) /
              static_cast<double>(std::max<std::size_t>(rp.dp_solve_s.size(), 1)),
          "ratio");
  rep.add("stroll.tables",
          static_cast<double>(dp_solves) * rp.strolls.egress_candidates,
          "count");
  rep.add("stroll.table_s_p50", median(rp.strolls.table_s), "s");
  rep.add("stroll.find_s_p50", median(rp.strolls.find_s), "s");
  rep.add("stroll.metric_mib_per_solve",
          rp.strolls.egress_candidates * rows * rows * 8.0 / kMiB, "MiB");
  rep.add("policy.on_epoch_s_p50", median(on_epoch), "s");
  rep.add("policy.calls", static_cast<double>(traced.calls.size()), "count");
  rep.add("policy.busy_s", busy, "s");
  for (const auto& [name, key] : policy_keys()) {
    rep.add("policy." + key + "_s", busy_by[name], "s");
  }
  rep.add("fault.topology_changes", rp.topology_changes, "count");
  rep.add("fault.degraded_build_s_p50", median(rp.degraded_s), "s");
  rep.add("sim.shard_resolves", std::round(resolves), "count");
  rep.add("sim.shard_holds", std::round(holds), "count");
  rep.add("sim.pool_util", 0.0, "ratio");
  rep.add("sim.self_s_p50", 0.0, "s");
  rep.add("sim.speedup_4t", 0.0, "ratio");
  rep.add("experiment.policy_share",
          busy / (args.threads * traced.run_s), "ratio");
  rep.add("trace.overhead_frac", (traced.run_s - plain.run_s) / plain.run_s,
          "ratio");
  std::printf("tracing overhead: traced run_s %.4f s vs untraced %.4f s\n",
              traced.run_s, plain.run_s);
  write_spans(log, args, rep);
  return rep;
}

}  // namespace perfbench
