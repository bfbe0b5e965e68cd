// The two pod-sharded workloads: shard_resolve (every shard re-solves
// every epoch, so the per-shard DP dominates) and churn_hold (every shard
// holds after hour 0, so churn patching, refresh and the serial phases
// dominate). Both drive run_sharded_simulation exactly as bench_scale does.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/placement_dp.hpp"
#include "core/sharded_cost_model.hpp"
#include "graph/apsp.hpp"
#include "harness.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "util/require.hpp"
#include "util/rss.hpp"
#include "workload/diurnal.hpp"
#include "workload/streaming.hpp"

namespace perfbench {

namespace {

using namespace ppdc;

struct ShardedSpec {
  int k = 16;
  int flows = 200000;
  int n = 7;
  double mu = 1e4;
  int cand = 48;                  ///< TopDpOptions::candidate_limit
  double resolve_fraction = 0.0;  ///< 0: every shard re-solves every epoch
  int staleness = 4;
  /// Horizon in epochs; 0 sizes it from --seconds by epochs_per_second.
  int hours = 0;
  double epochs_per_second = 2.2;
  /// Measured runs of the horizon: max(1, seconds * this).
  double runs_per_second = 0.0;
  int gate_hours = 3;       ///< audited 1-thread prefix
  int setup_only_runs = 1;  ///< extra set-up samples per run
};

ShardedSpec spec_for(const std::string& workload, bool tiny) {
  ShardedSpec s;
  if (workload == "shard_resolve") {
    s.k = tiny ? 8 : 16;
    s.flows = tiny ? 4000 : 200000;
    s.cand = 48;
    s.resolve_fraction = 0.0;
  } else {
    // churn_hold: a shard re-solves once its churn since the last solve
    // reaches its whole live population (about 6% of it churns per epoch)
    // and staleness never forces one, so over 12 churn epochs every shard
    // holds after hour 0. The horizon is repeated to fill --seconds.
    s.k = tiny ? 8 : 24;
    s.flows = tiny ? 8000 : 500000;
    s.cand = 8;
    s.resolve_fraction = 1.0;
    s.staleness = 1 << 20;
    s.hours = 13;
    s.runs_per_second = 0.4;
    s.setup_only_runs = 0;
  }
  return s;
}

/// Inputs of one run. Heap-held and never moved: the APSP and the workload
/// keep pointers into the topology.
struct World {
  Topology topo;
  std::unique_ptr<AllPairs> apsp;
  ShardMap map;
  std::unique_ptr<StreamingWorkload> workload;
  double apsp_s = 0.0;
  double gen_s = 0.0;
};

VmPlacementConfig flow_config(const ShardedSpec& spec) {
  VmPlacementConfig cfg;
  cfg.num_pairs = spec.flows;
  cfg.intra_rack_fraction = 0.8;
  cfg.rack_zipf_s = 2.2;  // tenant skew, as in bench_scale
  return cfg;
}

StreamingChurnConfig churn_config(const ShardedSpec& spec) {
  StreamingChurnConfig churn;  // bench_scale's default churn
  churn.arrivals_per_epoch = spec.flows / 200;
  churn.departure_prob = 0.005;
  churn.rerate_prob = 0.05;
  return churn;
}

std::unique_ptr<World> build_world(const ShardedSpec& spec,
                                   std::uint64_t seed, SpanLog* log) {
  auto w = std::make_unique<World>();
  timed(log, "topology.build_fat_tree", [&] { w->topo = build_fat_tree(spec.k); });
  w->apsp_s = timed(log, "graph.apsp_build", [&] {
    w->apsp = std::make_unique<AllPairs>(w->topo.graph);
  });
  timed(log, "core.shard_map", [&] {
    w->map = ShardMap::by_ingress_pod(w->topo);
  });
  w->gen_s = timed(log, "workload.generate", [&] {
    w->workload = std::make_unique<StreamingWorkload>(
        w->topo, flow_config(spec), churn_config(spec), Rng(seed));
  });
  return w;
}

TopDpOptions dp_options(const ShardedSpec& spec) {
  TopDpOptions o;
  o.candidate_limit = spec.cand;
  return o;
}

/// Outcome of one run_sharded_simulation call.
struct LoopRun {
  SimTrace trace;
  double setup_s = 0.0;  ///< topology construction -> on_run_begin
  double run_s = 0.0;    ///< on_run_begin -> return
  std::vector<EpochSample> epochs;
  std::size_t apsp_nodes = 0;
  double apsp_s = 0.0;
  double gen_s = 0.0;
};

LoopRun run_loop(const ShardedSpec& spec, std::uint64_t seed, int hours,
                 int threads, bool audit, bool setup_only, SpanLog* log,
                 PolicyProbe* probe) {
  const double t0 = now_s();
  const std::unique_ptr<World> w = build_world(spec, seed, log);

  SimConfig sim;
  sim.hours = hours;
  sim.initial_placement = dp_options(spec);
  sim.audit.enabled = audit;
  std::atomic<bool> stop{false};
  if (setup_only) sim.cancel = &stop;

  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = threads;
  sharded.churn = churn_config(spec);
  sharded.resolve_churn_fraction = spec.resolve_fraction;
  sharded.max_staleness = spec.staleness;

  ParetoMigrationOptions pareto_opts;
  pareto_opts.placement = dp_options(spec);
  const ParetoMigrationPolicy pareto(spec.mu, pareto_opts);
  std::unique_ptr<MigrationPolicy> decorated;
  const MigrationPolicy* prototype = &pareto;
  if (probe != nullptr) {
    decorated = std::make_unique<TimedPolicy>(pareto.clone(), probe);
    prototype = decorated.get();
  }

  LoopProbe observer(log, probe, setup_only ? &stop : nullptr);
  LoopRun r;
  const double t_call = now_s();
  try {
    r.trace = run_sharded_simulation(*w->apsp, w->map, *w->workload, spec.n,
                                     sim, sharded, *prototype, &observer);
  } catch (const SimInterrupted&) {
    if (!setup_only) throw;
  }
  const double t_end = now_s();
  PPDC_REQUIRE(observer.run_begin_s().has_value(),
               "the engine never reached on_run_begin");
  const double run_begin = *observer.run_begin_s();
  if (log != nullptr) log->add("sim.engine_setup", t_call, run_begin);
  r.setup_s = run_begin - t0;
  r.run_s = t_end - run_begin;
  r.epochs = observer.epochs();
  r.apsp_nodes = static_cast<std::size_t>(w->apsp->num_nodes());
  r.apsp_s = w->apsp_s;
  r.gen_s = w->gen_s;
  return r;
}

std::vector<double> churn_epoch_walls(const LoopRun& r, int max_hour) {
  std::vector<double> out;
  for (const EpochSample& e : r.epochs) {
    if (e.hour >= 1 && e.hour < max_hour) out.push_back(e.end_s - e.start_s);
  }
  return out;
}

/// Output checks every run applies: the horizon is complete, every charged
/// cost is finite and positive, and nothing failed inside the engine.
void check_trace(const LoopRun& r, int hours, const std::string& what,
                 Report& rep) {
  if (static_cast<int>(r.trace.epochs.size()) != hours) {
    rep.fail(what + ": " + std::to_string(r.trace.epochs.size()) +
             " epochs for a " + std::to_string(hours) + "-hour horizon");
  }
  for (std::size_t h = 0; h < r.trace.epochs.size(); ++h) {
    const double c = r.trace.epochs[h].comm_cost;
    if (!std::isfinite(c) || c <= 0.0) {
      rep.fail(what + ": epoch " + std::to_string(h) + " charged cost " +
               std::to_string(c));
    }
  }
  if (!std::isfinite(r.trace.total_cost) || r.trace.total_cost <= 0.0) {
    rep.fail(what + ": non-positive total cost");
  }
  rep.attempted += r.trace.total_shard_resolves;
  rep.failed += r.trace.policy_failures + r.trace.quarantined_shard_epochs;
}

/// The correctness gate: the audited 1-thread prefix must equal the
/// multi-thread run epoch for epoch, bit for bit.
void check_gate(const LoopRun& gate, const LoopRun& reference, int gate_hours,
                Report& rep) {
  check_trace(gate, gate_hours, "gate", rep);
  rep.attempted += gate.trace.audited_epochs;
  if (gate.trace.audited_epochs != gate_hours) {
    rep.fail("gate: audited " + std::to_string(gate.trace.audited_epochs) +
             " of " + std::to_string(gate_hours) + " epochs");
  }
  if (gate.trace.initial_placement != reference.trace.initial_placement) {
    rep.fail("gate: hour-0 placement differs between 1 and N threads");
  }
  for (int h = 0; h < gate_hours && h < static_cast<int>(std::min(
                                               gate.trace.epochs.size(),
                                               reference.trace.epochs.size()));
       ++h) {
    const EpochDecision& a = gate.trace.epochs[static_cast<std::size_t>(h)];
    const EpochDecision& b =
        reference.trace.epochs[static_cast<std::size_t>(h)];
    if (!same_bits(a.comm_cost, b.comm_cost) ||
        !same_bits(a.migration_cost, b.migration_cost) ||
        a.vnf_migrations != b.vnf_migrations ||
        a.resolved_shards != b.resolved_shards ||
        a.held_shards != b.held_shards) {
      rep.fail("gate: epoch " + std::to_string(h) +
               " differs between 1 and N threads");
    }
  }
}

/// Layers the engine calls internally, replayed on benchmark-owned
/// replicas built from the same seed, outside any timed window.
struct Replay {
  double shards_build_s = 0.0;
  std::vector<double> dp_solve_s;
  int dp_fallbacks = 0;
  StrollSample strolls;
  std::vector<double> advance_s;  ///< indexed by hour - 1
  std::vector<double> apply_s;
  std::vector<double> churn_flows;
};

Replay replay(const ShardedSpec& spec, std::uint64_t seed, int hours,
              const LoopRun& traced, SpanLog& log, Report& rep) {
  Replay out;
  const std::unique_ptr<World> w = build_world(spec, seed, nullptr);
  const std::vector<VmFlow>& flows = w->workload->flows();
  const int n_groups = std::max(num_groups(groups_of(flows)), 2);
  const DiurnalModel diurnal;

  std::unique_ptr<ShardedCostModel> shards;
  out.shards_build_s = timed(&log, "replay.shards_build", [&] {
    shards = std::make_unique<ShardedCostModel>(*w->apsp, w->map, flows,
                                                n_groups);
  });

  // Hour 0: the engine's per-shard initial TOP solve.
  const std::vector<double> scales0 = diurnal.group_scales(Hour{0}, n_groups);
  const TopDpOptions opts = dp_options(spec);
  for (int s = 0; s < shards->num_shards(); ++s) {
    ShardedCostModel::Shard& sh = shards->shard(s);
    set_rates(sh.flows, diurnal_rates_grouped(diurnal, sh.base_rates,
                                              sh.groups, Hour{0}));
    sh.model->refresh_scaled(scales0);
    PlacementResult placed;
    out.dp_solve_s.push_back(timed(&log, "replay.dp_solve", [&] {
      placed = solve_top_dp(*sh.model, spec.n, opts);
    }, -1, 0));
    if (placed.used_fallback) ++out.dp_fallbacks;
    const auto first = traced.trace.initial_placement.begin() + s * spec.n;
    if (traced.trace.initial_placement.size() <
            static_cast<std::size_t>((s + 1) * spec.n) ||
        !std::equal(placed.placement.begin(), placed.placement.end(), first)) {
      rep.fail("replay: hour-0 placement of shard " + sh.name +
               " differs from the engine's");
    }
  }

  // StrollTable build and find over shard 0's egress candidates.
  out.strolls = replay_strolls(*shards->shard(0).model, spec.cand, spec.n, log);

  // Churn: StreamingWorkload::advance and ShardedCostModel::apply_churn,
  // once per epoch from hour 1.
  for (int h = 1; h < hours; ++h) {
    FlowChurn churn;
    out.advance_s.push_back(timed(&log, "replay.workload_advance", [&] {
      churn = w->workload->advance();
    }, -1, h));
    out.apply_s.push_back(timed(&log, "replay.churn_apply", [&] {
      if (churn.total() > 0) (void)shards->apply_churn(w->workload->flows(), churn);
    }, -1, h));
    out.churn_flows.push_back(static_cast<double>(churn.total()));
    const auto it = std::find_if(
        traced.epochs.begin(), traced.epochs.end(),
        [&](const EpochSample& e) { return e.hour == h; });
    if (it == traced.epochs.end() ||
        it->churned != static_cast<int>(churn.total())) {
      rep.fail("replay: churn of epoch " + std::to_string(h) +
               " differs from the engine's");
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

Report run_sharded(const std::string& workload, const RunArgs& args) {
  const ShardedSpec spec = spec_for(workload, args.tiny);
  int hours = spec.hours;
  if (args.tiny) {
    hours = 4;
  } else if (hours == 0) {
    hours = 1 + std::max(2, static_cast<int>(std::lround(
                                args.seconds * spec.epochs_per_second)));
  }
  const int runs =
      args.tiny ? 1
                : std::max(1, static_cast<int>(std::lround(
                                  args.seconds * spec.runs_per_second)));
  const int gate_hours = std::min(spec.gate_hours, hours);
  std::printf(
      "workload %s: fat-tree k=%d, l=%d, n=%d, mu=%g, candidate_limit=%d, "
      "resolve_churn_fraction=%g, max_staleness=%d, churn=%d arrivals/epoch, "
      "%d epochs x %d runs, %d shard workers; gate: %d audited epochs at 1 "
      "thread\n",
      workload.c_str(), spec.k, spec.flows, spec.n, spec.mu, spec.cand,
      spec.resolve_fraction, spec.staleness,
      churn_config(spec).arrivals_per_epoch, hours, runs, args.threads,
      gate_hours);

  Report rep;
  if (!args.trace) {
    std::vector<double> setup;
    for (int i = 0; i < spec.setup_only_runs; ++i) {
      setup.push_back(run_loop(spec, args.seed, hours, args.threads, false,
                               true, nullptr, nullptr)
                          .setup_s);
    }
    std::vector<double> walls;
    std::vector<double> run_s;
    std::optional<LoopRun> first;
    for (int i = 0; i < runs; ++i) {
      LoopRun r = run_loop(spec, args.seed, hours, args.threads, false, false,
                           nullptr, nullptr);
      check_trace(r, hours, "main", rep);
      setup.push_back(r.setup_s);
      run_s.push_back(r.run_s);
      for (const double w : churn_epoch_walls(r, hours)) walls.push_back(w);
      if (!first) {
        first = std::move(r);
      } else if (!same_bits(r.trace.total_cost, first->trace.total_cost)) {
        rep.fail("repeated runs of one seed disagree on the total cost");
      }
    }
    const LoopRun gate = run_loop(spec, args.seed, gate_hours, 1, true, false,
                                  nullptr, nullptr);
    setup.push_back(gate.setup_s);
    check_gate(gate, *first, gate_hours, rep);

    std::printf("set-up samples: %zu, churn epochs: %zu, runs: %zu\n",
                setup.size(), walls.size(), run_s.size());
    rep.add("setup_s", median(setup), "s");
    rep.add("epoch_s_p50", median(walls), "s");
    rep.add("run_s", median(run_s), "s");
    rep.add("peak_rss_mib", static_cast<double>(peak_rss_bytes()) / kMiB,
            "MiB");
    rep.add("total_cost", first->trace.total_cost, "cost");
    return rep;
  }

  // Traced run: an untraced reference first (the overhead baseline), then
  // the same run with spans, then the replays and the gate.
  const LoopRun plain = run_loop(spec, args.seed, hours, args.threads, false,
                                 false, nullptr, nullptr);
  check_trace(plain, hours, "untraced", rep);
  SpanLog log;
  PolicyProbe probe(&log);
  const LoopRun traced = run_loop(spec, args.seed, hours, args.threads, false,
                                  false, &log, &probe);
  check_trace(traced, hours, "traced", rep);
  if (!same_bits(traced.trace.total_cost, plain.trace.total_cost)) {
    rep.fail("the policy decorator changed the total cost");
  }
  const Replay rp = replay(spec, args.seed, hours, traced, log, rep);
  const LoopRun gate = run_loop(spec, args.seed, gate_hours, 1, true, false,
                                nullptr, nullptr);
  check_gate(gate, plain, gate_hours, rep);

  const std::vector<PolicyCall> calls = probe.calls();
  std::vector<double> on_epoch;
  double busy = 0.0;
  for (const PolicyCall& c : calls) {
    on_epoch.push_back(c.end_s - c.start_s);
    busy += c.end_s - c.start_s;
  }
  // Per churn epoch: policy busy time, and self time = wall minus the part
  // covered by policy spans minus the replayed churn of that epoch.
  double churn_wall = 0.0;
  double churn_busy = 0.0;
  std::vector<double> self;
  for (const EpochSample& e : traced.epochs) {
    if (e.hour < 1) continue;
    std::vector<std::pair<double, double>> children;
    for (const PolicyCall& c : calls) {
      if (c.epoch == e.hour) {
        children.emplace_back(c.start_s, c.end_s);
        churn_busy += c.end_s - c.start_s;
      }
    }
    const double wall = e.end_s - e.start_s;
    churn_wall += wall;
    const auto i = static_cast<std::size_t>(e.hour - 1);
    const double replayed =
        i < rp.advance_s.size() ? rp.advance_s[i] + rp.apply_s[i] : 0.0;
    self.push_back(wall - union_length(children) - replayed);
  }
  const double p50_1t = median(churn_epoch_walls(gate, gate_hours));
  const double p50_nt = median(churn_epoch_walls(plain, gate_hours));
  const int dp_solves = traced.trace.total_shard_resolves;
  const double n_nodes = static_cast<double>(traced.apsp_nodes);
  const double rows = static_cast<double>(rp.strolls.universe);

  rep.add("graph.apsp_build_s", traced.apsp_s, "s");
  rep.add("graph.apsp_mib", n_nodes * n_nodes * 12.0 / kMiB, "MiB");
  rep.add("workload.gen_s", traced.gen_s, "s");
  rep.add("workload.advance_s_p50", median(rp.advance_s), "s");
  rep.add("shards.build_s", rp.shards_build_s, "s");
  rep.add("churn.apply_s_p50", median(rp.apply_s), "s");
  rep.add("churn.flows_p50", median(rp.churn_flows), "count");
  rep.add("churn.us_per_flow",
          sum(rp.churn_flows) > 0 ? 1e6 * sum(rp.apply_s) / sum(rp.churn_flows)
                                  : 0.0,
          "us");
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
  rep.add("policy.calls", static_cast<double>(calls.size()), "count");
  rep.add("policy.busy_s", busy, "s");
  rep.add("policy.mpareto_s", busy, "s");
  for (const char* name : {"policy.frontier_s", "policy.plan_s",
                           "policy.mcf_s", "policy.nomig_s"}) {
    rep.add(name, 0.0, "s");
  }
  rep.add("fault.topology_changes", 0.0, "count");
  rep.add("fault.degraded_build_s_p50", 0.0, "s");
  rep.add("sim.shard_resolves", traced.trace.total_shard_resolves, "count");
  rep.add("sim.shard_holds", traced.trace.total_shard_holds, "count");
  rep.add("sim.pool_util",
          churn_wall > 0 ? churn_busy / (args.threads * churn_wall) : 0.0,
          "ratio");
  rep.add("sim.self_s_p50", median(self), "s");
  rep.add("sim.speedup_4t", p50_nt > 0 ? p50_1t / p50_nt : 0.0, "ratio");
  rep.add("experiment.policy_share", 0.0, "ratio");
  rep.add("trace.overhead_frac", (traced.run_s - plain.run_s) / plain.run_s,
          "ratio");
  std::printf("tracing overhead: traced run_s %.4f s vs untraced %.4f s\n",
              traced.run_s, plain.run_s);
  write_spans(log, args, rep);
  return rep;
}

}  // namespace perfbench
