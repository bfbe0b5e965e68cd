// Determinism contract of the epoch engine (sim/sharded.hpp):
//
//   * Single shard: run_simulation and run_sharded_simulation over
//     ShardMap::single with a churn-free workload reproduce golden trace
//     checksums recorded from the separate monolithic loop run_simulation
//     used to be — pristine and faulted, PLAN/MCF, a per-flow
//     rate_schedule, ladder truncation and downtime.
//   * Over the multi-shard pod map, the trace is a pure function of the
//     seed: 1 worker thread and 4 worker threads produce bit-identical
//     traces under churn, faults, and bounded-staleness holds — VM
//     migration policies included, and across a journal kill-resume.
//   * A rate_schedule emitting the diurnal rates matches the grouped
//     fast path on the pod map.
//   * Held shards charge exact costs: with a hold-everything threshold and
//     a placement-stable policy, the trace matches the resolve-every-epoch
//     run bit for bit.
//   * run_experiment's sharded path inherits the same thread invariance.
//   * The next epoch's churn, drawn inside the shard region, leaves the
//     trace and the workload the same bits at every width, and a cancelled
//     run leaves no uncommitted draw behind. So does each shard task
//     applying its own churn, down to the shard states the policy sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "baselines/vm_migration.hpp"
#include "core/chain_search.hpp"
#include "core/sharded_cost_model.hpp"
#include "core/stroll_dp.hpp"
#include "fault/fault.hpp"
#include "sim/audit.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/observer.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "workload/diurnal.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

VmPlacementConfig workload_config(int pairs) {
  VmPlacementConfig cfg;
  cfg.num_pairs = pairs;
  cfg.intra_rack_fraction = 0.8;
  return cfg;
}

void expect_equal_decisions(const EpochDecision& a, const EpochDecision& b,
                            int hour) {
  EXPECT_EQ(a.comm_cost, b.comm_cost) << "hour " << hour;
  EXPECT_EQ(a.migration_cost, b.migration_cost) << "hour " << hour;
  EXPECT_EQ(a.vnf_migrations, b.vnf_migrations) << "hour " << hour;
  EXPECT_EQ(a.vm_migrations, b.vm_migrations) << "hour " << hour;
  EXPECT_EQ(a.truncated_solves, b.truncated_solves) << "hour " << hour;
  EXPECT_EQ(a.switch_failures, b.switch_failures) << "hour " << hour;
  EXPECT_EQ(a.link_failures, b.link_failures) << "hour " << hour;
  EXPECT_EQ(a.repairs, b.repairs) << "hour " << hour;
  EXPECT_EQ(a.recovery_migrations, b.recovery_migrations) << "hour " << hour;
  EXPECT_EQ(a.recovery_cost, b.recovery_cost) << "hour " << hour;
  EXPECT_EQ(a.quarantined_flows, b.quarantined_flows) << "hour " << hour;
  EXPECT_EQ(a.quarantine_penalty, b.quarantine_penalty) << "hour " << hour;
  EXPECT_EQ(a.service_down, b.service_down) << "hour " << hour;
  EXPECT_EQ(a.rung, b.rung) << "hour " << hour;
  EXPECT_EQ(a.policy_failed, b.policy_failed) << "hour " << hour;
  EXPECT_EQ(a.resolved_shards, b.resolved_shards) << "hour " << hour;
  EXPECT_EQ(a.held_shards, b.held_shards) << "hour " << hour;
  EXPECT_EQ(a.quarantined_shards, b.quarantined_shards) << "hour " << hour;
  EXPECT_EQ(a.shard_retries, b.shard_retries) << "hour " << hour;
  EXPECT_EQ(a.shard_penalty, b.shard_penalty) << "hour " << hour;
}

void expect_equal_traces(const SimTrace& a, const SimTrace& b) {
  EXPECT_EQ(a.initial_placement, b.initial_placement);
  EXPECT_EQ(a.total_comm_cost, b.total_comm_cost);
  EXPECT_EQ(a.total_migration_cost, b.total_migration_cost);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_vnf_migrations, b.total_vnf_migrations);
  EXPECT_EQ(a.total_vm_migrations, b.total_vm_migrations);
  EXPECT_EQ(a.total_switch_failures, b.total_switch_failures);
  EXPECT_EQ(a.total_link_failures, b.total_link_failures);
  EXPECT_EQ(a.total_repairs, b.total_repairs);
  EXPECT_EQ(a.total_recovery_migrations, b.total_recovery_migrations);
  EXPECT_EQ(a.total_recovery_cost, b.total_recovery_cost);
  EXPECT_EQ(a.quarantined_flow_epochs, b.quarantined_flow_epochs);
  EXPECT_EQ(a.total_quarantine_penalty, b.total_quarantine_penalty);
  EXPECT_EQ(a.downtime_epochs, b.downtime_epochs);
  EXPECT_EQ(a.total_truncated_solves, b.total_truncated_solves);
  EXPECT_EQ(a.ladder_transitions, b.ladder_transitions);
  EXPECT_EQ(a.refresh_only_epochs, b.refresh_only_epochs);
  EXPECT_EQ(a.frozen_epochs, b.frozen_epochs);
  EXPECT_EQ(a.policy_failures, b.policy_failures);
  EXPECT_EQ(a.total_shard_resolves, b.total_shard_resolves);
  EXPECT_EQ(a.total_shard_holds, b.total_shard_holds);
  EXPECT_EQ(a.quarantined_shard_epochs, b.quarantined_shard_epochs);
  EXPECT_EQ(a.total_shard_retries, b.total_shard_retries);
  EXPECT_EQ(a.total_shard_penalty, b.total_shard_penalty);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t h = 0; h < a.epochs.size(); ++h) {
    expect_equal_decisions(a.epochs[h], b.epochs[h], static_cast<int>(h));
  }
}

FaultSchedule some_faults(const Topology& topo, int hours) {
  FaultScheduleConfig cfg;
  cfg.hours = hours;
  cfg.switch_mtbf = 5.0;
  cfg.switch_mttr = 2.0;
  cfg.link_mtbf = 8.0;
  cfg.seed = 99;
  return generate_fault_schedule(topo.graph, cfg);
}

/// Bit patterns of every trace total and every per-epoch decision field.
/// moved_flows is left out: it is the policy's patch list, consumed by the
/// engine, and merged epoch decisions never carry it.
std::uint64_t trace_hash(const SimTrace& t) {
  Hash64 h;
  for (const NodeId v : t.initial_placement) h.i64(v);
  h.f64(t.total_comm_cost).f64(t.total_migration_cost).f64(t.total_cost);
  h.i64(t.total_vnf_migrations).i64(t.total_vm_migrations);
  h.i64(t.total_switch_failures).i64(t.total_link_failures);
  h.i64(t.total_repairs).i64(t.total_recovery_migrations);
  h.f64(t.total_recovery_cost).i64(t.quarantined_flow_epochs);
  h.f64(t.total_quarantine_penalty).i64(t.downtime_epochs);
  h.i64(t.total_truncated_solves).i64(t.ladder_transitions);
  h.i64(t.refresh_only_epochs).i64(t.frozen_epochs).i64(t.policy_failures);
  h.i64(t.audited_epochs).i64(t.total_shard_resolves);
  h.i64(t.total_shard_holds).i64(t.quarantined_shard_epochs);
  h.i64(t.total_shard_retries).f64(t.total_shard_penalty);
  for (const EpochDecision& d : t.epochs) {
    h.f64(d.comm_cost).f64(d.migration_cost);
    h.i64(d.vnf_migrations).i64(d.vm_migrations).i64(d.truncated_solves);
    h.i64(d.switch_failures).i64(d.link_failures).i64(d.repairs);
    h.i64(d.recovery_migrations).f64(d.recovery_cost);
    h.i64(d.quarantined_flows).f64(d.quarantine_penalty);
    h.b(d.service_down).i64(static_cast<int>(d.rung)).b(d.policy_failed);
    h.i64(d.resolved_shards).i64(d.held_shards);
    h.i64(d.quarantined_shards).i64(d.shard_retries).f64(d.shard_penalty);
  }
  return h.value();
}

/// One single-shard golden case: 120 flows drawn with seed 13, n = 5.
struct GoldenCase {
  int k = 4;
  int hours = 8;
  bool faults = false;
  double zipf = 0.0;        ///< rack skew (VM moves need a traffic centre)
  bool schedule = false;    ///< per-flow rate_schedule instead of diurnal
  std::function<void(SimConfig&)> tune = [](SimConfig&) {};
};

/// The case's rate schedule: a per-flow phase, not a group scaling.
std::vector<double> scheduled_rates(const std::vector<VmFlow>& base,
                                    Hour hour) {
  std::vector<double> r(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto phase = static_cast<double>(
        (i + static_cast<std::size_t>(hour.value())) % 5);
    r[i] = base[i].rate * (0.5 + 0.25 * phase);
  }
  return r;
}

/// Runs the case through run_simulation and through run_sharded_simulation
/// over ShardMap::single with a churn-free workload. Both must reproduce
/// `golden` — the checksum the separate monolithic epoch loop produced
/// before run_simulation became the single-shard engine. Returns the
/// run_simulation trace for the caller's sanity checks.
SimTrace check_golden(const GoldenCase& c, const MigrationPolicy& proto,
                      std::uint64_t golden) {
  const Topology topo = build_fat_tree(c.k);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig wl = workload_config(120);
  wl.rack_zipf_s = c.zipf;
  Rng rng(13);
  const std::vector<VmFlow> flows = generate_vm_flows(topo, wl, rng);

  SimConfig sim;
  sim.hours = c.hours;
  if (c.faults) sim.faults = some_faults(topo, c.hours);
  c.tune(sim);
  if (c.schedule) {
    sim.rate_schedule = [&flows](Hour h) { return scheduled_rates(flows, h); };
  }

  const std::unique_ptr<MigrationPolicy> policy = proto.clone();
  const SimTrace mono = run_simulation(apsp, flows, 5, sim, *policy);
  EXPECT_EQ(trace_hash(mono), golden) << "run_simulation";

  const ShardMap map = ShardMap::single(topo);
  StreamingWorkload workload(topo, wl, StreamingChurnConfig{}, Rng(13));
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  const SimTrace shard_trace =
      run_sharded_simulation(apsp, map, workload, 5, sim, sharded, proto);
  EXPECT_EQ(trace_hash(shard_trace), golden) << "run_sharded_simulation";
  expect_equal_traces(shard_trace, mono);
  return mono;
}

VmMigrationConfig vm_config() {
  VmMigrationConfig vm;
  vm.mu = 1.0;
  vm.horizon_hours = 4.0;
  return vm;
}

TEST(ShardedEquivalence, SingleShardPristineNoMigration) {
  check_golden({}, NoMigrationPolicy(), 0xcec19907ccfe2a18ULL);
}

TEST(ShardedEquivalence, SingleShardPristineMPareto) {
  check_golden({}, ParetoMigrationPolicy(1e3), 0xcec19907ccfe2a18ULL);
}

TEST(ShardedEquivalence, SingleShardFaultedMPareto) {
  GoldenCase c;
  c.faults = true;
  check_golden(c, ParetoMigrationPolicy(1e3), 0xd5247e62c6507719ULL);
}

TEST(ShardedEquivalence, SingleShardFaultedK8) {
  GoldenCase c;
  c.k = 8;
  c.faults = true;
  check_golden(c, ParetoMigrationPolicy(1e4), 0xaa95878f88cce541ULL);
}

TEST(ShardedEquivalence, SingleShardPristinePlan) {
  GoldenCase c;
  c.zipf = 2.2;
  c.tune = [](SimConfig& s) { s.audit.enabled = true; };
  const SimTrace t =
      check_golden(c, PlanPolicy(vm_config()), 0x3a55a61c541b09f6ULL);
  EXPECT_GT(t.total_vm_migrations, 0);
}

TEST(ShardedEquivalence, SingleShardFaultedMcf) {
  GoldenCase c;
  c.zipf = 2.2;
  c.faults = true;
  c.tune = [](SimConfig& s) {
    s.audit.enabled = true;
    s.fault.quarantine_penalty = 5.0;
  };
  const SimTrace t =
      check_golden(c, McfPolicy(vm_config()), 0x1b7359cfb94628b3ULL);
  EXPECT_GT(t.total_vm_migrations, 0);
  EXPECT_GT(t.quarantined_flow_epochs, 0);
}

TEST(ShardedEquivalence, SingleShardFaultedRateSchedule) {
  GoldenCase c;
  c.zipf = 2.2;
  c.faults = true;
  c.schedule = true;
  const SimTrace t =
      check_golden(c, ParetoMigrationPolicy(1e3), 0xf80209cb4647e8bfULL);
  EXPECT_GT(t.total_recovery_migrations, 0);
}

TEST(ShardedEquivalence, SingleShardLadderTruncation) {
  GoldenCase c;
  c.zipf = 2.2;
  c.hours = 10;
  c.tune = [](SimConfig& s) {
    s.ladder.enabled = true;
    s.audit.enabled = true;
  };
  // A node budget of 1 truncates every exponential re-solve.
  ChainSearchConfig tiny;
  tiny.node_budget = 1;
  const SimTrace t = check_golden(c, ExhaustiveMigrationPolicy(10.0, tiny),
                                  0x07483ea863e9b6f6ULL);
  EXPECT_GT(t.total_truncated_solves, 0);
  EXPECT_GT(t.ladder_transitions, 0);
}

SimTrace run_pod_sharded(int threads, double resolve_fraction,
                         int max_staleness, bool with_faults,
                         const StreamingChurnConfig& churn) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const int hours = 10;

  SimConfig sim;
  sim.hours = hours;
  if (with_faults) sim.faults = some_faults(topo, hours);

  const ShardMap map = ShardMap::by_ingress_pod(topo);
  EXPECT_GT(map.num_shards(), 1);
  StreamingWorkload workload(topo, workload_config(160), churn, Rng(21));

  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = threads;
  sharded.resolve_churn_fraction = resolve_fraction;
  sharded.max_staleness = max_staleness;
  sharded.churn = churn;

  ParetoMigrationPolicy proto(1e3);
  return run_sharded_simulation(apsp, map, workload, 5, sim, sharded, proto);
}

TEST(ShardedEquivalence, MultiShardThreadCountInvariant) {
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 20;
  churn.departure_prob = 0.1;
  churn.rerate_prob = 0.2;
  const SimTrace serial = run_pod_sharded(1, 0.15, 3, true, churn);
  const SimTrace parallel = run_pod_sharded(4, 0.15, 3, true, churn);
  expect_equal_traces(serial, parallel);
  // Active faults force re-solves, so this run resolves throughout.
  EXPECT_GT(serial.total_shard_resolves, 0);
}

TEST(ShardedEquivalence, LightChurnHoldsAndStaysThreadInvariant) {
  // Pristine fabric, churn well below the re-solve threshold: bounded
  // staleness actually holds shards — and the held/resolved mix is still
  // bit-identical across thread counts.
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 2;
  churn.departure_prob = 0.01;
  churn.rerate_prob = 0.02;
  const SimTrace serial = run_pod_sharded(1, 0.5, 3, false, churn);
  const SimTrace parallel = run_pod_sharded(4, 0.5, 3, false, churn);
  expect_equal_traces(serial, parallel);
  EXPECT_GT(serial.total_shard_holds, 0);
  EXPECT_GT(serial.total_shard_resolves, 0);
}

TEST(ShardedEquivalence, ColdCacheHourZeroIsThreadInvariant) {
  // Hour 0 solves every shard on the shard pool. Over a fresh fabric each
  // run builds its stroll tables from scratch, so at 4 threads the shards
  // build (and share) cached levels concurrently.
  const Topology topo = build_fat_tree(8);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  ASSERT_GT(map.num_shards(), 4);
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 12;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;
  SimConfig sim;
  sim.hours = 4;

  auto run = [&](const AllPairs& apsp, int threads) {
    StreamingWorkload workload(topo, workload_config(400), churn, Rng(33));
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = threads;
    sharded.resolve_churn_fraction = 0.0;
    sharded.churn = churn;
    ParetoMigrationPolicy proto(1e3);
    return run_sharded_simulation(apsp, map, workload, 5, sim, sharded, proto);
  };
  const AllPairs serial_apsp(topo.graph);
  const SimTrace serial = run(serial_apsp, 1);
  const AllPairs parallel_apsp(topo.graph);
  const SimTrace parallel = run(parallel_apsp, 4);
  ASSERT_EQ(parallel.initial_placement.size(),
            static_cast<std::size_t>(5 * map.num_shards()));
  expect_equal_traces(serial, parallel);

  const StrollTableCache::Stats cold =
      StrollTableCache::of(parallel_apsp).stats();
  EXPECT_GT(cold.levels_built, 0u);
  EXPECT_EQ(cold.levels_built,
            StrollTableCache::of(serial_apsp).stats().levels_built);
  // A warm cache serves the same run.
  expect_equal_traces(run(parallel_apsp, 4), serial);
}

TEST(ShardedEquivalence, HeldShardsChargeExactCosts) {
  // NoMigration never moves, so a held placement IS the resolved
  // placement; charging held shards exactly means the hold-everything run
  // must match the resolve-every-epoch run bit for bit — except for the
  // resolved/held split itself, which we check separately.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  SimConfig sim;
  sim.hours = 6;
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  NoMigrationPolicy proto;

  auto run = [&](double fraction, int staleness) {
    StreamingWorkload workload(topo, workload_config(140),
                               StreamingChurnConfig{}, Rng(5));
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = 2;
    sharded.resolve_churn_fraction = fraction;
    sharded.max_staleness = staleness;
    return run_sharded_simulation(apsp, map, workload, 5, sim, sharded,
                                  proto);
  };

  const SimTrace resolve_always = run(0.0, 4);
  const SimTrace hold_mostly = run(0.9, 1000);

  EXPECT_EQ(resolve_always.total_comm_cost, hold_mostly.total_comm_cost);
  EXPECT_EQ(resolve_always.total_cost, hold_mostly.total_cost);
  ASSERT_EQ(resolve_always.epochs.size(), hold_mostly.epochs.size());
  for (std::size_t h = 0; h < resolve_always.epochs.size(); ++h) {
    EXPECT_EQ(resolve_always.epochs[h].comm_cost,
              hold_mostly.epochs[h].comm_cost)
        << "hour " << h;
  }
  // Every epoch accounts for every shard, one way or the other.
  const int shards = map.num_shards();
  EXPECT_EQ(resolve_always.total_shard_resolves, sim.hours * shards);
  EXPECT_EQ(resolve_always.total_shard_holds, 0);
  // Hour 0 always solves; with zero churn every later epoch holds.
  EXPECT_EQ(hold_mostly.total_shard_resolves, shards);
  EXPECT_EQ(hold_mostly.total_shard_holds, (sim.hours - 1) * shards);
}

TEST(ShardedEquivalence, PodShardedAuditCoversEveryEpoch) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  NoMigrationPolicy proto;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  StreamingWorkload workload(topo, workload_config(40),
                             StreamingChurnConfig{}, Rng(1));
  SimConfig sim;
  sim.hours = 2;
  sim.audit.enabled = true;
  const SimTrace t =
      run_sharded_simulation(apsp, map, workload, 3, sim, sharded, proto);
  EXPECT_EQ(t.audited_epochs, 2);
}

/// Prototype whose `throwing_clone`-th clone() (1-based) yields a policy
/// that throws on every on_epoch call; every other clone behaves like
/// NoMigration. run_sharded_simulation clones once per shard in fixed pod
/// order, so "clone #2 throws" means "shard 1 fails every attempt".
class SelectiveThrowPolicy : public MigrationPolicy {
 public:
  explicit SelectiveThrowPolicy(int throwing_clone)
      : throwing_clone_(throwing_clone), clones_(std::make_shared<int>(0)) {}

  std::string name() const override { return "SelectiveThrow"; }

  std::unique_ptr<MigrationPolicy> clone() const override {
    const int index = ++*clones_;
    auto p = std::make_unique<SelectiveThrowPolicy>(throwing_clone_);
    p->clones_ = clones_;
    p->throws_ = index == throwing_clone_;
    return p;
  }

  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (throws_) throw PpdcError("synthetic shard failure");
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  int throwing_clone_;
  std::shared_ptr<int> clones_;
  bool throws_ = false;
};

TEST(ShardedFaultContainment, ThrowingShardIsQuarantinedWhileOthersProgress) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  SimConfig sim;
  sim.hours = 12;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;

  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  sharded.quarantine_sla = 3.0;

  auto run = [&](const MigrationPolicy& proto, int threads) {
    ShardedStreamingConfig cfg = sharded;
    cfg.threads = threads;
    StreamingWorkload workload(topo, workload_config(140),
                               StreamingChurnConfig{}, Rng(9));
    return run_sharded_simulation(apsp, map, workload, 5, sim, cfg, proto);
  };

  NoMigrationPolicy healthy;
  const SimTrace baseline = run(healthy, 2);
  SelectiveThrowPolicy failing(2);  // shard 1 throws on every attempt
  const SimTrace contained = run(failing, 2);

  // Containment: the quarantined shard holds its placement and is
  // re-costed exactly, so every epoch's communication cost is
  // bit-identical to the all-healthy baseline — the other shards' costs
  // never move.
  ASSERT_EQ(contained.epochs.size(), baseline.epochs.size());
  for (std::size_t h = 0; h < contained.epochs.size(); ++h) {
    EXPECT_EQ(contained.epochs[h].comm_cost, baseline.epochs[h].comm_cost)
        << "hour " << h;
  }
  EXPECT_EQ(contained.total_comm_cost, baseline.total_comm_cost);
  EXPECT_EQ(contained.downtime_epochs, 0);

  // ...while the failure is fully visible in the containment accounting:
  // the first throw plus at least one backed-off retry, quarantined
  // shard-epochs, and the SLA penalty on the quarantined shard's served
  // rate (the only cost delta vs the baseline).
  EXPECT_GE(contained.policy_failures, 2);
  EXPECT_GE(contained.total_shard_retries, 1);
  EXPECT_GT(contained.quarantined_shard_epochs, 0);
  EXPECT_GT(contained.total_shard_penalty, 0.0);
  EXPECT_EQ(contained.total_cost,
            contained.total_comm_cost + contained.total_shard_penalty);
  EXPECT_EQ(baseline.quarantined_shard_epochs, 0);
  EXPECT_EQ(baseline.total_shard_penalty, 0.0);
  EXPECT_EQ(baseline.policy_failures, 0);

  // Per-shard ladder, down and back up: the merged rung degrades while
  // the failing shard sits out its backoff and returns to kFull for the
  // retry attempts.
  EXPECT_GE(contained.ladder_transitions, 3);
  bool saw_degraded = false;
  bool saw_retry_at_full = false;
  for (std::size_t h = 1; h < contained.epochs.size(); ++h) {
    const EpochDecision& d = contained.epochs[h];
    if (d.rung != DegradationRung::kFull) saw_degraded = true;
    if (saw_degraded && d.rung == DegradationRung::kFull &&
        d.shard_retries > 0) {
      saw_retry_at_full = true;
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_retry_at_full);

  // And the whole containment trajectory is thread-count invariant.
  SelectiveThrowPolicy failing1(2);
  SelectiveThrowPolicy failing4(2);
  expect_equal_traces(run(failing1, 1), run(failing4, 4));
}

TEST(ShardedAudit, CleanOnPristineAndPodOutage) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 8;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;

  auto run = [&](bool pod_outage) {
    SimConfig sim;
    sim.hours = 10;
    sim.ladder.enabled = true;
    sim.audit.enabled = true;
    if (pod_outage) {
      FaultScheduleConfig fc;
      fc.hours = sim.hours;
      fc.maintenance = {{"pod0", Hour{3}, Hour{6}}};
      sim.faults = generate_fault_schedule(topo, fc);
    }
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = 4;
    sharded.churn = churn;
    sharded.resolve_churn_fraction = 0.3;
    sharded.max_staleness = 3;
    sharded.quarantine_sla = 2.0;
    StreamingWorkload workload(topo, workload_config(160), churn, Rng(31));
    ParetoMigrationPolicy proto(1e3);
    return run_sharded_simulation(apsp, map, workload, 5, sim, sharded,
                                  proto);
  };

  const SimTrace pristine = run(false);
  EXPECT_EQ(pristine.audited_epochs, 10);
  EXPECT_GT(pristine.total_shard_holds, 0);

  const SimTrace outage = run(true);
  EXPECT_EQ(outage.audited_epochs, 10);
  // The drained pod actually cut flows off from the core (the audit
  // covered real quarantine accounting, not a silently pristine run).
  EXPECT_GT(outage.quarantined_flow_epochs, 0);
  EXPECT_GT(outage.total_switch_failures, 0);
}

/// NoMigration that over-reports its communication cost by 1.
class OverchargingPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Overcharging"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<OverchargingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    EpochDecision d = NoMigrationPolicy().on_epoch(model, state);
    d.comm_cost += 1.0;
    return d;
  }
};

TEST(ShardedAudit, OverchargedShardTripsNamedDiagnostic) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  SimConfig sim;
  sim.hours = 6;
  sim.audit.enabled = true;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  StreamingWorkload workload(topo, workload_config(120),
                             StreamingChurnConfig{}, Rng(5));
  const OverchargingPolicy proto;
  try {
    run_sharded_simulation(apsp, map, workload, 5, sim, sharded, proto);
    FAIL() << "an overcharged shard escaped the sharded auditor";
  } catch (const AuditError& e) {
    // Hour 0 charges the engine's own solve; hour 1 is the first policy
    // answer, and pod 0's shard is checked first.
    EXPECT_EQ(e.violation().invariant, "cost-conservation");
    EXPECT_EQ(e.violation().epoch, Hour{1});
    EXPECT_EQ(e.violation().policy, "Overcharging");
    EXPECT_EQ(e.violation().shard, map.names[0]);
    EXPECT_NE(std::string(e.what()).find(map.names[0]), std::string::npos)
        << e.what();
  }
}

/// Flips the cancellation flag at the end of a chosen epoch, simulating a
/// SIGTERM that lands mid-run.
class CancelAtEpoch : public EpochObserver {
 public:
  CancelAtEpoch(std::atomic<bool>* flag, int epoch)
      : flag_(flag), epoch_(epoch) {}
  void on_epoch_end(Hour hour, const EpochDecision&) override {
    if (hour.value() == epoch_) flag_->store(true);
  }

 private:
  std::atomic<bool>* flag_;
  int epoch_;
};

/// Hashes every callback of an event stream with its arguments.
class EventStreamHash : public EpochObserver {
 public:
  void on_run_begin(Hour hour, const Placement& initial) override {
    h_.str("begin").i64(hour.value());
    for (const NodeId v : initial) h_.i64(v);
  }
  void on_epoch_begin(Hour hour) override { h_.str("epoch").i64(hour.value()); }
  void on_faults(Hour hour, const EpochFaults& e) override {
    h_.str("faults").i64(hour.value()).i64(e.switch_failures);
    h_.i64(e.link_failures).i64(e.repairs).b(e.topology_changed);
  }
  void on_quarantine(Hour hour, int flows, double unserved,
                     double penalty) override {
    h_.str("quarantine").i64(hour.value()).i64(flows).f64(unserved);
    h_.f64(penalty);
  }
  void on_blackout(Hour hour) override { h_.str("blackout").i64(hour.value()); }
  void on_recovery(Hour hour, int migrations, double cost) override {
    h_.str("recovery").i64(hour.value()).i64(migrations).f64(cost);
  }
  void on_budget_truncation(Hour hour, int truncated) override {
    h_.str("truncation").i64(hour.value()).i64(truncated);
  }
  void on_shard_batch(Hour hour, int resolved, int held,
                      int churned) override {
    h_.str("batch").i64(hour.value()).i64(resolved).i64(held).i64(churned);
  }
  void on_shard_ladder_transition(Hour hour, int shard,
                                  const std::string& name,
                                  DegradationRung from, DegradationRung to,
                                  const std::string& reason) override {
    h_.str("ladder").i64(hour.value()).i64(shard).str(name);
    h_.i64(static_cast<int>(from)).i64(static_cast<int>(to)).str(reason);
  }
  void on_shard_quarantine(Hour hour, int shard, const std::string& name,
                           int fail_streak, int required_clean) override {
    h_.str("shard-quarantine").i64(hour.value()).i64(shard).str(name);
    h_.i64(fail_streak).i64(required_clean);
  }
  void on_shard_retry(Hour hour, int shard, const std::string& name,
                      bool healed) override {
    h_.str("retry").i64(hour.value()).i64(shard).str(name).b(healed);
  }
  void on_epoch_end(Hour hour, const EpochDecision& d) override {
    h_.str("end").i64(hour.value()).f64(d.comm_cost).f64(d.migration_cost);
  }
  void on_run_end() override { h_.str("run-end"); }

  std::uint64_t value() const noexcept { return h_.value(); }

 private:
  Hash64 h_;
};

/// Kills a journaled run at the end of epoch 4 (a cancel lands after the
/// epoch's journal write), then resumes it from the journal at a
/// different thread count — 1 -> 4 and 4 -> 1 — and requires the resumed
/// trace bit-identical to the uninterrupted `reference`, with every epoch
/// audited, and its event stream equal to an uninterrupted run's.
/// `run(threads, sim, observer)` runs one fresh incarnation of the run
/// journaling to `journal`.
template <class Run>
void expect_kill_resume_identical(const SimConfig& sim,
                                  const SimTrace& reference,
                                  const std::string& journal, Run&& run) {
  remove_epoch_journal(journal);
  EventStreamHash uninterrupted;
  run(1, sim, &uninterrupted);
  for (const auto& [kill_threads, resume_threads] :
       {std::pair{1, 4}, std::pair{4, 1}}) {
    remove_epoch_journal(journal);
    {
      std::atomic<bool> cancel{false};
      CancelAtEpoch canceller(&cancel, 4);
      SimConfig interrupted = sim;
      interrupted.cancel = &cancel;
      EXPECT_THROW(run(kill_threads, interrupted, &canceller),
                   SimInterrupted);
    }
    EventStreamHash events;
    const SimTrace resumed = run(resume_threads, sim, &events);
    expect_equal_traces(resumed, reference);
    EXPECT_EQ(resumed.audited_epochs, sim.hours);
    EXPECT_EQ(events.value(), uninterrupted.value());
  }
  remove_epoch_journal(journal);
}

TEST(ShardedEquivalence, MultiShardRunIsPinned) {
  // Every other multi-shard test compares two widths, or a resume, against
  // the same binary, so a change that moved every width the same way
  // would pass them. This run has every engine feature on (churn with
  // held shards, a pod outage, the ladder with shard 1's policy throwing,
  // the audit) and its trace and event stream are pinned to constants at
  // 1 and 4 threads, and after a kill at epoch 4 and a journal resume.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::string journal = "sharded_pinned_journal_test.bin";
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 10;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;
  SimConfig sim;
  sim.hours = 10;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;
  {
    FaultScheduleConfig fc;
    fc.hours = sim.hours;
    fc.maintenance = {{"pod0", Hour{3}, Hour{6}}};
    sim.faults = generate_fault_schedule(topo, fc);
  }
  auto run = [&](int threads, const SimConfig& cfg, EpochObserver* observer,
                 const std::string& path) {
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = threads;
    sharded.churn = churn;
    sharded.resolve_churn_fraction = 0.3;
    sharded.max_staleness = 3;
    sharded.quarantine_sla = 2.0;
    SelectiveThrowPolicy proto(2);  // shard 1 throws on every attempt
    StreamingWorkload w(topo, workload_config(160), churn, Rng(31));
    return run_sharded_simulation(apsp, map, w, 5, cfg, sharded, proto,
                                  observer, path);
  };
  constexpr std::uint64_t kTrace = 0x02f25ccd0c3f4034ULL;
  constexpr std::uint64_t kEvents = 0xeae38c0e23ac81a2ULL;

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EventStreamHash events;
    const SimTrace t = run(threads, sim, &events, {});
    EXPECT_EQ(trace_hash(t), kTrace);
    EXPECT_EQ(events.value(), kEvents);
    // The pinned run exercises what it claims to.
    EXPECT_GT(t.total_shard_holds, 0);
    EXPECT_GT(t.quarantined_flow_epochs, 0);
    EXPECT_GT(t.total_recovery_migrations, 0);
    EXPECT_GT(t.policy_failures, 0);
    EXPECT_GT(t.ladder_transitions, 0);
    EXPECT_EQ(t.audited_epochs, sim.hours);
  }
  for (const auto& [kill_threads, resume_threads] :
       {std::pair{1, 4}, std::pair{4, 1}}) {
    SCOPED_TRACE(::testing::Message()
                 << "kill at " << kill_threads << ", resume at "
                 << resume_threads);
    remove_epoch_journal(journal);
    {
      std::atomic<bool> cancel{false};
      CancelAtEpoch canceller(&cancel, 4);
      SimConfig interrupted = sim;
      interrupted.cancel = &cancel;
      EXPECT_THROW(run(kill_threads, interrupted, &canceller, journal),
                   SimInterrupted);
    }
    EventStreamHash events;
    const SimTrace resumed = run(resume_threads, sim, &events, journal);
    EXPECT_EQ(trace_hash(resumed), kTrace);
    EXPECT_EQ(events.value(), kEvents);
  }
  remove_epoch_journal(journal);
}

TEST(ShardedEpochJournal, KillResumeBitIdentityAcrossThreadCounts) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::string journal = "sharded_epoch_journal_test.bin";

  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 10;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;

  SimConfig base;
  base.hours = 10;
  base.ladder.enabled = true;
  base.audit.enabled = true;
  {
    FaultScheduleConfig fc;
    fc.hours = base.hours;
    fc.switch_mtbf = 8.0;
    fc.switch_mttr = 2.0;
    fc.seed = 99;
    base.faults = generate_fault_schedule(topo, fc);
  }

  auto make_sharded = [&](int threads) {
    ShardedStreamingConfig cfg;
    cfg.enabled = true;
    cfg.threads = threads;
    cfg.churn = churn;
    cfg.resolve_churn_fraction = 0.25;
    cfg.max_staleness = 3;
    cfg.quarantine_sla = 1.0;
    return cfg;
  };
  auto make_workload = [&]() {
    return StreamingWorkload(topo, workload_config(150), churn, Rng(77));
  };

  ParetoMigrationPolicy proto(1e3);
  remove_epoch_journal(journal);

  // Reference: one uninterrupted run.
  auto uninterrupted = [&](int threads) {
    StreamingWorkload w = make_workload();
    return run_sharded_simulation(apsp, map, w, 5, base,
                                  make_sharded(threads), proto);
  };
  const SimTrace reference = uninterrupted(1);
  expect_equal_traces(reference, uninterrupted(4));

  expect_kill_resume_identical(
      base, reference, journal,
      [&](int threads, const SimConfig& sim, EpochObserver* observer) {
        StreamingWorkload w = make_workload();
        return run_sharded_simulation(apsp, map, w, 5, sim,
                                      make_sharded(threads), proto, observer,
                                      journal);
      });
}

/// Pod-sharded stress setup of the VM-migration and rate-schedule tests:
/// churn, switch faults, the ladder and the auditor all on. Skewed racks
/// give PLAN/MCF a traffic centre to move VMs towards.
struct PodStress {
  Topology topo = build_fat_tree(4);
  AllPairs apsp{topo.graph};
  ShardMap map = ShardMap::by_ingress_pod(topo);
  StreamingChurnConfig churn;
  SimConfig sim;

  PodStress() {
    churn.arrivals_per_epoch = 10;
    churn.departure_prob = 0.05;
    churn.rerate_prob = 0.1;
    sim.hours = 10;
    sim.ladder.enabled = true;
    sim.audit.enabled = true;
    FaultScheduleConfig fc;
    fc.hours = sim.hours;
    fc.switch_mtbf = 8.0;
    fc.switch_mttr = 2.0;
    fc.seed = 99;
    sim.faults = generate_fault_schedule(topo, fc);
  }

  StreamingWorkload workload() const {
    VmPlacementConfig wl = workload_config(150);
    wl.rack_zipf_s = 2.2;
    return StreamingWorkload(topo, wl, churn, Rng(77));
  }

  ShardedStreamingConfig sharded(int threads) const {
    ShardedStreamingConfig cfg;
    cfg.enabled = true;
    cfg.threads = threads;
    cfg.churn = churn;
    cfg.resolve_churn_fraction = 0.25;
    cfg.max_staleness = 3;
    cfg.quarantine_sla = 1.0;
    return cfg;
  }

  SimTrace run(const MigrationPolicy& proto, int threads) const {
    StreamingWorkload w = workload();
    return run_sharded_simulation(apsp, map, w, 5, sim, sharded(threads),
                                  proto);
  }
};

TEST(ShardedVmMigration, PlanAndMcfAreThreadInvariantOnPodShards) {
  const PodStress ps;
  ASSERT_FALSE(ps.sim.faults.empty());
  const PlanPolicy plan(vm_config());
  const McfPolicy mcf(vm_config());
  for (const MigrationPolicy* proto :
       std::vector<const MigrationPolicy*>{&plan, &mcf}) {
    const SimTrace serial = ps.run(*proto, 1);
    expect_equal_traces(serial, ps.run(*proto, 4));
    // VMs really moved, under faults, with every epoch audited (the
    // auditor checks local endpoints against the mirrored global flows).
    EXPECT_GT(serial.total_vm_migrations, 0) << proto->name();
    EXPECT_GT(serial.total_switch_failures, 0) << proto->name();
    EXPECT_EQ(serial.audited_epochs, ps.sim.hours) << proto->name();
  }
}

void expect_equal_snapshots(const StreamingWorkload::Snapshot& a,
                            const StreamingWorkload::Snapshot& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].src_host, b.flows[i].src_host) << "flow " << i;
    EXPECT_EQ(a.flows[i].dst_host, b.flows[i].dst_host) << "flow " << i;
    EXPECT_EQ(a.flows[i].rate, b.flows[i].rate) << "flow " << i;
    EXPECT_EQ(a.flows[i].group, b.flows[i].group) << "flow " << i;
  }
  EXPECT_EQ(a.free_slots, b.free_slots);
  EXPECT_EQ(a.rng, b.rng);
}

TEST(ShardedChurnPipeline, DrawInShardRegionIsWidthInvariant) {
  // Each epoch's shard region also draws the next epoch's churn. Churn
  // every epoch, PLAN moving VMs (relocate() writes the workload after
  // the region), and a mix of held and re-solving shards: the trace and
  // the final workload are the same bits at widths 1, 2 and 4.
  PodStress ps;
  ps.sim.faults.clear();  // faults would force every shard to re-solve
  const PlanPolicy plan(vm_config());
  auto run = [&](int threads, StreamingWorkload::Snapshot& end) {
    StreamingWorkload w = ps.workload();
    SimTrace t = run_sharded_simulation(ps.apsp, ps.map, w, 5, ps.sim,
                                        ps.sharded(threads), plan);
    end = w.snapshot();
    return t;
  };
  StreamingWorkload::Snapshot serial_end;
  const SimTrace serial = run(1, serial_end);
  EXPECT_GT(serial.total_shard_holds, 0);
  EXPECT_GT(serial.total_shard_resolves, ps.map.num_shards());
  EXPECT_GT(serial.total_vm_migrations, 0);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    StreamingWorkload::Snapshot end;
    expect_equal_traces(run(threads, end), serial);
    expect_equal_snapshots(end, serial_end);
  }

  // Every epoch churned, so the run committed hours - 1 draws.
  StreamingWorkload fresh = ps.workload();
  for (int h = 1; h < ps.sim.hours; ++h) {
    EXPECT_GT(fresh.advance().total(), 0u) << "epoch " << h;
  }
  EXPECT_EQ(fresh.snapshot().rng, serial_end.rng);
  EXPECT_EQ(fresh.free_slots(), serial_end.free_slots);
}

/// Forwards to a policy, and first adds a hash of the shard state each
/// on_epoch call is handed — the shard's local flows in slot order and
/// the refreshed model's attractions, tagged with the clone's call count —
/// to one multiset shared by every clone.
class ShardStateProbe final : public MigrationPolicy {
 public:
  struct Sink {
    std::mutex mu;
    std::vector<std::uint64_t> states;
  };

  ShardStateProbe(const MigrationPolicy& inner, std::shared_ptr<Sink> sink)
      : inner_(inner.clone()), sink_(std::move(sink)) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ShardStateProbe>(*inner_, sink_);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    Hash64 h;
    h.i64(calls_++);
    for (const VmFlow& f : state.flows) {
      h.i64(f.src_host).i64(f.dst_host).f64(f.rate).i64(f.group);
    }
    for (const NodeId sw : model.apsp().graph().switches()) {
      h.f64(model.ingress_attraction(sw)).f64(model.egress_attraction(sw));
    }
    {
      const std::lock_guard<std::mutex> lock(sink_->mu);
      sink_->states.push_back(h.value());
    }
    return inner_->on_epoch(model, state);
  }

 private:
  std::unique_ptr<MigrationPolicy> inner_;
  std::shared_ptr<Sink> sink_;
  int calls_ = 0;
};

TEST(ShardedChurnPipeline, PerShardChurnApplyIsWidthInvariant) {
  // Each shard task applies its own churn bucket, the shards are claimed
  // heaviest first, and PLAN moves VMs out of their pods. With every
  // shard re-solving every epoch, the shard states the policy is handed
  // (slot order, free-slot re-use, model bits), the trace and the final
  // workload are the same at widths 1, 2 and 4.
  PodStress ps;
  ps.sim.faults.clear();
  const PlanPolicy plan(vm_config());
  auto run = [&](int threads, StreamingWorkload::Snapshot& end,
                 std::vector<std::uint64_t>& states) {
    auto sink = std::make_shared<ShardStateProbe::Sink>();
    const ShardStateProbe probe(plan, sink);
    ShardedStreamingConfig cfg = ps.sharded(threads);
    cfg.resolve_churn_fraction = 0.0;
    StreamingWorkload w = ps.workload();
    SimTrace t = run_sharded_simulation(ps.apsp, ps.map, w, 5, ps.sim, cfg,
                                        probe);
    end = w.snapshot();
    states = std::move(sink->states);
    std::sort(states.begin(), states.end());
    return t;
  };
  StreamingWorkload::Snapshot serial_end;
  std::vector<std::uint64_t> serial_states;
  const SimTrace serial = run(1, serial_end, serial_states);
  EXPECT_GT(serial.total_vm_migrations, 0);
  EXPECT_EQ(serial.audited_epochs, ps.sim.hours);
  EXPECT_EQ(serial_states.size(),
            static_cast<std::size_t>((ps.sim.hours - 1) *
                                     ps.map.num_shards()));
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    StreamingWorkload::Snapshot end;
    std::vector<std::uint64_t> states;
    expect_equal_traces(run(threads, end, states), serial);
    expect_equal_snapshots(end, serial_end);
    EXPECT_EQ(states, serial_states);
  }
}

TEST(ShardedChurnPipeline, CancelledRunLeavesNoUncommittedDraw) {
  // Cancelling at the end of epoch h abandons the draw epoch h's region
  // made for h+1: the workload is left exactly h epochs advanced.
  PodStress ps;
  ps.sim.faults.clear();
  ps.sim.audit.enabled = false;
  const ParetoMigrationPolicy proto(1e3);  // moves no VMs
  for (const int threads : {1, 4}) {
    for (const int h : {0, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", cancel at " +
                   std::to_string(h));
      std::atomic<bool> cancel{false};
      SimConfig sim = ps.sim;
      sim.cancel = &cancel;
      CancelAtEpoch observer(&cancel, h);
      StreamingWorkload w = ps.workload();
      EXPECT_THROW(run_sharded_simulation(ps.apsp, ps.map, w, 5, sim,
                                          ps.sharded(threads), proto,
                                          &observer),
                   SimInterrupted);
      StreamingWorkload fresh = ps.workload();
      for (int e = 1; e <= h; ++e) (void)fresh.advance();
      expect_equal_snapshots(w.snapshot(), fresh.snapshot());
    }
  }
}

TEST(ShardedVmMigration, HostCapacityCountsPerShard) {
  // VmMigrationConfig::host_capacity binds per shard: each shard's policy
  // clone sees only its own flows, so a host that serves two shards may
  // take the limit from each. Two pod shards (pods 0-1 and 2-3) on k=4,
  // a limit of one VM per host and nearly free migration, so both shards
  // crowd the hosts nearest their chain ends.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  ShardMap map = ShardMap::by_ingress_pod(topo);
  ASSERT_EQ(map.num_shards(), 4);
  map.names = {"pods01", "pods23"};
  for (int& s : map.shard_of_host) {
    if (s >= 0) s /= 2;
  }
  VmMigrationConfig vm = vm_config();
  vm.mu = 1e-3;
  vm.host_capacity = 1;
  SimConfig sim;
  sim.hours = 3;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  const McfPolicy proto(vm);

  std::vector<VmFlow> flows;
  {
    Rng rng(6);
    flows = generate_vm_flows(topo, workload_config(12), rng);
  }
  // Without churn a flow stays in the shard of its initial source host.
  std::vector<int> shard_of_flow;
  for (const VmFlow& f : flows) {
    shard_of_flow.push_back(map.shard_of(f.src_host));
  }
  const auto occupancy = [&](const std::vector<VmFlow>& fs, int shard) {
    std::vector<int> occ(static_cast<std::size_t>(apsp.num_nodes()), 0);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      if (shard >= 0 && shard_of_flow[i] != shard) continue;
      ++occ[static_cast<std::size_t>(fs[i].src_host)];
      ++occ[static_cast<std::size_t>(fs[i].dst_host)];
    }
    return occ;
  };

  StreamingWorkload workload(flows);
  const SimTrace trace =
      run_sharded_simulation(apsp, map, workload, 3, sim, sharded, proto);
  EXPECT_GT(trace.total_vm_migrations, 0);
  const std::vector<VmFlow>& after = workload.flows();
  for (int shard = 0; shard < 2; ++shard) {
    const auto before_s = occupancy(flows, shard);
    const auto after_s = occupancy(after, shard);
    for (std::size_t h = 0; h < after_s.size(); ++h) {
      EXPECT_LE(after_s[h], std::max(vm.host_capacity, before_s[h]))
          << "shard " << shard << " host " << h;
    }
  }
  // Across the fabric the limit does not bind: some host ends above both
  // the limit and its initial occupancy.
  const auto before_all = occupancy(flows, -1);
  const auto after_all = occupancy(after, -1);
  int over = 0;
  for (std::size_t h = 0; h < after_all.size(); ++h) {
    if (after_all[h] > std::max(vm.host_capacity, before_all[h])) ++over;
  }
  EXPECT_GT(over, 0);
}

TEST(ShardedVmMigration, JournaledPlanRunResumesBitIdentically) {
  const PodStress ps;
  const std::string journal = "sharded_plan_journal_test.bin";
  const PlanPolicy proto(vm_config());
  const SimTrace reference = ps.run(proto, 1);
  // The kill lands after VMs moved, so the replay must re-apply the moved
  // endpoints the journal recorded for each policy answer.
  int moved_before_kill = 0;
  for (int h = 0; h <= 4; ++h) {
    moved_before_kill += reference.epochs[static_cast<std::size_t>(h)]
                             .vm_migrations;
  }
  EXPECT_GT(moved_before_kill, 0);

  expect_kill_resume_identical(
      ps.sim, reference, journal,
      [&](int threads, const SimConfig& sim, EpochObserver* observer) {
        StreamingWorkload w = ps.workload();
        return run_sharded_simulation(ps.apsp, ps.map, w, 5, sim,
                                      ps.sharded(threads), proto, observer,
                                      journal);
      });
}

TEST(ShardedEpochJournal, ReplaysContainedPolicyThrows) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::string journal = "sharded_throw_journal_test.bin";
  SimConfig sim;
  sim.hours = 12;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;
  auto run = [&](int threads, const SimConfig& cfg, EpochObserver* observer,
                 const std::string& path) {
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = threads;
    sharded.quarantine_sla = 3.0;
    SelectiveThrowPolicy proto(2);  // shard 1 throws on every attempt
    StreamingWorkload workload(topo, workload_config(140),
                               StreamingChurnConfig{}, Rng(9));
    return run_sharded_simulation(apsp, map, workload, 5, cfg, sharded,
                                  proto, observer, path);
  };
  const SimTrace reference = run(1, sim, nullptr, {});
  // The replayed prefix holds contained throws and ladder steps.
  int failures_before_kill = 0;
  for (int h = 0; h <= 4; ++h) {
    if (reference.epochs[static_cast<std::size_t>(h)].policy_failed) {
      ++failures_before_kill;
    }
  }
  EXPECT_GT(failures_before_kill, 0);
  EXPECT_GT(reference.ladder_transitions, 0);

  expect_kill_resume_identical(
      sim, reference, journal,
      [&](int threads, const SimConfig& cfg, EpochObserver* observer) {
        return run(threads, cfg, observer, journal);
      });
}

TEST(ShardedEpochJournal, ReplaysRecoveryOfStrandedVnfs) {
  const PodStress ps;
  const std::string journal = "sharded_recovery_journal_test.bin";
  const SimConfig sim = ps.sim;
  const ParetoMigrationPolicy proto(1e3);
  auto run = [&](int threads, const SimConfig& cfg, EpochObserver* observer,
                 const std::string& path) {
    StreamingWorkload w = ps.workload();
    return run_sharded_simulation(ps.apsp, ps.map, w, 5, cfg,
                                  ps.sharded(threads), proto, observer, path);
  };
  const SimTrace reference = run(1, sim, nullptr, {});
  // Switch faults strand VNFs before the kill, so the replay takes
  // recovery targets from the journal.
  int recovered_before_kill = 0;
  for (int h = 0; h <= 4; ++h) {
    recovered_before_kill += reference.epochs[static_cast<std::size_t>(h)]
                                 .recovery_migrations;
  }
  EXPECT_GT(recovered_before_kill, 0);

  expect_kill_resume_identical(
      sim, reference, journal,
      [&](int threads, const SimConfig& cfg, EpochObserver* observer) {
        return run(threads, cfg, observer, journal);
      });
}

TEST(ShardedRateSchedule, DiurnalScheduleMatchesGroupedRun) {
  // A schedule that emits exactly the diurnal rates of the live workload
  // takes the full-refresh path on every shard; it must reproduce the
  // grouped fast path's costs up to summation order. The two paths may
  // break an exact cost tie differently (a chain of equal cost on other
  // switches), so emergency-recovery distances, which depend on where
  // the tied chain sits, are not compared.
  const PodStress ps;
  const ParetoMigrationPolicy proto(1e3);
  const SimTrace grouped = ps.run(proto, 2);

  StreamingWorkload w = ps.workload();
  SimConfig sim = ps.sim;
  sim.rate_schedule = [&w, &ps](Hour hour) {
    return diurnal_rates_grouped(ps.sim.diurnal, rates_of(w.flows()),
                                 groups_of(w.flows()), hour);
  };
  const SimTrace scheduled = run_sharded_simulation(
      ps.apsp, ps.map, w, 5, sim, ps.sharded(2), proto);

  // incremental_refresh_test's tolerance: 1e-9 relative.
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
  };
  ASSERT_EQ(scheduled.epochs.size(), grouped.epochs.size());
  for (std::size_t h = 0; h < grouped.epochs.size(); ++h) {
    const EpochDecision& a = scheduled.epochs[h];
    const EpochDecision& b = grouped.epochs[h];
    EXPECT_TRUE(near(a.comm_cost, b.comm_cost)) << "hour " << h;
    EXPECT_TRUE(near(a.migration_cost, b.migration_cost)) << "hour " << h;
    EXPECT_TRUE(near(a.quarantine_penalty, b.quarantine_penalty))
        << "hour " << h;
    EXPECT_EQ(a.quarantined_flows, b.quarantined_flows) << "hour " << h;
    EXPECT_EQ(a.vnf_migrations, b.vnf_migrations) << "hour " << h;
    EXPECT_EQ(a.resolved_shards, b.resolved_shards) << "hour " << h;
    EXPECT_EQ(a.rung, b.rung) << "hour " << h;
  }
  EXPECT_TRUE(near(scheduled.total_comm_cost, grouped.total_comm_cost));
  EXPECT_TRUE(near(scheduled.total_migration_cost,
                   grouped.total_migration_cost));
  EXPECT_EQ(scheduled.audited_epochs, ps.sim.hours);
  EXPECT_GT(grouped.quarantined_flow_epochs, 0);
}

TEST(ShardedEquivalence, ExperimentRunnerThreadInvariant) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);

  auto make = [&](int sim_threads, int shard_threads) {
    ExperimentConfig cfg;
    cfg.trials = 3;
    cfg.seed = 77;
    cfg.workload = workload_config(100);
    cfg.sfc_length = 5;
    cfg.sim.hours = 6;
    cfg.threads = sim_threads;
    cfg.sharded.enabled = true;
    cfg.sharded.threads = shard_threads;
    cfg.sharded.churn.arrivals_per_epoch = 10;
    cfg.sharded.churn.departure_prob = 0.05;
    cfg.sharded.churn.rerate_prob = 0.1;
    cfg.sharded.resolve_churn_fraction = 0.2;
    cfg.sharded.max_staleness = 3;
    return cfg;
  };

  ParetoMigrationPolicy pareto(1e3);
  NoMigrationPolicy none;
  const std::vector<const MigrationPolicy*> policies{&pareto, &none};

  // (1, 4): one job at a time, so each job's shards run 4-wide on the
  // executor's workers. (2, 4): the job pool holds the workers and each
  // job solves its shards inline.
  const auto serial = run_experiment(topo, apsp, make(1, 1), policies);
  for (const auto& [sim_threads, shard_threads] :
       {std::pair{1, 4}, std::pair{2, 4}}) {
    SCOPED_TRACE(::testing::Message() << "threads " << sim_threads
                                      << " shard threads " << shard_threads);
    const auto parallel = run_experiment(
        topo, apsp, make(sim_threads, shard_threads), policies);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(serial[p].name, parallel[p].name);
      EXPECT_EQ(serial[p].total_cost.mean, parallel[p].total_cost.mean);
      EXPECT_EQ(serial[p].comm_cost.mean, parallel[p].comm_cost.mean);
      EXPECT_EQ(serial[p].migration_cost.mean,
                parallel[p].migration_cost.mean);
      EXPECT_EQ(serial[p].vnf_migrations.mean,
                parallel[p].vnf_migrations.mean);
      EXPECT_EQ(serial[p].shard_resolves.mean,
                parallel[p].shard_resolves.mean);
      EXPECT_EQ(serial[p].shard_holds.mean, parallel[p].shard_holds.mean);
      ASSERT_EQ(serial[p].hourly_cost.size(), parallel[p].hourly_cost.size());
      for (std::size_t h = 0; h < serial[p].hourly_cost.size(); ++h) {
        EXPECT_EQ(serial[p].hourly_cost[h].mean,
                  parallel[p].hourly_cost[h].mean);
      }
    }
  }
  for (std::size_t p = 0; p < serial.size(); ++p) {
    // The sharded streaming runner actually held shards under the 0.2
    // churn threshold (the feature is on, not silently bypassed).
    EXPECT_GT(serial[p].shard_resolves.mean, 0.0);
  }
}

}  // namespace
}  // namespace ppdc
