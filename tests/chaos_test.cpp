// Chaos-layer contracts: the graceful-degradation ladder (engine rungs,
// containment of policy throws, deterministic trips) and the runtime
// invariant auditor (zero violations on healthy runs, named structured
// diagnostics on deliberately corrupted state) — plus the issue's
// acceptance soak: a pod-outage chaos run on a k=8 fat-tree under budget
// pressure with auditing on, bit-identical at 1 vs 4 threads, showing a
// full ladder down-and-back-up in the trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/chain_search.hpp"
#include "core/placement_dp.hpp"
#include "core/sharded_cost_model.hpp"
#include "fault/fault.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/observer.hpp"
#include "sim/sharded.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

/// Deterministic budget pressure: a node budget of 1 truncates every
/// exponential re-solve (never the wall clock, which is nondeterministic).
ExhaustiveMigrationPolicy pressured_optimal(double mu = 10.0) {
  ChainSearchConfig tiny;
  tiny.node_budget = 1;
  return ExhaustiveMigrationPolicy(mu, tiny);
}

/// Throws on every epoch >= `from` while running at full service.
class FlakyPolicy final : public MigrationPolicy {
 public:
  explicit FlakyPolicy(int from) : from_(from) {}
  std::string name() const override { return "Flaky"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<FlakyPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    ++calls_;
    if (calls_ >= from_) {
      // Mutate first: containment must restore the pre-policy state.
      state.placement.back() = state.placement.front();
      throw PpdcError("flaky policy exploded on purpose");
    }
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  int from_;
  int calls_ = 0;
};

TEST(Ladder, StepsDownOnTruncationAndRecovers) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 12, 3);
  SimConfig cfg;
  cfg.hours = 10;
  cfg.ladder.enabled = true;
  cfg.audit.enabled = true;
  ExhaustiveMigrationPolicy policy = pressured_optimal();
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);

  ASSERT_EQ(t.epochs.size(), 10u);
  EXPECT_EQ(t.audited_epochs, 10);
  // Epoch 1 runs at kFull, truncates, trips; later epochs oscillate:
  // refresh-only epochs are trip-free, so a clean streak steps back up.
  EXPECT_EQ(t.epochs[1].rung, DegradationRung::kFull);
  EXPECT_GT(t.epochs[1].truncated_solves, 0);
  EXPECT_GE(t.ladder_transitions, 2);
  EXPECT_GE(t.refresh_only_epochs, 2);
  bool saw_down = false, saw_back_up = false;
  for (std::size_t h = 1; h < t.epochs.size(); ++h) {
    if (t.epochs[h].rung == DegradationRung::kRefreshOnly) saw_down = true;
    if (saw_down && t.epochs[h].rung == DegradationRung::kFull) {
      saw_back_up = true;
    }
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_back_up);
}

TEST(Ladder, ContainsPolicyThrowAndChargesHeldPlacement) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 9);
  SimConfig cfg;
  cfg.hours = 8;
  cfg.ladder.enabled = true;
  cfg.audit.enabled = true;
  FlakyPolicy flaky(2);  // first epoch succeeds, then every call throws
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, flaky);
  ASSERT_EQ(t.epochs.size(), 8u);
  EXPECT_GE(t.policy_failures, 1);
  // Containment restored the pre-throw placement; the auditor (enabled
  // above) would have flagged the vandalized duplicate-switch placement.
  for (std::size_t h = 0; h < t.epochs.size(); ++h) {
    EXPECT_GT(t.epochs[h].comm_cost, 0.0) << "h=" << h;
  }
  // The throw tripped the ladder.
  EXPECT_GE(t.ladder_transitions, 1);

  // Without the ladder the old abort contract holds.
  SimConfig off = cfg;
  off.ladder.enabled = false;
  off.audit.enabled = false;
  FlakyPolicy flaky2(2);
  EXPECT_THROW(run_simulation(apsp, flows, 3, off, flaky2), PpdcError);
}

/// Records every per-shard ladder transition as (hour, shard name, reason).
class ShardLadderLog : public EpochObserver {
 public:
  struct Step {
    int hour;
    std::string shard;
    std::string reason;
  };
  void on_shard_ladder_transition(Hour hour, int /*shard*/,
                                  const std::string& name,
                                  DegradationRung /*from*/,
                                  DegradationRung /*to*/,
                                  const std::string& reason) override {
    steps.push_back({hour.value(), name, reason});
  }
  std::vector<Step> steps;
};

TEST(Ladder, QuarantineTripIgnoresVacantSlots) {
  // Departures without arrivals leave vacant slots in every shard; a pod
  // outage then cuts off all of pod 0's remaining flows. The quarantine
  // trip must weigh them against the shard's live flows, not its slots.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  wl.intra_rack_fraction = 0.8;
  StreamingChurnConfig churn;
  churn.departure_prob = 0.3;
  constexpr int kOutage = 4;
  constexpr std::uint64_t kSeed = 3;

  // Precondition, on a replica of the workload: at the outage epoch pod
  // 0's shard has more vacant slots than live flows, and some live ones.
  StreamingWorkload replica(topo, wl, churn, Rng(kSeed));
  for (int h = 0; h < kOutage; ++h) replica.advance();
  std::vector<char> vacant(replica.flows().size(), 0);
  for (const FlowId g : replica.free_slots()) {
    vacant[static_cast<std::size_t>(g.value())] = 1;
  }
  int live = 0;
  int empty = 0;
  for (std::size_t g = 0; g < replica.flows().size(); ++g) {
    if (map.shard_of(replica.flows()[g].src_host) != 0) continue;
    ++(vacant[g] ? empty : live);
  }
  ASSERT_GT(live, 0);
  ASSERT_GT(empty, live);

  SimConfig sim;
  sim.hours = kOutage + 2;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;
  FaultScheduleConfig fc;
  fc.hours = sim.hours;
  fc.maintenance = {{"pod0", Hour{kOutage}, Hour{kOutage + 2}}};
  sim.faults = generate_fault_schedule(topo, fc);
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.churn = churn;
  StreamingWorkload workload(topo, wl, churn, Rng(kSeed));
  NoMigrationPolicy proto;
  ShardLadderLog log;
  run_sharded_simulation(apsp, map, workload, 3, sim, sharded, proto, &log);

  bool tripped = false;
  for (const ShardLadderLog::Step& s : log.steps) {
    tripped |= s.hour == kOutage && s.shard == map.names[0] &&
               s.reason == "quarantine";
  }
  EXPECT_TRUE(tripped) << "pod 0's shard lost every live flow to the outage "
                          "but its ladder did not trip on quarantine";
}

TEST(Auditor, CorruptedPlacementTripsNamedDiagnostic) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 4);
  const CostModel model(apsp, flows);
  const Placement good = solve_top_dp(model, 3).placement;
  // The first VNF's switch duplicated onto the second slot.
  Placement corrupted = good;
  corrupted[1] = corrupted[0];

  const std::vector<std::string> names{"pod-a", "pod-b"};
  ShardedInvariantAuditor auditor("NoMigration", names);
  auditor.on_run_begin(Hour{6}, good);
  auditor.on_epoch_begin(Hour{3});
  auditor.on_epoch_end(Hour{3}, EpochDecision{});
  ShardAuditContext ctx;
  ctx.epoch = Hour{3};
  ctx.shard = 1;
  ctx.name = &names[1];
  ctx.model = &model;
  ctx.flows = &flows;
  ctx.placement = &corrupted;
  ctx.charged_comm = model.communication_cost(good);
  ctx.n = 3;
  try {
    auditor.check_shard_epoch(ctx);
    FAIL() << "corrupted placement escaped the auditor";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "placement-feasibility");
    EXPECT_EQ(e.violation().epoch, Hour{3});
    EXPECT_EQ(e.violation().policy, "NoMigration");
    EXPECT_EQ(e.violation().node, corrupted[0]);
    EXPECT_EQ(e.violation().shard, "pod-b");
    const std::string what = e.what();
    EXPECT_NE(what.find("placement-feasibility"), std::string::npos) << what;
    EXPECT_NE(what.find("epoch 3"), std::string::npos) << what;
    EXPECT_NE(what.find("pod-b"), std::string::npos) << what;
  }
}

TEST(Auditor, CleanRunsAuditEveryEpochWithZeroViolations) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 6);
  // Faulty fabric + every built-in policy family: the conservation and
  // injector invariants must hold on degraded epochs too.
  FaultScheduleConfig fcfg;
  fcfg.hours = 16;
  fcfg.switch_mtbf = 10.0;
  fcfg.switch_mttr = 2.0;
  fcfg.link_mtbf = 20.0;
  fcfg.seed = 13;
  SimConfig cfg;
  cfg.hours = 16;
  cfg.faults = generate_fault_schedule(topo.graph, fcfg);
  ASSERT_FALSE(cfg.faults.empty());
  cfg.fault.quarantine_penalty = 5.0;
  cfg.audit.enabled = true;
  const auto audit_clean = [&](MigrationPolicy& p) {
    const SimTrace t = run_simulation(apsp, flows, 3, cfg, p);
    EXPECT_EQ(t.audited_epochs, 16) << p.name();
  };
  ParetoMigrationPolicy pareto(10.0);
  NoMigrationPolicy none;
  ResolvePlacementPolicy resolve(10.0);
  audit_clean(pareto);
  audit_clean(none);
  audit_clean(resolve);
}

// The issue's acceptance soak: pod-outage chaos on a k=8 fat-tree with
// budget pressure and per-epoch auditing. Completes with zero violations,
// shows a full down-and-back-up in the trace, and the experiment runner
// reproduces it bit-identically at 1 vs 4 threads (ladder counters
// included).
TEST(ChaosSoak, PodOutageAcceptanceRunIsCleanAndThreadInvariant) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  ASSERT_EQ(topo.power_domains.size(), 8u);

  FaultScheduleConfig fcfg;
  fcfg.hours = 24;
  fcfg.domain_mtbf = 24.0;  // ~one outage per pod over the horizon
  fcfg.domain_mttr = 3.0;
  fcfg.cascade_prob = 0.25;
  fcfg.switch_mtbf = 24.0;
  fcfg.switch_mttr = 2.0;
  fcfg.seed = 21;
  const FaultSchedule schedule = generate_fault_schedule(topo, fcfg);
  ASSERT_FALSE(schedule.empty());

  // Direct run: the trace must show the ladder stepping down and back up.
  {
    SimConfig cfg;
    cfg.hours = 24;
    cfg.faults = schedule;
    cfg.fault.quarantine_penalty = 50.0;
    cfg.ladder.enabled = true;
    cfg.audit.enabled = true;
    const auto flows = random_flows(topo, 60, 21);
    ExhaustiveMigrationPolicy policy = pressured_optimal(1e4);
    const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);
    EXPECT_EQ(t.audited_epochs, 24);  // zero violations, every epoch checked
    EXPECT_GT(t.total_switch_failures, 0);
    bool saw_down = false, saw_back_up = false;
    for (const EpochDecision& d : t.epochs) {
      if (d.rung != DegradationRung::kFull) saw_down = true;
      if (saw_down && d.rung == DegradationRung::kFull) saw_back_up = true;
    }
    EXPECT_TRUE(saw_down);
    EXPECT_TRUE(saw_back_up);
    EXPECT_GE(t.ladder_transitions, 2);
  }

  // Experiment grid: bit-identical at 1 vs 4 threads with ladder + audit.
  ExperimentConfig cfg;
  cfg.trials = 2;
  cfg.seed = 21;
  cfg.workload.num_pairs = 40;
  cfg.workload.intra_rack_fraction = 0.8;
  cfg.sfc_length = 3;
  cfg.sim.hours = 24;
  cfg.sim.faults = schedule;
  cfg.sim.fault.quarantine_penalty = 50.0;
  cfg.sim.ladder.enabled = true;
  cfg.sim.audit.enabled = true;
  ParetoMigrationPolicy pareto(1e4);
  ExhaustiveMigrationPolicy optimal = pressured_optimal(1e4);
  const std::vector<const MigrationPolicy*> policies{&pareto, &optimal};

  cfg.threads = 1;
  const auto serial = run_experiment(topo, apsp, cfg, policies);
  cfg.threads = 4;
  const auto parallel = run_experiment(topo, apsp, cfg, policies);
  ASSERT_EQ(serial.size(), parallel.size());
  const auto same = [](const MeanCi& a, const MeanCi& b,
                       const std::string& what) {
    EXPECT_EQ(a.mean, b.mean) << what;
    EXPECT_EQ(a.ci95, b.ci95) << what;
  };
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const PolicyStats& a = serial[i];
    const PolicyStats& b = parallel[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.completed_trials, cfg.trials) << a.name;
    EXPECT_EQ(b.completed_trials, cfg.trials) << a.name;
    same(a.total_cost, b.total_cost, a.name + " total_cost");
    same(a.quarantined_flow_epochs, b.quarantined_flow_epochs,
         a.name + " quarantined");
    same(a.downtime_epochs, b.downtime_epochs, a.name + " downtime");
    same(a.ladder_transitions, b.ladder_transitions,
         a.name + " ladder_transitions");
    same(a.refresh_only_epochs, b.refresh_only_epochs,
         a.name + " refresh_only_epochs");
    same(a.frozen_epochs, b.frozen_epochs, a.name + " frozen_epochs");
    same(a.policy_failures, b.policy_failures, a.name + " policy_failures");
  }
  // The soak actually degraded: the pressured policy's ladder moved.
  EXPECT_GT(serial[1].ladder_transitions.mean, 0.0);
}

}  // namespace
}  // namespace ppdc
