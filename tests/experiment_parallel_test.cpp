// Determinism contract of the parallel experiment runner (DESIGN.md §9):
// the SimJob pool must produce bit-identical PolicyStats for every thread
// count, and policy prototypes handed to run_experiment must never be
// mutated — every job runs on its own clone().
#include <atomic>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "sim/experiment.hpp"
#include "topology/fat_tree.hpp"

namespace ppdc {
namespace {

/// Bit-exact comparison of two MeanCi (EXPECT_EQ on doubles is exact).
void expect_same(const MeanCi& a, const MeanCi& b, const std::string& what) {
  EXPECT_EQ(a.mean, b.mean) << what << ".mean";
  EXPECT_EQ(a.ci95, b.ci95) << what << ".ci95";
}

void expect_same(const PolicyStats& a, const PolicyStats& b) {
  EXPECT_EQ(a.name, b.name);
  expect_same(a.total_cost, b.total_cost, a.name + " total_cost");
  expect_same(a.comm_cost, b.comm_cost, a.name + " comm_cost");
  expect_same(a.migration_cost, b.migration_cost, a.name + " migration_cost");
  expect_same(a.vnf_migrations, b.vnf_migrations, a.name + " vnf_migrations");
  expect_same(a.vm_migrations, b.vm_migrations, a.name + " vm_migrations");
  expect_same(a.recovery_migrations, b.recovery_migrations,
              a.name + " recovery_migrations");
  expect_same(a.recovery_cost, b.recovery_cost, a.name + " recovery_cost");
  expect_same(a.quarantined_flow_epochs, b.quarantined_flow_epochs,
              a.name + " quarantined_flow_epochs");
  expect_same(a.quarantine_penalty, b.quarantine_penalty,
              a.name + " quarantine_penalty");
  expect_same(a.downtime_epochs, b.downtime_epochs,
              a.name + " downtime_epochs");
  expect_same(a.truncated_solves, b.truncated_solves,
              a.name + " truncated_solves");
  ASSERT_EQ(a.hourly_cost.size(), b.hourly_cost.size());
  ASSERT_EQ(a.hourly_migrations.size(), b.hourly_migrations.size());
  for (std::size_t h = 0; h < a.hourly_cost.size(); ++h) {
    expect_same(a.hourly_cost[h], b.hourly_cost[h],
                a.name + " hourly_cost[" + std::to_string(h) + "]");
    expect_same(a.hourly_migrations[h], b.hourly_migrations[h],
                a.name + " hourly_migrations[" + std::to_string(h) + "]");
  }
}

/// An experiment that exercises the fault machinery: recovery, quarantine
/// and repair events all fire within the horizon.
ExperimentConfig faulty_config(const Topology& topo) {
  ExperimentConfig cfg;
  cfg.trials = 4;
  cfg.seed = 7;
  cfg.workload.num_pairs = 8;
  cfg.workload.intra_rack_fraction = 0.8;
  cfg.sfc_length = 3;
  cfg.sim.hours = 24;
  FaultScheduleConfig fcfg;
  fcfg.hours = cfg.sim.hours;
  fcfg.switch_mtbf = 12.0;
  fcfg.switch_mttr = 2.0;
  fcfg.link_mtbf = 24.0;
  fcfg.link_mttr = 2.0;
  fcfg.seed = 7;
  cfg.sim.faults = generate_fault_schedule(topo.graph, fcfg);
  cfg.sim.fault.quarantine_penalty = 50.0;
  return cfg;
}

TEST(ExperimentParallel, FourThreadsBitIdenticalToSerialUnderFaults) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  ExperimentConfig cfg = faulty_config(topo);

  ParetoMigrationPolicy pareto(1e4);
  NoMigrationPolicy none;
  ResolvePlacementPolicy resolve(1e4);
  const std::vector<const MigrationPolicy*> policies{&pareto, &none, &resolve};

  cfg.threads = 1;
  const auto serial = run_experiment(topo, apsp, cfg, policies);
  cfg.threads = 4;
  const auto parallel = run_experiment(topo, apsp, cfg, policies);

  // The schedule must actually have fired, or this test proves nothing.
  bool saw_faults = false;
  for (const auto& s : serial) {
    if (s.recovery_migrations.mean > 0.0 || s.quarantine_penalty.mean > 0.0) {
      saw_faults = true;
    }
  }
  ASSERT_TRUE(saw_faults) << "fault schedule never hit the chain";

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same(serial[i], parallel[i]);
  }
}

TEST(ExperimentParallel, MoreThreadsThanJobsBitIdentical) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  ExperimentConfig cfg;
  cfg.trials = 2;
  cfg.workload.num_pairs = 5;
  cfg.sfc_length = 2;
  cfg.sim.hours = 4;
  NoMigrationPolicy none;
  cfg.threads = 1;
  const auto serial = run_experiment(topo, apsp, cfg, {&none});
  cfg.threads = 16;  // pool is clamped to the 2 available jobs
  const auto wide = run_experiment(topo, apsp, cfg, {&none});
  ASSERT_EQ(serial.size(), wide.size());
  expect_same(serial[0], wide[0]);
}

TEST(ExperimentParallel, ThreadResolutionContract) {
  EXPECT_EQ(resolve_experiment_threads(1), 1);
  EXPECT_EQ(resolve_experiment_threads(3), 3);
  EXPECT_GE(resolve_experiment_threads(0), 1);
}

/// Stateful policy: counts how many epochs each *instance* has seen. If
/// the runner shared one instance across trials the counter would keep
/// climbing past the horizon.
class CountingPolicy final : public MigrationPolicy {
 public:
  CountingPolicy() = default;
  CountingPolicy(const CountingPolicy& other)
      : MigrationPolicy(other), epochs_seen(other.epochs_seen) {}
  std::string name() const override { return "Counting"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    ++clones_made;
    return std::make_unique<CountingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    ++epochs_seen;
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    // Smuggle the per-instance counter out through a cost channel: if
    // state leaked across trials this would diverge between thread counts.
    d.migration_cost = static_cast<double>(epochs_seen);
    return d;
  }
  int epochs_seen = 0;
  /// Job workers clone the shared prototype concurrently.
  mutable std::atomic<int> clones_made{0};
};

TEST(ExperimentParallel, StatefulPolicyClonesAreIsolated) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.workload.num_pairs = 5;
  cfg.sfc_length = 2;
  cfg.sim.hours = 5;

  CountingPolicy proto;
  cfg.threads = 1;
  const auto serial = run_experiment(topo, apsp, cfg, {&proto});
  // The prototype itself never ran an epoch; each trial got its own clone.
  EXPECT_EQ(proto.epochs_seen, 0);
  EXPECT_EQ(proto.clones_made.load(), cfg.trials);

  CountingPolicy proto2;
  cfg.threads = 4;
  const auto parallel = run_experiment(topo, apsp, cfg, {&proto2});
  EXPECT_EQ(proto2.epochs_seen, 0);
  expect_same(serial[0], parallel[0]);
  // Every trial's clone starts from zero: its migration_cost channel sums
  // 1..hours-1 (the policy runs hours-1 decision epochs), so the
  // per-trial total is the same for all trials and the CI collapses.
  EXPECT_EQ(serial[0].migration_cost.ci95, 0.0);
}

TEST(ExperimentParallel, CloneStartsFromPrototypeState) {
  // clone() is a copy, not a reset: configuration (and any pre-seeded
  // state) carried by the prototype must survive into the clone.
  CountingPolicy proto;
  proto.epochs_seen = 41;
  const auto copy = proto.clone();
  CountingPolicy& concrete = dynamic_cast<CountingPolicy&>(*copy);
  EXPECT_EQ(concrete.epochs_seen, 41);
  concrete.epochs_seen = 0;  // clones diverge without touching the proto
  EXPECT_EQ(proto.epochs_seen, 41);
}

}  // namespace
}  // namespace ppdc
