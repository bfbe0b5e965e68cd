#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

TEST(SimEngine, TraceShapeAndAccounting) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 1);
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 12;
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);
  ASSERT_EQ(t.epochs.size(), 12u);
  double comm = 0.0, mig = 0.0;
  for (const auto& e : t.epochs) {
    comm += e.comm_cost;
    mig += e.migration_cost;
    EXPECT_GE(e.comm_cost, 0.0);
  }
  EXPECT_NEAR(t.total_comm_cost, comm, 1e-9);
  EXPECT_NEAR(t.total_migration_cost, mig, 1e-9);
  EXPECT_NEAR(t.total_cost, comm + mig, 1e-9);
  EXPECT_EQ(t.total_vnf_migrations, 0);
  EXPECT_EQ(t.total_vm_migrations, 0);
  EXPECT_EQ(t.initial_placement.size(), 3u);
}

TEST(SimEngine, NoMigrationPaysNoMigrationCost) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 2);
  NoMigrationPolicy policy;
  SimConfig cfg;
  const SimTrace t = run_simulation(apsp, flows, 4, cfg, policy);
  EXPECT_DOUBLE_EQ(t.total_migration_cost, 0.0);
}

TEST(SimEngine, ParetoPolicyNeverWorseThanNoMigration) {
  // Algorithm 5 includes "stay put" as frontier row 1, so epoch-by-epoch
  // its total can never exceed NoMigration under identical traffic.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto flows = random_flows(topo, 8, seed);
    NoMigrationPolicy none;
    ParetoMigrationPolicy pareto(10.0);
    SimConfig cfg;
    const SimTrace t_none = run_simulation(apsp, flows, 4, cfg, none);
    const SimTrace t_pareto = run_simulation(apsp, flows, 4, cfg, pareto);
    EXPECT_LE(t_pareto.total_cost, t_none.total_cost + 1e-6)
        << "seed=" << seed;
  }
}

TEST(SimEngine, DiurnalTrafficPeaksAtNoon) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 4);
  NoMigrationPolicy policy;
  SimConfig cfg;
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);
  // With a fixed placement, cost scales with traffic: hour 6 >= hour 0.
  EXPECT_GT(t.epochs[6].comm_cost, t.epochs[0].comm_cost);
}

TEST(SimEngine, CustomRateSchedule) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  const std::vector<VmFlow> flows{{h1, h1, 100.0}, {h2, h2, 1.0}};
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 2;
  cfg.rate_schedule = [&](Hour hour) {
    return hour == Hour{0} ? std::vector<double>{100.0, 1.0}
                           : std::vector<double>{1.0, 100.0};
  };
  const SimTrace t = run_simulation(apsp, flows, 2, cfg, policy);
  // Fig. 3: hour 0 optimal is 410; after the flip the fixed placement
  // pays 1004.
  EXPECT_DOUBLE_EQ(t.epochs[0].comm_cost, 410.0);
  EXPECT_DOUBLE_EQ(t.epochs[1].comm_cost, 1004.0);
}

TEST(SimEngine, ParetoRecoversFig3Migration) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  const std::vector<VmFlow> flows{{h1, h1, 100.0}, {h2, h2, 1.0}};
  ParetoMigrationPolicy policy(1.0);
  SimConfig cfg;
  cfg.hours = 2;
  cfg.rate_schedule = [&](Hour hour) {
    return hour == Hour{0} ? std::vector<double>{100.0, 1.0}
                           : std::vector<double>{1.0, 100.0};
  };
  const SimTrace t = run_simulation(apsp, flows, 2, cfg, policy);
  EXPECT_DOUBLE_EQ(t.epochs[1].comm_cost + t.epochs[1].migration_cost,
                   416.0);
  EXPECT_EQ(t.total_vnf_migrations, 2);
}

TEST(SimEngine, VmPoliciesMoveVmsNotVnfs) {
  // Skewed workload: under uniformly spread traffic the optimal chain
  // parks on core switches, which are equidistant from every host — then
  // no VM migration can ever help (a correct no-op). Rack skew moves the
  // chain to the busy pod and gives PLAN something to chase.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig wl;
  wl.num_pairs = 10;
  wl.rack_zipf_s = 2.5;
  Rng rng(9);
  const auto flows = generate_vm_flows(topo, wl, rng);
  VmMigrationConfig vm_cfg;
  vm_cfg.mu = 0.1;  // cheap moves so something definitely happens
  PlanPolicy plan(vm_cfg);
  SimConfig cfg;
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, plan);
  EXPECT_EQ(t.total_vnf_migrations, 0);
  EXPECT_GT(t.total_vm_migrations, 0);
}

TEST(SimEngine, RejectsBadConfig) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 0;
  const auto flows = random_flows(topo, 2, 1);
  EXPECT_THROW(run_simulation(apsp, flows, 2, cfg, policy), PpdcError);
  cfg.hours = 1;
  EXPECT_THROW(run_simulation(apsp, {}, 2, cfg, policy), PpdcError);
}

TEST(Experiment, AggregatesAcrossTrialsWithCi) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  ExperimentConfig cfg;
  cfg.trials = 5;
  cfg.workload.num_pairs = 6;
  cfg.sfc_length = 3;
  cfg.sim.hours = 6;
  NoMigrationPolicy none;
  ParetoMigrationPolicy pareto(10.0);
  const auto stats = run_experiment(topo, apsp, cfg, {&none, &pareto});
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "NoMigration");
  EXPECT_EQ(stats[1].name, "mPareto");
  for (const auto& s : stats) {
    EXPECT_GT(s.total_cost.mean, 0.0);
    EXPECT_GE(s.total_cost.ci95, 0.0);
    EXPECT_EQ(s.hourly_cost.size(), 6u);
    EXPECT_EQ(s.hourly_migrations.size(), 6u);
  }
  // Paired comparison: mPareto <= NoMigration in the mean.
  EXPECT_LE(stats[1].total_cost.mean, stats[0].total_cost.mean + 1e-6);
}

TEST(Experiment, DeterministicForSameSeed) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  ExperimentConfig cfg;
  cfg.trials = 3;
  cfg.workload.num_pairs = 5;
  cfg.sfc_length = 2;
  cfg.sim.hours = 4;
  NoMigrationPolicy a1, a2;
  const auto s1 = run_experiment(topo, apsp, cfg, {&a1});
  const auto s2 = run_experiment(topo, apsp, cfg, {&a2});
  EXPECT_DOUBLE_EQ(s1[0].total_cost.mean, s2[0].total_cost.mean);
}

TEST(Experiment, RejectsBadConfig) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  ExperimentConfig cfg;
  cfg.trials = 0;
  NoMigrationPolicy p;
  EXPECT_THROW(run_experiment(topo, apsp, cfg, {&p}), PpdcError);
  cfg.trials = 1;
  EXPECT_THROW(run_experiment(topo, apsp, cfg, {}), PpdcError);
}

}  // namespace
}  // namespace ppdc
