// EpochObserver contract (DESIGN.md §9): an external observer attached to
// run_simulation must see the exact event stream the engine's own
// TraceRecorder turns into the returned SimTrace — same epoch boundaries,
// same fault/recovery/quarantine/truncation totals, in order.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

/// Logs every callback so tests can replay the stream against the trace.
class EventLog final : public EpochObserver {
 public:
  void on_run_begin(Hour horizon, const Placement& initial) override {
    ++run_begins;
    seen_horizon = horizon;
    seen_initial = initial;
  }
  void on_epoch_begin(Hour hour) override { begins.push_back(hour); }
  void on_faults(Hour hour, const EpochFaults& events) override {
    fault_hours.push_back(hour);
    switch_failures += events.switch_failures;
    link_failures += events.link_failures;
    repairs += events.repairs;
  }
  void on_quarantine(Hour /*hour*/, int flows, double unserved_rate,
                     double penalty) override {
    quarantined_flows += flows;
    EXPECT_GT(flows, 0);
    EXPECT_GE(unserved_rate, 0.0);
    quarantine_penalty += penalty;
  }
  void on_blackout(Hour /*hour*/) override { ++blackouts; }
  void on_recovery(Hour /*hour*/, int migrations, double cost) override {
    EXPECT_GT(migrations, 0);
    recovery_migrations += migrations;
    recovery_cost += cost;
  }
  void on_budget_truncation(Hour /*hour*/, int truncated_solves) override {
    EXPECT_GT(truncated_solves, 0);
    truncations += truncated_solves;
  }
  void on_epoch_end(Hour hour, const EpochDecision& d) override {
    ends.push_back(hour);
    comm_cost += d.comm_cost;
    migration_cost += d.migration_cost;
  }
  void on_run_end() override { ++run_ends; }

  int run_begins = 0, run_ends = 0;
  Hour seen_horizon{0};
  Placement seen_initial;
  std::vector<Hour> begins, ends, fault_hours;
  int switch_failures = 0, link_failures = 0, repairs = 0;
  int quarantined_flows = 0, recovery_migrations = 0;
  int blackouts = 0, truncations = 0;
  double quarantine_penalty = 0.0, recovery_cost = 0.0, comm_cost = 0.0,
         migration_cost = 0.0;
};

TEST(EpochObserver, StreamMatchesTraceOnFaultyRun) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 7);

  SimConfig cfg;
  cfg.hours = 24;
  FaultScheduleConfig fcfg;
  fcfg.hours = cfg.hours;
  fcfg.switch_mtbf = 12.0;
  fcfg.switch_mttr = 2.0;
  fcfg.link_mtbf = 24.0;
  fcfg.link_mttr = 2.0;
  fcfg.seed = 7;
  cfg.faults = generate_fault_schedule(topo.graph, fcfg);
  cfg.fault.quarantine_penalty = 50.0;

  ParetoMigrationPolicy policy(1e4);
  EventLog log;
  const SimTrace trace = run_simulation(apsp, flows, 3, cfg, policy, &log);

  // Run framing.
  EXPECT_EQ(log.run_begins, 1);
  EXPECT_EQ(log.run_ends, 1);
  EXPECT_EQ(log.seen_horizon, Hour{cfg.hours});
  EXPECT_EQ(log.seen_initial, trace.initial_placement);

  // One begin/end pair per epoch, hours strictly in order.
  ASSERT_EQ(log.begins.size(), static_cast<std::size_t>(cfg.hours));
  ASSERT_EQ(log.ends.size(), trace.epochs.size());
  for (int h = 0; h < cfg.hours; ++h) {
    EXPECT_EQ(log.begins[static_cast<std::size_t>(h)], Hour{h});
    EXPECT_EQ(log.ends[static_cast<std::size_t>(h)], Hour{h});
  }

  // The external sink accumulates the same totals as the TraceRecorder.
  EXPECT_EQ(log.switch_failures, trace.total_switch_failures);
  EXPECT_EQ(log.link_failures, trace.total_link_failures);
  EXPECT_EQ(log.repairs, trace.total_repairs);
  EXPECT_EQ(log.recovery_migrations, trace.total_recovery_migrations);
  EXPECT_DOUBLE_EQ(log.recovery_cost, trace.total_recovery_cost);
  EXPECT_EQ(log.quarantined_flows, trace.quarantined_flow_epochs);
  EXPECT_DOUBLE_EQ(log.quarantine_penalty, trace.total_quarantine_penalty);
  EXPECT_EQ(log.blackouts, trace.downtime_epochs);
  EXPECT_EQ(log.truncations, trace.total_truncated_solves);
  EXPECT_DOUBLE_EQ(log.comm_cost, trace.total_comm_cost);
  EXPECT_DOUBLE_EQ(log.migration_cost, trace.total_migration_cost);

  // The schedule is dense enough that the fault path actually ran.
  EXPECT_GT(log.switch_failures + log.link_failures, 0);
  EXPECT_GT(log.recovery_migrations + log.quarantined_flows, 0);
}

TEST(EpochObserver, PristineRunEmitsNoFaultEvents) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 3);
  SimConfig cfg;
  cfg.hours = 6;
  NoMigrationPolicy policy;
  EventLog log;
  const SimTrace trace = run_simulation(apsp, flows, 3, cfg, policy, &log);
  EXPECT_EQ(log.fault_hours.size(), 0u);
  EXPECT_EQ(log.switch_failures + log.link_failures + log.repairs, 0);
  EXPECT_EQ(log.quarantined_flows, 0);
  EXPECT_EQ(log.recovery_migrations, 0);
  EXPECT_EQ(log.blackouts, 0);
  EXPECT_EQ(log.truncations, 0);
  EXPECT_DOUBLE_EQ(log.comm_cost, trace.total_comm_cost);
}

TEST(EpochObserver, BudgetTruncationSurfacesThroughStreamAndTrace) {
  // An exhaustive policy with a 1-node search budget can never prove
  // optimality: every decision epoch is a truncated solve.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 5);
  SimConfig cfg;
  cfg.hours = 4;
  ChainSearchConfig search;
  search.node_budget = 1;
  ExhaustiveMigrationPolicy policy(1e4, search);
  EventLog log;
  const SimTrace trace = run_simulation(apsp, flows, 3, cfg, policy, &log);
  EXPECT_GT(trace.total_truncated_solves, 0);
  EXPECT_EQ(log.truncations, trace.total_truncated_solves);
  double from_epochs = 0;
  for (const auto& e : trace.epochs) from_epochs += e.truncated_solves;
  EXPECT_EQ(static_cast<double>(trace.total_truncated_solves), from_epochs);
}

TEST(EpochObserver, TraceRecorderStandaloneMatchesEngineTrace) {
  // TraceRecorder is public: replaying the engine's stream into a second
  // recorder must reproduce the returned trace (SimTrace is *defined* by
  // the stream).
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 6, 9);
  SimConfig cfg;
  cfg.hours = 8;
  ParetoMigrationPolicy policy(1e4);
  TraceRecorder external;
  const SimTrace trace = run_simulation(apsp, flows, 3, cfg, policy, &external);
  const SimTrace replayed = external.take();
  EXPECT_EQ(replayed.epochs.size(), trace.epochs.size());
  EXPECT_EQ(replayed.initial_placement, trace.initial_placement);
  EXPECT_DOUBLE_EQ(replayed.total_cost, trace.total_cost);
  EXPECT_DOUBLE_EQ(replayed.total_comm_cost, trace.total_comm_cost);
  EXPECT_DOUBLE_EQ(replayed.total_migration_cost, trace.total_migration_cost);
  EXPECT_EQ(replayed.total_vnf_migrations, trace.total_vnf_migrations);
}

}  // namespace
}  // namespace ppdc
