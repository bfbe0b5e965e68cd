#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/chain_search.hpp"
#include "core/cost_model.hpp"
#include "core/placement_dp.hpp"
#include "core/sharded_cost_model.hpp"
#include "fault/degraded.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/sharded.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

bool contains(const Placement& p, NodeId v) {
  return std::find(p.begin(), p.end(), v) != p.end();
}

TEST(FaultSchedule, DeterministicAndWellFormed) {
  const Topology topo = build_fat_tree(4);
  FaultScheduleConfig cfg;
  cfg.hours = 48;
  cfg.switch_mtbf = 12.0;
  cfg.link_mtbf = 24.0;
  cfg.seed = 7;
  const FaultSchedule a = generate_fault_schedule(topo.graph, cfg);
  const FaultSchedule b = generate_fault_schedule(topo.graph, cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());  // MTBF 12 over 48h on 20 switches: events fire
  Hour prev_epoch{0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_GE(a[i].epoch, Hour{1});  // epoch 0 is always fault-free
    EXPECT_GE(a[i].epoch, prev_epoch);
    prev_epoch = a[i].epoch;
  }
  // The injector accepts its own generator's output (alternation is
  // consistent by construction).
  FaultInjector injector(topo.graph, a);
  for (const Hour epoch : id_range(Hour{1}, Hour{cfg.hours})) {
    injector.advance_to(epoch);
  }
}

TEST(FaultSchedule, ZeroMtbfDisablesFaults) {
  const Topology topo = build_fat_tree(4);
  FaultScheduleConfig cfg;
  cfg.hours = 48;  // both MTBFs default to 0
  EXPECT_TRUE(generate_fault_schedule(topo.graph, cfg).empty());
}

TEST(FaultInjector, TracksDeadSetAcrossEpochs) {
  const Topology topo = build_fat_tree(4);
  const NodeId sw = topo.rack_switches[RackIdx{0}];
  // A switch-switch fabric link not touching `sw`.
  const NodeId sw2 = topo.rack_switches[RackIdx{1}];
  NodeId lu = kInvalidNode, lv = kInvalidNode;
  for (const auto& adj : topo.graph.neighbors(sw2)) {
    if (topo.graph.is_switch(adj.to)) {
      const EdgeKey key = make_edge_key(sw2, adj.to);
      lu = key.first;
      lv = key.second;
      break;
    }
  }
  ASSERT_NE(lu, kInvalidNode);

  FaultSchedule schedule{
      {Hour{1}, FaultKind::kSwitchFail, sw, kInvalidNode, kInvalidNode},
      {Hour{2}, FaultKind::kLinkFail, kInvalidNode, lu, lv},
      {Hour{3}, FaultKind::kSwitchRepair, sw, kInvalidNode, kInvalidNode},
      {Hour{4}, FaultKind::kLinkRepair, kInvalidNode, lu, lv},
  };
  FaultInjector injector(topo.graph, schedule);
  EXPECT_FALSE(injector.any_faults_active());

  EpochFaults e1 = injector.advance_to(Hour{1});
  EXPECT_EQ(e1.switch_failures, 1);
  EXPECT_TRUE(e1.topology_changed);
  EXPECT_TRUE(injector.any_faults_active());
  EXPECT_EQ(injector.dead_switch_count(), 1);
  EXPECT_EQ(injector.dead_nodes()[static_cast<std::size_t>(sw)], 1);

  EpochFaults e2 = injector.advance_to(Hour{2});
  EXPECT_EQ(e2.link_failures, 1);
  ASSERT_EQ(injector.dead_edges().size(), 1u);
  EXPECT_EQ(injector.dead_edges()[0], (EdgeKey{lu, lv}));

  // Skipping an epoch still applies its events (the repair of `sw`).
  EpochFaults e4 = injector.advance_to(Hour{4});
  EXPECT_EQ(e4.repairs, 2);
  EXPECT_TRUE(e4.topology_changed);
  EXPECT_FALSE(injector.any_faults_active());
  EXPECT_EQ(injector.dead_switch_count(), 0);
  EXPECT_TRUE(injector.dead_edges().empty());

  // Epochs must strictly increase.
  EXPECT_THROW(injector.advance_to(Hour{4}), PpdcError);
}

TEST(DegradedNetwork, MasksAndPicksLargestCore) {
  const Topology topo = build_fat_tree(4);
  const Graph& g = topo.graph;
  // Kill rack 0's ToR: its hosts become an isolated island each, and the
  // big component keeps every other switch.
  std::vector<char> dead(static_cast<std::size_t>(g.num_nodes()), 0);
  const NodeId tor = topo.rack_switches[RackIdx{0}];
  dead[static_cast<std::size_t>(tor)] = 1;
  DegradedNetwork net(g, dead, {});

  EXPECT_EQ(net.graph().num_nodes(), g.num_nodes());  // ids preserved
  EXPECT_EQ(net.graph().degree(tor), 0u);             // fully isolated
  EXPECT_FALSE(net.apsp().fully_connected());
  EXPECT_FALSE(net.in_core(tor));
  for (const NodeId h : topo.racks[RackIdx{0}]) {
    EXPECT_FALSE(net.in_core(h));
    EXPECT_FALSE(net.apsp().reachable(h, topo.racks[RackIdx{1}][0]));
    EXPECT_TRUE(std::isinf(net.apsp().cost(h, topo.racks[RackIdx{1}][0])));
  }
  // Every other switch survives in the serving core, sorted ascending.
  const auto& core = net.core_switches();
  EXPECT_EQ(core.size(), g.switches().size() - 1);
  EXPECT_TRUE(std::is_sorted(core.begin(), core.end()));
  EXPECT_FALSE(contains(core, tor));
  EXPECT_TRUE(net.in_core(topo.racks[RackIdx{1}][0]));
  EXPECT_TRUE(net.core_can_host(3));
  EXPECT_FALSE(net.core_can_host(static_cast<int>(core.size()) + 1));
}

TEST(DegradedNetwork, LinkMaskOnly) {
  const Topology topo = build_fat_tree(4);
  const Graph& g = topo.graph;
  const NodeId sw = topo.rack_switches[RackIdx{0}];
  std::vector<EdgeKey> dead_links;
  for (const auto& adj : g.neighbors(sw)) {
    if (g.is_switch(adj.to)) dead_links.push_back(make_edge_key(sw, adj.to));
  }
  ASSERT_FALSE(dead_links.empty());
  // All uplinks of rack 0's ToR die: the rack hangs off an island with its
  // alive ToR, but the core component holds more switches.
  std::vector<char> dead(static_cast<std::size_t>(g.num_nodes()), 0);
  DegradedNetwork net(g, dead, dead_links);
  EXPECT_FALSE(net.in_core(sw));  // alive but outside the serving core
  EXPECT_TRUE(net.in_core(topo.rack_switches[RackIdx{1}]));
  EXPECT_EQ(net.core_switches().size(), g.switches().size() - 1);
}

// Acceptance scenario of the issue: a switch failure that hits a placed
// VNF, a ToR failure that quarantines flows, a link failure, and repairs —
// the run completes and every fault counter is populated.
TEST(FaultSimulation, SurvivesFailuresOfPlacedSwitchAndRack) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  // Deliberate traffic in racks 0 and 1 so a ToR kill quarantines flows.
  std::vector<VmFlow> flows{
      {topo.racks[RackIdx{0}][0], topo.racks[RackIdx{0}][1], 10.0},
      {topo.racks[RackIdx{1}][0], topo.racks[RackIdx{1}][1], 50.0},
      {topo.racks[RackIdx{2}][0], topo.racks[RackIdx{3}][0], 20.0},
      {topo.racks[RackIdx{1}][1], topo.racks[RackIdx{2}][1], 5.0},
  };

  // Learn where the initial chain sits, then craft the schedule around it.
  Placement initial;
  {
    NoMigrationPolicy probe;
    SimConfig cfg;
    cfg.hours = 1;
    initial = run_simulation(apsp, flows, 3, cfg, probe).initial_placement;
  }
  ASSERT_EQ(initial.size(), 3u);

  // A ToR (every rack above carries traffic) not used by the chain.
  NodeId tor = kInvalidNode;
  for (const NodeId candidate : topo.rack_switches) {
    if (!contains(initial, candidate)) {
      tor = candidate;
      break;
    }
  }
  ASSERT_NE(tor, kInvalidNode);
  // A fabric link avoiding both planned switch victims.
  NodeId lu = kInvalidNode, lv = kInvalidNode;
  for (const NodeId u : topo.graph.switches()) {
    if (u == initial[0] || u == tor) continue;
    for (const auto& adj : topo.graph.neighbors(u)) {
      if (!topo.graph.is_switch(adj.to)) continue;
      if (adj.to == initial[0] || adj.to == tor) continue;
      const EdgeKey key = make_edge_key(u, adj.to);
      lu = key.first;
      lv = key.second;
      break;
    }
    if (lu != kInvalidNode) break;
  }
  ASSERT_NE(lu, kInvalidNode);

  SimConfig cfg;
  cfg.hours = 8;
  cfg.fault.mu = 2.0;
  cfg.fault.quarantine_penalty = 3.0;
  cfg.faults = {
      {Hour{2}, FaultKind::kSwitchFail, initial[0], kInvalidNode, kInvalidNode},
      {Hour{3}, FaultKind::kSwitchFail, tor, kInvalidNode, kInvalidNode},
      {Hour{3}, FaultKind::kLinkFail, kInvalidNode, lu, lv},
      {Hour{4}, FaultKind::kLinkRepair, kInvalidNode, lu, lv},
      {Hour{5}, FaultKind::kSwitchRepair, initial[0], kInvalidNode, kInvalidNode},
      {Hour{6}, FaultKind::kSwitchRepair, tor, kInvalidNode, kInvalidNode},
  };
  // NoMigration keeps the chain parked on initial[0] until the failure
  // hits it, so the emergency-recovery path is guaranteed to fire.
  NoMigrationPolicy policy;
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);

  ASSERT_EQ(t.epochs.size(), 8u);
  EXPECT_EQ(t.total_switch_failures, 2);
  EXPECT_EQ(t.total_link_failures, 1);
  EXPECT_EQ(t.total_repairs, 3);
  EXPECT_EQ(t.epochs[2].switch_failures, 1);
  EXPECT_EQ(t.epochs[3].link_failures, 1);
  EXPECT_EQ(t.epochs[4].repairs, 1);
  // The chain lost a switch at epoch 2: at least one emergency move.
  EXPECT_GE(t.epochs[2].recovery_migrations, 1);
  EXPECT_GE(t.total_recovery_migrations, 1);
  EXPECT_GT(t.total_recovery_cost, 0.0);
  // Rack `tor` is cut off for epochs 3..5: its flow is quarantined.
  EXPECT_GE(t.quarantined_flow_epochs, 3);
  EXPECT_GT(t.total_quarantine_penalty, 0.0);
  EXPECT_EQ(t.downtime_epochs, 0);
  EXPECT_NEAR(t.total_cost,
              t.total_comm_cost + t.total_migration_cost +
                  t.total_recovery_cost + t.total_quarantine_penalty,
              1e-9);
  // Post-repair epochs serve everything again.
  EXPECT_EQ(t.epochs[7].quarantined_flows, 0);
  EXPECT_FALSE(t.epochs[7].service_down);
}

// Migration policies keep working on a fabric degraded by a generated
// (renewal-process) schedule: the run completes and the ledger adds up.
TEST(FaultSimulation, ParetoPolicySurvivesGeneratedSchedule) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 17);
  FaultScheduleConfig fcfg;
  fcfg.hours = 24;
  fcfg.switch_mtbf = 20.0;
  fcfg.switch_mttr = 2.0;
  fcfg.link_mtbf = 30.0;
  fcfg.seed = 4;
  SimConfig cfg;
  cfg.hours = 24;
  cfg.faults = generate_fault_schedule(topo.graph, fcfg);
  ASSERT_FALSE(cfg.faults.empty());
  cfg.fault.mu = 5.0;
  cfg.fault.quarantine_penalty = 1.0;
  ParetoMigrationPolicy policy(10.0);
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);
  ASSERT_EQ(t.epochs.size(), 24u);
  EXPECT_GT(t.total_switch_failures + t.total_link_failures, 0);
  EXPECT_NEAR(t.total_cost,
              t.total_comm_cost + t.total_migration_cost +
                  t.total_recovery_cost + t.total_quarantine_penalty,
              1e-9);
}

TEST(FaultSimulation, EmptyScheduleIsBitIdenticalToPristineRun) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 11);
  NoMigrationPolicy a, b;
  SimConfig plain;
  plain.hours = 10;
  SimConfig faulty = plain;  // empty schedule; knobs set but never consulted
  faulty.fault.mu = 123.0;
  faulty.fault.quarantine_penalty = 9.0;
  const SimTrace ta = run_simulation(apsp, flows, 3, plain, a);
  const SimTrace tb = run_simulation(apsp, flows, 3, faulty, b);
  ASSERT_EQ(ta.epochs.size(), tb.epochs.size());
  for (std::size_t h = 0; h < ta.epochs.size(); ++h) {
    EXPECT_EQ(ta.epochs[h].comm_cost, tb.epochs[h].comm_cost) << "h=" << h;
    EXPECT_EQ(ta.epochs[h].quarantined_flows, 0);
  }
  EXPECT_EQ(ta.total_cost, tb.total_cost);
  EXPECT_EQ(tb.total_switch_failures, 0);
  EXPECT_EQ(tb.total_recovery_migrations, 0);
  EXPECT_EQ(tb.downtime_epochs, 0);
}

// A live flow with a zero base rate is still a flow: cut off from the
// core, it counts as quarantined (only vacant slots are skipped). Both
// entry points agree, on one shard and on the pod shards.
TEST(FaultSimulation, ZeroRateStrandedFlowIsQuarantined) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& rack0 = topo.racks[RackIdx{0}];
  const auto& rack3 = topo.racks[RackIdx{3}];
  const std::vector<VmFlow> flows{{rack0[0], rack0[1], 0.0, 0},
                                  {rack0[1], rack0[0], 10.0, 0},
                                  {rack3[0], rack3[1], 10.0, 1}};
  const NodeId tor = topo.rack_switches[RackIdx{0}];
  SimConfig cfg;
  cfg.hours = 4;
  cfg.faults = {{Hour{1}, FaultKind::kSwitchFail, tor, kInvalidNode,
                 kInvalidNode},
                {Hour{3}, FaultKind::kSwitchRepair, tor, kInvalidNode,
                 kInvalidNode}};
  cfg.fault.quarantine_penalty = 2.0;

  const auto expect_both_rack0_flows_quarantined = [](const SimTrace& t) {
    ASSERT_EQ(t.epochs.size(), 4u);
    EXPECT_EQ(t.epochs[0].quarantined_flows, 0);
    EXPECT_EQ(t.epochs[1].quarantined_flows, 2);
    EXPECT_EQ(t.epochs[2].quarantined_flows, 2);
    EXPECT_EQ(t.epochs[3].quarantined_flows, 0);
    EXPECT_EQ(t.quarantined_flow_epochs, 4);
  };
  NoMigrationPolicy policy;
  expect_both_rack0_flows_quarantined(
      run_simulation(apsp, flows, 3, cfg, policy));

  const ShardMap map = ShardMap::by_ingress_pod(topo);
  StreamingWorkload workload(flows);
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  expect_both_rack0_flows_quarantined(
      run_sharded_simulation(apsp, map, workload, 3, cfg, sharded, policy));
}

/// Counts, at every on_quarantine, the live flows of `workload` with an
/// endpoint among `cut_hosts`: exactly the flows the engine must
/// quarantine when those hosts lose their ToR switch.
class CutFlowProbe final : public EpochObserver {
 public:
  CutFlowProbe(const StreamingWorkload& workload,
               std::vector<NodeId> cut_hosts)
      : workload_(&workload), cut_hosts_(std::move(cut_hosts)) {}

  void on_quarantine(Hour /*hour*/, int flows, double /*unserved*/,
                     double /*penalty*/) override {
    const auto& all = workload_->flows();
    std::vector<char> vacant(all.size(), 0);
    for (const FlowId g : workload_->free_slots()) {
      vacant[static_cast<std::size_t>(g.value())] = 1;
    }
    const auto cut = [&](NodeId h) {
      return std::find(cut_hosts_.begin(), cut_hosts_.end(), h) !=
             cut_hosts_.end();
    };
    int live_cut = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!cut(all[i].src_host) && !cut(all[i].dst_host)) continue;
      if (vacant[i] != 0) {
        ++departed_cut;
      } else {
        ++live_cut;
      }
    }
    EXPECT_EQ(flows, live_cut);
    ++epochs;
  }

  int epochs = 0;
  int departed_cut = 0;  ///< departed slots touching the cut hosts

 private:
  const StreamingWorkload* workload_;
  std::vector<NodeId> cut_hosts_;
};

// Departed slots hold no flow: under churn that frees more slots than it
// refills, quarantine counts only the live flows cut off from the core.
TEST(FaultSimulation, DepartedFlowsAreNotQuarantined) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  VmPlacementConfig wl;
  wl.num_pairs = 60;
  StreamingChurnConfig churn;
  churn.departure_prob = 0.3;
  StreamingWorkload workload(topo, wl, churn, Rng(3));
  SimConfig cfg;
  cfg.hours = 5;
  cfg.faults = {{Hour{1}, FaultKind::kSwitchFail,
                 topo.rack_switches[RackIdx{0}], kInvalidNode,
                 kInvalidNode}};
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.churn = churn;
  CutFlowProbe probe(workload, topo.racks[RackIdx{0}]);
  NoMigrationPolicy policy;
  const SimTrace t = run_sharded_simulation(apsp, map, workload, 3, cfg,
                                            sharded, policy, &probe);
  EXPECT_EQ(t.downtime_epochs, 0);
  EXPECT_EQ(probe.epochs, 4);
  EXPECT_GT(probe.departed_cut, 0);
}

// After every fault is repaired the engine resyncs the incremental
// group-refresh bases: epochs past the heal must match the fault-free run
// exactly (same placement under NoMigration, same diurnal rates).
TEST(FaultSimulation, HealedFabricMatchesPristineEpochsExactly) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 3);
  Placement initial;
  {
    NoMigrationPolicy probe;
    SimConfig cfg;
    cfg.hours = 1;
    initial = run_simulation(apsp, flows, 3, cfg, probe).initial_placement;
  }
  // A non-ToR fabric switch the chain does not use: killing it disconnects
  // nothing (fat-tree path redundancy), so no flow is quarantined and no
  // recovery fires — only the metric degrades for two epochs.
  NodeId victim = kInvalidNode;
  for (const NodeId s : topo.graph.switches()) {
    const bool is_tor = std::find(topo.rack_switches.begin(),
                                  topo.rack_switches.end(),
                                  s) != topo.rack_switches.end();
    if (!is_tor && !contains(initial, s)) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  NoMigrationPolicy a, b;
  SimConfig plain;
  plain.hours = 8;
  SimConfig faulty = plain;
  faulty.faults = {
      {Hour{2}, FaultKind::kSwitchFail, victim, kInvalidNode, kInvalidNode},
      {Hour{4}, FaultKind::kSwitchRepair, victim, kInvalidNode, kInvalidNode},
  };
  const SimTrace ta = run_simulation(apsp, flows, 3, plain, a);
  const SimTrace tb = run_simulation(apsp, flows, 3, faulty, b);
  ASSERT_EQ(tb.epochs.size(), 8u);
  EXPECT_EQ(tb.total_recovery_migrations, 0);
  EXPECT_EQ(tb.quarantined_flow_epochs, 0);
  for (std::size_t h = 0; h < 2; ++h) {
    EXPECT_EQ(ta.epochs[h].comm_cost, tb.epochs[h].comm_cost) << "h=" << h;
  }
  for (std::size_t h = 4; h < 8; ++h) {
    // Bit-identical: the healed path recombines the same base vectors.
    EXPECT_EQ(ta.epochs[h].comm_cost, tb.epochs[h].comm_cost) << "h=" << h;
  }
}

// Satellite contract: a mean in (0,1) would demand a per-epoch
// probability above 1. The generator must fail fast with a PpdcError
// naming the offending field — silent clamping would quietly change the
// fault intensity of a study.
TEST(FaultSchedule, SubEpochMeansAreRejectedByName) {
  const Topology topo = build_fat_tree(4);
  const std::vector<std::pair<std::string,
                              std::function<void(FaultScheduleConfig&)>>>
      cases{
          {"switch_mtbf", [](FaultScheduleConfig& c) { c.switch_mtbf = 0.5; }},
          {"switch_mttr", [](FaultScheduleConfig& c) {
             c.switch_mtbf = 4.0;
             c.switch_mttr = 0.25;
           }},
          {"link_mtbf", [](FaultScheduleConfig& c) { c.link_mtbf = 0.9; }},
          {"link_mttr", [](FaultScheduleConfig& c) {
             c.link_mtbf = 4.0;
             c.link_mttr = 0.1;
           }},
          {"domain_mtbf", [](FaultScheduleConfig& c) { c.domain_mtbf = 0.3; }},
          {"domain_mttr", [](FaultScheduleConfig& c) {
             c.domain_mtbf = 4.0;
             c.domain_mttr = 0.7;
           }},
          {"flap_mtbf", [](FaultScheduleConfig& c) { c.flap_mtbf = 0.5; }},
      };
  for (const auto& [field, mutate] : cases) {
    FaultScheduleConfig cfg;
    cfg.hours = 8;
    mutate(cfg);
    try {
      generate_fault_schedule(topo, cfg);
      ADD_FAILURE() << field << " in (0,1) was accepted";
    } catch (const PpdcError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << " not named in: " << e.what();
    }
    // Negative means are rejected the same way.
    FaultScheduleConfig neg;
    neg.hours = 8;
    mutate(neg);
    EXPECT_THROW(generate_fault_schedule(topo, neg), PpdcError);
  }
}

// A pod-scale power outage must take the whole domain down in one epoch
// and bring the whole domain back in one epoch — never a partial pod.
// With only the domain process enabled, every switch event belongs to a
// domain cycle, so the per-epoch event groups must be exact domain sets.
TEST(FaultSchedule, PodOutagesAreDomainCompleteAndEpochConsistent) {
  const Topology topo = build_fat_tree(4);
  ASSERT_EQ(topo.power_domains.size(), 4u);  // one domain per pod
  std::map<NodeId, std::size_t> domain_of;
  for (std::size_t d = 0; d < topo.power_domains.size(); ++d) {
    for (const NodeId s : topo.power_domains[d].switches) {
      domain_of[s] = d;
    }
  }

  FaultScheduleConfig cfg;
  cfg.hours = 96;
  cfg.domain_mtbf = 12.0;
  cfg.domain_mttr = 3.0;
  cfg.seed = 11;
  const FaultSchedule schedule = generate_fault_schedule(topo, cfg);
  ASSERT_FALSE(schedule.empty());

  // Group the switch events per (epoch, domain) and demand completeness.
  std::map<std::pair<int, std::size_t>, std::set<NodeId>> fails, repairs;
  for (const FaultEvent& e : schedule) {
    ASSERT_TRUE(e.kind == FaultKind::kSwitchFail ||
                e.kind == FaultKind::kSwitchRepair);
    ASSERT_TRUE(domain_of.count(e.node));
    const auto key = std::make_pair(static_cast<int>(e.epoch.value()),
                                    domain_of.at(e.node));
    if (e.kind == FaultKind::kSwitchFail) {
      EXPECT_EQ(e.cause, FaultCause::kDomainOutage);
      fails[key].insert(e.node);
    } else {
      repairs[key].insert(e.node);
    }
  }
  ASSERT_FALSE(fails.empty());
  for (const auto& [key, members] : fails) {
    const auto& domain = topo.power_domains[key.second].switches;
    EXPECT_EQ(members.size(), domain.size())
        << "partial outage of " << topo.power_domains[key.second].name
        << " at epoch " << key.first;
  }
  for (const auto& [key, members] : repairs) {
    const auto& domain = topo.power_domains[key.second].switches;
    EXPECT_EQ(members.size(), domain.size())
        << "partial repair of " << topo.power_domains[key.second].name
        << " at epoch " << key.first;
  }

  // The injector accepts the whole correlated timeline.
  FaultInjector injector(topo.graph, schedule);
  for (const Hour epoch : id_range(Hour{1}, Hour{cfg.hours})) {
    injector.advance_to(epoch);
  }
  EXPECT_LE(injector.dead_switch_count(),
            static_cast<int>(topo.graph.switches().size()));
}

// Gray links: flap bursts toggle fail/repair every epoch, always starting
// with a failure, never double-failing — the injector replay is the
// legality oracle, the per-link scan the alternation check.
TEST(FaultSchedule, FlappingLinksAlternateLegallyThroughInjector) {
  const Topology topo = build_fat_tree(4);
  FaultScheduleConfig cfg;
  cfg.hours = 96;
  cfg.flap_mtbf = 8.0;
  cfg.flap_cycles = 2;
  cfg.seed = 5;
  // The flap process is link-level and available on the Graph overload.
  const FaultSchedule schedule = generate_fault_schedule(topo.graph, cfg);
  ASSERT_FALSE(schedule.empty());
  bool saw_flap = false;
  std::map<EdgeKey, bool> down;  // per-link state oracle
  std::map<EdgeKey, Hour> last_epoch;
  for (const FaultEvent& e : schedule) {
    ASSERT_TRUE(e.kind == FaultKind::kLinkFail ||
                e.kind == FaultKind::kLinkRepair);
    if (e.cause == FaultCause::kFlap) saw_flap = true;
    const EdgeKey key{e.u, e.v};
    const bool fail = e.kind == FaultKind::kLinkFail;
    EXPECT_NE(down[key], fail) << "illegal alternation on link " << e.u
                               << "-" << e.v << " at epoch "
                               << e.epoch.value();
    down[key] = fail;
    // Mid-burst toggles are one epoch apart.
    if (last_epoch.count(key) && e.cause == FaultCause::kFlap &&
        !fail) {
      EXPECT_EQ(e.epoch.value(), last_epoch[key].value() + 1)
          << "flap repair not adjacent to its failure";
    }
    last_epoch[key] = e.epoch;
  }
  EXPECT_TRUE(saw_flap);
  FaultInjector injector(topo.graph, schedule);
  for (const Hour epoch : id_range(Hour{1}, Hour{cfg.hours})) {
    injector.advance_to(epoch);
  }
}

// Back-compat: with every domain knob at its default, the Topology
// overload must reproduce the Graph overload bit for bit (no extra RNG
// draws, same event order, same causes).
TEST(FaultSchedule, TopologyOverloadDefaultsMatchGraphOverload) {
  const Topology topo = build_fat_tree(4);
  FaultScheduleConfig cfg;
  cfg.hours = 48;
  cfg.switch_mtbf = 12.0;
  cfg.switch_mttr = 2.0;
  cfg.link_mtbf = 24.0;
  cfg.link_mttr = 2.0;
  cfg.seed = 7;
  const FaultSchedule a = generate_fault_schedule(topo.graph, cfg);
  const FaultSchedule b = generate_fault_schedule(topo, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_EQ(a[i].cause, b[i].cause);
  }
}

// The Graph overload cannot honor domain-level knobs (it has no
// PowerDomain metadata) and must say so instead of silently ignoring
// them; maintenance windows validate their domain names and shape.
TEST(FaultSchedule, DomainKnobsRequireTopologyAndValidate) {
  const Topology topo = build_fat_tree(4);
  FaultScheduleConfig cfg;
  cfg.hours = 24;
  cfg.domain_mtbf = 8.0;
  EXPECT_THROW(generate_fault_schedule(topo.graph, cfg), PpdcError);
  cfg.domain_mtbf = 0.0;
  cfg.cascade_prob = 0.5;
  EXPECT_THROW(generate_fault_schedule(topo.graph, cfg), PpdcError);
  cfg.cascade_prob = 0.0;
  cfg.maintenance = {{"pod0", Hour{2}, Hour{4}}};
  EXPECT_THROW(generate_fault_schedule(topo.graph, cfg), PpdcError);
  // Unknown domain name / inverted window / epoch-0 start are rejected.
  cfg.maintenance = {{"podX", Hour{2}, Hour{4}}};
  EXPECT_THROW(generate_fault_schedule(topo, cfg), PpdcError);
  cfg.maintenance = {{"pod0", Hour{4}, Hour{2}}};
  EXPECT_THROW(generate_fault_schedule(topo, cfg), PpdcError);
  cfg.maintenance = {{"pod0", Hour{0}, Hour{2}}};
  EXPECT_THROW(generate_fault_schedule(topo, cfg), PpdcError);
  // A well-formed drain fails the whole pod at start and repairs at end.
  cfg.maintenance = {{"pod0", Hour{2}, Hour{4}}};
  const FaultSchedule s = generate_fault_schedule(topo, cfg);
  const std::size_t pod_size = topo.power_domains[0].switches.size();
  ASSERT_EQ(s.size(), 2 * pod_size);
  for (std::size_t i = 0; i < pod_size; ++i) {
    EXPECT_EQ(s[i].epoch, Hour{2});
    EXPECT_EQ(s[i].kind, FaultKind::kSwitchFail);
    EXPECT_EQ(s[i].cause, FaultCause::kMaintenance);
  }
  for (std::size_t i = pod_size; i < 2 * pod_size; ++i) {
    EXPECT_EQ(s[i].epoch, Hour{4});
    EXPECT_EQ(s[i].kind, FaultKind::kSwitchRepair);
  }
}

TEST(NodeBudget, ExhaustivePolicyDegradesGracefullyUnderTinyBudget) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 6);
  SimConfig cfg;
  cfg.hours = 6;
  NoMigrationPolicy none;
  ChainSearchConfig tiny;
  tiny.node_budget = 1;
  ExhaustiveMigrationPolicy truncated(10.0, tiny);
  const SimTrace t_none = run_simulation(apsp, flows, 3, cfg, none);
  const SimTrace t_trunc = run_simulation(apsp, flows, 3, cfg, truncated);
  // Fallback keeps the cheaper of the truncated search and mPareto, both
  // warm-started at "stay put" — never worse than doing nothing.
  EXPECT_LE(t_trunc.total_cost, t_none.total_cost + 1e-6);
}

}  // namespace
}  // namespace ppdc
