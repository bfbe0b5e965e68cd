#include "core/cost_model.hpp"

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"

namespace ppdc {
namespace {

/// Fig. 1 / Fig. 3 fixture: linear PPDC s1..s5, both VMs of flow 1 on h1,
/// both VMs of flow 2 on h2.
struct Fig3 {
  Topology topo = build_linear(5);
  AllPairs apsp{topo.graph};
  NodeId h1 = topo.graph.hosts()[0];
  NodeId h2 = topo.graph.hosts()[1];
  std::vector<NodeId> s = topo.graph.switches();  // s[0] = s1 .. s[4] = s5

  std::vector<VmFlow> flows(double l1, double l2) const {
    return {{h1, h1, l1}, {h2, h2, l2}};
  }
};

TEST(CostModel, Fig3InitialPlacementCosts410) {
  Fig3 f;
  const auto flows = f.flows(100.0, 1.0);
  CostModel cm(f.apsp, flows);
  // Example 1: f1 at s1, f2 at s2 gives 100*4 + 1*10 = 410.
  EXPECT_DOUBLE_EQ(cm.communication_cost({f.s[0], f.s[1]}), 410.0);
}

TEST(CostModel, Fig3AfterTrafficFlipCosts1004) {
  Fig3 f;
  const auto flows = f.flows(1.0, 100.0);
  CostModel cm(f.apsp, flows);
  EXPECT_DOUBLE_EQ(cm.communication_cost({f.s[0], f.s[1]}), 1004.0);
}

TEST(CostModel, Fig3MigratedPlacementCosts410Plus6) {
  Fig3 f;
  const auto flows = f.flows(1.0, 100.0);
  CostModel cm(f.apsp, flows);
  const Placement from{f.s[0], f.s[1]};
  const Placement to{f.s[4], f.s[3]};  // f1 -> s5, f2 -> s4
  EXPECT_DOUBLE_EQ(cm.migration_cost(from, to, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(cm.communication_cost(to), 410.0);
  EXPECT_DOUBLE_EQ(cm.total_cost(from, to, 1.0), 416.0);
}

TEST(CostModel, Eq1MatchesPerFlowSum) {
  const Topology t = build_fat_tree(4);
  const AllPairs apsp(t.graph);
  const std::vector<VmFlow> flows{{t.racks[RackIdx{0}][0], t.racks[RackIdx{2}][1], 7.0},
                                  {t.racks[RackIdx{1}][0], t.racks[RackIdx{1}][1], 3.0},
                                  {t.racks[RackIdx{3}][0], t.racks[RackIdx{0}][0], 11.0}};
  CostModel cm(apsp, flows);
  const auto& sw = t.graph.switches();
  const Placement p{sw[0], sw[5], sw[9]};
  double per_flow = 0.0;
  for (const auto& f : flows) per_flow += cm.flow_cost(f, p);
  EXPECT_NEAR(cm.communication_cost(p), per_flow, 1e-9);
}

TEST(CostModel, AttractionsMatchDefinition) {
  const Topology t = build_fat_tree(4);
  const AllPairs apsp(t.graph);
  const std::vector<VmFlow> flows{{t.racks[RackIdx{0}][0], t.racks[RackIdx{2}][1], 5.0},
                                  {t.racks[RackIdx{1}][0], t.racks[RackIdx{3}][1], 2.0}};
  CostModel cm(apsp, flows);
  for (const NodeId w : t.graph.switches()) {
    double a = 0.0, b = 0.0;
    for (const auto& f : flows) {
      a += f.rate * apsp.cost(f.src_host, w);
      b += f.rate * apsp.cost(w, f.dst_host);
    }
    EXPECT_NEAR(cm.ingress_attraction(w), a, 1e-9);
    EXPECT_NEAR(cm.egress_attraction(w), b, 1e-9);
  }
  EXPECT_DOUBLE_EQ(cm.total_rate(), 7.0);
}

TEST(CostModel, BestEndpointsMinimizeAttractions) {
  const Topology t = build_fat_tree(4);
  const AllPairs apsp(t.graph);
  const std::vector<VmFlow> flows{{t.racks[RackIdx{0}][0], t.racks[RackIdx{0}][1], 10.0}};
  CostModel cm(apsp, flows);
  for (const NodeId w : t.graph.switches()) {
    EXPECT_LE(cm.min_ingress_attraction(), cm.ingress_attraction(w));
    EXPECT_LE(cm.min_egress_attraction(), cm.egress_attraction(w));
  }
  // Both VMs are under rack switch 0, so it attracts both roles.
  EXPECT_EQ(cm.best_ingress(), t.rack_switches[RackIdx{0}]);
  EXPECT_EQ(cm.best_egress(), t.rack_switches[RackIdx{0}]);
}

TEST(CostModel, RefreshTracksRateChanges) {
  Fig3 f;
  auto flows = f.flows(100.0, 1.0);
  CostModel cm(f.apsp, flows);
  const double before = cm.communication_cost({f.s[0], f.s[1]});
  set_rates(flows, {1.0, 100.0});
  cm.refresh();
  const double after = cm.communication_cost({f.s[0], f.s[1]});
  EXPECT_DOUBLE_EQ(before, 410.0);
  EXPECT_DOUBLE_EQ(after, 1004.0);
}

TEST(CostModel, MigrationCostZeroWhenStaying) {
  Fig3 f;
  const auto flows = f.flows(1.0, 1.0);
  CostModel cm(f.apsp, flows);
  const Placement p{f.s[1], f.s[2]};
  EXPECT_DOUBLE_EQ(cm.migration_cost(p, p, 1e5), 0.0);
}

TEST(CostModel, MigrationCostScalesWithMu) {
  Fig3 f;
  const auto flows = f.flows(1.0, 1.0);
  CostModel cm(f.apsp, flows);
  const Placement from{f.s[0], f.s[1]};
  const Placement to{f.s[2], f.s[3]};
  const double c1 = cm.migration_cost(from, to, 1.0);
  EXPECT_DOUBLE_EQ(cm.migration_cost(from, to, 1e4), 1e4 * c1);
}

TEST(ValidatePlacement, RejectsBadPlacements) {
  Fig3 f;
  EXPECT_THROW(validate_placement(f.topo.graph, {}), PpdcError);
  EXPECT_THROW(validate_placement(f.topo.graph, {f.h1}), PpdcError);
  EXPECT_THROW(validate_placement(f.topo.graph, {f.s[0], f.s[0]}),
               PpdcError);
  EXPECT_NO_THROW(validate_placement(f.topo.graph, {f.s[0], f.s[1]}));
}

/// The message validate_placement throws for `p`, or "" when it accepts.
std::string placement_error(const Graph& g, const Placement& p) {
  try {
    validate_placement(g, p);
  } catch (const PpdcError& e) {
    return e.what();
  }
  return "";
}

TEST(ValidatePlacement, ShortAndLongPlacementsReportTheFirstError) {
  // A chain-length placement and one of all 125 fat-tree switches report
  // the same first error: the entry's range, then its kind, then whether
  // an earlier entry repeats it.
  const Topology topo = build_fat_tree(10);
  const Graph& g = topo.graph;
  const auto& sw = g.switches();
  ASSERT_GE(sw.size(), 100u);
  const std::string dup = "VNFs of one SFC must sit on distinct switches";
  const std::string host = "VNFs may only be placed on switches";
  const std::string range = "placement node out of range";
  const auto has = [](const std::string& what, const std::string& msg) {
    return what.find(msg) != std::string::npos;
  };
  for (const std::size_t n : {std::size_t{5}, sw.size()}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const Placement ok(sw.begin(), sw.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(placement_error(g, ok), "");
    Placement p = ok;
    p.back() = p.front();  // duplicate at the first and last positions
    EXPECT_TRUE(has(placement_error(g, p), dup));
    p = ok;
    p[n / 2] = g.hosts()[0];
    EXPECT_TRUE(has(placement_error(g, p), host));
    for (const NodeId bad : {NodeId{-1}, g.num_nodes()}) {
      p = ok;
      p[n - 1] = bad;
      EXPECT_TRUE(has(placement_error(g, p), range));
    }
    // An entry's errors come in placement order: a duplicate before a
    // host reports the duplicate, and a host before a duplicate the host.
    p = ok;
    p[1] = p[0];
    p[n - 1] = g.hosts()[0];
    EXPECT_TRUE(has(placement_error(g, p), dup));
    p = ok;
    p[1] = g.hosts()[0];
    p[n - 1] = p[0];
    EXPECT_TRUE(has(placement_error(g, p), host));
    p = ok;
    p[1] = g.num_nodes();
    p[n - 1] = p[0];
    EXPECT_TRUE(has(placement_error(g, p), range));
  }
}

TEST(CostModel, FlowCostValidatesPlacementLikeCommunicationCost) {
  // Regression: flow_cost used to skip placement validation entirely.
  Fig3 f;
  const auto flows = f.flows(2.0, 3.0);
  CostModel cm(f.apsp, flows);
  EXPECT_THROW(cm.flow_cost(flows[0], {}), PpdcError);
  EXPECT_THROW(cm.flow_cost(flows[0], {f.s[0], f.s[0]}), PpdcError);
  EXPECT_THROW(cm.flow_cost(flows[0], {f.h1}), PpdcError);
  // Valid placement: rate * (ingress hop + chain + egress hop).
  EXPECT_DOUBLE_EQ(cm.flow_cost(flows[0], {f.s[0], f.s[1]}),
                   2.0 * (1.0 + 1.0 + 2.0));
}

TEST(CostModel, SingleVnfPlacement) {
  Fig3 f;
  const auto flows = f.flows(10.0, 1.0);
  CostModel cm(f.apsp, flows);
  // With one VNF at s1: flow1 pays 10*(1+1)=20, flow2 pays 1*(5+5)=10.
  EXPECT_DOUBLE_EQ(cm.communication_cost({f.s[0]}), 30.0);
}

TEST(CostModel, ZeroRatesGiveZeroCommunicationCost) {
  Fig3 f;
  const auto flows = f.flows(0.0, 0.0);
  CostModel cm(f.apsp, flows);
  EXPECT_DOUBLE_EQ(cm.communication_cost({f.s[0], f.s[1]}), 0.0);
  EXPECT_DOUBLE_EQ(cm.total_rate(), 0.0);
}

TEST(CostModel, NegativeRateRejected) {
  Fig3 f;
  auto flows = f.flows(1.0, 1.0);
  flows[0].rate = -1.0;
  EXPECT_THROW(CostModel(f.apsp, flows), PpdcError);
}

TEST(CostModel, MismatchedMigrationSizesRejected) {
  Fig3 f;
  const auto flows = f.flows(1.0, 1.0);
  CostModel cm(f.apsp, flows);
  EXPECT_THROW(cm.migration_cost({f.s[0]}, {f.s[0], f.s[1]}, 1.0),
               PpdcError);
  EXPECT_THROW(cm.migration_cost({f.s[0]}, {f.s[1]}, -1.0), PpdcError);
}

}  // namespace
}  // namespace ppdc
