#include "flow/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace ppdc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sum of the chosen arc costs, in VM order.
double assignment_cost(const AssignmentArcs& arcs, const Assignment& a) {
  double cost = 0.0;
  for (const int arc : a.arc) {
    cost += arcs.cost[static_cast<std::size_t>(arc)];
  }
  return cost;
}

/// Chosen host per VM.
std::vector<int> hosts_of(const AssignmentArcs& arcs, const Assignment& a) {
  std::vector<int> out;
  for (const int arc : a.arc) {
    out.push_back(arcs.host[static_cast<std::size_t>(arc)]);
  }
  return out;
}

TEST(Assignment, TwoByTwo) {
  // 2 VMs x 2 hosts of capacity 1; optimal assignment cost 1 + 2 = 3.
  AssignmentArcs arcs;
  arcs.add(0, 1.0);
  arcs.add(1, 4.0);
  arcs.end_vm();
  arcs.add(0, 3.0);
  arcs.add(1, 2.0);
  arcs.end_vm();
  const Assignment a = solve_assignment(arcs, {1, 1});
  EXPECT_EQ(hosts_of(arcs, a), (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(assignment_cost(arcs, a), 3.0);
}

TEST(Assignment, NeedsSuboptimalLocalChoice) {
  // The greedy start puts VM 0 on host 0 at cost 1 and leaves VM 1 in
  // excess (host 1 would cost it 10); the optimum crosses: 2 + 2 = 4.
  AssignmentArcs arcs;
  arcs.add(0, 1.0);
  arcs.add(1, 2.0);
  arcs.end_vm();
  arcs.add(0, 2.0);
  arcs.add(1, 10.0);
  arcs.end_vm();
  const Assignment a = solve_assignment(arcs, {1, 1});
  EXPECT_EQ(hosts_of(arcs, a), (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(assignment_cost(arcs, a), 4.0);
}

TEST(Assignment, UnboundedCapacityTakesFirstCheapestArc) {
  // With room everywhere the greedy start is the answer: every VM on its
  // first arc of least cost (the MCF baseline lists the current host
  // first, so it wins an exact tie).
  AssignmentArcs arcs;
  arcs.add(2, 5.0);
  arcs.add(0, 5.0);
  arcs.add(1, 6.0);
  arcs.end_vm();
  arcs.add(1, 3.0);
  arcs.add(2, 1.0);
  arcs.add(0, 1.0);
  arcs.end_vm();
  arcs.add(0, 0.0);
  arcs.end_vm();
  const int unbounded = std::numeric_limits<int>::max();
  const Assignment a =
      solve_assignment(arcs, {unbounded, unbounded, unbounded});
  EXPECT_EQ(a.arc, (std::vector<int>{0, 4, 6}));
}

TEST(Assignment, RejectsBadInputs) {
  {
    AssignmentArcs arcs;
    arcs.end_vm();  // a VM without an arc
    EXPECT_THROW(solve_assignment(arcs, {1}), PpdcError);
  }
  {
    AssignmentArcs arcs;
    arcs.add(3, 1.0);
    arcs.end_vm();
    EXPECT_THROW(solve_assignment(arcs, {1}), PpdcError);
  }
  {
    AssignmentArcs arcs;
    arcs.add(0, kInf);
    arcs.end_vm();
    EXPECT_THROW(solve_assignment(arcs, {1}), PpdcError);
  }
  {
    // Three VMs, room for two.
    AssignmentArcs arcs;
    for (int v = 0; v < 3; ++v) {
      arcs.add(0, 1.0);
      arcs.add(1, 2.0);
      arcs.end_vm();
    }
    EXPECT_THROW(solve_assignment(arcs, {1, 1}), PpdcError);
  }
  EXPECT_EQ(solve_assignment(AssignmentArcs{}, {}).arc.size(), 0U);
}

// ---------------------------------------------------------------------------
// Reference: successive shortest paths on the general network with one full
// Dijkstra (every node labelled) per augmentation. An independent
// implementation for the differential test below; its integer costs need
// neither the production solver's tolerances nor its clamp.
// ---------------------------------------------------------------------------
class RefMinCostFlow {
 public:
  struct Result {
    std::int64_t flow = 0;
    double cost = 0.0;
  };

  explicit RefMinCostFlow(int n)
      : n_(n), graph_(static_cast<std::size_t>(n)) {}

  void add_arc(int u, int v, std::int64_t cap, double cost) {
    auto& fu = graph_[static_cast<std::size_t>(u)];
    auto& fv = graph_[static_cast<std::size_t>(v)];
    fu.push_back(Arc{v, cap, cost, static_cast<int>(fv.size())});
    fv.push_back(Arc{u, 0, -cost, static_cast<int>(fu.size()) - 1});
  }

  /// Max flow at min cost; arc costs must be non-negative.
  Result solve(int source, int sink) {
    const auto n = static_cast<std::size_t>(n_);
    std::vector<double> potential(n, 0.0);
    Result result;
    std::vector<double> dist(n);
    std::vector<int> prev_node(n);
    std::vector<int> prev_arc(n);
    while (true) {
      std::fill(dist.begin(), dist.end(), kInf);
      dist[static_cast<std::size_t>(source)] = 0.0;
      using Item = std::pair<double, int>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
      pq.emplace(0.0, source);
      while (!pq.empty()) {
        const auto [du, u] = pq.top();
        pq.pop();
        if (du > dist[static_cast<std::size_t>(u)]) continue;
        const auto& arcs = graph_[static_cast<std::size_t>(u)];
        for (int i = 0; i < static_cast<int>(arcs.size()); ++i) {
          const Arc& a = arcs[static_cast<std::size_t>(i)];
          if (a.cap <= 0) continue;
          const double reduced =
              du + a.cost + potential[static_cast<std::size_t>(u)] -
              potential[static_cast<std::size_t>(a.to)];
          if (reduced < dist[static_cast<std::size_t>(a.to)]) {
            dist[static_cast<std::size_t>(a.to)] = reduced;
            prev_node[static_cast<std::size_t>(a.to)] = u;
            prev_arc[static_cast<std::size_t>(a.to)] = i;
            pq.emplace(reduced, a.to);
          }
        }
      }
      if (dist[static_cast<std::size_t>(sink)] == kInf) break;
      for (std::size_t v = 0; v < n; ++v) {
        if (dist[v] != kInf) potential[v] += dist[v];
      }
      std::int64_t push = std::numeric_limits<std::int64_t>::max();
      for (int v = sink; v != source;
           v = prev_node[static_cast<std::size_t>(v)]) {
        push = std::min(push, arc_into(v, prev_node, prev_arc).cap);
      }
      for (int v = sink; v != source;
           v = prev_node[static_cast<std::size_t>(v)]) {
        Arc& a = arc_into(v, prev_node, prev_arc);
        a.cap -= push;
        graph_[static_cast<std::size_t>(a.to)][static_cast<std::size_t>(a.rev)]
            .cap += push;
        result.cost += a.cost * static_cast<double>(push);
      }
      result.flow += push;
    }
    return result;
  }

 private:
  struct Arc {
    int to;
    std::int64_t cap;
    double cost;
    int rev;
  };

  Arc& arc_into(int v, const std::vector<int>& prev_node,
                const std::vector<int>& prev_arc) {
    const auto vi = static_cast<std::size_t>(v);
    return graph_[static_cast<std::size_t>(prev_node[vi])]
                 [static_cast<std::size_t>(prev_arc[vi])];
  }

  int n_;
  std::vector<std::vector<Arc>> graph_;
};

/// The assignment as the general network: source 0, sink 1, VMs from 2,
/// then hosts; unit VM supply, one unit per arc, host capacity to the sink.
RefMinCostFlow::Result reference_optimum(const AssignmentArcs& arcs,
                                         const std::vector<int>& capacity) {
  const int nv = arcs.num_vms();
  const int nh = static_cast<int>(capacity.size());
  RefMinCostFlow ref(2 + nv + nh);
  for (int v = 0; v < nv; ++v) {
    ref.add_arc(0, 2 + v, 1, 0.0);
    for (int a = arcs.begin[static_cast<std::size_t>(v)];
         a < arcs.begin[static_cast<std::size_t>(v) + 1]; ++a) {
      ref.add_arc(2 + v, 2 + nv + arcs.host[static_cast<std::size_t>(a)], 1,
                  arcs.cost[static_cast<std::size_t>(a)]);
    }
  }
  for (int h = 0; h < nh; ++h) {
    ref.add_arc(2 + nv + h, 1, capacity[static_cast<std::size_t>(h)], 0.0);
  }
  return ref.solve(0, 1);
}

/// Feasibility and the dual certificate of an assignment: every chosen
/// arc is the VM's own and tight, every arc has reduced cost >= 0, no
/// host is over capacity, a host with room has π >= π(sink) = 0 and a
/// host in use π <= 0. Together they prove the assignment optimal.
void expect_certified(const AssignmentArcs& arcs,
                      const std::vector<int>& capacity, const Assignment& a,
                      int instance) {
  constexpr double kTol = 1e-9;
  const int nv = arcs.num_vms();
  ASSERT_EQ(static_cast<int>(a.arc.size()), nv);
  ASSERT_EQ(a.vm_potential.size(), a.arc.size());
  ASSERT_EQ(a.host_potential.size(), capacity.size());
  std::vector<int> load(capacity.size(), 0);
  for (int v = 0; v < nv; ++v) {
    const int first = arcs.begin[static_cast<std::size_t>(v)];
    const int end = arcs.begin[static_cast<std::size_t>(v) + 1];
    const int chosen = a.arc[static_cast<std::size_t>(v)];
    ASSERT_TRUE(chosen >= first && chosen < end)
        << "instance " << instance << " vm " << v;
    ++load[static_cast<std::size_t>(
        arcs.host[static_cast<std::size_t>(chosen)])];
    for (int arc = first; arc < end; ++arc) {
      const auto i = static_cast<std::size_t>(arc);
      const double reduced =
          arcs.cost[i] + a.vm_potential[static_cast<std::size_t>(v)] -
          a.host_potential[static_cast<std::size_t>(arcs.host[i])];
      EXPECT_GE(reduced, -kTol) << "instance " << instance << " arc " << arc;
      if (arc == chosen) {
        EXPECT_NEAR(reduced, 0.0, kTol)
            << "instance " << instance << " arc " << arc;
      }
    }
  }
  for (std::size_t h = 0; h < capacity.size(); ++h) {
    EXPECT_LE(load[h], capacity[h]) << "instance " << instance;
    if (load[h] < capacity[h]) {
      EXPECT_GE(a.host_potential[h], -kTol) << "instance " << instance;
    }
    if (load[h] > 0) {
      EXPECT_LE(a.host_potential[h], kTol) << "instance " << instance;
    }
  }
}

/// A random instance: `nv` VMs over `nh` hosts. Costs are small integers
/// so exact ties are common; a quarter of the VMs have a single arc;
/// capacities are tight (within one of ceil(nv / nh) per host) or loose.
struct RandomInstance {
  AssignmentArcs arcs;
  std::vector<int> capacity;
};

RandomInstance random_instance(Rng& rng, int nv, int nh) {
  RandomInstance in;
  const bool tight = rng.bernoulli(0.5);
  const std::int64_t fair = (nv + nh - 1) / nh;  // ceil(nv / nh)
  for (int h = 0; h < nh; ++h) {
    in.capacity.push_back(static_cast<int>(
        tight ? rng.uniform_int(std::max<std::int64_t>(0, fair - 1), fair + 1)
              : rng.uniform_int(0, nv)));
  }
  std::vector<int> hosts(static_cast<std::size_t>(nh));
  for (int h = 0; h < nh; ++h) hosts[static_cast<std::size_t>(h)] = h;
  for (int v = 0; v < nv; ++v) {
    rng.shuffle(hosts);
    const int degree =
        rng.bernoulli(0.25) ? 1 : static_cast<int>(rng.uniform_int(1, nh));
    for (int k = 0; k < degree; ++k) {
      in.arcs.add(hosts[static_cast<std::size_t>(k)],
                  static_cast<double>(rng.uniform_int(0, 4)));
    }
    in.arcs.end_vm();
  }
  return in;
}

/// True when some VM's first cheapest host is full by the time the
/// greedy start reaches it, so the solver has to augment.
bool greedy_start_overfills(const RandomInstance& in) {
  std::vector<int> load(in.capacity.size(), 0);
  for (int v = 0; v < in.arcs.num_vms(); ++v) {
    const auto costs = in.arcs.cost.begin();
    const auto best = std::min_element(
        costs + in.arcs.begin[static_cast<std::size_t>(v)],
        costs + in.arcs.begin[static_cast<std::size_t>(v) + 1]);
    const auto h = static_cast<std::size_t>(
        in.arcs.host[static_cast<std::size_t>(best - costs)]);
    if (load[h] == in.capacity[h]) return true;
    ++load[h];
  }
  return false;
}

TEST(Assignment, MatchesFullDijkstraReferenceOnRandomInstances) {
  Rng rng(20240611);
  int feasible = 0;
  int augmented = 0;
  int infeasible = 0;
  for (int instance = 0; instance < 400; ++instance) {
    const int nv = static_cast<int>(rng.uniform_int(1, 14));
    const int nh = static_cast<int>(rng.uniform_int(1, 8));
    const RandomInstance in = random_instance(rng, nv, nh);
    const RefMinCostFlow::Result want = reference_optimum(in.arcs, in.capacity);
    if (want.flow < nv) {
      ++infeasible;
      EXPECT_THROW(solve_assignment(in.arcs, in.capacity), PpdcError)
          << "instance " << instance;
      continue;
    }
    ++feasible;
    if (greedy_start_overfills(in)) ++augmented;
    const Assignment got = solve_assignment(in.arcs, in.capacity);
    EXPECT_EQ(assignment_cost(in.arcs, got), want.cost)
        << "instance " << instance;
    expect_certified(in.arcs, in.capacity, got, instance);
  }
  EXPECT_GE(feasible, 200);
  EXPECT_GE(augmented, 100);
  EXPECT_GT(infeasible, 0);
  std::cout << feasible << " feasible (" << augmented << " augmented), "
            << infeasible << " infeasible\n";
}

TEST(Assignment, RealCostsCertifiedOnLargerInstances) {
  // Fig. 11-like shape at small scale: many VMs, hosts of capacity 2,
  // real-valued costs whose potentials accumulate rounding.
  Rng rng(77);
  for (int instance = 0; instance < 20; ++instance) {
    constexpr int kVms = 120;
    constexpr int kHosts = 64;
    AssignmentArcs arcs;
    for (int v = 0; v < kVms; ++v) {
      const auto add_once = [&](int h, double cost) {
        const auto first = arcs.host.begin() + arcs.begin.back();
        if (std::find(first, arcs.host.end(), h) == arcs.host.end()) {
          arcs.add(h, cost);
        }
      };
      // Most VMs crowd the first eight hosts; a spare host of their own
      // keeps the instance feasible.
      add_once(8 + v % (kHosts - 8), 2e4);
      for (int k = 0; k < 8; ++k) {
        add_once(rng.bernoulli(0.8)
                     ? static_cast<int>(rng.uniform_int(0, 7))
                     : static_cast<int>(rng.uniform_int(8, kHosts - 1)),
                 rng.uniform_real(0.0, 1e4));
      }
      arcs.end_vm();
    }
    const std::vector<int> capacity(kHosts, 2);
    const RefMinCostFlow::Result want = reference_optimum(arcs, capacity);
    ASSERT_EQ(want.flow, kVms);
    const Assignment got = solve_assignment(arcs, capacity);
    EXPECT_NEAR(assignment_cost(arcs, got), want.cost, 1e-6 * want.cost)
        << "instance " << instance;
    expect_certified(arcs, capacity, got, instance);
  }
}

}  // namespace
}  // namespace ppdc
