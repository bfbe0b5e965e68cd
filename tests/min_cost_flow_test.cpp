#include "flow/min_cost_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace ppdc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(MinCostFlow, SingleArc) {
  MinCostFlow f(2);
  f.add_arc(0, 1, 5, 2.0);
  const auto r = f.solve(0, 1);
  EXPECT_EQ(r.flow, 5);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  MinCostFlow f(4);
  f.add_arc(0, 1, 1, 1.0);
  f.add_arc(1, 3, 1, 1.0);
  f.add_arc(0, 2, 1, 5.0);
  f.add_arc(2, 3, 1, 5.0);
  const auto r = f.solve(0, 3, 1);
  EXPECT_EQ(r.flow, 1);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
}

TEST(MinCostFlow, SplitsWhenCheapPathSaturates) {
  MinCostFlow f(4);
  f.add_arc(0, 1, 1, 1.0);
  f.add_arc(1, 3, 1, 1.0);
  f.add_arc(0, 2, 1, 5.0);
  f.add_arc(2, 3, 1, 5.0);
  const auto r = f.solve(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 12.0);
}

TEST(MinCostFlow, RespectsMaxFlowLimit) {
  MinCostFlow f(2);
  f.add_arc(0, 1, 10, 1.0);
  const auto r = f.solve(0, 1, 3);
  EXPECT_EQ(r.flow, 3);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
}

TEST(MinCostFlow, FlowOnReportsPerArcFlow) {
  MinCostFlow f(3);
  const int a = f.add_arc(0, 1, 2, 1.0);
  const int b = f.add_arc(1, 2, 1, 1.0);
  const int c = f.add_arc(0, 2, 1, 10.0);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(f.flow_on(a), 1);
  EXPECT_EQ(f.flow_on(b), 1);
  EXPECT_EQ(f.flow_on(c), 1);
}

TEST(MinCostFlow, ZeroWhenDisconnected) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1, 1.0);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 0);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(MinCostFlow, HandlesNegativeCosts) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1, -2.0);
  f.add_arc(1, 2, 1, 1.0);
  f.add_arc(0, 2, 1, 0.5);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, -0.5);
}

TEST(MinCostFlow, AssignmentProblem) {
  // 2 workers x 2 jobs; optimal assignment cost 1 + 2 = 3.
  // Node layout: 0 source, 1 sink, 2-3 workers, 4-5 jobs.
  MinCostFlow f(6);
  f.add_arc(0, 2, 1, 0.0);
  f.add_arc(0, 3, 1, 0.0);
  f.add_arc(2, 4, 1, 1.0);
  f.add_arc(2, 5, 1, 4.0);
  f.add_arc(3, 4, 1, 3.0);
  f.add_arc(3, 5, 1, 2.0);
  f.add_arc(4, 1, 1, 0.0);
  f.add_arc(5, 1, 1, 0.0);
  const auto r = f.solve(0, 1);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
}

TEST(MinCostFlow, AssignmentNeedsSuboptimalLocalChoice) {
  // Greedy per-worker assignment would pick (w0 -> j0) at cost 1 leaving
  // (w1 -> j1) at cost 10; the optimum crosses: 2 + 2 = 4.
  MinCostFlow f(6);
  f.add_arc(0, 2, 1, 0.0);
  f.add_arc(0, 3, 1, 0.0);
  f.add_arc(2, 4, 1, 1.0);
  f.add_arc(2, 5, 1, 2.0);
  f.add_arc(3, 4, 1, 2.0);
  f.add_arc(3, 5, 1, 10.0);
  f.add_arc(4, 1, 1, 0.0);
  f.add_arc(5, 1, 1, 0.0);
  const auto r = f.solve(0, 1);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);
}

TEST(MinCostFlow, RejectsBadInputs) {
  EXPECT_THROW(MinCostFlow{0}, PpdcError);
  MinCostFlow f(2);
  EXPECT_THROW(f.add_arc(0, 5, 1, 0.0), PpdcError);
  EXPECT_THROW(f.add_arc(0, 1, -1, 0.0), PpdcError);
  EXPECT_THROW(f.solve(0, 0), PpdcError);
  EXPECT_THROW(f.solve(0, 9), PpdcError);
  EXPECT_THROW(f.flow_on(3), PpdcError);
}

TEST(MinCostFlow, SecondSolveContinuesOptimally) {
  // The cheapest first unit (w0 -> j0, cost 1) is not part of the optimal
  // pair (w0 -> j1 + w1 -> j0 = 4): the second call must reroute it along
  // the negative-cost reverse arc j0 -> w0 that the first call left.
  // Node layout: 0 source, 1 sink, 2-3 workers, 4-6 jobs.
  const auto network = [] {
    MinCostFlow f(7);
    f.add_arc(0, 2, 1, 0.0);
    f.add_arc(0, 3, 1, 0.0);
    f.add_arc(2, 4, 1, 1.0);
    f.add_arc(2, 5, 1, 2.0);
    f.add_arc(3, 4, 1, 2.0);
    f.add_arc(3, 6, 1, 3.5);
    for (int job = 4; job <= 6; ++job) f.add_arc(job, 1, 1, 0.0);
    return f;
  };
  MinCostFlow whole = network();
  const auto r = whole.solve(0, 1);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);

  MinCostFlow split = network();
  const auto first = split.solve(0, 1, 1);
  const auto second = split.solve(0, 1, 1);
  EXPECT_EQ(first.flow + second.flow, 2);
  EXPECT_DOUBLE_EQ(first.cost, 1.0);
  EXPECT_DOUBLE_EQ(first.cost + second.cost, 4.0);
}

TEST(MinCostFlow, RejectsArcsAfterSolve) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1, 1.0);
  f.solve(0, 1);
  EXPECT_THROW(f.add_arc(1, 2, 1, 1.0), PpdcError);
  EXPECT_THROW(f.solve(2, 1), PpdcError);
}

// ---------------------------------------------------------------------------
// Reference: successive shortest paths with one full Dijkstra (every node
// labelled) per augmentation, one solve per network. An independent
// implementation for the differential test below; its integer costs need
// neither the production solver's tolerances nor its clamp.
// ---------------------------------------------------------------------------
class RefMinCostFlow {
 public:
  explicit RefMinCostFlow(int n)
      : n_(n), graph_(static_cast<std::size_t>(n)) {}

  void add_arc(int u, int v, std::int64_t cap, double cost) {
    if (cost < 0.0) has_negative_cost_ = true;
    auto& fu = graph_[static_cast<std::size_t>(u)];
    auto& fv = graph_[static_cast<std::size_t>(v)];
    fu.push_back(Arc{v, cap, cost, static_cast<int>(fv.size())});
    fv.push_back(Arc{u, 0, -cost, static_cast<int>(fu.size()) - 1});
  }

  MinCostFlow::Result solve(int source, int sink) {
    const auto n = static_cast<std::size_t>(n_);
    std::vector<double> potential(n, 0.0);
    if (has_negative_cost_) {
      std::vector<double> dist(n, kInf);
      dist[static_cast<std::size_t>(source)] = 0.0;
      for (int iter = 0; iter < n_; ++iter) {
        bool changed = false;
        for (int u = 0; u < n_; ++u) {
          const double du = dist[static_cast<std::size_t>(u)];
          if (du == kInf) continue;
          for (const Arc& a : graph_[static_cast<std::size_t>(u)]) {
            double& dv = dist[static_cast<std::size_t>(a.to)];
            if (a.cap > 0 && du + a.cost < dv) {
              dv = du + a.cost;
              changed = true;
            }
          }
        }
        if (!changed) break;
      }
      for (std::size_t v = 0; v < n; ++v) {
        if (dist[v] != kInf) potential[v] = dist[v];
      }
    }
    MinCostFlow::Result result;
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
      std::int64_t push = MinCostFlow::kInfiniteFlow;
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
  bool has_negative_cost_ = false;
};

/// One arc of a random transportation instance.
struct TestArc {
  int u, v;
  std::int64_t cap;
  double cost;
};

/// Source 0, sink 1, `m` suppliers and `c` consumers. Integer costs in a
/// narrow range make equal-cost paths common; supplier -> consumer costs
/// are negative in some instances (the network stays acyclic, so no
/// negative cycle).
std::vector<TestArc> random_transportation(Rng& rng, int m, int c) {
  const std::int64_t min_cost = rng.bernoulli(0.5) ? -3 : 0;
  std::vector<TestArc> arcs;
  for (int i = 0; i < m; ++i) {
    arcs.push_back({0, 2 + i, rng.uniform_int(1, 4), 0.0});
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < c; ++j) {
      if (!rng.bernoulli(0.6)) continue;
      arcs.push_back({2 + i, 2 + m + j, rng.uniform_int(1, 3),
                      static_cast<double>(rng.uniform_int(min_cost, 8))});
    }
  }
  for (int j = 0; j < c; ++j) {
    arcs.push_back({2 + m + j, 1, rng.uniform_int(1, 4),
                    static_cast<double>(rng.uniform_int(0, 2))});
  }
  return arcs;
}

/// True when the residual graph of the routed flow has a negative cycle,
/// i.e. the flow is not min-cost for its value (Bellman-Ford from a
/// virtual root joined to every node).
bool residual_has_negative_cycle(int n, const std::vector<TestArc>& arcs,
                                 const MinCostFlow& f) {
  std::vector<TestArc> residual;
  for (int id = 0; id < static_cast<int>(arcs.size()); ++id) {
    const TestArc& a = arcs[static_cast<std::size_t>(id)];
    const std::int64_t flow = f.flow_on(id);
    if (flow < a.cap) residual.push_back({a.u, a.v, a.cap - flow, a.cost});
    if (flow > 0) residual.push_back({a.v, a.u, flow, -a.cost});
  }
  std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
  for (int iter = 0; iter < n; ++iter) {
    bool changed = false;
    for (const TestArc& a : residual) {
      const double via = dist[static_cast<std::size_t>(a.u)] + a.cost;
      if (via < dist[static_cast<std::size_t>(a.v)]) {
        dist[static_cast<std::size_t>(a.v)] = via;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

TEST(MinCostFlow, MatchesFullDijkstraReferenceOnRandomInstances) {
  Rng rng(20240611);
  for (int instance = 0; instance < 200; ++instance) {
    const int m = static_cast<int>(rng.uniform_int(2, 9));
    const int c = static_cast<int>(rng.uniform_int(2, 9));
    const int n = 2 + m + c;
    const std::vector<TestArc> arcs = random_transportation(rng, m, c);

    RefMinCostFlow ref(n);
    MinCostFlow whole(n);
    MinCostFlow chunked(n);
    for (const TestArc& a : arcs) {
      ref.add_arc(a.u, a.v, a.cap, a.cost);
      whole.add_arc(a.u, a.v, a.cap, a.cost);
      chunked.add_arc(a.u, a.v, a.cap, a.cost);
    }
    const auto want = ref.solve(0, 1);
    const auto got = whole.solve(0, 1);
    EXPECT_EQ(got.flow, want.flow) << "instance " << instance;
    EXPECT_EQ(got.cost, want.cost) << "instance " << instance;
    EXPECT_FALSE(residual_has_negative_cycle(n, arcs, whole))
        << "instance " << instance;

    // The same optimum reached through a run of small solves.
    MinCostFlow::Result sum;
    while (true) {
      const auto step = chunked.solve(0, 1, rng.uniform_int(1, 3));
      if (step.flow == 0) break;
      sum.flow += step.flow;
      sum.cost += step.cost;
    }
    EXPECT_EQ(sum.flow, want.flow) << "instance " << instance;
    EXPECT_EQ(sum.cost, want.cost) << "instance " << instance;
    EXPECT_FALSE(residual_has_negative_cycle(n, arcs, chunked))
        << "instance " << instance;
  }
}

TEST(MinCostFlow, LargerRandomishInstanceConserved) {
  // Layered network; verify flow conservation via arc flows.
  MinCostFlow f(8);
  std::vector<int> arcs;
  for (int i = 1; i <= 3; ++i) {
    arcs.push_back(f.add_arc(0, i, 2, static_cast<double>(i)));
    for (int j = 4; j <= 6; ++j) {
      arcs.push_back(f.add_arc(i, j, 1, static_cast<double>(i * j % 5)));
    }
  }
  for (int j = 4; j <= 6; ++j) {
    arcs.push_back(f.add_arc(j, 7, 2, 0.5));
  }
  const auto r = f.solve(0, 7);
  EXPECT_GT(r.flow, 0);
  // Conservation at middle nodes.
  for (int i = 1; i <= 3; ++i) {
    std::int64_t in = 0, out = 0;
    int idx = 0;
    for (int src = 1; src <= 3; ++src) {
      in += (src == i) ? f.flow_on(idx) : 0;
      ++idx;
      for (int j = 4; j <= 6; ++j) {
        out += (src == i) ? f.flow_on(idx) : 0;
        ++idx;
      }
    }
    EXPECT_EQ(in, out);
  }
}

}  // namespace
}  // namespace ppdc
