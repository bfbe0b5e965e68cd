#include "flow/min_cost_flow.hpp"

#include <algorithm>
#include <functional>
#include <limits>

namespace ppdc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MinCostFlow::MinCostFlow(int num_nodes) : n_(num_nodes) {
  PPDC_REQUIRE(num_nodes > 0, "network needs at least one node");
  graph_.resize(static_cast<std::size_t>(num_nodes));
}

int MinCostFlow::add_arc(int u, int v, std::int64_t capacity, double cost) {
  PPDC_REQUIRE(potential_.empty(), "add_arc after solve");
  PPDC_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_, "arc endpoint range");
  PPDC_REQUIRE(capacity >= 0, "negative capacity");
  if (cost < 0.0) has_negative_cost_ = true;
  auto& fu = graph_[static_cast<std::size_t>(u)];
  auto& fv = graph_[static_cast<std::size_t>(v)];
  fu.push_back(Arc{v, capacity, cost, static_cast<int>(fv.size())});
  fv.push_back(Arc{u, 0, -cost, static_cast<int>(fu.size()) - 1});
  const int id = static_cast<int>(arc_locator_.size());
  arc_locator_.emplace_back(u, static_cast<int>(fu.size()) - 1);
  initial_cap_.push_back(capacity);
  return id;
}

void MinCostFlow::init_potentials(int source) {
  potential_.assign(static_cast<std::size_t>(n_), 0.0);
  source_ = source;
  if (!has_negative_cost_) return;
  std::vector<double> dist(static_cast<std::size_t>(n_), kInf);
  dist[static_cast<std::size_t>(source)] = 0.0;
  for (int iter = 0; iter < n_; ++iter) {
    bool changed = false;
    for (int u = 0; u < n_; ++u) {
      const double du = dist[static_cast<std::size_t>(u)];
      if (du == kInf) continue;
      for (const Arc& a : graph_[static_cast<std::size_t>(u)]) {
        if (a.cap <= 0) continue;
        if (du + a.cost < dist[static_cast<std::size_t>(a.to)] - 1e-12) {
          dist[static_cast<std::size_t>(a.to)] = du + a.cost;
          changed = true;
          PPDC_REQUIRE(iter + 1 < n_, "negative cycle detected");
        }
      }
    }
    if (!changed) break;
  }
  for (int v = 0; v < n_; ++v) {
    if (dist[static_cast<std::size_t>(v)] != kInf) {
      potential_[static_cast<std::size_t>(v)] =
          dist[static_cast<std::size_t>(v)];
    }
  }
}

// Hot kernel: 64-byte aligned (DESIGN.md §11).
[[gnu::aligned(64)]] MinCostFlow::Result MinCostFlow::solve(
    int source, int sink, std::int64_t max_flow) {
  PPDC_REQUIRE(source >= 0 && source < n_ && sink >= 0 && sink < n_,
               "source/sink range");
  PPDC_REQUIRE(source != sink, "source == sink");
  // Nodes the first source cannot reach keep unchecked potentials, and no
  // augmentation makes them reachable from it; another source could.
  PPDC_REQUIRE(potential_.empty() || source == source_,
               "solve from a different source");
  if (potential_.empty()) init_potentials(source);

  Result result;
  std::vector<double> dist(static_cast<std::size_t>(n_));
  std::vector<int> prev_node(static_cast<std::size_t>(n_));
  std::vector<int> prev_arc(static_cast<std::size_t>(n_));
  using Item = std::pair<double, int>;
  std::vector<Item> heap;

  while (result.flow < max_flow) {
    // Dijkstra on reduced costs, stopped when the sink is popped: every
    // node with a smaller label is settled by then.
    std::fill(dist.begin(), dist.end(), kInf);
    dist[static_cast<std::size_t>(source)] = 0.0;
    heap.assign(1, Item{0.0, source});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [du, u] = heap.back();
      heap.pop_back();
      if (du > dist[static_cast<std::size_t>(u)] + 1e-12) continue;
      if (u == sink) break;
      const auto& arcs = graph_[static_cast<std::size_t>(u)];
      for (int i = 0; i < static_cast<int>(arcs.size()); ++i) {
        const Arc& a = arcs[static_cast<std::size_t>(i)];
        if (a.cap <= 0) continue;
        // True reduced costs are non-negative; floating-point cancellation
        // in cost + π(u) - π(v) can leave a tiny negative residue that
        // would form spurious negative cycles and stall Dijkstra, so clamp.
        const double step =
            std::max(0.0, a.cost + potential_[static_cast<std::size_t>(u)] -
                              potential_[static_cast<std::size_t>(a.to)]);
        const double reduced = du + step;
        if (reduced < dist[static_cast<std::size_t>(a.to)] - 1e-12) {
          dist[static_cast<std::size_t>(a.to)] = reduced;
          prev_node[static_cast<std::size_t>(a.to)] = u;
          prev_arc[static_cast<std::size_t>(a.to)] = i;
          heap.emplace_back(reduced, a.to);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
    const double d_sink = dist[static_cast<std::size_t>(sink)];
    if (d_sink == kInf) break;  // saturated

    // Settled nodes (label below the sink's) move by their own label,
    // the rest (unreached ones too) by the sink's.
    for (int v = 0; v < n_; ++v) {
      potential_[static_cast<std::size_t>(v)] +=
          std::min(dist[static_cast<std::size_t>(v)], d_sink);
    }

    // Bottleneck along the augmenting path.
    std::int64_t push = max_flow - result.flow;
    for (int v = sink; v != source;
         v = prev_node[static_cast<std::size_t>(v)]) {
      const Arc& a =
          graph_[static_cast<std::size_t>(
              prev_node[static_cast<std::size_t>(v)])]
                [static_cast<std::size_t>(prev_arc[static_cast<std::size_t>(v)])];
      push = std::min(push, a.cap);
    }
    // Apply augmentation.
    for (int v = sink; v != source;
         v = prev_node[static_cast<std::size_t>(v)]) {
      const int u = prev_node[static_cast<std::size_t>(v)];
      Arc& a = graph_[static_cast<std::size_t>(u)]
                     [static_cast<std::size_t>(
                          prev_arc[static_cast<std::size_t>(v)])];
      a.cap -= push;
      graph_[static_cast<std::size_t>(a.to)][static_cast<std::size_t>(a.rev)]
          .cap += push;
      result.cost += a.cost * static_cast<double>(push);
    }
    result.flow += push;
  }
  return result;
}

std::int64_t MinCostFlow::flow_on(int arc_id) const {
  PPDC_REQUIRE(arc_id >= 0 &&
                   arc_id < static_cast<int>(arc_locator_.size()),
               "bad arc id");
  const auto [u, idx] = arc_locator_[static_cast<std::size_t>(arc_id)];
  const Arc& a =
      graph_[static_cast<std::size_t>(u)][static_cast<std::size_t>(idx)];
  return initial_cap_[static_cast<std::size_t>(arc_id)] - a.cap;
}

}  // namespace ppdc
