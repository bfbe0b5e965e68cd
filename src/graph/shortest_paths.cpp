#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <deque>
#include <queue>

namespace ppdc {

SsspResult bfs_shortest_paths(const Graph& g, NodeId source, double unit) {
  PPDC_REQUIRE(source >= 0 && source < g.num_nodes(), "bad source");
  PPDC_REQUIRE(unit > 0.0, "unit must be positive");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  SsspResult r{std::vector<double>(n, kUnreachable),
               std::vector<NodeId>(n, kInvalidNode)};
  std::deque<NodeId> q;
  r.dist[static_cast<std::size_t>(source)] = 0.0;
  q.push_back(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    const double du = r.dist[static_cast<std::size_t>(u)];
    for (const auto& a : g.neighbors(u)) {
      auto& dv = r.dist[static_cast<std::size_t>(a.to)];
      if (dv == kUnreachable) {
        dv = du + unit;
        r.parent[static_cast<std::size_t>(a.to)] = u;
        q.push_back(a.to);
      }
    }
  }
  return r;
}

SsspResult dijkstra(const Graph& g, NodeId source) {
  PPDC_REQUIRE(source >= 0 && source < g.num_nodes(), "bad source");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  SsspResult r{std::vector<double>(n, kUnreachable),
               std::vector<NodeId>(n, kInvalidNode)};
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  r.dist[static_cast<std::size_t>(source)] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [du, u] = pq.top();
    pq.pop();
    if (du > r.dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (const auto& a : g.neighbors(u)) {
      const double cand = du + a.weight;
      auto& dv = r.dist[static_cast<std::size_t>(a.to)];
      if (cand < dv) {
        dv = cand;
        r.parent[static_cast<std::size_t>(a.to)] = u;
        pq.emplace(cand, a.to);
      }
    }
  }
  return r;
}

std::vector<NodeId> reconstruct_path(const SsspResult& sp, NodeId source,
                                     NodeId target) {
  PPDC_REQUIRE(target >= 0 &&
                   static_cast<std::size_t>(target) < sp.dist.size(),
               "bad target");
  if (sp.dist[static_cast<std::size_t>(target)] == kUnreachable) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode;
       v = sp.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == source) break;
  }
  PPDC_REQUIRE(!path.empty() && path.back() == source,
               "parent chain does not reach the source");
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ppdc
