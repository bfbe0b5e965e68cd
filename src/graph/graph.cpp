#include "graph/graph.hpp"

#include <algorithm>
#include <vector>

namespace ppdc {

NodeId Graph::add_node(NodeKind kind, std::string label) {
  const NodeId id = num_nodes();
  kind_.push_back(kind);
  if (label.empty()) {
    label = (kind == NodeKind::kHost ? "h" : "s") + std::to_string(id);
  }
  labels_.push_back(std::move(label));
  adj_.emplace_back();
  (kind == NodeKind::kHost ? hosts_ : switches_).push_back(id);
  return id;
}

void Graph::add_edge(NodeId u, NodeId v, double w) {
  check_node(u);
  check_node(v);
  PPDC_REQUIRE(u != v, "self loops are not allowed");
  PPDC_REQUIRE(w > 0.0, "edge weight must be positive");
  PPDC_REQUIRE(!has_edge(u, v), "parallel edge " + label(u) + "-" + label(v));
  adj_[static_cast<std::size_t>(u)].push_back({v, w});
  adj_[static_cast<std::size_t>(v)].push_back({u, w});
  ++edge_count_;
}

void Graph::set_edge_weight(NodeId u, NodeId v, double w) {
  check_node(u);
  check_node(v);
  PPDC_REQUIRE(w > 0.0, "edge weight must be positive");
  bool found = false;
  for (auto& a : adj_[static_cast<std::size_t>(u)]) {
    if (a.to == v) {
      a.weight = w;
      found = true;
    }
  }
  for (auto& a : adj_[static_cast<std::size_t>(v)]) {
    if (a.to == u) a.weight = w;
  }
  PPDC_REQUIRE(found, "set_edge_weight: edge does not exist");
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  const auto& nu = adj_[static_cast<std::size_t>(u)];
  return std::any_of(nu.begin(), nu.end(),
                     [v](const Adjacency& a) { return a.to == v; });
}

double Graph::edge_weight(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  for (const auto& a : adj_[static_cast<std::size_t>(u)]) {
    if (a.to == v) return a.weight;
  }
  throw PpdcError("edge_weight: edge does not exist");
}

bool Graph::is_connected() const {
  if (num_nodes() == 0) return true;
  std::vector<char> seen(static_cast<std::size_t>(num_nodes()), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const auto& a : adj_[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(a.to)]) {
        seen[static_cast<std::size_t>(a.to)] = 1;
        ++visited;
        stack.push_back(a.to);
      }
    }
  }
  return visited == static_cast<std::size_t>(num_nodes());
}

double Graph::total_edge_weight() const noexcept {
  double sum = 0.0;
  for (const auto& nbrs : adj_) {
    for (const auto& a : nbrs) sum += a.weight;
  }
  return sum / 2.0;
}

Graph masked_copy(const Graph& g, const std::vector<char>& dead_node,
                  const std::vector<EdgeKey>& dead_edges) {
  PPDC_REQUIRE(dead_node.size() == static_cast<std::size_t>(g.num_nodes()),
               "dead-node mask must have one entry per node");
  for (const auto& [u, v] : dead_edges) {
    PPDC_REQUIRE(u < v, "dead edges must be normalized (u < v)");
    PPDC_REQUIRE(g.has_edge(u, v), "dead edge does not exist in the graph");
  }
  std::vector<EdgeKey> cut = dead_edges;
  std::sort(cut.begin(), cut.end());
  Graph out;
  out.kind_ = g.kind_;
  out.labels_ = g.labels_;
  out.hosts_ = g.hosts_;
  out.switches_ = g.switches_;
  out.adj_.resize(g.adj_.size());
  for (std::size_t v = 0; v < g.adj_.size(); ++v) {
    if (!dead_node[v]) out.adj_[v].reserve(g.adj_[v].size());
  }
  // The add_edge() loop's order, without its parallel-edge scan: the
  // source has none, and each link is visited once, from its lower end.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto uu = static_cast<std::size_t>(u);
    if (dead_node[uu]) continue;
    for (const Adjacency& a : g.adj_[uu]) {
      const auto vv = static_cast<std::size_t>(a.to);
      if (u >= a.to || dead_node[vv]) continue;
      if (!cut.empty() &&
          std::binary_search(cut.begin(), cut.end(), EdgeKey{u, a.to})) {
        continue;
      }
      out.adj_[uu].push_back({a.to, a.weight});
      out.adj_[vv].push_back({u, a.weight});
      ++out.edge_count_;
    }
  }
  return out;
}

std::vector<int> connected_components(const Graph& g) {
  std::vector<int> comp(static_cast<std::size_t>(g.num_nodes()), -1);
  int next = 0;
  std::vector<NodeId> queue;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (comp[static_cast<std::size_t>(start)] != -1) continue;
    const int id = next++;
    comp[static_cast<std::size_t>(start)] = id;
    queue.assign(1, start);
    while (!queue.empty()) {
      const NodeId u = queue.back();
      queue.pop_back();
      for (const auto& a : g.neighbors(u)) {
        if (comp[static_cast<std::size_t>(a.to)] == -1) {
          comp[static_cast<std::size_t>(a.to)] = id;
          queue.push_back(a.to);
        }
      }
    }
  }
  return comp;
}

}  // namespace ppdc
