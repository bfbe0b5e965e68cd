// Undirected weighted graph model of a policy-preserving data center (PPDC).
//
// Matches the paper's system model (§III): V = V_h ∪ V_s, where hosts are
// leaves that store VMs and every switch has an attached server able to run
// VNFs. Edges carry a non-negative weight w(u,v) — network delay or energy
// cost per unit of VM communication / VNF migration.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace ppdc {

/// Dense vertex identifier; indices into Graph storage.
using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;

/// Role of a vertex in the PPDC.
enum class NodeKind : std::uint8_t {
  kHost,    ///< stores VMs (V_h)
  kSwitch,  ///< has an attached server that can run one VNF (V_s)
};

/// A half-edge in the adjacency list.
struct Adjacency {
  NodeId to = kInvalidNode;
  double weight = 1.0;
};

/// Mutable undirected weighted multigraph with typed vertices.
///
/// Parallel edges are rejected (a data center link is unique between two
/// devices); self loops are rejected. Node labels are optional and used
/// only for diagnostics and example output.
class Graph {
 public:
  /// Adds a vertex of the given kind; returns its id.
  NodeId add_node(NodeKind kind, std::string label = {});

  /// Adds an undirected edge with weight `w` (> 0).
  void add_edge(NodeId u, NodeId v, double w = 1.0);

  /// Updates the weight of an existing edge (both directions).
  void set_edge_weight(NodeId u, NodeId v, double w);

  NodeId num_nodes() const {
    return checked_cast<NodeId>(kind_.size(), "node count");
  }
  std::size_t num_edges() const noexcept { return edge_count_; }

  NodeKind kind(NodeId v) const {
    check_node(v);
    return kind_[static_cast<std::size_t>(v)];
  }
  bool is_switch(NodeId v) const { return kind(v) == NodeKind::kSwitch; }
  bool is_host(NodeId v) const { return kind(v) == NodeKind::kHost; }

  const std::string& label(NodeId v) const {
    check_node(v);
    return labels_[static_cast<std::size_t>(v)];
  }

  std::span<const Adjacency> neighbors(NodeId v) const {
    check_node(v);
    return adj_[static_cast<std::size_t>(v)];
  }

  /// Degree of vertex v.
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// All host vertices, in id order.
  const std::vector<NodeId>& hosts() const noexcept { return hosts_; }
  /// All switch vertices, in id order.
  const std::vector<NodeId>& switches() const noexcept { return switches_; }

  /// True if an edge u-v exists.
  bool has_edge(NodeId u, NodeId v) const;

  /// Weight of edge u-v; throws if absent.
  double edge_weight(NodeId u, NodeId v) const;

  /// True when every vertex can reach every other vertex.
  bool is_connected() const;

  /// Sum of all edge weights (each undirected edge counted once).
  double total_edge_weight() const noexcept;

  friend Graph masked_copy(const Graph& g, const std::vector<char>& dead_node,
                           const std::vector<std::pair<NodeId, NodeId>>&
                               dead_edges);

 private:
  void check_node(NodeId v) const {
    PPDC_REQUIRE(v >= 0 && v < num_nodes(), "node id out of range");
  }

  std::vector<NodeKind> kind_;
  std::vector<std::string> labels_;
  std::vector<std::vector<Adjacency>> adj_;
  std::vector<NodeId> hosts_;
  std::vector<NodeId> switches_;
  std::size_t edge_count_ = 0;
};

/// An undirected link identified by its endpoints (normalized u < v).
using EdgeKey = std::pair<NodeId, NodeId>;

/// Normalizes an edge to (min, max) endpoint order.
inline EdgeKey make_edge_key(NodeId u, NodeId v) {
  return u < v ? EdgeKey{u, v} : EdgeKey{v, u};
}

/// Copy of `g` with the flagged nodes isolated (every incident link
/// dropped) and the listed links removed. Node ids, kinds and labels are
/// preserved, so flow endpoints and placements remain addressable; the
/// result may be disconnected (pair it with the allow-disconnected
/// AllPairs mode). `dead_node` must have one entry per node; `dead_edges`
/// entries must be normalized (u < v) and name existing links of `g`.
///
/// A filtered copy: the node tables are copied whole and each surviving
/// link is pushed onto both endpoints' lists in the order an add_edge()
/// loop over u ascending, then u's neighbours v > u in list order, would
/// add it, so every neighbour list (and hence every search tie-break
/// over the copy) equals that of a graph built edge by edge.
Graph masked_copy(const Graph& g, const std::vector<char>& dead_node,
                  const std::vector<EdgeKey>& dead_edges);

/// Connected-component id per node (dense, 0-based, assigned in BFS order
/// from the lowest-id unvisited node — deterministic).
std::vector<int> connected_components(const Graph& g);

}  // namespace ppdc
