// All-pairs shortest paths over the PPDC graph.
//
// Everything in the paper's cost model is expressed through c(u,v), the
// shortest-path cost between two devices (§III, Table I). AllPairs
// precomputes the distances once per topology (parallel across sources, on
// util/executor.hpp) and serves c(u,v) in O(1). Shortest-path vertex
// sequences for migration frontiers are found on demand, one early-exit
// search per path() call.
//
// Only the *core* block is stored. The core is every switch plus every
// host of degree >= 2 (BCube and DCell hosts relay traffic); every other
// host is a *leaf* of degree <= 1 and is stored as (attach, weight). A
// leaf is never an interior node of a shortest path, so
//   c(h, x) = w(h) + c(attach(h), x),   c(x, h) = c(x, attach(h)) + w(h)
// and path() splices the leaf edge onto the core path. A degree-0 leaf
// (an isolated host of a degraded fabric) reaches only itself. On fat-tree,
// leaf-spine and VL2 every host is a leaf, so the block is |V_s|² instead
// of |V|² (k=32 fat-tree: 1280² instead of 9472²).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "util/pages.hpp"

namespace ppdc {

/// The core block's own edges, by core position, in CSR form: each core
/// vertex's core neighbours in Graph::neighbors() order (AllPairs keeps
/// one). Leaf edges are left out, since a leaf never relays a path.
struct CoreAdjacency {
  std::vector<std::size_t> first;  ///< |core| + 1 offsets into to/weight
  std::vector<std::int32_t> to;    ///< core position of each neighbour
  std::vector<double> weight;
};

/// Precomputed all-pairs shortest path distances.
class AllPairs {
 public:
  /// Fills the core block with a bit-parallel BFS from 64 core sources at
  /// a time when every edge weight equals 1 (hop metric), and with one
  /// Dijkstra per core source otherwise. Requires a connected graph.
  explicit AllPairs(const Graph& g);

  /// As above, but `allow_disconnected = true` accepts graphs with
  /// unreachable pairs (a fabric degraded by switch/link failures):
  /// cost(u,v) is kUnreachable (+inf) for such pairs, reachable() reports
  /// them, and diameter()/min_switch_distance() range over reachable pairs
  /// only. path() still throws on unreachable pairs.
  AllPairs(const Graph& g, bool allow_disconnected);

  /// Shortest-path cost c(u,v). O(1).
  double cost(NodeId u, NodeId v) const {
    check_node(u);
    check_node(v);
    if (u == v) return 0.0;
    const Anchor& a = anchor_[static_cast<std::size_t>(u)];
    const Anchor& b = anchor_[static_cast<std::size_t>(v)];
    if (a.core < 0 || b.core < 0) return kUnreachable;
    return a.weight + dist_[block_index(a.core, b.core)] + b.weight;
  }

  /// One row of the core block plus a leaf offset: for the core node x at
  /// position k, the cost is `weight + cost[k]` (weight is 0 for a core
  /// endpoint; cost is an all-unreachable row for an isolated leaf).
  struct CoreRow {
    const double* cost;
    double weight;
  };

  /// Contiguous row c(u, ·) over the core, indexed by core position, for
  /// any node u. The flat hot kernels (stroll-DP metric closure,
  /// chain-search candidate tables, cost-model attraction rebuilds) stream
  /// rows through this pointer instead of paying a check per cost().
  CoreRow cost_row(NodeId u) const {
    check_node(u);
    const Anchor& a = anchor_[static_cast<std::size_t>(u)];
    if (a.core < 0) return {unreachable_row_.data(), 0.0};
    return {dist_.data() + block_index(a.core, 0), a.weight};
  }

  /// Contiguous column c(·, v) over the core, indexed by core position,
  /// for any node v; the cost model's egress attraction
  /// B(b) = Σ λ c(b, dst) reads it so churn patches stream rows instead of
  /// striding down columns. On a hop metric the block is symmetric bit for
  /// bit (small integers on an undirected graph), so this is v's row. A
  /// weighted metric serves it from a transposed copy of the block that is
  /// built on first use and kept for the life of the AllPairs.
  CoreRow cost_col(NodeId v) const;

  /// Number of core vertices. Positions 0 .. |V_s|-1 are the switches in
  /// Graph::switches() order (a switch's core position is its SwitchIdx);
  /// relay hosts follow in id order.
  std::int32_t num_core() const noexcept {
    return static_cast<std::int32_t>(core_.size());
  }
  /// Core position of v, or -1 when v is a leaf.
  std::int32_t core_index(NodeId v) const {
    check_node(v);
    const Anchor& a = anchor_[static_cast<std::size_t>(v)];
    return a.core >= 0 && core_[static_cast<std::size_t>(a.core)] == v
               ? a.core
               : -1;
  }

  /// True when a path u -> v exists (always true in connected mode).
  bool reachable(NodeId u, NodeId v) const {
    return cost(u, v) != kUnreachable;
  }

  /// True when every pair is reachable.
  bool fully_connected() const noexcept { return fully_connected_; }

  /// Shortest-path vertex sequence u -> v (inclusive of both endpoints):
  /// the parent chain of a BFS (hop metric) or Dijkstra rooted at u's core
  /// position, run over the core adjacency until v's is discovered or
  /// popped. O(|core| + core edges) per call; safe from many threads.
  std::vector<NodeId> path(NodeId u, NodeId v) const;

  /// Number of vertices on the shortest path from u to v, i.e. the h_j of
  /// Definition 1 (1 when u == v).
  int path_length_nodes(NodeId u, NodeId v) const;

  /// Graph diameter: max over all pairs of cost(u,v).
  double diameter() const noexcept { return diameter_; }

  /// Smallest positive switch-to-switch distance (branch-and-bound lower
  /// bounds use this as the cheapest possible chain hop). 0 on topologies
  /// with fewer than two switches, where no inter-switch hop exists.
  double min_switch_distance() const noexcept { return min_switch_dist_; }

  NodeId num_nodes() const noexcept { return n_; }

  const Graph& graph() const noexcept { return *g_; }

  /// A slot for data a higher layer derives from this metric and wants to
  /// live exactly as long as it (core/stroll_dp.hpp keeps the fabric's
  /// stroll DP tables here). `make()` runs once, on first use, under the
  /// slot's lock; later calls return the same object. Copies and moves of
  /// the AllPairs start with an empty slot.
  template <class Make>
  std::shared_ptr<void> derived(Make&& make) const {
    const std::lock_guard<std::mutex> lock(derived_.mu);
    if (!derived_.data) derived_.data = make();
    return derived_.data;
  }

  /// True if the metric satisfies the triangle inequality for all sampled
  /// triples (it always should — shortest-path metrics are metrics; this is
  /// exposed for property tests).
  bool check_triangle_inequality(int samples, std::uint64_t seed) const;

 private:
  /// Where a vertex sits in the core block: its own position (weight 0)
  /// for a core vertex, its attach switch's position and the leaf edge
  /// weight for a leaf, core = -1 for an isolated leaf.
  struct Anchor {
    std::int32_t core = -1;
    double weight = 0.0;
  };

  void check_node(NodeId v) const {
    PPDC_REQUIRE(v >= 0 && v < n_, "node out of range");
  }
  std::size_t block_index(std::int32_t x, std::int32_t y) const {
    return static_cast<std::size_t>(x) * core_.size() +
           static_cast<std::size_t>(y);
  }
  const double* transposed() const;

  /// The derived() slot; never travels with a copy or a move.
  struct DerivedSlot {
    DerivedSlot() = default;
    DerivedSlot(const DerivedSlot&) noexcept {}
    DerivedSlot& operator=(const DerivedSlot&) noexcept {
      const std::lock_guard<std::mutex> lock(mu);
      data.reset();
      return *this;
    }
    mutable std::mutex mu;
    mutable std::shared_ptr<void> data;
  };

  /// The transposed core block behind a weighted metric's cost_col();
  /// built once, on first use, and like the derived() slot never carried
  /// by a copy or a move. A hop metric never fills it.
  struct TransposeSlot {
    struct Block {
      std::once_flag once;
      std::vector<double, PageAllocator<double>> cost;
    };
    TransposeSlot() : block(std::make_unique<Block>()) {}
    TransposeSlot(const TransposeSlot& /*other*/) : TransposeSlot() {}
    TransposeSlot& operator=(const TransposeSlot& /*other*/) {
      block = std::make_unique<Block>();
      return *this;
    }
    std::unique_ptr<Block> block;
  };

  DerivedSlot derived_;
  TransposeSlot transposed_;
  const Graph* g_;
  NodeId n_ = 0;
  std::vector<Anchor> anchor_;  ///< one per vertex
  std::vector<NodeId> core_;    ///< core position -> vertex
  CoreAdjacency adj_;           ///< path() searches it
  /// Row-major |core| x |core|, page-mapped (util/pages.hpp): fault
  /// epochs rebuild it on worker threads.
  std::vector<double, PageAllocator<double>> dist_;
  std::vector<double> unreachable_row_;  ///< |core| x +inf
  bool unit_ = false;  ///< every edge weight is 1: a hop metric
  double diameter_ = 0.0;
  double min_switch_dist_ = kUnreachable;
  bool fully_connected_ = true;
};

}  // namespace ppdc
