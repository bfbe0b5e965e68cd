#include "graph/apsp.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "util/executor.hpp"
#include "util/rng.hpp"

namespace ppdc {

namespace {

bool all_unit_weights(const Graph& g) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& a : g.neighbors(u)) {
      if (a.weight != 1.0) return false;
    }
  }
  return true;
}

/// Switches and relay hosts (degree >= 2) are core; a degree-1 host whose
/// neighbour is core, and a degree-0 host, are leaves. Two degree-1 hosts
/// joined only to each other both stay core.
bool is_core(const Graph& g, NodeId v) {
  if (g.is_switch(v)) return true;
  const auto nbrs = g.neighbors(v);
  if (nbrs.empty()) return false;
  if (nbrs.size() >= 2) return true;
  const NodeId a = nbrs[0].to;
  return !(g.is_switch(a) || g.degree(a) >= 2);
}

/// The core block's own edges, by core position, in CSR form: each core
/// vertex's core neighbours in Graph::neighbors() order. Leaf edges are
/// left out, since a leaf never relays a path.
struct CoreAdjacency {
  std::vector<std::size_t> first;  ///< |core| + 1 offsets into to/weight
  std::vector<std::int32_t> to;    ///< core position of each neighbour
  std::vector<double> weight;
};

// Hot kernel: out of line and 64-byte aligned (DESIGN.md §11).
/// Unit-weight BFS from core position `src`, written in place into that
/// source's rows of the distance and parent blocks (both preset to
/// unreachable / -1). `queue` holds |core| slots. A leaf never discovers a
/// vertex, so the core vertices are discovered in the order a full-graph
/// BFS (bfs_shortest_paths) discovers them, with the same parents.
[[gnu::noinline, gnu::aligned(64)]] void core_bfs(
    const CoreAdjacency& adj, std::int32_t src, double* dist,
    std::int32_t* parent, std::int32_t* queue) {
  std::size_t head = 0;
  std::size_t tail = 0;
  dist[src] = 0.0;
  queue[tail++] = src;
  while (head < tail) {
    const auto u = static_cast<std::size_t>(queue[head++]);
    const double du = dist[u];
    for (std::size_t e = adj.first[u]; e < adj.first[u + 1]; ++e) {
      const std::int32_t v = adj.to[e];
      if (dist[v] == kUnreachable) {
        dist[v] = du + 1.0;
        parent[v] = static_cast<std::int32_t>(u);
        queue[tail++] = v;
      }
    }
  }
}

// Hot kernel: out of line and 64-byte aligned (DESIGN.md §11).
/// Dijkstra from core position `src`, in place like core_bfs. The heap
/// orders (distance, NodeId) exactly as dijkstra() does, so ties pop in
/// the same order and every distance and parent equals the full-graph
/// run's. Leaf entries, which dijkstra() pops without relaxing anything,
/// never enter it.
[[gnu::noinline, gnu::aligned(64)]] void core_dijkstra(
    const CoreAdjacency& adj, const std::vector<NodeId>& core,
    std::int32_t src, double* dist, std::int32_t* parent) {
  using Item = std::pair<double, std::int32_t>;
  const auto later = [&core](const Item& a, const Item& b) {
    return a.first != b.first
               ? a.first > b.first
               : core[static_cast<std::size_t>(a.second)] >
                     core[static_cast<std::size_t>(b.second)];
  };
  std::vector<Item> heap;
  dist[src] = 0.0;
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [du, u] = heap.back();
    heap.pop_back();
    if (du > dist[u]) continue;  // stale entry
    const auto uu = static_cast<std::size_t>(u);
    for (std::size_t e = adj.first[uu]; e < adj.first[uu + 1]; ++e) {
      const std::int32_t v = adj.to[e];
      const double cand = du + adj.weight[e];
      if (cand < dist[v]) {
        dist[v] = cand;
        parent[v] = u;
        heap.emplace_back(cand, v);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
}

}  // namespace

AllPairs::AllPairs(const Graph& g) : AllPairs(g, /*allow_disconnected=*/false) {}

AllPairs::AllPairs(const Graph& g, bool allow_disconnected)
    : g_(&g), n_(g.num_nodes()) {
  PPDC_REQUIRE(n_ > 0, "empty graph");
  PPDC_REQUIRE(allow_disconnected || g.is_connected(),
               "PPDC graph must be connected");

  // Core layout: switches first, in Graph::switches() order, then relay
  // hosts by id; leaves anchor at their attach vertex.
  anchor_.assign(static_cast<std::size_t>(n_), Anchor{});
  core_ = g.switches();
  for (const NodeId h : g.hosts()) {
    if (is_core(g, h)) core_.push_back(h);
  }
  for (std::size_t k = 0; k < core_.size(); ++k) {
    anchor_[static_cast<std::size_t>(core_[k])].core =
        static_cast<std::int32_t>(k);
  }
  std::size_t isolated = 0;
  for (const NodeId h : g.hosts()) {
    auto& a = anchor_[static_cast<std::size_t>(h)];
    if (a.core >= 0) continue;
    const auto nbrs = g.neighbors(h);
    if (nbrs.empty()) {
      ++isolated;
      continue;
    }
    a.core = anchor_[static_cast<std::size_t>(nbrs[0].to)].core;
    a.weight = nbrs[0].weight;
  }

  const std::size_t m = core_.size();
  dist_.assign(m * m, kUnreachable);
  parent_.assign(m * m, -1);
  unreachable_row_.assign(m, kUnreachable);

  // A leaf is never interior to a shortest path, so the core block's row
  // of a core source is the core columns of its full-graph SSSP, and every
  // core vertex's parent is itself core: one SSSP per source over the core
  // edges alone gives the same rows. Each source writes only its own row.
  CoreAdjacency adj;
  adj.first.reserve(m + 1);
  adj.first.push_back(0);
  for (const NodeId x : core_) {
    for (const auto& a : g.neighbors(x)) {
      const std::int32_t y = core_index(a.to);
      if (y < 0) continue;
      adj.to.push_back(y);
      adj.weight.push_back(a.weight);
    }
    adj.first.push_back(adj.to.size());
  }
  const bool unit = all_unit_weights(g);
  parallel_for(m, 8, [&](std::size_t x) noexcept {
    const auto src = static_cast<std::int32_t>(x);
    double* drow = dist_.data() + x * m;
    std::int32_t* prow = parent_.data() + x * m;
    if (unit) {
      std::vector<std::int32_t> queue(m);
      core_bfs(adj, src, drow, prow, queue.data());
    } else {
      core_dijkstra(adj, core_, src, drow, prow);
    }
  });

  // Reachability and diameter. Per core vertex, the two heaviest attached
  // leaves bound every pair through it: fp addition is monotone, so
  // max (w_u + c(x,y)) + w_v is reached at the heaviest leaf of each end.
  std::vector<double> leaf1(m, 0.0);  // heaviest attached leaf weight
  std::vector<double> leaf2(m, 0.0);  // second heaviest
  std::vector<int> leaves(m, 0);
  for (const NodeId h : g.hosts()) {
    const Anchor& a = anchor_[static_cast<std::size_t>(h)];
    if (a.core < 0 || core_[static_cast<std::size_t>(a.core)] == h) continue;
    const auto x = static_cast<std::size_t>(a.core);
    ++leaves[x];
    if (a.weight > leaf1[x]) {
      leaf2[x] = leaf1[x];
      leaf1[x] = a.weight;
    } else if (a.weight > leaf2[x]) {
      leaf2[x] = a.weight;
    }
  }
  if (isolated > 0 && n_ > 1) fully_connected_ = false;
  for (std::size_t x = 0; x < m; ++x) {
    for (std::size_t y = 0; y < m; ++y) {
      const double d = dist_[x * m + y];
      if (d == kUnreachable) {
        fully_connected_ = false;
        continue;
      }
      if (x == y) {
        if (leaves[x] >= 1) diameter_ = std::max(diameter_, leaf1[x]);
        if (leaves[x] >= 2) diameter_ = std::max(diameter_, leaf1[x] + leaf2[x]);
        continue;
      }
      diameter_ = std::max(diameter_, leaf1[x] + d + leaf1[y]);
    }
  }
  PPDC_REQUIRE(allow_disconnected || fully_connected_,
               "graph must be connected");

  const std::size_t num_switches = g.switches().size();
  for (std::size_t a = 0; a < num_switches; ++a) {
    for (std::size_t b = 0; b < num_switches; ++b) {
      if (a != b) min_switch_dist_ = std::min(min_switch_dist_, dist_[a * m + b]);
    }
  }
  if (min_switch_dist_ == kUnreachable) {
    // Fewer than two switches: no inter-switch hop exists, so the cheapest
    // possible chain hop is 0. Leaving it +inf would blow up every
    // branch-and-bound lower bound that multiplies by it and prune all
    // feasible single-switch chains.
    min_switch_dist_ = 0.0;
  }
}

const double* AllPairs::transposed() const {
  TransposeSlot::Block& t = *transposed_.block;
  std::call_once(t.once, [&] {
    const std::size_t m = core_.size();
    t.cost.assign(m * m, 0.0);
    for (std::size_t y = 0; y < m; ++y) {
      for (std::size_t x = 0; x < m; ++x) t.cost[y * m + x] = dist_[x * m + y];
    }
  });
  return t.cost.data();
}

AllPairs::CoreRow AllPairs::cost_col(NodeId v) const {
  check_node(v);
  const Anchor& a = anchor_[static_cast<std::size_t>(v)];
  if (a.core < 0) return {unreachable_row_.data(), 0.0};
  return {transposed() + block_index(a.core, 0), a.weight};
}

std::vector<NodeId> AllPairs::path(NodeId u, NodeId v) const {
  PPDC_REQUIRE(reachable(u, v), "no path between the two nodes");
  if (u == v) return {u};
  const Anchor& a = anchor_[static_cast<std::size_t>(u)];
  const Anchor& b = anchor_[static_cast<std::size_t>(v)];
  // Built backwards: v's leaf edge, the core path b -> a, u's leaf edge.
  std::vector<NodeId> p;
  if (core_[static_cast<std::size_t>(b.core)] != v) p.push_back(v);
  const std::size_t row = block_index(a.core, 0);
  for (std::int32_t cur = b.core; cur >= 0;
       cur = parent_[row + static_cast<std::size_t>(cur)]) {
    p.push_back(core_[static_cast<std::size_t>(cur)]);
    if (cur == a.core) break;
  }
  PPDC_REQUIRE(p.back() == core_[static_cast<std::size_t>(a.core)],
               "broken parent chain");
  if (p.back() != u) p.push_back(u);
  std::reverse(p.begin(), p.end());
  return p;
}

int AllPairs::path_length_nodes(NodeId u, NodeId v) const {
  if (u == v) return 1;
  return static_cast<int>(path(u, v).size());
}

bool AllPairs::check_triangle_inequality(int samples,
                                         std::uint64_t seed) const {
  Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    const NodeId x = static_cast<NodeId>(rng.uniform_int(0, n_ - 1));
    const NodeId y = static_cast<NodeId>(rng.uniform_int(0, n_ - 1));
    const NodeId z = static_cast<NodeId>(rng.uniform_int(0, n_ - 1));
    if (cost(x, z) > cost(x, y) + cost(y, z) + 1e-9) return false;
  }
  return true;
}

}  // namespace ppdc
