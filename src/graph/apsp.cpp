#include "graph/apsp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/clones.hpp"
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

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11). It only adds
// and takes maxima, so it takes the level kernels' clone tiers.
/// Folds row x's entries [lo, hi) of the block into per-column lanes:
/// far[y] keeps the largest (lx + d) + leaf[y] of a reachable d and
/// top[y] the largest d, so the block holds an unreachable pair iff some
/// top[y] is +inf. An unreachable d adds d - d = NaN to its candidate,
/// and `c > far[y] ? c : far[y]` keeps far[y] for a NaN c. Each column
/// is its own lane, so the loop is elementwise (GCC vectorizes no double
/// max reduction without -ffast-math), and a max is exact, so the order
/// in which rows fold cannot change a lane.
// ppdc-ymm: pair-scan fn=scan_pairs insn=vmaxpd
// ppdc-zmm: pair-scan-zmm fn=scan_pairs insn=vmaxpd
[[PPDC_LEVEL_KERNEL_CLONES gnu::aligned(64)]] void scan_pairs(
    const double* __restrict row, const double* __restrict leaf, double lx,
    std::size_t lo, std::size_t hi, double* __restrict far,
    double* __restrict top) {
  for (std::size_t y = lo; y < hi; ++y) {  // ppdc-vec: pair-scan bytes=64,32
    const double d = row[y];
    const double c = ((lx + d) + leaf[y]) + (d - d);
    far[y] = c > far[y] ? c : far[y];
    top[y] = d > top[y] ? d : top[y];
  }
}

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
/// Lowers low[y] to row[y] over [lo, hi): per-column lanes of the
/// smallest entry, exact in any order.
// ppdc-ymm: row-min fn=row_min insn=vminpd
// ppdc-zmm: row-min-zmm fn=row_min insn=vminpd
[[PPDC_LEVEL_KERNEL_CLONES gnu::aligned(64)]] void row_min(
    const double* __restrict row, std::size_t lo, std::size_t hi,
    double* __restrict low) {
  for (std::size_t y = lo; y < hi; ++y) {  // ppdc-vec: row-min bytes=64,32
    const double d = row[y];
    low[y] = d < low[y] ? d : low[y];
  }
}

/// Stripe width of the multi-source BFS: one bit per source.
constexpr std::size_t kStripe = 64;

// Hot kernel: out of line and 64-byte aligned (DESIGN.md §11).
/// Bit-parallel BFS (Then et al., VLDB 2014) from the core positions
/// [first, first + count), count <= 64, over a unit-weight core: bit i of
/// a word stands for source first + i. Level L's frontier of v is every
/// source that reaches v first at hop L, so d(s, v) = L, written into
/// row v at column s of the m x m block `dist` (preset to unreachable).
/// The core graph is undirected and hop counts are small integers, so
/// d(s, v) is d(v, s) bit for bit: the stripes fill the block's columns
/// [first, first + count), and no two stripes write the same element.
/// `words` holds 3m scratch words.
[[gnu::noinline, gnu::aligned(64)]] void core_msbfs(
    const CoreAdjacency& adj, std::size_t first, std::size_t count,
    std::size_t m, double* dist, std::uint64_t* words) {
  std::uint64_t* seen = words;
  std::uint64_t* frontier = words + m;
  std::uint64_t* next = words + 2 * m;
  std::fill(words, words + 2 * m, std::uint64_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = first + i;
    seen[s] = frontier[s] = std::uint64_t{1} << i;
    dist[s * m + s] = 0.0;
  }
  // A BFS over m vertices is done within m - 1 levels.
  for (std::size_t level = 1; level < m; ++level) {
    const auto hops = static_cast<double>(level);
    bool grew = false;
    for (std::size_t v = 0; v < m; ++v) {
      std::uint64_t reach = 0;
      for (std::size_t e = adj.first[v]; e < adj.first[v + 1]; ++e) {
        reach |= frontier[static_cast<std::size_t>(adj.to[e])];
      }
      reach &= ~seen[v];
      next[v] = reach;
      if (reach == 0) continue;
      grew = true;
      seen[v] |= reach;
      double* row = dist + v * m + first;
      for (; reach != 0; reach &= reach - 1) {
        row[std::countr_zero(reach)] = hops;
      }
    }
    if (!grew) return;
    std::swap(frontier, next);
  }
}

/// Unit-weight BFS from core position `src` until `target` is discovered,
/// into `parent` (preset to -1; the source becomes its own parent) with
/// `queue` holding |core| slots. A leaf never discovers a vertex, so the
/// core vertices are discovered in the order a full-graph BFS
/// (bfs_shortest_paths) discovers them, with the same parents, and a
/// parent is final once set.
void core_bfs(const CoreAdjacency& adj, std::int32_t src, std::int32_t target,
              std::int32_t* parent, std::int32_t* queue) {
  std::size_t head = 0;
  std::size_t tail = 0;
  parent[src] = src;
  queue[tail++] = src;
  while (head < tail) {
    const std::int32_t u = queue[head++];
    const auto uu = static_cast<std::size_t>(u);
    for (std::size_t e = adj.first[uu]; e < adj.first[uu + 1]; ++e) {
      const std::int32_t v = adj.to[e];
      if (parent[v] < 0) {
        parent[v] = u;
        if (v == target) return;
        queue[tail++] = v;
      }
    }
  }
}

// Hot kernel: out of line and 64-byte aligned (DESIGN.md §11).
/// Dijkstra from core position `src` into `dist` (preset to unreachable),
/// and into `parent` unless it is null; it stops once `target` pops (-1:
/// never), when its distance and every parent on its chain are final.
/// The heap orders (distance, NodeId) exactly as dijkstra() does, so ties
/// pop in the same order and every distance and parent equals the
/// full-graph run's. Leaf entries, which dijkstra() pops without relaxing
/// anything, never enter it.
[[gnu::noinline, gnu::aligned(64)]] void core_dijkstra(
    const CoreAdjacency& adj, const std::vector<NodeId>& core,
    std::int32_t src, std::int32_t target, double* dist,
    std::int32_t* parent) {
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
    if (u == target) return;
    const auto uu = static_cast<std::size_t>(u);
    for (std::size_t e = adj.first[uu]; e < adj.first[uu + 1]; ++e) {
      const std::int32_t v = adj.to[e];
      const double cand = du + adj.weight[e];
      if (cand < dist[v]) {
        dist[v] = cand;
        if (parent != nullptr) parent[v] = u;
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
  unreachable_row_.assign(m, kUnreachable);

  // A leaf is never interior to a shortest path, so the core block's row
  // of a core source is the core columns of its full-graph SSSP: the
  // searches run over the core edges alone.
  adj_.first.reserve(m + 1);
  adj_.first.push_back(0);
  for (const NodeId x : core_) {
    for (const auto& a : g.neighbors(x)) {
      const std::int32_t y = core_index(a.to);
      if (y < 0) continue;
      adj_.to.push_back(y);
      adj_.weight.push_back(a.weight);
    }
    adj_.first.push_back(adj_.to.size());
  }
  unit_ = all_unit_weights(g);
  if (unit_) {
    // Each stripe of 64 sources writes only its own columns.
    const std::size_t stripes = (m + kStripe - 1) / kStripe;
    parallel_for(stripes, 1, [&](std::size_t stripe) noexcept {
      std::vector<std::uint64_t> words(3 * m);
      const std::size_t first = stripe * kStripe;
      core_msbfs(adj_, first, std::min(kStripe, m - first), m, dist_.data(),
                 words.data());
    });
  } else {
    // Each source writes only its own row.
    parallel_for(m, 8, [&](std::size_t x) noexcept {
      core_dijkstra(adj_, core_, static_cast<std::int32_t>(x), -1,
                    dist_.data() + x * m, nullptr);
    });
  }

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
  // One pass over the block into per-column lanes, folded once at the
  // end; the row scans leave the diagonal out.
  const std::size_t num_switches = g.switches().size();
  std::vector<double> far(m, 0.0);
  std::vector<double> top(m, 0.0);
  std::vector<double> low(num_switches, kUnreachable);
  for (std::size_t x = 0; x < m; ++x) {
    const double* row = dist_.data() + x * m;
    scan_pairs(row, leaf1.data(), leaf1[x], 0, x, far.data(), top.data());
    scan_pairs(row, leaf1.data(), leaf1[x], x + 1, m, far.data(), top.data());
    if (leaves[x] >= 1) diameter_ = std::max(diameter_, leaf1[x]);
    if (leaves[x] >= 2) diameter_ = std::max(diameter_, leaf1[x] + leaf2[x]);
    if (x < num_switches) {
      row_min(row, 0, x, low.data());
      row_min(row, x + 1, num_switches, low.data());
    }
  }
  bool cut = false;
  for (std::size_t y = 0; y < m; ++y) {
    diameter_ = std::max(diameter_, far[y]);
    cut = cut || top[y] == kUnreachable;
  }
  for (const double d : low) min_switch_dist_ = std::min(min_switch_dist_, d);
  if (cut) fully_connected_ = false;
  PPDC_REQUIRE(allow_disconnected || fully_connected_,
               "graph must be connected");

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
  const double* block = unit_ ? dist_.data() : transposed();
  return {block + block_index(a.core, 0), a.weight};
}

std::vector<NodeId> AllPairs::path(NodeId u, NodeId v) const {
  PPDC_REQUIRE(reachable(u, v), "no path between the two nodes");
  if (u == v) return {u};
  const Anchor& a = anchor_[static_cast<std::size_t>(u)];
  const Anchor& b = anchor_[static_cast<std::size_t>(v)];
  // Built backwards: v's leaf edge, the core path b -> a, u's leaf edge.
  std::vector<NodeId> p;
  if (core_[static_cast<std::size_t>(b.core)] != v) p.push_back(v);
  if (a.core != b.core) {
    const std::size_t m = core_.size();
    std::vector<std::int32_t> parent(m, -1);
    if (unit_) {
      std::vector<std::int32_t> queue(m);
      core_bfs(adj_, a.core, b.core, parent.data(), queue.data());
    } else {
      std::vector<double> dist(m, kUnreachable);
      core_dijkstra(adj_, core_, a.core, b.core, dist.data(), parent.data());
    }
    for (std::int32_t cur = b.core; cur != a.core;
         cur = parent[static_cast<std::size_t>(cur)]) {
      PPDC_REQUIRE(cur >= 0, "broken parent chain");
      p.push_back(core_[static_cast<std::size_t>(cur)]);
    }
  }
  p.push_back(core_[static_cast<std::size_t>(a.core)]);
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
