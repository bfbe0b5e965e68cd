#include "flow/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "util/require.hpp"

namespace ppdc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Residual state of one solve. Node ids: VMs [0, V), hosts [V, V + H),
/// the sink V + H. A VM's residual arcs are its unchosen arcs; a host's
/// are the reverse arcs to the VMs it holds and, while it has room, the
/// arc to the sink.
struct Residual {
  const AssignmentArcs& arcs;
  const std::vector<int>& capacity;
  int num_vms;
  int sink;
  std::vector<int> arc_vm;    ///< arc -> its VM
  std::vector<int> assigned;  ///< VM -> chosen arc, -1 while in excess
  std::vector<int> used;      ///< host -> VMs it holds
  std::vector<int> head;      ///< host -> first VM it holds, -1 = none
  std::vector<int> next;      ///< VM -> next VM on the same host
  std::vector<int> prev;      ///< VM -> previous VM on the same host
  std::vector<double> pi;     ///< node potentials
  std::vector<double> dist;   ///< node labels, +inf between searches
  /// Host node -> arc that labelled it; sink -> host node that did.
  std::vector<int> via;
  std::vector<int> touched;  ///< nodes labelled by the current search
  std::vector<int> settled;  ///< nodes popped before the sink
  std::vector<std::pair<double, int>> heap;

  Residual(const AssignmentArcs& a, const std::vector<int>& cap)
      : arcs(a),
        capacity(cap),
        num_vms(a.num_vms()),
        sink(num_vms + static_cast<int>(cap.size())),
        arc_vm(a.host.size()),
        assigned(static_cast<std::size_t>(num_vms), -1),
        used(cap.size(), 0),
        head(cap.size(), -1),
        next(static_cast<std::size_t>(num_vms), -1),
        prev(static_cast<std::size_t>(num_vms), -1),
        pi(static_cast<std::size_t>(sink) + 1, 0.0),
        dist(static_cast<std::size_t>(sink) + 1, kInf),
        via(static_cast<std::size_t>(sink) + 1, -1) {}

  /// Puts VM v on host h through arc a.
  void place(int v, int a, int h) {
    assigned[static_cast<std::size_t>(v)] = a;
    const int first = head[static_cast<std::size_t>(h)];
    next[static_cast<std::size_t>(v)] = first;
    prev[static_cast<std::size_t>(v)] = -1;
    if (first >= 0) prev[static_cast<std::size_t>(first)] = v;
    head[static_cast<std::size_t>(h)] = v;
  }

  /// Takes VM v off host h.
  void unplace(int v, int h) {
    const int p = prev[static_cast<std::size_t>(v)];
    const int n = next[static_cast<std::size_t>(v)];
    if (p >= 0) {
      next[static_cast<std::size_t>(p)] = n;
    } else {
      head[static_cast<std::size_t>(h)] = n;
    }
    if (n >= 0) prev[static_cast<std::size_t>(n)] = p;
  }
};

/// Routes excess VM x to the sink along a shortest path in reduced costs,
/// then restores dual feasibility. Throws when no path exists.
// Hot kernel: 64-byte aligned (DESIGN.md §11).
[[gnu::noinline, gnu::aligned(64)]] void augment(Residual& r, int x) {
  const AssignmentArcs& arcs = r.arcs;
  const int nv = r.num_vms;
  const auto relax = [&](int v, double d, int from) {
    // Reduced costs are non-negative up to rounding; the callers clamp the
    // residue, and the tolerance keeps a rounding-level gain from
    // relabelling a node.
    double& dv = r.dist[static_cast<std::size_t>(v)];
    if (d >= dv - 1e-12) return;
    if (dv == kInf) r.touched.push_back(v);
    dv = d;
    r.via[static_cast<std::size_t>(v)] = from;
    r.heap.emplace_back(d, v);
    std::push_heap(r.heap.begin(), r.heap.end(), std::greater<>{});
  };
  relax(x, 0.0, -1);
  while (!r.heap.empty()) {
    std::pop_heap(r.heap.begin(), r.heap.end(), std::greater<>{});
    const auto [du, u] = r.heap.back();
    r.heap.pop_back();
    if (du != r.dist[static_cast<std::size_t>(u)]) continue;  // stale
    if (u == r.sink) break;
    r.settled.push_back(u);
    const double pu = r.pi[static_cast<std::size_t>(u)];
    if (u < nv) {
      // VM: its unchosen arcs to hosts.
      const int chosen = r.assigned[static_cast<std::size_t>(u)];
      const int end = arcs.begin[static_cast<std::size_t>(u) + 1];
      for (int a = arcs.begin[static_cast<std::size_t>(u)]; a < end; ++a) {
        if (a == chosen) continue;
        const int node = nv + arcs.host[static_cast<std::size_t>(a)];
        const double step =
            std::max(0.0, arcs.cost[static_cast<std::size_t>(a)] + pu -
                              r.pi[static_cast<std::size_t>(node)]);
        relax(node, du + step, a);
      }
    } else {
      // Host: the sink while it has room, then the VMs it holds.
      const auto h = static_cast<std::size_t>(u - nv);
      if (r.used[h] < r.capacity[h]) {
        relax(r.sink, du + std::max(0.0, pu), u);  // π(sink) = 0
      }
      for (int v = r.head[h]; v >= 0; v = r.next[static_cast<std::size_t>(v)]) {
        const auto a = static_cast<std::size_t>(
            r.assigned[static_cast<std::size_t>(v)]);
        const double step = std::max(
            0.0, pu - arcs.cost[a] - r.pi[static_cast<std::size_t>(v)]);
        relax(v, du + step, -1);
      }
    }
  }
  const double d_sink = r.dist[static_cast<std::size_t>(r.sink)];
  PPDC_REQUIRE(d_sink != kInf,
               "assignment infeasible: host capacities cannot take every VM");

  for (const int v : r.settled) {
    r.pi[static_cast<std::size_t>(v)] +=
        r.dist[static_cast<std::size_t>(v)] - d_sink;
  }
  // Walk back: each host on the path took its VM through the arc that
  // labelled it, and that VM left the host of its previous arc.
  int h = r.via[static_cast<std::size_t>(r.sink)] - nv;
  ++r.used[static_cast<std::size_t>(h)];
  while (true) {
    const int a = r.via[static_cast<std::size_t>(nv + h)];
    const int v = r.arc_vm[static_cast<std::size_t>(a)];
    const int old = r.assigned[static_cast<std::size_t>(v)];
    if (old >= 0) r.unplace(v, arcs.host[static_cast<std::size_t>(old)]);
    r.place(v, a, h);
    if (old < 0) break;  // back at x
    h = arcs.host[static_cast<std::size_t>(old)];
  }

  for (const int v : r.touched) r.dist[static_cast<std::size_t>(v)] = kInf;
  r.touched.clear();
  r.settled.clear();
  r.heap.clear();
}

}  // namespace

Assignment solve_assignment(const AssignmentArcs& arcs,
                            const std::vector<int>& capacity) {
  const int nv = arcs.num_vms();
  const int nh = static_cast<int>(capacity.size());
  PPDC_REQUIRE(nv >= 0 && arcs.host.size() == arcs.cost.size() &&
                   static_cast<std::size_t>(arcs.begin.back()) ==
                       arcs.host.size(),
               "malformed assignment arcs");
  Residual r(arcs, capacity);

  // Dual start: each VM, in index order, on its first cheapest arc while
  // that host has room.
  std::vector<int> excess;
  for (int v = 0; v < nv; ++v) {
    const int first = arcs.begin[static_cast<std::size_t>(v)];
    const int end = arcs.begin[static_cast<std::size_t>(v) + 1];
    PPDC_REQUIRE(first < end, "assignment infeasible: a VM has no arc");
    int best = first;
    for (int a = first; a < end; ++a) {
      const int h = arcs.host[static_cast<std::size_t>(a)];
      const double c = arcs.cost[static_cast<std::size_t>(a)];
      PPDC_REQUIRE(h >= 0 && h < nh, "assignment arc host out of range");
      PPDC_REQUIRE(std::isfinite(c), "assignment arc cost not finite");
      r.arc_vm[static_cast<std::size_t>(a)] = v;
      if (c < arcs.cost[static_cast<std::size_t>(best)]) best = a;
    }
    r.pi[static_cast<std::size_t>(v)] =
        -arcs.cost[static_cast<std::size_t>(best)];
    const int h = arcs.host[static_cast<std::size_t>(best)];
    if (r.used[static_cast<std::size_t>(h)] <
        capacity[static_cast<std::size_t>(h)]) {
      ++r.used[static_cast<std::size_t>(h)];
      r.place(v, best, h);
    } else {
      excess.push_back(v);
    }
  }

  for (const int x : excess) augment(r, x);

  Assignment out;
  out.arc = std::move(r.assigned);
  out.vm_potential.assign(r.pi.begin(), r.pi.begin() + nv);
  out.host_potential.assign(r.pi.begin() + nv, r.pi.begin() + nv + nh);
  return out;
}

}  // namespace ppdc
