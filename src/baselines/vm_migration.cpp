#include "baselines/vm_migration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "flow/min_cost_flow.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kPlanRounds = 3;  ///< PLAN improvement rounds

/// One movable VM endpoint: flow id + whether it is the source side.
struct Endpoint {
  FlowId flow{0};
  bool is_source = true;

  NodeId host(const std::vector<VmFlow>& flows) const {
    const auto& f = flows[static_cast<std::size_t>(flow.value())];
    return is_source ? f.src_host : f.dst_host;
  }
  void set_host(std::vector<VmFlow>& flows, NodeId h) const {
    auto& f = flows[static_cast<std::size_t>(flow.value())];
    (is_source ? f.src_host : f.dst_host) = h;
  }
  /// The VNF-chain endpoint this VM talks to.
  NodeId anchor(const Placement& p) const {
    return is_source ? p.front() : p.back();
  }
};

std::vector<Endpoint> all_endpoints(const std::vector<VmFlow>& flows) {
  std::vector<Endpoint> eps;
  eps.reserve(flows.size() * 2);
  for (const FlowId i : id_range<FlowId>(flows.size())) {
    eps.push_back({i, true});
    eps.push_back({i, false});
  }
  return eps;
}

/// Communication cost term owned by one endpoint at host h. Rate-zero
/// flows (including fault-quarantined ones, whose endpoint distances may
/// be +inf on a degraded fabric) cost nothing — the explicit guard keeps
/// the arithmetic NaN-free (0 * inf = NaN).
double endpoint_cost(const AllPairs& apsp, const std::vector<VmFlow>& flows,
                     const Endpoint& ep, const Placement& p, NodeId h) {
  const double rate = flows[static_cast<std::size_t>(ep.flow.value())].rate;
  if (rate == 0.0) return 0.0;
  return rate * apsp.cost(h, ep.anchor(p));
}

/// Full communication cost of all flows (chain legs included).
double full_comm_cost(const AllPairs& apsp, const std::vector<VmFlow>& flows,
                      const Placement& p) {
  double chain = 0.0;
  for (std::size_t j = 0; j + 1 < p.size(); ++j) {
    chain += apsp.cost(p[j], p[j + 1]);
  }
  double total = 0.0;
  for (const auto& f : flows) {
    if (f.rate == 0.0) continue;  // NaN-safety, see endpoint_cost
    total += f.rate * (apsp.cost(f.src_host, p.front()) + chain +
                       apsp.cost(p.back(), f.dst_host));
  }
  return total;
}

/// Host occupancy (number of VMs per host id).
std::vector<int> occupancy(const AllPairs& apsp,
                           const std::vector<VmFlow>& flows) {
  std::vector<int> occ(static_cast<std::size_t>(apsp.num_nodes()), 0);
  for (const auto& f : flows) {
    ++occ[static_cast<std::size_t>(f.src_host)];
    ++occ[static_cast<std::size_t>(f.dst_host)];
  }
  return occ;
}

/// Sorts and deduplicates the moved-flow id list (src and dst moves of
/// one flow collapse to a single entry).
void finalize_moved_indices(std::vector<FlowId>& moved) {
  std::sort(moved.begin(), moved.end());
  moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
}

/// The `limit` hosts nearest to `anchor`, in nth_element order over
/// Graph::hosts() (limit 0 = every host, in that order).
std::vector<NodeId> nearest_hosts(const AllPairs& apsp, NodeId anchor,
                                  int limit) {
  std::vector<NodeId> sorted = apsp.graph().hosts();
  if (limit <= 0 || static_cast<std::size_t>(limit) >= sorted.size()) {
    return sorted;
  }
  std::nth_element(sorted.begin(), sorted.begin() + limit, sorted.end(),
                   [&](NodeId a, NodeId b) {
                     return apsp.cost(a, anchor) < apsp.cost(b, anchor);
                   });
  sorted.resize(static_cast<std::size_t>(limit));
  return sorted;
}

/// Candidate target hosts per chain end. Every source endpoint anchors at
/// p.front() and every destination endpoint at p.back(), so the nearest
/// hosts are selected once per end and call, not once per endpoint.
class CandidateHosts {
 public:
  CandidateHosts(const AllPairs& apsp, const Placement& p, int limit)
      : front_(nearest_hosts(apsp, p.front(), limit)),
        back_(nearest_hosts(apsp, p.back(), limit)),
        pruned_(front_.size() < apsp.graph().hosts().size()) {}

  /// Calls f(h) for each candidate of `ep`, now on host `current`: the
  /// hosts nearest its chain end, then `current` when it is not among
  /// them.
  template <class F>
  void for_each(const Endpoint& ep, NodeId current, F&& f) const {
    const std::vector<NodeId>& near = ep.is_source ? front_ : back_;
    for (const NodeId h : near) f(h);
    if (pruned_ && std::find(near.begin(), near.end(), current) == near.end()) {
      f(current);
    }
  }

 private:
  std::vector<NodeId> front_;
  std::vector<NodeId> back_;
  bool pruned_;
};

}  // namespace

VmMigrationResult solve_vm_migration_plan(const AllPairs& apsp,
                                          const std::vector<VmFlow>& flows,
                                          const Placement& vnf_placement,
                                          const VmMigrationConfig& config) {
  PPDC_REQUIRE(!vnf_placement.empty(), "empty VNF placement");
  PPDC_REQUIRE(config.mu >= 0.0, "negative migration coefficient");

  VmMigrationResult result;
  result.flows = flows;
  std::vector<int> occ = occupancy(apsp, flows);
  const auto endpoints = all_endpoints(flows);
  const CandidateHosts candidates(apsp, vnf_placement, config.candidate_hosts);

  for (int round = 0; round < kPlanRounds; ++round) {
    // Best candidate move per endpoint, by utility (positive only).
    struct Move {
      std::size_t ep_index;
      NodeId target;
      double utility;
    };
    std::vector<Move> moves;
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
      const Endpoint& ep = endpoints[e];
      const NodeId cur = ep.host(result.flows);
      const double cur_cost =
          endpoint_cost(apsp, result.flows, ep, vnf_placement, cur);
      double best_u = 0.0;
      NodeId best_h = kInvalidNode;
      candidates.for_each(ep, cur, [&](NodeId h) {
        if (h == cur) return;
        const double u =
            config.horizon_hours *
                (cur_cost -
                 endpoint_cost(apsp, result.flows, ep, vnf_placement, h)) -
            config.mu * apsp.cost(cur, h);
        if (u > best_u) {
          best_u = u;
          best_h = h;
        }
      });
      if (best_h != kInvalidNode) {
        moves.push_back({e, best_h, best_u});
      }
    }
    if (moves.empty()) break;
    std::sort(moves.begin(), moves.end(),
              [](const Move& a, const Move& b) { return a.utility > b.utility; });
    int applied = 0;
    for (const Move& mv : moves) {
      const Endpoint& ep = endpoints[mv.ep_index];
      const NodeId cur = ep.host(result.flows);
      if (cur == mv.target) continue;
      if (config.host_capacity > 0 &&
          occ[static_cast<std::size_t>(mv.target)] >= config.host_capacity) {
        continue;
      }
      // Re-validate the utility against the current state (earlier moves
      // in this round may have shifted this endpoint's flow already).
      const double u =
          config.horizon_hours *
              (endpoint_cost(apsp, result.flows, ep, vnf_placement, cur) -
               endpoint_cost(apsp, result.flows, ep, vnf_placement,
                             mv.target)) -
          config.mu * apsp.cost(cur, mv.target);
      if (u <= 0.0) continue;
      result.migration_cost += config.mu * apsp.cost(cur, mv.target);
      result.migration_distance += apsp.cost(cur, mv.target);
      --occ[static_cast<std::size_t>(cur)];
      ++occ[static_cast<std::size_t>(mv.target)];
      ep.set_host(result.flows, mv.target);
      result.moved_flow_indices.push_back(ep.flow);
      ++result.vms_moved;
      ++applied;
    }
    if (applied == 0) break;
  }

  finalize_moved_indices(result.moved_flow_indices);
  result.comm_cost = full_comm_cost(apsp, result.flows, vnf_placement);
  result.total_cost = result.comm_cost + result.migration_cost;
  return result;
}

VmMigrationResult solve_vm_migration_mcf(const AllPairs& apsp,
                                         const std::vector<VmFlow>& flows,
                                         const Placement& vnf_placement,
                                         const VmMigrationConfig& config) {
  PPDC_REQUIRE(!vnf_placement.empty(), "empty VNF placement");
  PPDC_REQUIRE(config.mu >= 0.0, "negative migration coefficient");
  const auto& hosts = apsp.graph().hosts();
  const auto endpoints = all_endpoints(flows);
  const CandidateHosts candidates(apsp, vnf_placement, config.candidate_hosts);

  if (config.host_capacity <= 0) {
    // Uncapacitated MCF decomposes exactly: with no coupling constraint,
    // every unit of flow independently takes its cheapest VM -> host arc,
    // so the per-endpoint argmin *is* the min-cost flow optimum. This fast
    // path keeps the 1024-host dynamic experiments tractable.
    VmMigrationResult result;
    result.flows = flows;
    for (const Endpoint& ep : endpoints) {
      const NodeId cur = ep.host(flows);
      double best = config.horizon_hours *
                    endpoint_cost(apsp, flows, ep, vnf_placement, cur);
      NodeId best_h = cur;
      candidates.for_each(ep, cur, [&](NodeId h) {
        const double cost =
            config.horizon_hours *
                endpoint_cost(apsp, flows, ep, vnf_placement, h) +
            config.mu * apsp.cost(cur, h);
        if (cost < best) {
          best = cost;
          best_h = h;
        }
      });
      if (best_h != cur) {
        result.migration_cost += config.mu * apsp.cost(cur, best_h);
        result.migration_distance += apsp.cost(cur, best_h);
        ++result.vms_moved;
        ep.set_host(result.flows, best_h);
        result.moved_flow_indices.push_back(ep.flow);
      }
    }
    finalize_moved_indices(result.moved_flow_indices);
    result.comm_cost = full_comm_cost(apsp, result.flows, vnf_placement);
    result.total_cost = result.comm_cost + result.migration_cost;
    return result;
  }

  // Node layout: 0 = source, 1 = sink, [2, 2+E) = endpoints,
  // [2+E, 2+E+H) = hosts.
  const int num_eps = static_cast<int>(endpoints.size());
  const int num_hosts = static_cast<int>(hosts.size());
  const int ep_base = 2;
  const int host_base = 2 + num_eps;
  MinCostFlow mcf(2 + num_eps + num_hosts);

  std::vector<int> host_row(static_cast<std::size_t>(apsp.num_nodes()), -1);
  for (int h = 0; h < num_hosts; ++h) {
    host_row[static_cast<std::size_t>(hosts[static_cast<std::size_t>(h)])] = h;
  }

  for (int e = 0; e < num_eps; ++e) {
    mcf.add_arc(0, ep_base + e, 1, 0.0);
  }
  // VM -> candidate host arcs carry comm-at-host + migration cost.
  struct ArcRef {
    int arc_id;
    int ep;
    NodeId host;
  };
  std::vector<ArcRef> refs;
  for (int e = 0; e < num_eps; ++e) {
    const Endpoint& ep = endpoints[static_cast<std::size_t>(e)];
    const NodeId cur = ep.host(flows);
    candidates.for_each(ep, cur, [&](NodeId h) {
      const double cost =
          config.horizon_hours *
              endpoint_cost(apsp, flows, ep, vnf_placement, h) +
          config.mu * apsp.cost(cur, h);
      // On a degraded fabric an unreachable candidate costs +inf; such
      // arcs would poison the MCF potentials, so drop them. The
      // current-host arc is always finite (zero migration distance and a
      // guarded endpoint cost), keeping the status quo feasible.
      if (!std::isfinite(cost)) return;
      const int row = host_row[static_cast<std::size_t>(h)];
      PPDC_REQUIRE(row >= 0, "candidate host missing from host table");
      refs.push_back(
          {mcf.add_arc(ep_base + e, host_base + row, 1, cost), e, h});
    });
  }
  // Per-host capacity: the configured limit, but never below the host's
  // current occupancy — the status quo must stay feasible even when the
  // initial workload already exceeds the nominal limit (hot racks under
  // Zipf tenant skew do).
  const std::vector<int> occ = occupancy(apsp, flows);
  for (int h = 0; h < num_hosts; ++h) {
    const NodeId host = hosts[static_cast<std::size_t>(h)];
    const std::int64_t cap = std::max<std::int64_t>(
        config.host_capacity, occ[static_cast<std::size_t>(host)]);
    mcf.add_arc(host_base + h, 1, cap, 0.0);
  }

  const auto solved = mcf.solve(0, 1);
  PPDC_REQUIRE(solved.flow == num_eps,
               "MCF could not place every VM (capacity too tight)");

  VmMigrationResult result;
  result.flows = flows;
  for (const ArcRef& ref : refs) {
    if (mcf.flow_on(ref.arc_id) == 0) continue;
    const Endpoint& ep = endpoints[static_cast<std::size_t>(ref.ep)];
    const NodeId cur = ep.host(flows);
    if (ref.host != cur) {
      result.migration_cost += config.mu * apsp.cost(cur, ref.host);
      result.migration_distance += apsp.cost(cur, ref.host);
      ++result.vms_moved;
      ep.set_host(result.flows, ref.host);
      result.moved_flow_indices.push_back(ep.flow);
    }
  }
  finalize_moved_indices(result.moved_flow_indices);
  result.comm_cost = full_comm_cost(apsp, result.flows, vnf_placement);
  result.total_cost = result.comm_cost + result.migration_cost;
  return result;
}

}  // namespace ppdc
