#include "baselines/vm_migration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "flow/assignment.hpp"
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

  std::vector<int> host_row(static_cast<std::size_t>(apsp.num_nodes()), -1);
  for (int h = 0; h < static_cast<int>(hosts.size()); ++h) {
    host_row[static_cast<std::size_t>(hosts[static_cast<std::size_t>(h)])] = h;
  }
  const auto row_of = [&](NodeId h) {
    const int row = host_row[static_cast<std::size_t>(h)];
    PPDC_REQUIRE(row >= 0, "candidate host missing from host table");
    return row;
  };

  // VM -> candidate host arcs carry comm-at-host + migration cost. The
  // current host's arc comes first, so it wins an exact tie of the
  // assignment's greedy start.
  AssignmentArcs arcs;
  for (const Endpoint& ep : endpoints) {
    const NodeId cur = ep.host(flows);
    const auto cost_at = [&](NodeId h) {
      return config.horizon_hours *
                 endpoint_cost(apsp, flows, ep, vnf_placement, h) +
             config.mu * apsp.cost(cur, h);
    };
    const double stay = cost_at(cur);
    // When the endpoint's host cannot reach its chain end, no host that
    // can is reachable from it (the metric is symmetric), so every arc is
    // infinite: one zero-cost arc keeps the endpoint where it is.
    arcs.add(row_of(cur), std::isfinite(stay) ? stay : 0.0);
    if (std::isfinite(stay)) {
      candidates.for_each(ep, cur, [&](NodeId h) {
        if (h == cur) return;
        const double cost = cost_at(h);
        // On a degraded fabric an unreachable candidate costs +inf; such
        // arcs would poison the potentials, so drop them.
        if (std::isfinite(cost)) arcs.add(row_of(h), cost);
      });
    }
    arcs.end_vm();
  }
  // Per-host capacity: the configured limit, but never below the host's
  // current occupancy — the status quo must stay feasible even when the
  // initial workload already exceeds the nominal limit (hot racks under
  // Zipf tenant skew do). Uncapacitated, every VM takes its cheapest arc.
  std::vector<int> capacity(hosts.size(), std::numeric_limits<int>::max());
  if (config.host_capacity > 0) {
    const std::vector<int> occ = occupancy(apsp, flows);
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      capacity[h] = std::max(config.host_capacity,
                             occ[static_cast<std::size_t>(hosts[h])]);
    }
  }
  const Assignment assignment = solve_assignment(arcs, capacity);

  VmMigrationResult result;
  result.flows = flows;
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    const Endpoint& ep = endpoints[e];
    const NodeId cur = ep.host(flows);
    const NodeId to = hosts[static_cast<std::size_t>(
        arcs.host[static_cast<std::size_t>(assignment.arc[e])])];
    if (to == cur) continue;
    result.migration_cost += config.mu * apsp.cost(cur, to);
    ++result.vms_moved;
    ep.set_host(result.flows, to);
    result.moved_flow_indices.push_back(ep.flow);
  }
  finalize_moved_indices(result.moved_flow_indices);
  result.comm_cost = full_comm_cost(apsp, result.flows, vnf_placement);
  result.total_cost = result.comm_cost + result.migration_cost;
  return result;
}

}  // namespace ppdc
