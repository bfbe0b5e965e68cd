// Shared helpers for the ppdc test suite: tiny brute-force references the
// optimized algorithms are validated against, and instance builders.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/multi_sfc.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "topology/topology.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc::testing {

/// `l` VM flows from generate_vm_flows under the default
/// VmPlacementConfig (80% intra-rack, uniform racks), drawn from Rng(seed).
inline std::vector<VmFlow> random_flows(const Topology& topo, int l,
                                        std::uint64_t seed) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  Rng rng(seed);
  return generate_vm_flows(topo, cfg, rng);
}

/// Brute-force optimal n-stroll on the metric closure: the cheapest simple
/// sequence of n distinct switches between s and t (triangle inequality
/// makes simple sequences optimal among walks). Exponential — use only on
/// tiny instances.
inline double brute_force_stroll_cost(const AllPairs& apsp, NodeId s,
                                      NodeId t, int n, double rate = 1.0) {
  std::vector<NodeId> switches;
  for (const NodeId w : apsp.graph().switches()) {
    if (w != s && w != t) switches.push_back(w);
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<NodeId> seq(static_cast<std::size_t>(n));
  std::vector<char> used(switches.size(), 0);
  const std::function<void(int, double, NodeId)> rec =
      [&](int depth, double cost, NodeId last) {
        if (cost >= best) return;
        if (depth == n) {
          const double total = cost + rate * apsp.cost(last, t);
          best = std::min(best, total);
          return;
        }
        for (std::size_t i = 0; i < switches.size(); ++i) {
          if (used[i]) continue;
          used[i] = 1;
          rec(depth + 1, cost + rate * apsp.cost(last, switches[i]),
              switches[i]);
          used[i] = 0;
        }
      };
  rec(0, 0.0, s);
  return best;
}

/// Min of `cost(p)` over every ordered tuple p of n distinct switches of
/// `g`. Exponential — tiny instances only.
template <class Cost>
double min_over_distinct_switch_tuples(const Graph& g, int n, Cost cost) {
  const auto& switches = g.switches();
  double best = std::numeric_limits<double>::infinity();
  Placement p;
  std::vector<char> used(switches.size(), 0);
  const std::function<void(int)> rec = [&](int depth) {
    if (depth == n) {
      best = std::min(best, cost(p));
      return;
    }
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (used[i]) continue;
      used[i] = 1;
      p.push_back(switches[i]);
      rec(depth + 1);
      p.pop_back();
      used[i] = 0;
    }
  };
  rec(0);
  return best;
}

/// Brute-force optimal TOP: the least Eq. 1 cost.
inline double brute_force_top_cost(const CostModel& model, int n) {
  return min_over_distinct_switch_tuples(
      model.apsp().graph(), n,
      [&](const Placement& p) { return model.communication_cost(p); });
}

/// Brute-force optimal TOM: the least Eq. 8 cost C_t(from, m).
inline double brute_force_tom_cost(const CostModel& model,
                                   const Placement& from, double mu) {
  return min_over_distinct_switch_tuples(
      model.apsp().graph(), static_cast<int>(from.size()),
      [&](const Placement& p) { return model.total_cost(from, p, mu); });
}

/// Brute-force optimal heterogeneous-SFC placement: the least generalized
/// Eq. 1 cost.
inline double brute_force_multi_sfc_cost(const MultiSfcCostModel& model) {
  return min_over_distinct_switch_tuples(
      model.apsp().graph(), model.sfc_length(),
      [&](const Placement& p) { return model.communication_cost(p); });
}

/// The group base rows of a grouped CostModel, patched the way churn
/// patches landed before they were queued: every rebase is a subtract pass
/// at the snapshot endpoints, then an add pass at the new ones, each
/// applied at once over both rows. The reference for the queued (and, for
/// re-rates, fused) patches of CostModel::drain_patches.
class ImmediatePatchOracle {
 public:
  /// Starts from `start`, a model's group_snapshot() with an empty queue.
  ImmediatePatchOracle(const AllPairs& apsp, CostModel::GroupSnapshot start)
      : apsp_(&apsp),
        ns_(apsp.graph().switches().size()),
        state_(std::move(start)) {}

  const CostModel::GroupSnapshot& state() const noexcept { return state_; }
  std::size_t num_flows() const noexcept { return state_.groups.size(); }

  /// CostModel::rebase_flow with the flow's current endpoints.
  void rebase(FlowId flow, double new_base, int new_group, NodeId src,
              NodeId dst) {
    const auto i = static_cast<std::size_t>(flow.value());
    if (state_.base_rates[i] != 0.0) {
      pass(row_of(state_.groups[i]), -1.0 * state_.base_rates[i],
           state_.snap_src[i], state_.snap_dst[i]);
    }
    state_.base_rates[i] = new_base;
    state_.groups[i] = new_group;
    state_.snap_src[i] = src;
    state_.snap_dst[i] = dst;
    if (new_base != 0.0) pass(ensure_row(new_group), new_base, src, dst);
  }

  /// CostModel::flows_appended for one tail flow.
  void append(double base, int group, NodeId src, NodeId dst) {
    state_.base_rates.push_back(base);
    state_.groups.push_back(group);
    state_.snap_src.push_back(src);
    state_.snap_dst.push_back(dst);
    if (base != 0.0) pass(ensure_row(group), base, src, dst);
  }

  /// The per-flow endpoint patch of CostModel::endpoints_moved/refresh.
  void move(FlowId flow, NodeId src, NodeId dst) {
    const auto i = static_cast<std::size_t>(flow.value());
    const double base = state_.base_rates[i];
    const std::size_t row = row_of(state_.groups[i]) * ns_;
    if (base != 0.0 && src != state_.snap_src[i]) {
      const AllPairs::CoreRow n = apsp_->cost_row(src);
      const AllPairs::CoreRow o = apsp_->cost_row(state_.snap_src[i]);
      for (std::size_t j = 0; j < ns_; ++j) {
        state_.group_ingress[row + j] +=
            base * ((n.weight + n.cost[j]) - (o.weight + o.cost[j]));
      }
    }
    if (base != 0.0 && dst != state_.snap_dst[i]) {
      const AllPairs::CoreRow n = apsp_->cost_col(dst);
      const AllPairs::CoreRow o = apsp_->cost_col(state_.snap_dst[i]);
      for (std::size_t j = 0; j < ns_; ++j) {
        state_.group_egress[row + j] +=
            base * ((n.weight + n.cost[j]) - (o.weight + o.cost[j]));
      }
    }
    state_.snap_src[i] = src;
    state_.snap_dst[i] = dst;
  }

  /// The attractions A and B (by switch slot) that refresh_scaled(scales)
  /// recombines from these rows.
  std::pair<std::vector<double>, std::vector<double>> recombine(
      const std::vector<double>& scales) const {
    std::vector<double> in(ns_, 0.0);
    std::vector<double> eg(ns_, 0.0);
    for (std::size_t r = 0; r < state_.row_groups.size(); ++r) {
      const double scale =
          scales[static_cast<std::size_t>(state_.row_groups[r])];
      for (std::size_t j = 0; j < ns_; ++j) {
        in[j] += scale * state_.group_ingress[r * ns_ + j];
        eg[j] += scale * state_.group_egress[r * ns_ + j];
      }
    }
    return {std::move(in), std::move(eg)};
  }

 private:
  std::size_t row_of(int group) const {
    return static_cast<std::size_t>(
        state_.group_rows[static_cast<std::size_t>(group)]);
  }
  std::size_t ensure_row(int group) {
    if (group >= state_.num_groups) {
      state_.group_rows.resize(static_cast<std::size_t>(group) + 1, -1);
      state_.num_groups = group + 1;
    }
    int& row = state_.group_rows[static_cast<std::size_t>(group)];
    if (row < 0) {
      row = static_cast<int>(state_.row_groups.size());
      state_.row_groups.push_back(group);
      state_.group_ingress.resize(state_.row_groups.size() * ns_, 0.0);
      state_.group_egress.resize(state_.row_groups.size() * ns_, 0.0);
    }
    return static_cast<std::size_t>(row);
  }
  /// One immediate pass: g += a · c over the ingress and egress rows.
  void pass(std::size_t row, double a, NodeId src, NodeId dst) {
    const AllPairs::CoreRow s = apsp_->cost_row(src);
    const AllPairs::CoreRow d = apsp_->cost_col(dst);
    for (std::size_t j = 0; j < ns_; ++j) {
      state_.group_ingress[row * ns_ + j] += a * (s.weight + s.cost[j]);
      state_.group_egress[row * ns_ + j] += a * (d.weight + d.cost[j]);
    }
  }

  const AllPairs* apsp_;
  std::size_t ns_;
  CostModel::GroupSnapshot state_;
};

}  // namespace ppdc::testing
