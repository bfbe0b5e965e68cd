// Topology-aware cost model of the paper (§III, Eq. 1 and Eq. 8).
//
// For an SFC (f_1 .. f_n) placed at switches p(1) .. p(n):
//
//   C_a(p) = Σ_i λ_i Σ_j c(p(j), p(j+1))
//          + Σ_i λ_i ( c(s(v_i), p(1)) + c(p(n), s(v'_i)) )          (Eq. 1)
//
// which factorizes as  Λ · chain(p) + A(p(1)) + B(p(n))  with
//   Λ    = Σ_i λ_i
//   A(a) = Σ_i λ_i c(s(v_i), a)   (ingress attraction)
//   B(b) = Σ_i λ_i c(b, s(v'_i)) (egress attraction)
//
// CostModel caches Λ, A(·) and B(·) per traffic vector so that the DP,
// branch-and-bound, and frontier algorithms evaluate candidate placements
// in O(n) instead of O(l·n). Migration adds C_b(p,m) = μ Σ_j c(p(j), m(j))
// and the TOM objective is C_t(p,m) = C_b(p,m) + C_a(m)               (Eq. 8)
//
// Incremental maintenance: the diurnal model (Eq. 9) rescales all flows of
// one time-zone group by a single factor, and A/B/Λ are linear in the
// rates. enable_group_refresh() precomputes per-group *base* attraction
// vectors A_g(a) = Σ_{i∈g} λ̄_i c(s(v_i), a) (and the egress analogue)
// once per topology; refresh_scaled() then serves an epoch in
// O(|groups| · |V_s|) instead of the O(l · |V_s|) rescan of refresh().
// endpoints_moved() keeps the base vectors coherent when VM-migration
// policies (PLAN/MCF) relocate flow endpoints: stale per-flow
// contributions are subtracted and the moved ones added in
// O(|dirty| · |V_s|), with a full rebuild fallback for large dirty sets.
//
// Every attraction vector is indexed by SwitchIdx (position in
// Graph::switches(), which is also the switch's AllPairs core position),
// so a flow's contribution to all switches is one contiguous core row:
// c(s(v), ·) from AllPairs::cost_row, c(·, s(v')) from cost_col.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/indexed_vector.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// A VNF placement: placement[j] is the switch hosting f_{j+1}.
/// Invariant (§III footnote 3): entries are distinct switches.
using Placement = std::vector<NodeId>;

/// Validates that `p` is a legal placement of n distinct switches.
void validate_placement(const Graph& g, const Placement& p);

/// Cached cost evaluator for a fixed topology + flow set + rate vector.
class CostModel {
 public:
  /// Builds the evaluator. `apsp` and `flows` must outlive the model.
  CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows);

  /// The inputs of one grouped model: the flow vector it binds and the
  /// per-flow base rates and groups of enable_group_refresh().
  struct GroupedFlows {
    const std::vector<VmFlow>* flows;
    const std::vector<double>* base_rates;
    const std::vector<int>* groups;
  };

  /// Builds one grouped model per entry of `sets`, each holding the state
  /// of the two-step path (constructor, then enable_group_refresh(
  /// base_rates, groups, min_groups)) once both recombine under the same
  /// scales — without the two-step path's rate rescan, whose attractions
  /// the first refresh_scaled() would overwrite anyway. Like after
  /// rebase_flow(), callers recombine via refresh_scaled() before the
  /// first cost query. The base rows of all of them accumulate in one
  /// parallel pass over their (model, switch block) pairs, so a set of
  /// small models keeps every thread busy where one model alone has one
  /// or two blocks. `apsp` and every entry's vectors must outlive the
  /// models.
  static std::vector<std::unique_ptr<CostModel>> build_grouped(
      const AllPairs& apsp, std::span<const GroupedFlows> sets,
      int min_groups);

  /// Key of the constructor below; only CostModel can make one.
  class Unbuilt {
    friend class CostModel;
    Unbuilt() = default;
  };

  /// Validates and stores the group domain of one build_grouped() entry
  /// without building the base rows or the attractions: build_grouped()
  /// builds them for all its models at once.
  CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows,
            const std::vector<double>& base_rates,
            const std::vector<int>& groups, int min_groups, Unbuilt key);

  /// Re-derives Λ, A, B after the traffic rate vector changed in `flows`
  /// (full O(|V_s| · l) rescan, parallel over switch blocks). With
  /// group refresh enabled, also resyncs the per-group base vectors to the
  /// flows' current endpoints.
  void refresh();

  /// Precomputes per-group base attraction vectors from `base_rates`
  /// (flow i belongs to `groups[i]`). Afterwards refresh_scaled() serves
  /// epochs in O(|groups| · |V_s|). Group ids may be sparse and re-used:
  /// base-vector storage is allocated per *distinct* id (ascending row
  /// order, so dense id sets keep the historical layout bit for bit)
  /// while num_groups() stays one past the largest id, so diurnal scale
  /// vectors keep indexing by raw group id. Invalid entries fail with a
  /// message naming the offending FlowId. `min_groups` widens the id
  /// domain for callers (sharded views) whose local flow subset may not
  /// mention every global group.
  void enable_group_refresh(const std::vector<double>& base_rates,
                            const std::vector<int>& groups,
                            int min_groups = 0);

  /// True once enable_group_refresh() has been called.
  bool group_refresh_enabled() const noexcept { return num_groups_ > 0; }

  /// Number of diurnal groups (0 when group refresh is disabled).
  int num_groups() const noexcept { return num_groups_; }

  /// Re-derives Λ, A, B for an epoch whose rates are
  /// rate_i = base_rates[i] · scales[groups[i]] by recombining the
  /// per-group base vectors. The caller must apply the same rates to the
  /// bound flow vector (set_rates) so per-flow queries stay coherent.
  void refresh_scaled(const std::vector<double>& scales);

  /// Signals that the flows at `flow_ids` changed endpoints (rates
  /// unchanged): subtracts their stale base-vector contributions, adds the
  /// moved ones, and recombines under the last scales. Falls back to a
  /// full rebuild of the base rows when the dirty set covers most of the
  /// flow population, and to refresh() when group refresh is disabled or
  /// no scale is known for some group id (no refresh_scaled() yet, or a
  /// rebase_flow()/flows_appended() since the last one widened the id
  /// domain). Ids are validated against the bound flow vector; the error
  /// names the offending flow.
  void endpoints_moved(const std::vector<FlowId>& flow_ids);

  /// Streaming churn: flow `flow`'s base rate, group, and/or endpoints
  /// changed in place (arrival into a free slot, departure to base 0, a
  /// re-rate). Updates the bookkeeping at once (base, group, endpoint
  /// snapshot, a row for a new group) and queues the O(|V_s|) row patch:
  /// subtract the old base-vector contribution at the snapshot endpoints,
  /// add the new one at the flow's current endpoints. A re-rate that keeps
  /// its row and endpoints queues one two-term patch. The queue is drained
  /// in order by drain_patches() — each shard's churn apply ends with it
  /// (ShardedCostModel::apply_shard_churn) — or by the next reader of the
  /// base rows (refresh_scaled, refresh, endpoints_moved, group_snapshot).
  /// The combined attraction vectors are left stale on purpose: callers
  /// batch rebase calls per epoch and recombine once via refresh_scaled()
  /// (or refresh()) before the next cost query.
  void rebase_flow(FlowId flow, double new_base, int new_group);

  /// Streaming churn: the bound flow vector grew by `new_bases.size()`
  /// tail slots (endpoints already set by the caller). Registers the new
  /// flows' bases/groups at once and queues their base-vector patches;
  /// same queue and recombine-before-query contract as rebase_flow().
  void flows_appended(const std::vector<double>& new_bases,
                      const std::vector<int>& new_groups);

  /// Makes room for a batch of churn: `flows` flows in the per-flow
  /// bookkeeping that flows_appended() extends, and `patches` patches in
  /// the queue, each grown at least geometrically, as push_back grows
  /// it. Churn within both counts then allocates nothing.
  void reserve_churn(std::size_t flows, std::size_t patches);

  /// Applies the queued churn patches to the base rows, in queue order,
  /// and empties the queue. Touches only this model's rows, so models
  /// may drain concurrently.
  void drain_patches();

  /// True while churn patches wait in the queue.
  bool has_queued_patches() const noexcept { return !patches_.empty(); }

  /// Restricts the switches eligible to host VNFs (fault tolerance: only
  /// alive switches of the serving partition may be placement targets).
  /// Every solver routed through this model (DP, branch-and-bound,
  /// mPareto) draws its candidate universe from placement_candidates().
  /// The set must be non-empty and contain only switches; the argmin
  /// caches (best/min ingress and egress) are rescanned over it.
  void restrict_candidates(std::vector<NodeId> candidates);

  /// Switches eligible for placement: the restricted set, or every switch
  /// of the topology when no restriction is active.
  const std::vector<NodeId>& placement_candidates() const noexcept {
    return candidates_.empty() ? apsp_->graph().switches() : candidates_;
  }

  /// True once restrict_candidates() narrowed the placement universe.
  bool candidates_restricted() const noexcept { return !candidates_.empty(); }

  /// Σ_i λ_i.
  double total_rate() const noexcept { return lambda_sum_; }

  /// Ingress attraction A(a) = Σ_i λ_i c(s(v_i), a).
  double ingress_attraction(NodeId a) const;

  /// Egress attraction B(b) = Σ_i λ_i c(b, s(v'_i)).
  double egress_attraction(NodeId b) const;

  /// Chain cost Σ_j c(p(j), p(j+1)) — topology distance only, no rates.
  double chain_cost(const Placement& p) const;

  /// Eq. 1: total communication cost of all flows under placement p.
  double communication_cost(const Placement& p) const;

  /// C_b(p, m) = μ Σ_j c(p(j), m(j)).
  double migration_cost(const Placement& from, const Placement& to,
                        double mu) const;

  /// Eq. 8: C_t(p, m) = C_b(p, m) + C_a(m).
  double total_cost(const Placement& from, const Placement& to,
                    double mu) const;

  /// Communication cost of a single flow under placement p (diagnostics
  /// and the PLAN/MCF baselines, which reason per flow).
  double flow_cost(const VmFlow& flow, const Placement& p) const;

  const AllPairs& apsp() const noexcept { return *apsp_; }
  const std::vector<VmFlow>& flows() const noexcept { return *flows_; }

  /// Switch minimizing A(·) (used as a B&B seed).
  NodeId best_ingress() const noexcept { return best_ingress_; }
  /// Switch minimizing B(·).
  NodeId best_egress() const noexcept { return best_egress_; }
  /// min_b B(b): admissible lower bound on any egress term.
  double min_egress_attraction() const noexcept { return min_egress_; }
  /// min_a A(a).
  double min_ingress_attraction() const noexcept { return min_ingress_; }

  /// A copy of the incremental group-refresh state, for tests that
  /// compare a patched model against a rebuilt one; drains the patch
  /// queue first. The per-group base vectors are patched in place by
  /// rebase_flow()/endpoints_moved() and never rebuilt by refresh(), so
  /// they carry the exact float history of every patch — a from-scratch
  /// rebuild is mathematically equal but not bit-identical.
  struct GroupSnapshot {
    int num_groups = 0;
    std::vector<double> base_rates;
    std::vector<int> groups;
    std::vector<int> group_rows;
    std::vector<int> row_groups;
    std::vector<double> group_ingress;  ///< rows × |V_s|, SwitchIdx-wide
    std::vector<double> group_egress;   ///< rows × |V_s|, SwitchIdx-wide
    std::vector<double> last_scales;
    std::vector<NodeId> snap_src;
    std::vector<NodeId> snap_dst;
  };
  GroupSnapshot group_snapshot();

 private:
  /// Validates and stores the base rates, groups and id domain.
  void set_group_domain(const std::vector<double>& base_rates,
                        const std::vector<int>& groups, int min_groups);
  /// Rebuilds the per-group base vectors and endpoint snapshot of every
  /// model from scratch: the bookkeeping of each on the calling thread,
  /// then one parallel region over all (model, switch block) pairs, each
  /// copy of it with a scratch slot of its own.
  static void rebuild_group_bases(std::span<CostModel* const> models);
  /// refresh()'s compute task: accumulates switch block `blk` of the
  /// ingress and egress attractions from the flows' current rates.
  void refresh_block(std::size_t blk) noexcept;
  /// The allocating half of the rebuild: drops queued patches, maps group
  /// ids to rows, snapshots the endpoints and sizes the rows.
  void prepare_group_bases();
  /// The compute half: accumulates switch block `blk` of every base row
  /// from the snapshot into `scratch` (2 × rows × block width doubles
  /// owned by the calling task, zeroed here), then copies it into that
  /// block's columns. Allocates nothing.
  void accumulate_group_block(std::size_t blk, double* scratch) noexcept;
  /// Moves one flow's base-vector contributions from its snapshot
  /// endpoints to its current ones.
  void patch_moved_flow(FlowId flow);
  /// |V_s|: the width of every attraction and base vector.
  std::size_t num_switches() const noexcept {
    return apsp_->graph().switches().size();
  }
  /// Slot of switch `sw` in the attraction vectors (its core position).
  SwitchIdx switch_slot(NodeId sw) const {
    return SwitchIdx{apsp_->core_index(sw)};
  }
  /// Dense base-vector row of a group id that is known to be mapped.
  std::size_t row_of(int group) const {
    return static_cast<std::size_t>(
        group_rows_[static_cast<std::size_t>(group)]);
  }
  /// Dense base-vector row of a group id, allocating one (and widening
  /// the id domain) on first use.
  std::size_t ensure_group_row(int group);
  /// Queues one base-row patch (see RowPatch) after checking its
  /// endpoints.
  void queue_patch(std::size_t row, double first, double second, NodeId src,
                   NodeId dst);
  /// Derives Λ, A, B (and the argmins) from the base vectors and `scales`.
  void recombine(const std::vector<double>& scales);
  /// Recomputes best/min ingress+egress from the attraction vectors.
  void rescan_minima();

  const AllPairs* apsp_;
  const std::vector<VmFlow>* flows_;
  std::vector<NodeId> candidates_;  ///< empty = all switches eligible
  double lambda_sum_ = 0.0;
  IndexedVector<SwitchIdx, double> ingress_;
  IndexedVector<SwitchIdx, double> egress_;
  NodeId best_ingress_ = kInvalidNode;
  NodeId best_egress_ = kInvalidNode;
  double min_ingress_ = 0.0;
  double min_egress_ = 0.0;

  // Incremental group-scaled state (empty until enable_group_refresh).
  int num_groups_ = 0;
  std::vector<double> base_rates_;     ///< λ̄_i, one per flow
  std::vector<int> groups_;            ///< group id, one per flow
  std::vector<int> group_rows_;        ///< group id -> dense row (-1 unused)
  std::vector<int> row_groups_;        ///< dense row -> group id
  std::vector<double> group_ingress_;  ///< [row · |V_s| + a] = A_g(a)
  std::vector<double> group_egress_;   ///< [row · |V_s| + b] = B_g(b)
  std::vector<double> last_scales_;    ///< scales of the last recombine
  std::vector<NodeId> snap_src_;       ///< endpoints the base vectors use
  std::vector<NodeId> snap_dst_;

  /// One queued churn patch of base-vector row `row`: per switch j,
  /// g = (g + first·c) + second·c, with c = c(src, sw_j) on the ingress
  /// row and c = c(sw_j, dst) on the egress row. second == 0 marks a
  /// one-term patch, g += first·c (a flow entering or leaving the row).
  struct RowPatch {
    std::size_t row;
    double first;
    double second;
    NodeId src;
    NodeId dst;
  };
  std::vector<RowPatch> patches_;  ///< drained in order by drain_patches()
};

}  // namespace ppdc
