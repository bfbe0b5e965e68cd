// Pod-sharded view of the cost model (DESIGN.md §14).
//
// One CostModel over every flow (the single-shard map) re-solves the
// whole population each epoch. At million-flow scale that is both too
// much work per epoch and needless:
// fat-tree pods are locality units — a flow's ingress attraction is
// anchored at its source host's pod — so the flow population factors into
// per-ingress-pod shards whose cost models evolve independently. Each
// shard owns a compact slot-dense flow vector, the parallel base-rate /
// group bookkeeping, and a private CostModel with the PR 1 group-base
// refresh enabled over the *global* group domain (a shard that currently
// sees only east-coast flows still accepts the global diurnal scale
// vector).
//
// Streaming churn (workload/streaming.hpp) is mirrored into the shards in
// two steps. route_churn(), on one thread, reads the global maps and
// sorts the epoch's events into one bucket per shard: departures drop a
// slot's base to 0 in place, re-rates rebase it, and arrivals re-use the
// departing slot — or, when the new flow's ingress pod changed, vacate it
// (an event of the old shard) and allocate a slot in the new shard (an
// event of the new one). apply_shard_churn(s) then applies shard s's
// bucket as O(|V_s|) CostModel::rebase_flow / flows_appended patches and
// drains them; buckets of distinct shards apply concurrently (the sharded
// engine runs each one at the start of its shard's epoch task). The
// per-epoch recombination stays with the simulation loop
// (sim/sharded.hpp), which refreshes every shard under the epoch's scales
// before any cost query.
//
// Determinism: shards are stored and always iterated in fixed pod order,
// churn lists are routed in ascending global-FlowId order, every bucket
// keeps that order, and free local slots are re-used smallest-first — a
// shard's state after any churn history is a pure function of its own
// events in that order, independent of thread count and of the order in
// which the shards apply their buckets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "topology/topology.hpp"
#include "util/ids.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// Host → shard assignment. Shards are identified by dense indices in
/// fixed order (pod order for by_ingress_pod); the map itself is immutable
/// after construction.
struct ShardMap {
  std::vector<std::string> names;  ///< one per shard, fixed order
  std::vector<int> shard_of_host;  ///< indexed by NodeId value; -1 = none

  int num_shards() const noexcept { return static_cast<int>(names.size()); }

  /// Shard of a host node. Fails when `host` is not a mapped host.
  int shard_of(NodeId host) const;

  /// One shard per PowerDomain (= one per fat-tree pod): a rack belongs to
  /// the domain containing its top-of-rack switch. Racks outside every
  /// domain (or all racks, when the topology exposes no domains) land in
  /// one trailing catch-all shard.
  static ShardMap by_ingress_pod(const Topology& topo);

  /// The degenerate single-shard map: every host in shard 0. A churn-free
  /// run over this map equals run_simulation's field for field.
  static ShardMap single(const Topology& topo);
};

/// Per-shard flow storage + cost models, kept in sync with a streaming
/// (or static) global flow vector.
class ShardedCostModel {
 public:
  /// One shard's state. Held by unique_ptr so `flows` (the vector object
  /// the shard's CostModel is bound to) never changes address when the
  /// shard set is built.
  struct Shard {
    std::string name;
    std::vector<VmFlow> flows;         ///< compact slot-dense local vector
    std::vector<double> base_rates;    ///< λ̄ per local slot (0 = vacant)
    std::vector<int> groups;           ///< diurnal group per local slot
    std::vector<FlowId> global_ids;    ///< local slot -> global FlowId
    std::vector<FlowId> free_locals;   ///< vacant local slots, descending
    std::unique_ptr<CostModel> model;  ///< bound to `flows`
    int live = 0;                      ///< slots carrying traffic
  };

  /// Partitions `flows` (a slot-dense global vector whose `rate` fields
  /// carry *base* rates) by ingress pod and builds one group-refresh
  /// CostModel per shard, all in one CostModel::build_grouped() pass. `min_groups` is the global diurnal group-domain
  /// size — every shard accepts scale vectors of that length even when its
  /// local subset misses some groups. `apsp`, `topo`, and `map` must
  /// outlive the model.
  ShardedCostModel(const AllPairs& apsp, const ShardMap& map,
                   const std::vector<VmFlow>& flows, int min_groups);

  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }
  Shard& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  const Shard& shard(int s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }

  /// Mirrors one epoch of streaming churn into the shards: route_churn(),
  /// then apply_shard_churn() for every shard with events, one shard per
  /// task on the executor. Returns what route_churn() returns.
  std::vector<int> apply_churn(const std::vector<VmFlow>& flows,
                               const FlowChurn& churn);

  /// Routes one epoch of streaming churn into per-shard event buckets.
  /// `flows` is the workload's global vector after the churn was
  /// committed (base rates). Lists are routed departures → re-rates →
  /// arrivals, each in ascending global id order (arrivals strictly
  /// ascending), and every input check runs here, before any shard
  /// changes. Mutates no shard: it extends the global maps for appended
  /// ids (their entries stay unmapped until their shard applies its
  /// bucket) and makes room in each shard for the slots it will append;
  /// a route that throws leaves the model as it was. Returns the number of events routed to each shard (a cross-shard
  /// re-spawn counts on both sides) — the re-solve predicate's staleness
  /// signal. Every bucket must be applied before the next call.
  std::vector<int> route_churn(const std::vector<VmFlow>& flows,
                               const FlowChurn& churn);

  /// Applies shard `s`'s routed events in order and drains the row
  /// patches they queued. `flows` is the vector route_churn() was given,
  /// unchanged since. Touches only shard `s` and the global map entries
  /// of the ids it allocates, and reads neither global map, so distinct
  /// shards may apply concurrently, in any order.
  void apply_shard_churn(int s, const std::vector<VmFlow>& flows);

  /// Shard currently holding global flow `g` (-1 for never-seen ids).
  int flow_shard(FlowId g) const;
  /// Local slot of global flow `g` within flow_shard(g).
  FlowId flow_local(FlowId g) const;

 private:
  /// One routed churn event of one shard: what happens to global flow
  /// `global` (whose committed state is flows[global]) and the local
  /// slot it held before the epoch.
  struct ChurnEvent {
    enum class Kind : std::uint8_t {
      kDepart,    ///< slot `local` drops to base 0
      kRerate,    ///< slot `local` takes the flow's new base
      kRespawn,   ///< slot `local` takes the flow (same-pod re-spawn)
      kVacate,    ///< slot `local` frees (cross-pod re-spawn, old side)
      kAllocate,  ///< the flow takes a free or appended slot
    };
    Kind kind;
    FlowId local;  ///< invalid for kAllocate
    FlowId global;
  };

  /// Places flow `g` (endpoints+base from `f`) into shard `s`, re-using
  /// the smallest free local slot or appending, and patches the shard's
  /// cost model. Writes `g`'s global map entries.
  void allocate_local(int s, FlowId g, const VmFlow& f);

  const AllPairs* apsp_;
  const ShardMap* map_;
  int min_groups_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<ChurnEvent>> buckets_;  ///< routed, per shard
  std::vector<int> flow_shard_;      ///< global id -> shard (-1 unmapped)
  std::vector<FlowId> flow_local_;   ///< global id -> local slot
};

}  // namespace ppdc
