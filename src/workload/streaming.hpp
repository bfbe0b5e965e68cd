// Streaming workload: flows arrive, depart, and re-rate between epochs.
//
// The paper's dynamic experiments (§VI) fix the flow population and only
// re-scale rates diurnally. Real tenants churn: meetings start and end,
// VMs are torn down. StreamingWorkload generalizes the static generator —
// epoch 0 is bit-identical to generate_vm_flows() under the same seed, and
// advance() then applies one epoch of churn (departures, re-rates,
// arrivals, all drawn from one seeded Rng in a fixed order, so the whole
// trace is deterministic).
//
// advance() is draw() then commit(). draw() is const: it computes an
// epoch's churn into caller-owned buffers from the free list, the slot
// count and the generator alone, so the sharded engine draws epoch h+1
// while epoch h's shards run, and commits it at h+1 (DESIGN.md §14).
//
// FlowId stability (the property the sharded cost model depends on):
// departing flows do NOT compact the flow vector. Their slot keeps its
// endpoints, drops to base rate 0, and enters a free-list; the next
// arrival re-uses the smallest free slot (or appends). FlowIds are thus
// never remapped, per-flow caches stay valid, and the flow vector stays
// dense in slots while only live_flows() of them carry traffic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "topology/topology.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {

/// Per-epoch churn intensities. All defaults are zero: a default-constructed
/// config makes StreamingWorkload behave exactly like the static workload.
struct StreamingChurnConfig {
  int arrivals_per_epoch = 0;   ///< new flows drawn each advance()
  double departure_prob = 0.0;  ///< per live flow per epoch
  double rerate_prob = 0.0;     ///< per surviving flow per epoch
};

/// What one advance() changed, as ascending FlowId lists. A flow appears in
/// at most one list per epoch (a slot freed by a departure can be re-used
/// by an arrival in the same epoch; it is then reported only as arrived).
struct FlowChurn {
  std::vector<FlowId> departed;  ///< base rate dropped to 0, slot freed
  std::vector<FlowId> arrived;   ///< fresh flow (re-used or appended slot)
  std::vector<FlowId> rerated;   ///< base rate re-drawn, endpoints unchanged

  std::size_t total() const noexcept {
    return departed.size() + arrived.size() + rerated.size();
  }
};

/// One epoch of churn, drawn but not applied (StreamingWorkload::draw).
/// The caller owns it and reuses it, so its buffers keep their capacity
/// from epoch to epoch.
struct ChurnDraw {
  /// What commit() changes, as advance() reports it.
  FlowChurn churn;
  std::vector<double> rerates;   ///< new base rate of churn.rerated[k]
  std::vector<VmFlow> arrivals;  ///< the flow landing in churn.arrived[k]
  /// The free list after the epoch, sorted descending.
  std::vector<FlowId> free_slots;
  Rng rng;  ///< the generator after the epoch
  std::array<std::uint64_t, 4> drawn_from{};  ///< the generator before it
};

/// Seeded, deterministic flow source with inter-epoch churn.
class StreamingWorkload {
 public:
  /// Draws the initial population exactly like
  /// generate_vm_flows(topo, initial, rng). `topo` must outlive the
  /// workload; `rng` is taken by value (the workload owns its stream).
  StreamingWorkload(const Topology& topo, const VmPlacementConfig& initial,
                    const StreamingChurnConfig& churn, Rng rng);

  /// A churn-free source over a fixed population (`flows` carry base
  /// rates): advance() never changes anything.
  explicit StreamingWorkload(std::vector<VmFlow> flows);

  /// Slot-dense flow vector. Each flow's `rate` is its current *base*
  /// rate λ̄_i (diurnal scaling is applied downstream); vacant slots have
  /// rate 0 and keep their last valid endpoints/group. The reference is
  /// stable across advance() only if no arrival appends a slot — cost
  /// models bind to this vector and must be told about appended tails
  /// (CostModel::flows_appended).
  const std::vector<VmFlow>& flows() const noexcept { return flows_; }

  /// Number of slots carrying traffic (flows() size minus free slots).
  int live_flows() const noexcept {
    return static_cast<int>(flows_.size() - free_.size());
  }

  /// Applies one epoch of churn: departures first (over live flows in
  /// ascending id order), then re-rates (over the survivors), then
  /// arrivals (smallest free slot first, appends after). Same as
  /// draw() followed by commit().
  FlowChurn advance();

  /// Draws the next epoch's churn into `out` without changing the
  /// workload. It reads only the free list, the slot count and the
  /// generator, so it may run while another thread reads flows() or
  /// calls relocate().
  void draw(ChurnDraw& out) const;

  /// Applies a draw of the workload's current state (throws PpdcError if
  /// the generator has moved since): departed slots drop to rate 0,
  /// re-rated ones take their new rate, arrivals overwrite or append
  /// their slot, then the free list and the generator advance. `d.churn`
  /// is left as advance() would return it; the other buffers are spent.
  void commit(ChurnDraw& d);

  const StreamingChurnConfig& churn_config() const noexcept { return churn_; }

  /// Vacant (departed, not yet re-used) slots, sorted descending.
  const std::vector<FlowId>& free_slots() const noexcept { return free_; }

  /// A VM migration moved flow `id`'s endpoints; rate and group stay.
  void relocate(FlowId id, NodeId src_host, NodeId dst_host);

  /// The full mutable workload state. The epoch checkpoint journal
  /// (sim/checkpoint.hpp) fingerprints a run by its entry snapshot.
  struct Snapshot {
    std::vector<VmFlow> flows;
    std::vector<FlowId> free_slots;  ///< sorted descending
    std::array<std::uint64_t, 4> rng{};
  };
  Snapshot snapshot() const;

 private:
  std::optional<VmFlowSampler> sampler_;  ///< empty for churn-free sources
  StreamingChurnConfig churn_;
  Rng rng_;
  std::vector<VmFlow> flows_;
  std::vector<FlowId> free_;  ///< vacant slots, sorted descending
};

}  // namespace ppdc
