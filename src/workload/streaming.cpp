#include "workload/streaming.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

StreamingWorkload::StreamingWorkload(const Topology& topo,
                                     const VmPlacementConfig& initial,
                                     const StreamingChurnConfig& churn,
                                     Rng rng)
    : sampler_(std::in_place, topo, initial), churn_(churn), rng_(rng) {
  PPDC_REQUIRE(churn.arrivals_per_epoch >= 0, "negative arrival count");
  PPDC_REQUIRE(churn.departure_prob >= 0.0 && churn.departure_prob <= 1.0,
               "departure_prob outside [0,1]");
  PPDC_REQUIRE(churn.rerate_prob >= 0.0 && churn.rerate_prob <= 1.0,
               "rerate_prob outside [0,1]");
  flows_.reserve(static_cast<std::size_t>(initial.num_pairs));
  for (int i = 0; i < initial.num_pairs; ++i) {
    flows_.push_back(sampler_->sample(rng_));
  }
}

StreamingWorkload::StreamingWorkload(std::vector<VmFlow> flows)
    : flows_(std::move(flows)) {}

void StreamingWorkload::relocate(FlowId id, NodeId src_host,
                                 NodeId dst_host) {
  VmFlow& f = flows_[static_cast<std::size_t>(id.value())];
  f.src_host = src_host;
  f.dst_host = dst_host;
}

FlowChurn StreamingWorkload::advance() {
  ChurnDraw d;
  draw(d);
  commit(d);
  return std::move(d.churn);
}

void StreamingWorkload::draw(ChurnDraw& out) const {
  FlowChurn& churn = out.churn;
  churn.departed.clear();
  churn.arrived.clear();
  churn.rerated.clear();
  out.rerates.clear();
  out.arrivals.clear();
  out.drawn_from = rng_.state();
  // The probabilities were validated at construction, so each pass draws
  // unit() directly: bernoulli(p) is `unit() < p` bit for bit.
  Rng rng = rng_;
  const auto slots = static_cast<std::int32_t>(flows_.size());

  // Calls `visit(i)` for every slot id i in [0, slots) that `vacant`
  // (sorted descending) does not hold, ascending.
  auto for_each_live = [slots](const std::vector<FlowId>& vacant,
                               auto&& visit) {
    std::int32_t i = 0;
    for (auto v = vacant.rbegin(); v != vacant.rend(); ++v) {
      for (; i < v->value(); ++i) visit(i);
      i = v->value() + 1;
    }
    for (; i < slots; ++i) visit(i);
  };

  // Departures: one Bernoulli per live flow, ascending id order. The slot
  // keeps its endpoints (cost models need valid nodes to un-account) but
  // stops carrying traffic.
  const double depart = churn_.departure_prob;
  for_each_live(free_, [&](std::int32_t i) {
    if (rng.unit() < depart) churn.departed.push_back(FlowId{i});
  });
  out.free_slots.clear();
  std::merge(free_.begin(), free_.end(), churn.departed.rbegin(),
             churn.departed.rend(), std::back_inserter(out.free_slots),
             std::greater<FlowId>());

  // Re-rates: survivors re-draw their base rate, endpoints unchanged.
  const double rerate = churn_.rerate_prob;
  for_each_live(out.free_slots, [&](std::int32_t i) {
    if (rng.unit() < rerate) {
      churn.rerated.push_back(FlowId{i});
      out.rerates.push_back(sampler_->config().rates.sample(rng));
    }
  });

  // Arrivals: smallest free slot first (the free list is sorted
  // descending, so pop_back yields ascending ids), then append. Free-slot
  // ids are all smaller than appended ones, so `arrived` comes out
  // ascending.
  std::size_t reused = 0;
  for (int a = 0; a < churn_.arrivals_per_epoch; ++a) {
    out.arrivals.push_back(sampler_->sample(rng));
    if (!out.free_slots.empty()) {
      churn.arrived.push_back(out.free_slots.back());
      out.free_slots.pop_back();
      ++reused;
    } else {
      churn.arrived.push_back(FlowId{slots + a - static_cast<int>(reused)});
    }
  }

  // A same-epoch depart-then-arrive on one slot is just a re-spawn:
  // report it only as arrived. The re-used slots are the smallest free
  // ones, so they are exactly the departures up to the last re-used id.
  if (reused > 0) {
    const FlowId last = churn.arrived[reused - 1];
    churn.departed.erase(churn.departed.begin(),
                         std::upper_bound(churn.departed.begin(),
                                          churn.departed.end(), last));
  }
  out.rng = rng;
}

void StreamingWorkload::commit(ChurnDraw& d) {
  PPDC_REQUIRE(d.drawn_from == rng_.state(),
               "commit() needs a draw of the workload's current state");
  const FlowChurn& churn = d.churn;
  // A re-spawned slot is reported only as arrived; its arrival below
  // overwrites the whole slot, rate included.
  for (const FlowId id : churn.departed) {
    flows_[static_cast<std::size_t>(id.value())].rate = 0.0;
  }
  for (std::size_t k = 0; k < churn.rerated.size(); ++k) {
    flows_[static_cast<std::size_t>(churn.rerated[k].value())].rate =
        d.rerates[k];
  }
  for (std::size_t k = 0; k < churn.arrived.size(); ++k) {
    const auto slot = static_cast<std::size_t>(churn.arrived[k].value());
    if (slot < flows_.size()) {
      flows_[slot] = d.arrivals[k];
    } else {
      flows_.push_back(d.arrivals[k]);
    }
  }
  free_.swap(d.free_slots);
  rng_ = d.rng;
}

StreamingWorkload::Snapshot StreamingWorkload::snapshot() const {
  Snapshot snap;
  snap.flows = flows_;
  snap.free_slots = free_;
  snap.rng = rng_.state();
  return snap;
}

}  // namespace ppdc
