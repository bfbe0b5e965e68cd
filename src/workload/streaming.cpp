#include "workload/streaming.hpp"

#include <algorithm>
#include <functional>
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
  FlowChurn churn;

  // Departures: one Bernoulli per live flow, ascending id order. The slot
  // keeps its endpoints (cost models need valid nodes to un-account) but
  // stops carrying traffic.
  std::vector<char> freed(flows_.size(), 0);
  for (const FlowId id : free_) {
    freed[static_cast<std::size_t>(id.value())] = 1;
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (freed[i] != 0) continue;
    if (!rng_.bernoulli(churn_.departure_prob)) continue;
    flows_[i].rate = 0.0;
    freed[i] = 1;
    churn.departed.push_back(FlowId{static_cast<std::int32_t>(i)});
    free_.push_back(FlowId{static_cast<std::int32_t>(i)});
  }
  if (!churn.departed.empty()) {
    std::sort(free_.begin(), free_.end(), std::greater<FlowId>());
  }

  // Re-rates: survivors re-draw their base rate, endpoints unchanged.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (freed[i] != 0) continue;
    if (!rng_.bernoulli(churn_.rerate_prob)) continue;
    flows_[i].rate = sampler_->config().rates.sample(rng_);
    churn.rerated.push_back(FlowId{static_cast<std::int32_t>(i)});
  }

  // Arrivals: smallest free slot first (free_ is sorted descending, so
  // pop_back yields ascending ids), then append. Free-slot ids are all
  // smaller than appended ones, so `arrived` comes out ascending.
  for (int a = 0; a < churn_.arrivals_per_epoch; ++a) {
    const VmFlow f = sampler_->sample(rng_);
    if (!free_.empty()) {
      const FlowId id = free_.back();
      free_.pop_back();
      flows_[static_cast<std::size_t>(id.value())] = f;
      churn.arrived.push_back(id);
    } else {
      churn.arrived.push_back(flow_count(flows_));
      flows_.push_back(f);
    }
  }

  // A same-epoch depart-then-arrive on one slot is just a re-spawn:
  // report it only as arrived.
  if (!churn.departed.empty() && !churn.arrived.empty()) {
    std::vector<char> respawned(flows_.size(), 0);
    for (const FlowId id : churn.arrived) {
      respawned[static_cast<std::size_t>(id.value())] = 1;
    }
    std::erase_if(churn.departed, [&](FlowId id) {
      return respawned[static_cast<std::size_t>(id.value())] != 0;
    });
  }
  return churn;
}

StreamingWorkload::Snapshot StreamingWorkload::snapshot() const {
  Snapshot snap;
  snap.flows = flows_;
  snap.free_slots = free_;
  snap.rng = rng_.state();
  return snap;
}

}  // namespace ppdc
