#include "workload/vm_placement.hpp"

#include <algorithm>
#include <cmath>

#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace ppdc {

namespace {

/// Rack of a host, or RackIdx::invalid() if the host is in no rack.
RackIdx rack_of(const Topology& topo, NodeId host) {
  for (const RackIdx r : topo.racks.ids()) {
    if (std::find(topo.racks[r].begin(), topo.racks[r].end(), host) !=
        topo.racks[r].end()) {
      return r;
    }
  }
  return RackIdx::invalid();
}

NodeId random_host(const std::vector<NodeId>& rack, Rng& rng) {
  return rack[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(rack.size()) - 1))];
}

}  // namespace

VmFlowSampler::VmFlowSampler(const Topology& topo,
                             const VmPlacementConfig& config)
    : topo_(&topo), config_(config) {
  PPDC_REQUIRE(config.num_pairs >= 0, "negative pair count");
  PPDC_REQUIRE(config.intra_rack_fraction >= 0.0 &&
                   config.intra_rack_fraction <= 1.0,
               "intra_rack_fraction outside [0,1]");
  PPDC_REQUIRE(config.rack_zipf_s >= 0.0, "negative Zipf exponent");
  PPDC_REQUIRE(!topo.racks.empty(), "topology exposes no racks");

  const RackIdx num_racks = topo.num_racks();
  const int east_racks = std::max(1, num_racks.value() / 2);

  // Per-coast rack lists: east = first half, west = second half
  // (degenerates to a single coast on tiny topologies).
  coast_racks_.resize(2);
  for (const RackIdx r : topo.racks.ids()) {
    coast_racks_[r.value() < east_racks ? 0 : 1].push_back(r);
  }
  if (coast_racks_[1].empty()) coast_racks_[1] = coast_racks_[0];

  // Zipf popularity within each coast (uniform when s == 0), summed once
  // here in the order Rng::weighted_index sums them. Every weight is
  // positive (rank 1 weighs 1), so each total is a valid draw total.
  coast_weights_.resize(2);
  coast_totals_.assign(2, 0.0);
  for (int coast = 0; coast < 2; ++coast) {
    const auto& racks = coast_racks_[static_cast<std::size_t>(coast)];
    auto& w = coast_weights_[static_cast<std::size_t>(coast)];
    w.reserve(racks.size());
    for (std::size_t rank = 0; rank < racks.size(); ++rank) {
      w.push_back(config.rack_zipf_s == 0.0
                      ? 1.0
                      : std::pow(static_cast<double>(rank + 1),
                                 -config.rack_zipf_s));
      coast_totals_[static_cast<std::size_t>(coast)] += w.back();
    }
  }
}

RackIdx VmFlowSampler::pick_rack(int coast, Rng& rng) const {
  const auto& racks = coast_racks_[static_cast<std::size_t>(coast)];
  const auto& w = coast_weights_[static_cast<std::size_t>(coast)];
  return racks[rng.weighted_index(
      w, coast_totals_[static_cast<std::size_t>(coast)])];
}

VmFlow VmFlowSampler::sample(Rng& rng) const {
  const RackIdx num_racks = topo_->num_racks();
  VmFlow f;
  const int coast = static_cast<int>(rng.bernoulli(0.5));
  const RackIdx src_rack = pick_rack(coast, rng);
  const bool intra = rng.bernoulli(config_.intra_rack_fraction);
  if (intra || num_racks == RackIdx{1}) {
    const auto& rack = topo_->racks[src_rack];
    f.src_host = random_host(rack, rng);
    f.dst_host = random_host(rack, rng);
  } else {
    // Cross-rack pair: the destination stays within the same coast
    // (tenant locality) but in a different rack when possible.
    RackIdx dst_rack = src_rack;
    for (int attempt = 0; attempt < 64 && dst_rack == src_rack; ++attempt) {
      dst_rack = pick_rack(coast, rng);
    }
    if (dst_rack == src_rack) {  // single-rack coast
      dst_rack = RackIdx{(src_rack.value() + 1) % num_racks.value()};
    }
    f.src_host = random_host(topo_->racks[src_rack], rng);
    f.dst_host = random_host(topo_->racks[dst_rack], rng);
  }
  f.rate = config_.rates.sample(rng);
  f.group = coast;
  return f;
}

std::vector<VmFlow> generate_vm_flows(const Topology& topo,
                                      const VmPlacementConfig& config,
                                      Rng& rng) {
  const VmFlowSampler sampler(topo, config);
  std::vector<VmFlow> flows;
  flows.reserve(static_cast<std::size_t>(config.num_pairs));
  for (int i = 0; i < config.num_pairs; ++i) {
    flows.push_back(sampler.sample(rng));
  }
  return flows;
}

double measured_intra_rack_fraction(const Topology& topo,
                                    const std::vector<VmFlow>& flows) {
  if (flows.empty()) return 0.0;
  int intra = 0;
  for (const auto& f : flows) {
    if (rack_of(topo, f.src_host) == rack_of(topo, f.dst_host)) ++intra;
  }
  return static_cast<double>(intra) / static_cast<double>(flows.size());
}

}  // namespace ppdc
