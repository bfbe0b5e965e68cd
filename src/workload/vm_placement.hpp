// Placement of communicating VM pairs onto hosts.
//
// §VI: "As 80% of cloud data center traffic originated by servers stays
// within the rack [8], we place 80% of the VM pairs into hosts under the
// same edge switches." This generator honours that rule on any Topology
// that exposes rack structure.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// Knobs for VM-pair generation.
struct VmPlacementConfig {
  int num_pairs = 100;              ///< l
  double intra_rack_fraction = 0.8; ///< share of pairs inside one rack
  RateDistribution rates;           ///< initial λ distribution
  /// Zipf skew of rack popularity within each coast (0 = uniform, the
  /// paper's literal setup). Real tenants concentrate — the paper's own
  /// Zoom example packs hundreds of meetings onto one Meeting Connector VM
  /// — and on a fat-tree *some* concentration is necessary for dynamic
  /// traffic to matter at all: core switches are equidistant from every
  /// host, so under uniformly spread traffic the optimal SFC parks in the
  /// core and never benefits from migration (see DESIGN.md §3 and the
  /// bench_ablation_skew harness). The Fig. 6(b)/11 harnesses use ~2.2.
  double rack_zipf_s = 0.0;
};

/// Draws VM flows one at a time under the coast/Zipf/intra-rack model.
/// Extracted from generate_vm_flows() so streaming arrivals
/// (StreamingWorkload) draw from the *same* distribution with the *same*
/// per-flow RNG consumption order: generate_vm_flows(topo, c, rng) is
/// bit-identical to constructing a sampler and calling sample(rng)
/// num_pairs times.
///
/// Flows whose source rack lies in the first half of the rack list are
/// "east coast" (group 0) and the rest "west coast" (group 1): tenants of
/// one region are deployed together, so the diurnal offset (§VI)
/// physically moves the traffic center across the fabric.
class VmFlowSampler {
 public:
  /// Precomputes the per-coast rack lists and Zipf weights. `topo` must
  /// outlive the sampler. Validates `config` (fractions, exponents, racks).
  VmFlowSampler(const Topology& topo, const VmPlacementConfig& config);

  /// Draws one flow.
  VmFlow sample(Rng& rng) const;

  const VmPlacementConfig& config() const noexcept { return config_; }

 private:
  RackIdx pick_rack(int coast, Rng& rng) const;

  const Topology* topo_;
  VmPlacementConfig config_;
  std::vector<std::vector<RackIdx>> coast_racks_;
  std::vector<std::vector<double>> coast_weights_;
  std::vector<double> coast_totals_;  ///< left-to-right weight sums
};

/// Generates `config.num_pairs` VM flows on the topology. Intra-rack pairs
/// pick two hosts (possibly the same — co-located VMs are legal and match
/// the paper's Fig. 1 examples) under one random rack switch; the rest pick
/// hosts in two different racks.
std::vector<VmFlow> generate_vm_flows(const Topology& topo,
                                      const VmPlacementConfig& config,
                                      Rng& rng);

/// Fraction of flows whose endpoints share a rack (for tests/diagnostics).
double measured_intra_rack_fraction(const Topology& topo,
                                    const std::vector<VmFlow>& flows);

}  // namespace ppdc
