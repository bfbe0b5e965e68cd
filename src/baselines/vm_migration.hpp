// VM-migration baselines compared against VNF migration in §VI:
//
//  * PLAN (Cui et al., IEEE TPDS 2017 [17]): policy-aware greedy VM
//    management. Each VM's *utility* is the reduction of its communication
//    cost minus its migration cost; PLAN repeatedly applies the highest
//    positive-utility moves to hosts with available resources.
//  * MCF (Flores et al., INFOCOM 2020 [24]): casts the joint
//    "minimize communication + migration cost" VM re-assignment as a
//    minimum-cost flow problem (source -> VM -> host -> sink with unit VM
//    supply and host capacities). That network is a capacitated
//    assignment, and flow/assignment.hpp solves it exactly.
//
// Both baselines keep the VNF placement p fixed and move VM endpoints:
// a source VM's cost term is λ_i c(s(v_i), p(1)), a destination VM's is
// λ_i c(p(n), s(v'_i)). VM migration pays μ c(old_host, new_host) with the
// same migration coefficient as VNFs (both transfer a memory image across
// the fabric; §VI quantifies μ from the memory/packet size ratio).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "graph/apsp.hpp"
#include "util/ids.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

/// Shared knobs of the VM-migration baselines.
struct VmMigrationConfig {
  double mu = 1.0;        ///< migration coefficient
  /// Max VMs per host; 0 = uncapacitated. The limit binds the flows one
  /// call sees. On a multi-shard map each shard's policy clone sees only
  /// its shard's flows, so a host that serves two shards may hold up to
  /// this many VMs of each: capacity counts per shard, not across the
  /// fabric (sharded_equivalence_test pins it).
  int host_capacity = 0;
  /// Hours a migrated VM is expected to stay put. The communication-cost
  /// reduction of a move is amortized over this horizon when weighed
  /// against the one-off migration cost (PLAN's utility and MCF's arc
  /// costs). 1.0 = myopic single-epoch accounting.
  double horizon_hours = 1.0;
  /// Candidate target hosts per VM, nearest to its relevant VNF endpoint
  /// (plus the current host). 0 = consider every host. Bounds the MCF
  /// network and the PLAN scan on 1024-host PPDCs.
  int candidate_hosts = 0;
};

/// Outcome of a VM-migration decision.
struct VmMigrationResult {
  std::vector<VmFlow> flows;    ///< flows with updated endpoints
  double migration_cost = 0.0;  ///< Σ μ c(old, new)
  double comm_cost = 0.0;       ///< total communication cost afterwards
  double total_cost = 0.0;      ///< sum of the two
  int vms_moved = 0;
  /// Ids (into `flows`) of flows whose src and/or dst host changed —
  /// sorted, deduplicated. Drives the cost model's incremental
  /// endpoints_moved() maintenance.
  std::vector<FlowId> moved_flow_indices;
};

/// PLAN greedy VM migration.
VmMigrationResult solve_vm_migration_plan(const AllPairs& apsp,
                                          const std::vector<VmFlow>& flows,
                                          const Placement& vnf_placement,
                                          const VmMigrationConfig& config);

/// MCF exact VM re-assignment via minimum-cost flow.
VmMigrationResult solve_vm_migration_mcf(const AllPairs& apsp,
                                         const std::vector<VmFlow>& flows,
                                         const Placement& vnf_placement,
                                         const VmMigrationConfig& config);

}  // namespace ppdc
