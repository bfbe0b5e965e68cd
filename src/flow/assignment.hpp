// Capacitated assignment: every VM (unit demand) goes to one host of its
// candidate arcs, no host takes more VMs than its capacity, and the sum of
// the chosen arc costs is minimal.
//
// Substrate for the MCF VM-migration baseline (Flores et al., INFOCOM 2020
// [24]), which casts "which VM moves to which host" as a min-cost flow on
// source -> VM -> host -> sink. That network is bipartite with unit VM
// supplies, so the solver works on it directly, by successive shortest
// paths from excess nodes (Ahuja, Magnanti and Orlin, *Network Flows*, on
// SSP and on the assignment problem):
//
//  * Dual start: π(VM) = −(its cheapest arc), π(host) = π(sink) = 0. Each
//    VM, in index order, takes its cheapest arc while that host has room;
//    ties go to the VM's first arc of least cost. The start is
//    dual-feasible and complementary-slack, and a VM it cannot place is an
//    excess node.
//  * Augmentation: one Dijkstra on reduced costs per excess VM, stopped
//    when it pops the sink. Settled nodes move by π(v) += d(v) − d(sink),
//    the standard early-exit update shifted by the constant d(sink), so
//    only nodes the search touched change and π(sink) stays 0.
//
// Tie contract: the objective is the optimum; where two assignments tie
// exactly in cost, which one comes out is this solver's choice (the MCF
// baseline may then pick another host of exactly equal cost).
#pragma once

#include <vector>

namespace ppdc {

/// Candidate arcs of every VM in CSR form: VM v's arcs are
/// [begin[v], begin[v + 1]) of `host` and `cost`. Hosts are dense indices
/// into the capacity vector; costs must be finite.
struct AssignmentArcs {
  std::vector<int> begin{0};
  std::vector<int> host;
  std::vector<double> cost;

  /// Appends an arc of the VM under construction.
  void add(int h, double c) {
    host.push_back(h);
    cost.push_back(c);
  }
  /// Closes the VM under construction; the next add() starts a new one.
  void end_vm() { begin.push_back(static_cast<int>(host.size())); }
  int num_vms() const { return static_cast<int>(begin.size()) - 1; }
};

/// An optimal assignment and its dual certificate: with reduced cost
/// c(v,h) + π(v) − π(h) and π(sink) = 0, every arc is ≥ 0, every chosen
/// arc is 0, a host with room has π(h) ≥ 0 and a host in use π(h) ≤ 0.
struct Assignment {
  std::vector<int> arc;  ///< chosen arc per VM (an index into the CSR)
  std::vector<double> vm_potential;
  std::vector<double> host_potential;
};

/// Solves the assignment of `arcs` under per-host `capacity` (one entry
/// per host index). Throws PpdcError when the capacities cannot take
/// every VM.
Assignment solve_assignment(const AssignmentArcs& arcs,
                            const std::vector<int>& capacity);

}  // namespace ppdc
