// The library's index-domain map: one StrongId tag per integer domain.
//
// Graph node ids (ppdc::NodeId, graph/graph.hpp) stay a raw dense integer
// — they are the currency every subsystem exchanges and topology builders
// compute them arithmetically. Every *derived* index space layered on top
// of NodeId is strongly typed here, so a row of one universe can never be
// used to subscript another (see DESIGN.md "Index-domain map"):
//
//   FlowId        position in a workload's flow vector (std::vector<VmFlow>
//                 and every parallel per-flow array: rates, groups, base
//                 vectors, endpoint snapshots).
//   SwitchIdx     position in Graph::switches() — the full-fabric switch
//                 universe (fault processes, per-switch bookkeeping, the
//                 stroll DP's rows, which a restricted universe masks).
//   CandidateIdx  row in a *solver's* candidate universe: the order of
//                 CostModel::placement_candidates(), the branch-and-bound
//                 candidate tables, and the column order of chain-search
//                 `extra` matrices. On a pristine
//                 fabric this universe equals Graph::switches(); on a
//                 degraded one it is the alive serving core — which is why
//                 it must not be confused with SwitchIdx or NodeId.
//   ChainPos      VNF position j within one SFC (0-based; the paper's
//                 f_{j+1}); indexes placements, migration paths and the
//                 rows of chain-search `extra` matrices.
//   Hour          simulation hour / epoch of the dynamic model (diurnal
//                 schedule, fault timeline, per-epoch traces).
//   RackIdx       rack number within a Topology (rows of Topology::racks /
//                 rack_switches — the domain of the out-of-bounds rack
//                 index PR 2's sanitizer run caught).
#pragma once

#include <cstdint>

#include "util/strong_id.hpp"

namespace ppdc {

using FlowId = StrongId<struct FlowIdTag, std::int32_t>;
using SwitchIdx = StrongId<struct SwitchIdxTag, std::int32_t>;
using CandidateIdx = StrongId<struct CandidateIdxTag, std::int32_t>;
using ChainPos = StrongId<struct ChainPosTag, std::int32_t>;
using Hour = StrongId<struct HourTag, std::int32_t>;
using RackIdx = StrongId<struct RackIdxTag, std::int32_t>;

}  // namespace ppdc
