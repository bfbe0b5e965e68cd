// VNF migration frontiers (Definitions 1 and 2 of the paper).
//
// When VNF f_j migrates from p(j) toward p'(j), it moves along the
// shortest path S_j between the two switches. A *migration frontier* picks
// one switch from every S_j; the *parallel* frontiers are the h_max rows of
// the matrix P where row i holds the i-th switch of every path (clamped to
// the path end once a VNF has arrived, Def. 2). Row 1 is the original
// placement p, row h_max is the target p'.
//
// Frontier rows can transiently collide (two VNFs on one switch); such
// rows are still recorded — they are legitimate points of the (C_b, C_a)
// trade-off curve — but are not eligible as final migrations, because a
// placement must use distinct switches (§III footnote 3).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cost_model.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/indexed_vector.hpp"

namespace ppdc {

/// The per-VNF migration paths and derived parallel frontiers.
class MigrationFrontiers {
 public:
  /// Builds S_j = shortest path p[j] -> target[j] for every j. Host
  /// vertices never appear: both endpoints are switches and hosts are
  /// leaves, so shortest switch-to-switch paths stay within the fabric.
  MigrationFrontiers(const AllPairs& apsp, const Placement& from,
                     const Placement& to);

  /// h_j: number of switches on S_j (1 when the VNF does not move),
  /// subscripted by chain position.
  const IndexedVector<ChainPos, int>& path_lengths() const noexcept {
    return h_;
  }
  int h_max() const noexcept { return h_max_; }

  /// The i-th parallel frontier, i in [1, h_max] (Def. 2).
  Placement parallel_frontier(int i) const;

  /// All h_max parallel frontiers, first to last.
  std::vector<Placement> all_parallel_frontiers() const;

  /// Number of (general) frontiers Π h_j (Def. 1); may overflow for huge
  /// instances, saturates at int64 max.
  std::int64_t frontier_count() const noexcept;

  /// Enumerates every general frontier (Def. 1) and invokes `visit` on
  /// each. Throws if frontier_count() exceeds `max_enumerated`.
  void for_each_frontier(std::int64_t max_enumerated,
                         const std::function<void(const Placement&)>& visit) const;

  /// The migration path of the VNF at chain position `j`.
  const std::vector<NodeId>& path(ChainPos j) const;

 private:
  IndexedVector<ChainPos, std::vector<NodeId>> paths_;
  IndexedVector<ChainPos, int> h_;
  int h_max_ = 1;
};

/// True when every entry of `p` is distinct (frontier rows may collide).
bool is_collision_free(const Placement& p);

}  // namespace ppdc
