// DP-Stroll: Algorithm 2 of the paper, the dynamic program for TOP-1.
//
// Finding a shortest s-t stroll that visits >= n *distinct* switches is
// NP-hard (n-stroll, Theorem 1), but a shortest s-t stroll of exactly e
// *edges* on the metric closure G'' is polynomial. Algorithm 2 therefore
// computes, for growing edge budgets r = n+1, n+2, ..., the min-cost
// r-edge stroll (forbidding immediate edge backtracking, line 6 of the
// pseudocode) and stops at the first r whose stroll covers n distinct
// switches. Example 2 / Fig. 4 shows why the *complete* (metric-closure)
// graph is essential: on the raw graph the 3-edge optimum costs 7, on the
// closure it costs 6.
//
// The DP state splits into three layers (DESIGN.md §11):
//  * StrollMetric — the unit-rate metric closure, a masked AllPairs view;
//  * StrollLevels — the unit-rate level tables toward one destination t,
//    grown lazily and safe to share between threads;
//  * StrollTable — a query view that scales the unit-rate answer by the
//    rate Λ (the λ_1 of TOP-1) at query time.
// A stroll's cost is linear in Λ, so the argmins do not depend on it: one
// set of level tables serves every rate, shard and epoch over the same
// fabric. Algorithm 3 amortizes one table over all ingress candidates of
// an egress switch; StrollTableCache extends that amortization across
// egress candidates, shards and epochs.
//
// Design notes / documented deviations:
//  * Intermediate nodes are restricted to switches. Hosts are leaves in
//    every topology here, so detouring through one can never reduce a
//    metric-closure stroll, and only switches count toward the n distinct
//    nodes anyway (pseudocode line 14 skips s and t when collecting p).
//  * The growth of r is capped; if the cap is hit (possible when the
//    anti-backtrack rule keeps oscillating between cheap switches) the
//    result is completed greedily with the nearest unused switches and
//    flagged via StrollResult::used_fallback. The cap never triggered in
//    any paper-scale experiment; it exists so the API is total.
//  * Sums run at unit rate and are scaled once. On hop metrics they are
//    exact integers, so near-ties break by row order alone, never by the
//    rounding of Λ·c terms.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"

namespace ppdc {

/// Outcome of a stroll query.
struct StrollResult {
  double cost = 0.0;          ///< stroll cost in G'' units (rate * distance)
  std::vector<NodeId> walk;   ///< node sequence s .. t on the metric closure
  std::vector<NodeId> placement;  ///< first n distinct switches, walk order
  int edges_used = 0;             ///< final edge budget r
  bool used_fallback = false;     ///< true if the greedy completion kicked in
};

/// Unit-rate metric closure G'' as a view of the AllPairs core that owns
/// no distances: row k is the switch Graph::switches()[k] at core
/// position k, so column k, col(k)[i] = c(switches[i], switches[k]), is
/// the switch block of AllPairs::cost_col (the core block itself on a hop
/// metric, its transposed copy otherwise). Columns, not rows: weighted
/// metrics are not bit-symmetric.
class StrollMetric {
 public:
  /// A non-empty `universe` masks the rows: only its distinct switches are
  /// DP candidates, and hence intermediate or fallback switches — the
  /// fault-tolerant solvers pass CostModel::placement_candidates() so
  /// strolls never route through failed switches; empty means every
  /// switch. Masked rows are built, never read. `apsp` must outlive this.
  explicit StrollMetric(const AllPairs& apsp,
                        const std::vector<NodeId>& universe = {});

  const AllPairs& apsp() const noexcept { return *apsp_; }
  /// Every switch of the fabric, universe or not.
  std::size_t rows() const noexcept { return member_.size(); }
  /// Row -> switch, in Graph::switches() order.
  const std::vector<NodeId>& switches() const noexcept {
    return apsp_->graph().switches();
  }
  /// Switch -> row (its core position); invalid for a non-switch.
  SwitchIdx row_of(NodeId u) const {
    const std::int32_t k = apsp_->core_index(u);
    const bool is_switch = k >= 0 && static_cast<std::size_t>(k) < rows();
    return is_switch ? SwitchIdx{k} : SwitchIdx::invalid();
  }
  /// Row mask: member[k] != 0 when row k's switch is in the universe.
  const char* members() const noexcept { return member_.data(); }
  /// True when `u` is a switch of the universe.
  bool contains(NodeId u) const {
    const SwitchIdx k = row_of(u);
    return k.valid() && member_[static_cast<std::size_t>(k.value())] != 0;
  }
  /// Number of universe switches.
  std::size_t universe_size() const noexcept { return universe_size_; }
  /// Column k, indexed by row: the level extension streams it.
  const double* col(std::size_t k) const { return base_ + k * stride_; }
  std::size_t bytes() const noexcept { return member_.size(); }

 private:
  const AllPairs* apsp_;
  std::vector<char> member_;  ///< one per row
  std::size_t universe_size_ = 0;
  const double* base_ = nullptr;  ///< column 0 of the core (cost_col)
  std::size_t stride_ = 0;        ///< core positions per column
};

/// Unit-rate level tables of Algorithm 2 toward one destination. Levels
/// are appended on demand and never change or move once built, so any
/// number of threads may read them while another appends. A new level is
/// built candidate by candidate: one pass per metric column relaxes every
/// row (DESIGN.md §11).
///
/// Level rows are carved from page-mapped slabs of kSlabLevels levels
/// each (DESIGN.md §11). Tables are often built on worker threads, whose
/// malloc arenas would keep the memory after the fabric is gone; a
/// mapping goes back to the system when the table dies, and a slab only
/// grows resident as its levels are written. A dying table first offers
/// its slabs to a small per-thread spare list, from which the thread's
/// next table of the same row count carves before it maps new pages.
class StrollLevels {
 public:
  /// Level e as flat arrays over the metric's rows (every switch), so the
  /// candidate scans are plain index loops. Both point into storage the
  /// StrollLevels owns and stay valid as long as it does.
  struct Level {
    const double* cost = nullptr;  ///< cost[row]: best e-edge stroll from row
    const NodeId* succ = nullptr;  ///< its first hop (kInvalidNode: none)
  };

  static constexpr std::size_t kSlabLevels = 8;

  StrollLevels(std::shared_ptr<const StrollMetric> metric, NodeId destination);
  ~StrollLevels();
  StrollLevels(const StrollLevels&) = delete;
  StrollLevels& operator=(const StrollLevels&) = delete;

  const StrollMetric& metric() const noexcept { return *metric_; }
  NodeId destination() const noexcept { return t_; }

  /// Builds levels up to `count` if needed and sets `out` to every built
  /// level, level e at out[e-1]. Returns how many levels were built
  /// before this call.
  int at_least(int count, std::vector<Level>& out) const;

  /// Bytes held by the built levels. Lock-free, so a cache can total its
  /// size while another thread is appending.
  std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes one level occupies: its cost row, then its successor row
  /// padded to a multiple of 8 so the next level's costs stay aligned.
  std::size_t level_bytes() const noexcept { return level_bytes_; }

 private:
  /// Storage for one more level's rows, from the current slab or a new one.
  std::byte* carve() const;

  std::size_t slab_bytes() const noexcept {
    return kSlabLevels * level_bytes_;
  }

  std::shared_ptr<const StrollMetric> metric_;
  NodeId t_;
  std::size_t level_bytes_;
  mutable std::mutex mu_;  ///< serializes appends; guards the fields below
  mutable std::vector<Level> levels_;
  mutable std::vector<std::byte*> slabs_;  ///< owned, slab_bytes() each
  mutable std::size_t slab_used_ = 0;  ///< bytes carved from slabs_.back()
  mutable std::atomic<std::size_t> bytes_{0};
};

/// Query view of Algorithm 2: unit-rate levels scaled by `rate`. One
/// thread queries a table at a time: find() reuses per-table scratch.
///
/// A switch source's best r-edge stroll is its own cell of level r, the
/// argmin source_row() computes from level r-1 (DESIGN.md §11). A warm
/// view — one whose shared levels already held r-1 levels when it first
/// fetched them, so an earlier solve built them — reads that cell, and
/// so does any view that already holds level r; otherwise a view scans
/// source_row() and builds no level beyond r-1.
class StrollTable {
 public:
  /// Builds a private metric and level tables (see StrollMetric for
  /// `universe`). `rate` scales every metric distance (the λ_1 of TOP-1,
  /// or Λ inside Algorithm 3's chain placement).
  StrollTable(const AllPairs& apsp, NodeId destination, double rate = 1.0,
              const std::vector<NodeId>& universe = {});

  /// A view over shared level tables, e.g. from StrollTableCache.
  explicit StrollTable(std::shared_ptr<const StrollLevels> levels,
                       double rate = 1.0);

  /// Finds a min-cost stroll from `s` to the table's destination visiting
  /// at least `n_distinct` distinct switches (excluding s and the
  /// destination). n_distinct == 0 degenerates to the direct metric edge —
  /// or, when s is the destination itself, to the single-node walk {s}
  /// (cost 0, no edges), so the walk invariant "consecutive nodes are
  /// distinct" holds for every returned walk.
  StrollResult find(NodeId s, int n_distinct);

  /// find() into a caller-owned result whose vectors keep their capacity
  /// across queries.
  void find(NodeId s, int n_distinct, StrollResult& out);

  /// Theorem 3 sufficient-optimality condition: every suffix of the found
  /// walk must be a minimum-cost (r-i)-edge stroll to t over *all* start
  /// nodes. True means the DP answer is provably optimal for this query.
  bool satisfies_theorem3(const StrollResult& result) const;

  /// Unit cost of the best e-edge stroll from source `s` (possibly a
  /// host, not in the switch rows) plus its first hop, the first switch
  /// row on a tie; {+inf, kInvalidNode} when there is none. Reads level
  /// e-1, which a find() needing at least e edges must have fetched.
  std::pair<double, NodeId> source_row(NodeId s, int e) const;

  NodeId destination() const noexcept { return levels_->destination(); }
  double rate() const noexcept { return rate_; }

 private:
  /// Unit-rate level e of the stroll table (must be in seen_).
  const StrollLevels::Level& level(int e) const {
    return seen_[static_cast<std::size_t>(e - 1)];
  }

  /// Fetches levels up to `count` into seen_ if it holds fewer.
  void fetch(int count);

  /// The best r-edge stroll from `s` (at row `ks` when a switch): level
  /// r's cell when the view is warm or already holds level r, source_row
  /// otherwise. Both give the same bits.
  std::pair<double, NodeId> first_step(NodeId s, SwitchIdx ks, int r);

  /// Clears the bits of visited_ that distinct_ names, then distinct_.
  void clear_visited();

  std::shared_ptr<const StrollLevels> levels_;
  std::vector<StrollLevels::Level> seen_;  ///< levels fetched so far
  /// Levels the shared tables held at this view's first fetch (-1 before).
  int held_at_first_fetch_ = -1;
  double rate_;
  // find()'s scratch, kept across queries: a row bitmap, all-clear
  // between queries, the current walk's distinct switches and the
  // longest distinct prefix of the failed rounds.
  std::vector<char> visited_;
  std::vector<NodeId> distinct_;  ///< walk order; visited_'s set bits
  std::vector<NodeId> best_partial_;
};

/// Convenience wrapper for one-shot TOP-1 queries: builds the table for
/// (s, t) and returns the stroll placing `n` VNFs (Algorithm 2's contract).
StrollResult solve_top1_dp(const AllPairs& apsp, NodeId s, NodeId t, int n,
                           double rate = 1.0);

/// The stroll DP tables of one fabric: the unit-rate metric over its full
/// switch set and one StrollLevels per destination, shared read-only by
/// every solver thread across shards, epochs, trials and policies. It
/// lives in the AllPairs' derived() slot, so it is built on first use and
/// freed with the fabric. A restricted (degraded) universe builds its
/// levels per solve: a DegradedNetwork's AllPairs is rebuilt on every
/// topology change, and caching its levels raised peak RSS without
/// saving time (DESIGN.md §11).
/// Cached and freshly built tables are the same deterministic function of
/// their inputs, so cache state never changes a result.
class StrollTableCache {
 public:
  struct Stats {
    std::uint64_t levels_built = 0;
    std::uint64_t level_hits = 0;
    std::size_t bytes = 0;  ///< the metric plus every built level
  };

  /// The cache of `apsp`'s fabric.
  static StrollTableCache& of(const AllPairs& apsp);

  explicit StrollTableCache(const AllPairs& apsp);

  const std::shared_ptr<const StrollMetric>& metric() const noexcept {
    return metric_;
  }

  /// The level tables toward `destination`, created on first use (they
  /// grow as queries need them).
  std::shared_ptr<const StrollLevels> levels(NodeId destination);

  Stats stats() const;

 private:
  std::shared_ptr<const StrollMetric> metric_;
  mutable std::mutex mu_;  ///< guards levels_ and stats_
  /// Indexed by NodeId; null until that destination is queried.
  std::vector<std::shared_ptr<const StrollLevels>> levels_;
  Stats stats_;
};

}  // namespace ppdc
