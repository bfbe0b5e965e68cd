#include "core/stroll_dp.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/clones.hpp"
#include "util/pages.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// The level kernel adds and compares doubles, with no multiply and no
// reduction, so every instruction set gives the same bits. It is built
// for the baseline ISA (where GCC leaves the select scalar), for
// x86-64-v3 (32-byte AVX2 vectors) and for x86-64-v4 (64-byte AVX-512
// vectors whose compares write k-masks that store cost and succ
// directly), where util/clones.hpp allows it (PPDC_LEVEL_KERNEL_CLONES).

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
/// Relaxes each row's best (cost, succ) with the stroll via w on a strict
/// <. Selects, not branches, so that it vectorizes (tools/vec_gate.sh).
// ppdc-zmm: level-relax-mask fn=relax_column
[[PPDC_LEVEL_KERNEL_CLONES gnu::aligned(64)]] void relax_column(
    double* __restrict cost, NodeId* __restrict succ,
    const double* __restrict col, double pw, NodeId w, std::size_t rows) {
  for (std::size_t i = 0; i < rows; ++i) {  // ppdc-vec: level-relax bytes=64,32
    const double cand = col[i] + pw;
    const bool better = cand < cost[i];
    cost[i] = better ? cand : cost[i];
    succ[i] = better ? w : succ[i];
  }
}

// Lanes of the source-row argmin: four rows per step, as GCC generic
// vectors (one AVX2 register each in the x86-64-v3 and x86-64-v4 clones,
// two SSE2 halves in the baseline one). Eight lanes, one zmm register in
// the v4 clone, measured slower on fig11_faults (DESIGN.md §11).
constexpr std::size_t kLanes = 4;
using LaneCost [[gnu::vector_size(kLanes * sizeof(double))]] = double;
using LaneRow [[gnu::vector_size(kLanes * sizeof(std::int64_t))]] =
    std::int64_t;
using LaneSucc [[gnu::vector_size(kLanes * sizeof(NodeId))]] = NodeId;
using LaneMember [[gnu::vector_size(kLanes)]] = char;

struct RowMin {
  double cost;
  std::int64_t row;  ///< -1 when every candidate is +inf
};

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
/// The first row k minimizing (weight + srow[k]) + pc[k] over the rows
/// that are members, are neither row ks nor row kt, and whose successor
/// ps[k] is not s. Each lane keeps its strict-< minimum and the first row
/// that reached it; merging the lanes by (cost, row) gives the bits of
/// the increasing-row scan. Loads are unaligned; the last partial step
/// runs on a copy whose missing lanes are non-members.
// ppdc-ymm: source-row fn=argmin_row
[[PPDC_LEVEL_KERNEL_CLONES gnu::aligned(64)]] RowMin argmin_row(
    const double* srow, double weight, const double* pc, const NodeId* ps,
    const char* member, NodeId s, std::int64_t ks, std::int64_t kt,
    std::size_t rows) {
  static_assert(kLanes == 4, "the lane initializers below name four lanes");
  constexpr LaneCost kInfLanes = {kInf, kInf, kInf, kInf};
  LaneCost best = kInfLanes;
  LaneRow best_row = {-1, -1, -1, -1};
  LaneRow row = {0, 1, 2, 3};
  const auto step = [&](const double* c, const double* p, const NodeId* q,
                        const char* m) {
    LaneCost cv, pv;
    LaneSucc qv;
    LaneMember mv;
    __builtin_memcpy(&cv, c, sizeof cv);
    __builtin_memcpy(&pv, p, sizeof pv);
    __builtin_memcpy(&qv, q, sizeof qv);
    __builtin_memcpy(&mv, m, sizeof mv);
    const LaneRow barred = __builtin_convertvector(mv == 0, LaneRow) |
                           __builtin_convertvector(qv == s, LaneRow) |
                           (row == ks) | (row == kt);
    const LaneCost cand = barred ? kInfLanes : (weight + cv) + pv;
    const LaneRow better = cand < best;
    best = better ? cand : best;
    best_row = better ? row : best_row;
    row += static_cast<std::int64_t>(kLanes);
  };
  std::size_t k = 0;
  for (; k + kLanes <= rows; k += kLanes) {
    step(srow + k, pc + k, ps + k, member + k);
  }
  if (k < rows) {
    const std::size_t n = rows - k;
    double c[kLanes] = {}, p[kLanes] = {};
    NodeId q[kLanes] = {};
    char m[kLanes] = {};
    __builtin_memcpy(c, srow + k, n * sizeof(double));
    __builtin_memcpy(p, pc + k, n * sizeof(double));
    __builtin_memcpy(q, ps + k, n * sizeof(NodeId));
    __builtin_memcpy(m, member + k, n);
    step(c, p, q, m);
  }
  RowMin out{kInf, -1};
  for (std::size_t j = 0; j < kLanes; ++j) {
    if (best[j] < out.cost || (best[j] == out.cost && best_row[j] < out.row)) {
      out = {best[j], best_row[j]};
    }
  }
  return out;
}

// A thread's spare level slabs. A table that dies on a thread hands its
// slabs to that thread's list, and the next table built there carves from
// them instead of mapping fresh pages and faulting each one in: a fault
// epoch builds a private table per egress candidate, each dying within its
// solve. A recycled slab is not zeroed, because at_least() writes a level
// in full before anything reads it. The list holds kSpareSlabs slabs, so
// the rest of a dead fabric's slabs, and the list itself when its thread
// exits, go back to the OS (DESIGN.md §11).
constexpr std::size_t kSpareSlabs = 4;

struct SpareSlabs {
  struct Slab {
    std::byte* at;
    std::size_t bytes;
  };
  std::array<Slab, kSpareSlabs> slabs;
  std::size_t count;
  bool closed;  ///< the thread is exiting: unmap instead of keeping
};

// Trivially destructible, so a table that dies during thread exit, after
// the drain below ran, still finds the list and its `closed` flag.
thread_local SpareSlabs t_spare{};

struct SpareSlabsDrain {
  SpareSlabsDrain() = default;
  SpareSlabsDrain(const SpareSlabsDrain&) = delete;
  SpareSlabsDrain& operator=(const SpareSlabsDrain&) = delete;
  ~SpareSlabsDrain() {
    for (std::size_t i = 0; i < t_spare.count; ++i) {
      unmap_pages(t_spare.slabs[i].at, t_spare.slabs[i].bytes);
    }
    t_spare.count = 0;
    t_spare.closed = true;
  }
};

/// A spare slab of exactly `bytes`, or nullptr.
std::byte* take_spare_slab(std::size_t bytes) {
  SpareSlabs& spare = t_spare;
  for (std::size_t i = 0; i < spare.count; ++i) {
    if (spare.slabs[i].bytes == bytes) {
      std::byte* at = spare.slabs[i].at;
      spare.slabs[i] = spare.slabs[--spare.count];
      return at;
    }
  }
  return nullptr;
}

/// Keeps a slab for this thread's next table, or unmaps it.
void give_spare_slab(std::byte* at, std::size_t bytes) noexcept {
  SpareSlabs& spare = t_spare;
  if (spare.closed || spare.count == kSpareSlabs) {
    unmap_pages(at, bytes);
    return;
  }
  // Constructed the first time a thread gets here: runs at its exit.
  thread_local const SpareSlabsDrain drain;
  spare.slabs[spare.count++] = {at, bytes};
}

}  // namespace

// ---------------------------------------------------------------------------
// StrollMetric
// ---------------------------------------------------------------------------

StrollMetric::StrollMetric(const AllPairs& apsp,
                           const std::vector<NodeId>& universe)
    : apsp_(&apsp),
      member_(switches().size(), universe.empty() ? 1 : 0),
      universe_size_(universe.empty() ? rows() : universe.size()) {
  for (const NodeId u : universe) {
    PPDC_REQUIRE(u >= 0 && u < apsp.num_nodes() && apsp.graph().is_switch(u),
                 "stroll universe entries must be switches");
    char& member = member_[static_cast<std::size_t>(row_of(u).value())];
    PPDC_REQUIRE(!member, "stroll universe entries must be distinct");
    member = 1;
  }
  if (rows() > 0) {
    // Switches are core vertices: their columns carry no leaf weight.
    base_ = apsp.cost_col(switches().front()).cost;
    stride_ = static_cast<std::size_t>(apsp.num_core());
  }
}

// ---------------------------------------------------------------------------
// StrollLevels
// ---------------------------------------------------------------------------

StrollLevels::StrollLevels(std::shared_ptr<const StrollMetric> metric,
                           NodeId destination)
    : metric_(std::move(metric)), t_(destination) {
  PPDC_REQUIRE(metric_ != nullptr, "stroll levels need a metric");
  PPDC_REQUIRE(destination >= 0 &&
                   destination < metric_->apsp().graph().num_nodes(),
               "destination out of range");
  const std::size_t rows = metric_->rows();
  level_bytes_ = rows * sizeof(double) + (rows * sizeof(NodeId) + 7) / 8 * 8;
}

StrollLevels::~StrollLevels() {
  for (std::byte* slab : slabs_) give_spare_slab(slab, slab_bytes());
}

std::byte* StrollLevels::carve() const {
  if (slabs_.empty() || slab_used_ + level_bytes_ > slab_bytes()) {
    // A spare slab is already resident. Fresh mappings are zero pages
    // until written, so a slab's untouched levels cost address space only.
    std::byte* slab = take_spare_slab(slab_bytes());
    if (slab == nullptr) {
      slab = static_cast<std::byte*>(map_pages(slab_bytes()));
    }
    slabs_.push_back(slab);
    slab_used_ = 0;
  }
  std::byte* at = slabs_.back() + slab_used_;
  slab_used_ += level_bytes_;
  return at;
}

// Hot kernel: 64-byte aligned (DESIGN.md §11).
[[gnu::aligned(64)]] int StrollLevels::at_least(
    int count, std::vector<Level>& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const int held = static_cast<int>(levels_.size());
  const StrollMetric& m = *metric_;
  const std::size_t rows = m.rows();
  const NodeId* sw = m.switches().data();
  const char* member = m.members();
  while (static_cast<int>(levels_.size()) < count) {
    std::byte* block = carve();
    double* ce = reinterpret_cast<double*>(block);
    NodeId* se = reinterpret_cast<NodeId*>(block + rows * sizeof(double));
    std::uninitialized_fill_n(ce, rows, kInf);
    std::uninitialized_fill_n(se, rows, kInvalidNode);
    if (levels_.empty()) {
      // Base case (pseudocode line 2): one metric edge straight to t.
      for (std::size_t i = 0; i < rows; ++i) {
        if (sw[i] == t_) continue;  // c(t,t,1) stays +inf
        ce[i] = m.apsp().cost(sw[i], t_);
        se[i] = t_;
      }
      levels_.push_back(Level{ce, se});
      continue;
    }
    const double* pc = levels_.back().cost;
    const NodeId* ps = levels_.back().succ;
    // The row each candidate's continuation returns to (itself when it has
    // none), looked up in one pass: between relax passes each lookup would
    // stall on a cache miss.
    std::vector<std::size_t> back(rows);
    for (std::size_t k = 0; k < rows; ++k) {
      const SwitchIdx r =
          ps[k] == kInvalidNode ? SwitchIdx::invalid() : m.row_of(ps[k]);
      back[k] = r.valid() ? static_cast<std::size_t>(r.value()) : k;
    }
    // Candidate-major: one pass per candidate k, in increasing k, relaxes
    // every row. Each row still meets k in increasing order and keeps the
    // first strict-< minimum, so the level equals a row scan bit for bit.
    for (std::size_t k = 0; k < rows; ++k) {
      // Only universe switches are candidates. Line 6 bars t as an
      // intermediate, and w from its own row and from the row its
      // continuation returns to: relax every row, then restore those two.
      // An unreachable w never wins.
      const NodeId w = sw[k];
      if (!member[k] || w == t_ || pc[k] == kInf) continue;
      const std::size_t b = back[k];
      const std::pair keep_k{ce[k], se[k]};
      const std::pair keep_b{ce[b], se[b]};
      relax_column(ce, se, m.col(k), pc[k], w, rows);
      std::tie(ce[b], se[b]) = keep_b;
      std::tie(ce[k], se[k]) = keep_k;
    }
    levels_.push_back(Level{ce, se});
  }
  bytes_.store(levels_.size() * level_bytes_, std::memory_order_relaxed);
  out = levels_;
  return held;
}

// ---------------------------------------------------------------------------
// StrollTable
// ---------------------------------------------------------------------------

StrollTable::StrollTable(const AllPairs& apsp, NodeId destination,
                         double rate, const std::vector<NodeId>& universe)
    : StrollTable(std::make_shared<const StrollLevels>(
                      std::make_shared<const StrollMetric>(apsp, universe),
                      destination),
                  rate) {}

StrollTable::StrollTable(std::shared_ptr<const StrollLevels> levels,
                         double rate)
    : levels_(std::move(levels)), rate_(rate) {
  PPDC_REQUIRE(levels_ != nullptr, "stroll table needs level tables");
  PPDC_REQUIRE(rate > 0.0, "stroll rate must be positive");
}

// Hot kernel: 64-byte aligned (DESIGN.md §11).
[[gnu::aligned(64)]] std::pair<double, NodeId> StrollTable::source_row(
    NodeId s, int e) const {
  PPDC_REQUIRE(e >= 1 && e - 1 <= static_cast<int>(seen_.size()),
               "edge budget not materialized");
  const StrollMetric& m = levels_->metric();
  const NodeId t = levels_->destination();
  if (e == 1) {
    if (s == t) return {kInf, kInvalidNode};
    return {m.apsp().cost(s, t), t};
  }
  // c(s, w) = weight + row[k]: s may be a leaf host, and switch w sits at
  // core position k, its row, so w != s and w != t are row tests.
  const AllPairs::CoreRow srow = m.apsp().cost_row(s);
  const RowMin best = argmin_row(
      srow.cost, srow.weight, level(e - 1).cost, level(e - 1).succ,
      m.members(), s, m.row_of(s).value(), m.row_of(t).value(), m.rows());
  if (best.row < 0) return {kInf, kInvalidNode};
  return {best.cost, m.switches()[static_cast<std::size_t>(best.row)]};
}

void StrollTable::fetch(int count) {
  if (static_cast<int>(seen_.size()) >= count) return;
  const int held = levels_->at_least(count, seen_);
  if (held_at_first_fetch_ < 0) held_at_first_fetch_ = held;
}

std::pair<double, NodeId> StrollTable::first_step(NodeId s, SwitchIdx ks,
                                                  int r) {
  // An r-edge query reads levels 1..r-1; the first fetch tells whether an
  // earlier solve built them.
  fetch(r - 1);
  const bool warm = held_at_first_fetch_ >= r - 1;
  if (!ks.valid() || (!warm && static_cast<int>(seen_.size()) < r)) {
    return source_row(s, r);
  }
  // Level r's row for s relaxes the candidates source_row scans, with the
  // same bars and in the same row order, and col(k)[ks] is the bits of
  // cost_row(s)[k]: the cell is source_row(s, r).
  fetch(r);
  const auto k = static_cast<std::size_t>(ks.value());
  return {level(r).cost[k], level(r).succ[k]};
}

StrollResult StrollTable::find(NodeId s, int n_distinct) {
  StrollResult out;
  find(s, n_distinct, out);
  return out;
}

void StrollTable::find(NodeId s, int n_distinct, StrollResult& out) {
  const StrollMetric& m = levels_->metric();
  const AllPairs& apsp = m.apsp();
  const NodeId t = levels_->destination();
  PPDC_REQUIRE(s >= 0 && s < apsp.num_nodes(), "source out of range");
  PPDC_REQUIRE(n_distinct >= 0, "negative distinct requirement");
  // Universe switches available as intermediates (s and t do not count).
  int usable = static_cast<int>(m.universe_size());
  if (m.contains(s)) --usable;
  if (m.contains(t) && t != s) --usable;
  PPDC_REQUIRE(n_distinct <= usable,
               "not enough switches to host the requested VNFs");

  out.cost = 0.0;
  out.walk.clear();
  out.placement.clear();
  out.edges_used = 0;
  out.used_fallback = false;
  if (n_distinct == 0) {
    if (s == t) {
      // Degenerate n-tour base: no edge is needed, and a {s, s} walk would
      // violate the consecutive-nodes-distinct invariant downstream
      // consumers (explain, Theorem-3 suffix checks) rely on.
      out.walk.push_back(s);
      return;
    }
    out.cost = rate_ * apsp.cost(s, t);
    out.walk.assign({s, t});
    out.edges_used = 1;
    return;
  }

  const std::size_t rows = m.rows();
  const char* member = m.members();
  const SwitchIdx ks = m.row_of(s);  // invalid for a host
  const int r_cap = n_distinct + 1 + std::max(16, n_distinct * 2);
  best_partial_.clear();  // longest distinct prefix seen so far
  // Membership bitmap over DP rows: dedups the walk's distinct switches in
  // O(1) per step instead of a linear scan of the growing vector. Its set
  // bits are always those of distinct_: a failed round clears them for the
  // next, and the guard clears them however this call exits, so the
  // bitmap is all-clear between queries.
  visited_.resize(rows, 0);
  struct ClearVisited {
    StrollTable& table;
    ~ClearVisited() { table.clear_visited(); }
  } const guard{*this};

  for (int r = n_distinct + 1; r <= r_cap; ++r) {
    const auto [total, first_hop] = first_step(s, ks, r);
    if (total == kInf) continue;  // no r-edge stroll exists (tiny graphs)

    // Walk the successor chain (pseudocode lines 11-19).
    out.walk.assign(1, s);
    NodeId cur = first_hop;
    int budget = r - 1;
    while (true) {
      out.walk.push_back(cur);
      const SwitchIdx row = m.row_of(cur);  // invalid for a host
      const auto k = static_cast<std::size_t>(row.value());
      if (cur != s && cur != t && row.valid()) {
        PPDC_REQUIRE(member[k], "walk visits a non-universe switch");
        if (!visited_[k]) {
          visited_[k] = 1;
          distinct_.push_back(cur);
        }
      }
      if (budget == 0) break;
      PPDC_REQUIRE(row.valid(), "walk stepped outside the switch rows");
      cur = level(budget).succ[k];
      PPDC_REQUIRE(cur != kInvalidNode, "broken successor chain");
      --budget;
    }
    PPDC_REQUIRE(out.walk.back() == t, "stroll must end at the destination");

    if (static_cast<int>(distinct_.size()) >= n_distinct) {
      out.cost = rate_ * total;
      out.placement.assign(distinct_.begin(), distinct_.begin() + n_distinct);
      out.edges_used = r;
      return;
    }
    if (distinct_.size() > best_partial_.size()) best_partial_ = distinct_;
    clear_visited();
  }

  // Cap hit: greedily complete the best partial cover with nearest unused
  // switches so callers always receive a valid placement.
  out.used_fallback = true;
  for (const NodeId w : best_partial_) {
    visited_[static_cast<std::size_t>(m.row_of(w).value())] = 1;
    distinct_.push_back(w);
  }
  const NodeId* sw = m.switches().data();
  while (static_cast<int>(distinct_.size()) < n_distinct) {
    const NodeId from = distinct_.empty() ? s : distinct_.back();
    double best_d = kInf;
    NodeId best_sw = kInvalidNode;
    std::size_t best_row = 0;
    for (std::size_t k = 0; k < rows; ++k) {
      const NodeId w = sw[k];
      if (!member[k] || w == s || w == t || visited_[k]) continue;
      const double d = apsp.cost(from, w);
      if (d < best_d) {
        best_d = d;
        best_sw = w;
        best_row = k;
      }
    }
    PPDC_REQUIRE(best_sw != kInvalidNode, "fallback ran out of switches");
    visited_[best_row] = 1;
    distinct_.push_back(best_sw);
  }
  out.walk.assign(1, s);
  out.walk.insert(out.walk.end(), distinct_.begin(), distinct_.end());
  out.walk.push_back(t);
  double unit = 0.0;
  for (std::size_t i = 0; i + 1 < out.walk.size(); ++i) {
    unit += apsp.cost(out.walk[i], out.walk[i + 1]);
  }
  out.cost = rate_ * unit;
  out.placement = distinct_;
  out.edges_used = static_cast<int>(out.walk.size()) - 1;
}

void StrollTable::clear_visited() {
  const StrollMetric& m = levels_->metric();
  for (const NodeId w : distinct_) {
    visited_[static_cast<std::size_t>(m.row_of(w).value())] = 0;
  }
  distinct_.clear();
}

bool StrollTable::satisfies_theorem3(const StrollResult& result) const {
  if (result.used_fallback || result.walk.size() < 2) return false;
  const int r = result.edges_used;
  // Only strolls the DP has reached can be certified: an r-edge query
  // builds levels 1..r-1.
  if (seen_.empty() || r - 1 > static_cast<int>(seen_.size())) return false;
  const StrollMetric& m = levels_->metric();
  const char* member = m.members();
  // For each position i >= 1 on the walk, the suffix starting there uses
  // (r - i) edges; Theorem 3 requires it to be the cheapest (r-i)-edge
  // stroll into t over every possible start row of the universe (compared
  // at unit rate).
  for (int i = 1; i < r; ++i) {
    const NodeId u = result.walk[static_cast<std::size_t>(i)];
    if (!m.contains(u)) return false;
    const double* cost = level(r - i).cost;
    const double suffix = cost[static_cast<std::size_t>(m.row_of(u).value())];
    double global_min = kInf;
    for (std::size_t k = 0; k < m.rows(); ++k) {
      if (member[k]) global_min = std::min(global_min, cost[k]);
    }
    if (suffix > global_min + 1e-9) return false;
  }
  return true;
}

StrollResult solve_top1_dp(const AllPairs& apsp, NodeId s, NodeId t, int n,
                           double rate) {
  StrollTable table(apsp, t, rate);
  return table.find(s, n);
}

// ---------------------------------------------------------------------------
// StrollTableCache
// ---------------------------------------------------------------------------

StrollTableCache& StrollTableCache::of(const AllPairs& apsp) {
  return *std::static_pointer_cast<StrollTableCache>(apsp.derived(
      [&] { return std::make_shared<StrollTableCache>(apsp); }));
}

StrollTableCache::StrollTableCache(const AllPairs& apsp)
    : metric_(std::make_shared<const StrollMetric>(apsp)),
      levels_(static_cast<std::size_t>(apsp.num_nodes())) {}

std::shared_ptr<const StrollLevels> StrollTableCache::levels(
    NodeId destination) {
  PPDC_REQUIRE(destination >= 0 && destination < metric_->apsp().num_nodes(),
               "destination out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = levels_[static_cast<std::size_t>(destination)];
  if (slot) {
    ++stats_.level_hits;
  } else {
    // Cheap to create: the levels themselves grow on first query, under
    // their own lock.
    slot = std::make_shared<const StrollLevels>(metric_, destination);
    ++stats_.levels_built;
  }
  return slot;
}

StrollTableCache::Stats StrollTableCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.bytes = metric_->bytes();
  for (const auto& lv : levels_) {
    if (lv) s.bytes += lv->bytes();
  }
  return s;
}

}  // namespace ppdc
