#include "core/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "graph/graph.hpp"
#include "util/clones.hpp"
#include "util/executor.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

/// Dirty sets covering at least 1/kDirtyRebuildDivisor of the flows are
/// cheaper to serve with a full parallel rebuild than with per-flow
/// subtract/add patches.
constexpr std::size_t kDirtyRebuildDivisor = 4;

/// One past the largest accepted group id. Ids may be sparse (storage is
/// per distinct id), but the *domain* stays bounded so a corrupt id can't
/// silently size a scale vector into the gigabytes.
constexpr int kMaxGroupId = 1 << 20;

/// Switch-block width of the attraction rebuild kernels: the block's
/// accumulators (kSwitchBlock doubles) stay cache-resident while the flow
/// list streams past, and blocks double as the parallel work unit.
constexpr std::size_t kSwitchBlock = 512;

// The attraction kernels below multiply and add. x86-64-v3 and v4 have
// FMA, and GCC's default -ffp-contract=fast would contract a·c + g into
// one fused rounding there and change the bits, so this file is built
// with -ffp-contract=off (src/CMakeLists.txt): every clone then runs each
// lane through the same multiply and the same add, in the same order, as
// the baseline (SSE2) clone, and the bits stay. The x86-64-v4 clone does
// it on 8-wide doubles, the AVX clone (AVX has no FMA instructions at
// all) on 4-wide ones. The clones sit on the member kernels that loop
// over flows or patches (refresh_block, accumulate_group_block,
// drain_patches, patch_moved_flow), so these leaf loops inline into each
// clone and no row pays an ifunc call. tools/vec_gate.sh pins each leaf
// loop to 64- and 32-byte vectors and fails on any FMA instruction in
// this file's assembly.
#define PPDC_ATTRACTION_CLONES \
  PPDC_TARGET_CLONES("arch=x86-64-v4", "avx", "default")

/// Grows `v`'s capacity to at least `n` the way push_back would.
template <class T>
void grow_capacity(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.size()));
}

/// Accumulates one flow's contribution over a switch block into a dense
/// accumulator: acc[j] += rate · c, where c = weight + row[j] is the
/// flow's distance to (or from) switch j of the block, read off one
/// contiguous core row (AllPairs::cost_row / cost_col). Per switch the
/// flows still add in flow order.
void accumulate_block(double* __restrict acc, const double* __restrict row,
                      double weight, std::size_t n, double rate) {
  for (std::size_t j = 0; j < n; ++j) {  // ppdc-vec: attraction-block bytes=64,32
    acc[j] += rate * (weight + row[j]);
  }
}

/// One queued churn patch of a group's base-vector rows:
/// gi[j] += a · c(src, sw_j) and ge[j] += a · c(sw_j, dst), both read as
/// contiguous core rows.
void patch_flow_rows(double* __restrict gi, double* __restrict ge,
                     AllPairs::CoreRow src, AllPairs::CoreRow dst,
                     std::size_t n, double a) {
  const double* __restrict srow = src.cost;
  const double* __restrict drow = dst.cost;
  const double sw = src.weight;
  const double dw = dst.weight;
  for (std::size_t j = 0; j < n; ++j) {  // ppdc-vec: churn-row-patch bytes=64,32
    gi[j] += a * (sw + srow[j]);
    ge[j] += a * (dw + drow[j]);
  }
}

/// A re-rate in place as one pass: g = (g + a·c) + b·c per cell, where
/// a = −old base and b = new base. These are the two roundings of the
/// two one-term passes it replaces, in the same order, with half the row
/// traffic.
void rerate_flow_rows(double* __restrict gi, double* __restrict ge,
                      AllPairs::CoreRow src, AllPairs::CoreRow dst,
                      std::size_t n, double a, double b) {
  const double* __restrict srow = src.cost;
  const double* __restrict drow = dst.cost;
  const double sw = src.weight;
  const double dw = dst.weight;
  for (std::size_t j = 0; j < n; ++j) {  // ppdc-vec: churn-rerate-patch bytes=64,32
    const double ci = sw + srow[j];
    const double ce = dw + drow[j];
    gi[j] = (gi[j] + a * ci) + b * ci;
    ge[j] = (ge[j] + a * ce) + b * ce;
  }
}

/// One endpoint move of a flow with base `base`:
/// g[j] += base · (c_new(j) − c_old(j)), over one base-vector row.
void move_flow_row(double* __restrict g, AllPairs::CoreRow to,
                   AllPairs::CoreRow from, std::size_t n, double base) {
  const double* __restrict trow = to.cost;
  const double* __restrict frow = from.cost;
  const double tw = to.weight;
  const double fw = from.weight;
  for (std::size_t j = 0; j < n; ++j) {  // ppdc-vec: endpoint-move bytes=64,32
    g[j] += base * ((tw + trow[j]) - (fw + frow[j]));
  }
}

}  // namespace

void validate_placement(const Graph& g, const Placement& p) {
  PPDC_REQUIRE(!p.empty(), "placement is empty");
  // Each entry is checked against the entries before it, which allocates
  // nothing (the DP validates one placement per candidate pair). The scan
  // stops at the first repeat, so it reads at most |switches|² pairs
  // however long `p` is.
  for (auto it = p.begin(); it != p.end(); ++it) {
    const NodeId s = *it;
    PPDC_REQUIRE(s >= 0 && s < g.num_nodes(), "placement node out of range");
    PPDC_REQUIRE(g.is_switch(s), "VNFs may only be placed on switches");
    PPDC_REQUIRE(std::find(p.begin(), it, s) == it,
                 "VNFs of one SFC must sit on distinct switches");
  }
}

CostModel::CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows)
    : apsp_(&apsp), flows_(&flows) {
  refresh();
}

CostModel::CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows,
                     const std::vector<double>& base_rates,
                     const std::vector<int>& groups, int min_groups,
                     Unbuilt /*key*/)
    : apsp_(&apsp), flows_(&flows) {
  set_group_domain(base_rates, groups, min_groups);
}

std::vector<std::unique_ptr<CostModel>> CostModel::build_grouped(
    const AllPairs& apsp, std::span<const GroupedFlows> sets,
    int min_groups) {
  std::vector<std::unique_ptr<CostModel>> models;
  std::vector<CostModel*> raw;
  models.reserve(sets.size());
  raw.reserve(sets.size());
  for (const GroupedFlows& set : sets) {
    models.push_back(std::make_unique<CostModel>(
        apsp, *set.flows, *set.base_rates, *set.groups, min_groups,
        Unbuilt{}));
    raw.push_back(models.back().get());
  }
  rebuild_group_bases(raw);
  for (CostModel* m : raw) {
    m->recombine(
        std::vector<double>(static_cast<std::size_t>(m->num_groups_), 1.0));
  }
  return models;
}

void CostModel::refresh() {
  const std::size_t ns = num_switches();
  ingress_.assign(ns, 0.0);
  egress_.assign(ns, 0.0);
  lambda_sum_ = 0.0;
  for (const auto& f : *flows_) {
    PPDC_REQUIRE(f.rate >= 0.0, "negative traffic rate");
    lambda_sum_ += f.rate;
  }
  const std::size_t num_blocks = (ns + kSwitchBlock - 1) / kSwitchBlock;
  parallel_for(num_blocks, 1,
               [&](std::size_t blk) noexcept { refresh_block(blk); });
  rescan_minima();
  if (group_refresh_enabled()) {
    drain_patches();
    // Keep the base vectors coherent with any endpoint changes the caller
    // applied without an endpoints_moved() signal. A full refresh may also
    // carry rates that no longer decompose as base · scale, so the next
    // endpoints_moved() must not recombine against stale scales.
    PPDC_REQUIRE(flows_->size() == groups_.size(),
                 "flow vector resized after enable_group_refresh");
    for (const FlowId i : id_range<FlowId>(flows_->size())) {
      patch_moved_flow(i);
    }
    last_scales_.clear();
  }
}

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
[[PPDC_ATTRACTION_CLONES gnu::aligned(64)]] void CostModel::refresh_block(
    std::size_t blk) noexcept {
  // Switch-blocked rebuild. Per switch, each attraction still accumulates
  // its flow contributions in flow order — bit-identical to the naive
  // switch-outer scan — but both passes stream one contiguous core row
  // segment per flow past a cache-resident block of accumulators: c(src,
  // ·) for the ingress pass and the transposed c(·, dst) for the egress
  // pass. Switch j's core position is j, so a block is a row segment.
  const std::size_t ns = num_switches();
  const std::size_t b0 = blk * kSwitchBlock;
  const std::size_t bn = std::min(ns, b0 + kSwitchBlock) - b0;
  double in[kSwitchBlock];
  double eg[kSwitchBlock];
  std::fill_n(in, bn, 0.0);
  std::fill_n(eg, bn, 0.0);
  for (const auto& f : *flows_) {
    // Zero-rate flows contribute nothing; skipping them also keeps the
    // sums NaN-free on degraded fabrics, where a quarantined flow's
    // endpoint distance is +inf (0 * inf = NaN).
    if (f.rate == 0.0) continue;
    const AllPairs::CoreRow src = apsp_->cost_row(f.src_host);
    const AllPairs::CoreRow dst = apsp_->cost_col(f.dst_host);
    accumulate_block(in, src.cost + b0, src.weight, bn, f.rate);
    accumulate_block(eg, dst.cost + b0, dst.weight, bn, f.rate);
  }
  std::copy_n(in, bn, ingress_.begin() + static_cast<std::ptrdiff_t>(b0));
  std::copy_n(eg, bn, egress_.begin() + static_cast<std::ptrdiff_t>(b0));
}

void CostModel::rescan_minima() {
  min_ingress_ = std::numeric_limits<double>::infinity();
  min_egress_ = std::numeric_limits<double>::infinity();
  for (const NodeId sw : placement_candidates()) {
    const SwitchIdx j = switch_slot(sw);
    const double a = ingress_[j];
    const double b = egress_[j];
    if (a < min_ingress_) {
      min_ingress_ = a;
      best_ingress_ = sw;
    }
    if (b < min_egress_) {
      min_egress_ = b;
      best_egress_ = sw;
    }
  }
}

void CostModel::restrict_candidates(std::vector<NodeId> candidates) {
  PPDC_REQUIRE(!candidates.empty(),
               "placement-candidate restriction must not be empty");
  std::unordered_set<NodeId> seen;
  for (const NodeId s : candidates) {
    PPDC_REQUIRE(s >= 0 && s < apsp_->num_nodes(),
                 "placement candidate out of range");
    PPDC_REQUIRE(apsp_->graph().is_switch(s),
                 "placement candidates must be switches");
    PPDC_REQUIRE(seen.insert(s).second, "duplicate placement candidate");
  }
  candidates_ = std::move(candidates);
  rescan_minima();
}

void CostModel::enable_group_refresh(const std::vector<double>& base_rates,
                                     const std::vector<int>& groups,
                                     int min_groups) {
  set_group_domain(base_rates, groups, min_groups);
  CostModel* self = this;
  rebuild_group_bases({&self, 1});
}

void CostModel::set_group_domain(const std::vector<double>& base_rates,
                                 const std::vector<int>& groups,
                                 int min_groups) {
  PPDC_REQUIRE(base_rates.size() == flows_->size(),
               "base-rate vector size mismatch");
  PPDC_REQUIRE(groups.size() == flows_->size(), "group vector size mismatch");
  PPDC_REQUIRE(min_groups >= 0 && min_groups <= kMaxGroupId,
               "group-domain size outside [0, 2^20]");
  int max_group = min_groups - 1;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // Per-flow validation names the offending FlowId: a departed flow
    // whose slot carries a stale/garbage group id must fail loudly here
    // rather than silently corrupt a base-vector row.
    PPDC_REQUIRE(groups[i] >= 0, "flow " + std::to_string(i) +
                                     " carries negative group id " +
                                     std::to_string(groups[i]));
    PPDC_REQUIRE(groups[i] < kMaxGroupId,
                 "flow " + std::to_string(i) + " carries group id " +
                     std::to_string(groups[i]) +
                     " outside the supported domain [0, 2^20)");
    PPDC_REQUIRE(base_rates[i] >= 0.0,
                 "flow " + std::to_string(i) + " carries negative base rate " +
                     std::to_string(base_rates[i]));
    max_group = std::max(max_group, groups[i]);
  }
  base_rates_ = base_rates;
  groups_ = groups;
  num_groups_ = std::max(max_group + 1, 1);
  last_scales_.clear();
}

void CostModel::rebuild_group_bases(std::span<CostModel* const> models) {
  // One task per (model, switch block): a pod shard's model has one or
  // two blocks, so the tasks of all of them are what fills the executor.
  std::vector<std::pair<CostModel*, std::size_t>> tasks;
  std::size_t slot = 0;  // the largest task's scratch, in doubles
  for (CostModel* m : models) {
    m->prepare_group_bases();
    const std::size_t ns = m->num_switches();
    for (std::size_t b0 = 0; b0 < ns; b0 += kSwitchBlock) {
      tasks.emplace_back(m, b0 / kSwitchBlock);
      slot = std::max(slot, 2 * m->row_groups_.size() *
                                std::min(kSwitchBlock, ns - b0));
    }
  }
  if (tasks.empty()) return;
  // Each copy of the region accumulates its tasks in a scratch slot of its
  // own, allocated here so that the tasks allocate nothing. Slots are
  // whole cache lines, line-aligned: no two copies write one line, and
  // where a block is a multiple of 8 switches wide (a fat tree whose k is
  // a multiple of 8) no vector store of the kernel splits one.
  constexpr std::size_t kLine = 64 / sizeof(double);
  const std::size_t stride = (slot + kLine - 1) / kLine * kLine;
  const std::size_t width = std::min<std::size_t>(
      tasks.size(), static_cast<std::size_t>(parallel_width()));
  const auto buffer =
      std::make_unique_for_overwrite<double[]>(width * stride + kLine);
  void* first = buffer.get();
  std::size_t space = (width * stride + kLine) * sizeof(double);
  double* const scratch = static_cast<double*>(std::align(
      kLine * sizeof(double), width * stride * sizeof(double), first, space));
  std::atomic<std::size_t> copies{0};
  std::atomic<std::size_t> next{0};
  parallel_run(static_cast<int>(width), [&]() noexcept {
    double* const mine =
        scratch + copies.fetch_add(1, std::memory_order_relaxed) * stride;
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) return;
      tasks[t].first->accumulate_group_block(tasks[t].second, mine);
    }
  });
}

void CostModel::prepare_group_bases() {
  const std::size_t ns = num_switches();
  // Every row is rebuilt from the bookkeeping below, which queued patches
  // have already reached.
  patches_.clear();
  // Row compaction: one dense base-vector row per *distinct* group id, in
  // ascending id order — a dense id set keeps the historical row == id
  // layout (and recombination order) bit for bit, while a sparse set
  // (streaming shards re-using freed slots) allocates no dead rows.
  std::vector<char> used(static_cast<std::size_t>(num_groups_), 0);
  for (const int g : groups_) used[static_cast<std::size_t>(g)] = 1;
  group_rows_.assign(static_cast<std::size_t>(num_groups_), -1);
  row_groups_.clear();
  for (int g = 0; g < num_groups_; ++g) {
    if (used[static_cast<std::size_t>(g)] != 0) {
      group_rows_[static_cast<std::size_t>(g)] =
          static_cast<int>(row_groups_.size());
      row_groups_.push_back(g);
    }
  }
  snap_src_.resize(flows_->size());
  snap_dst_.resize(flows_->size());
  for (std::size_t i = 0; i < flows_->size(); ++i) {
    snap_src_[i] = (*flows_)[i].src_host;
    snap_dst_[i] = (*flows_)[i].dst_host;
  }
  // Sized, not cleared: every cell is overwritten by its block's task.
  group_ingress_.resize(row_groups_.size() * ns);
  group_egress_.resize(row_groups_.size() * ns);
  // On a weighted metric the first cost_col() builds the AllPairs'
  // transposed core block: take that allocation here, on the calling
  // thread, not in a block task (a hop metric serves its rows).
  if (ns > 0) apsp_->cost_col(apsp_->graph().switches().front());
}

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
[[PPDC_ATTRACTION_CLONES gnu::aligned(64)]] void
CostModel::accumulate_group_block(
    std::size_t blk, double* scratch) noexcept {
  const std::size_t ns = num_switches();
  const std::size_t b0 = blk * kSwitchBlock;
  const std::size_t bn = std::min(ns, b0 + kSwitchBlock) - b0;
  // Same switch-blocked structure as refresh(): per (group, switch) cell
  // the contributions still land in flow order (bit-identical), and both
  // passes stream contiguous core row segments. They land in the task's
  // scratch rows, copied out once at the end, as refresh_block does:
  // added into the shared base rows, the tasks of neighbouring blocks
  // wrote the cache line at their boundary once per flow (DESIGN.md §11).
  const std::size_t rows = row_groups_.size();
  double* const in = scratch;
  double* const eg = scratch + rows * bn;
  std::fill_n(scratch, 2 * rows * bn, 0.0);
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    // Zero-base flows (including fault-quarantined ones, whose distances
    // may be +inf) contribute nothing.
    if (base_rates_[i] == 0.0) continue;
    const std::size_t row = row_of(groups_[i]) * bn;
    const AllPairs::CoreRow src = apsp_->cost_row(snap_src_[i]);
    const AllPairs::CoreRow dst = apsp_->cost_col(snap_dst_[i]);
    accumulate_block(in + row, src.cost + b0, src.weight, bn, base_rates_[i]);
    accumulate_block(eg + row, dst.cost + b0, dst.weight, bn, base_rates_[i]);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(in + r * bn, bn, group_ingress_.data() + r * ns + b0);
    std::copy_n(eg + r * bn, bn, group_egress_.data() + r * ns + b0);
  }
}

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
[[PPDC_ATTRACTION_CLONES gnu::aligned(64)]] void CostModel::patch_moved_flow(
    FlowId flow) {
  const std::size_t ns = num_switches();
  const auto i = static_cast<std::size_t>(flow.value());
  const std::size_t row = row_of(groups_[i]) * ns;
  const double base = base_rates_[i];
  const VmFlow& f = (*flows_)[i];
  if (base == 0.0) {
    // No base-vector contribution to move; just track the endpoints.
    snap_src_[i] = f.src_host;
    snap_dst_[i] = f.dst_host;
    return;
  }
  if (f.src_host != snap_src_[i]) {
    move_flow_row(group_ingress_.data() + row, apsp_->cost_row(f.src_host),
                  apsp_->cost_row(snap_src_[i]), ns, base);
    snap_src_[i] = f.src_host;
  }
  if (f.dst_host != snap_dst_[i]) {
    move_flow_row(group_egress_.data() + row, apsp_->cost_col(f.dst_host),
                  apsp_->cost_col(snap_dst_[i]), ns, base);
    snap_dst_[i] = f.dst_host;
  }
}

void CostModel::recombine(const std::vector<double>& scales) {
  drain_patches();
  const std::size_t ns = num_switches();
  // Λ is summed per flow in flow order — bit-identical to what refresh()
  // computes from rates set via diurnal_rates_grouped. Λ enters every
  // Eq. 1 score the solvers compare, where a last-ulp difference can flip
  // the argmin between near-equal candidates and cascade into a different
  // placement; the O(l) add pass is noise next to the O(l·|V_s|) rescan
  // this path replaces.
  lambda_sum_ = 0.0;
  for (std::size_t i = 0; i < base_rates_.size(); ++i) {
    lambda_sum_ += base_rates_[i] * scales[static_cast<std::size_t>(groups_[i])];
  }
  ingress_.assign(ns, 0.0);
  egress_.assign(ns, 0.0);
  // Group-major recombination over the *mapped* rows: each pass streams
  // one base-vector row contiguously. Per switch the scaled terms still
  // add in ascending-group order (unused ids would only have added +0.0),
  // so the result is bit-identical to a switch-outer group-inner scan
  // over the full id domain.
  for (std::size_t r = 0; r < row_groups_.size(); ++r) {
    const double scale = scales[static_cast<std::size_t>(row_groups_[r])];
    const double* girow = group_ingress_.data() + r * ns;
    const double* gerow = group_egress_.data() + r * ns;
    for (const SwitchIdx j : ingress_.ids()) {
      const auto col = static_cast<std::size_t>(j.value());
      ingress_[j] += scale * girow[col];
      egress_[j] += scale * gerow[col];
    }
  }
  rescan_minima();
}

std::size_t CostModel::ensure_group_row(int group) {
  if (group >= num_groups_) {
    group_rows_.resize(static_cast<std::size_t>(group) + 1, -1);
    num_groups_ = group + 1;
  }
  int& row = group_rows_[static_cast<std::size_t>(group)];
  if (row < 0) {
    const std::size_t ns = num_switches();
    row = static_cast<int>(row_groups_.size());
    row_groups_.push_back(group);
    group_ingress_.resize(row_groups_.size() * ns, 0.0);
    group_egress_.resize(row_groups_.size() * ns, 0.0);
  }
  return static_cast<std::size_t>(row);
}

void CostModel::queue_patch(std::size_t row, double first, double second,
                            NodeId src, NodeId dst) {
  PPDC_REQUIRE(src >= 0 && src < apsp_->num_nodes() && dst >= 0 &&
                   dst < apsp_->num_nodes(),
               "node out of range");
  patches_.push_back({row, first, second, src, dst});
}

// Hot kernel: 64-byte aligned, every clone (DESIGN.md §11).
// ppdc-zmm: churn-patch-drain fn=drain_patches insn=vmulpd
[[PPDC_ATTRACTION_CLONES gnu::aligned(64)]] void CostModel::drain_patches() {
  const std::size_t ns = num_switches();
  for (const RowPatch& p : patches_) {
    double* gi = group_ingress_.data() + p.row * ns;
    double* ge = group_egress_.data() + p.row * ns;
    const AllPairs::CoreRow src = apsp_->cost_row(p.src);
    const AllPairs::CoreRow dst = apsp_->cost_col(p.dst);
    if (p.second == 0.0) {
      patch_flow_rows(gi, ge, src, dst, ns, p.first);
    } else {
      rerate_flow_rows(gi, ge, src, dst, ns, p.first, p.second);
    }
  }
  patches_.clear();
}

void CostModel::rebase_flow(FlowId flow, double new_base, int new_group) {
  PPDC_REQUIRE(group_refresh_enabled(),
               "rebase_flow needs enable_group_refresh first");
  const FlowId end = flow_count(*flows_);
  PPDC_REQUIRE(flow.valid() && flow < end,
               "rebased flow " + std::to_string(flow.value()) +
                   " out of range [0, " + std::to_string(end.value()) + ")");
  PPDC_REQUIRE(new_base >= 0.0,
               "flow " + std::to_string(flow.value()) +
                   " rebased to negative base rate " +
                   std::to_string(new_base));
  PPDC_REQUIRE(new_group >= 0 && new_group < kMaxGroupId,
               "flow " + std::to_string(flow.value()) +
                   " rebased to group id " + std::to_string(new_group) +
                   " outside the supported domain [0, 2^20)");
  const auto i = static_cast<std::size_t>(flow.value());
  const double old_base = base_rates_[i];
  const NodeId old_src = snap_src_[i];
  const NodeId old_dst = snap_dst_[i];
  const std::size_t old_row = old_base != 0.0 ? row_of(groups_[i]) : 0;
  const VmFlow& f = (*flows_)[i];
  base_rates_[i] = new_base;
  groups_[i] = new_group;
  snap_src_[i] = f.src_host;
  snap_dst_[i] = f.dst_host;
  if (new_base == 0.0) {
    if (old_base != 0.0) {
      queue_patch(old_row, -old_base, 0.0, old_src, old_dst);
    }
    return;
  }
  const std::size_t new_row = ensure_group_row(new_group);
  if (old_base == 0.0) {
    queue_patch(new_row, new_base, 0.0, f.src_host, f.dst_host);
  } else if (old_row == new_row && old_src == f.src_host &&
             old_dst == f.dst_host) {
    queue_patch(new_row, -old_base, new_base, old_src, old_dst);
  } else {
    queue_patch(old_row, -old_base, 0.0, old_src, old_dst);
    queue_patch(new_row, new_base, 0.0, f.src_host, f.dst_host);
  }
}

void CostModel::flows_appended(const std::vector<double>& new_bases,
                               const std::vector<int>& new_groups) {
  PPDC_REQUIRE(group_refresh_enabled(),
               "flows_appended needs enable_group_refresh first");
  PPDC_REQUIRE(new_bases.size() == new_groups.size(),
               "appended base/group vector size mismatch");
  PPDC_REQUIRE(groups_.size() + new_bases.size() == flows_->size(),
               "flows_appended must describe exactly the appended tail: "
               "model tracks " +
                   std::to_string(groups_.size()) + " flows, " +
                   std::to_string(new_bases.size()) +
                   " were announced, but the bound vector holds " +
                   std::to_string(flows_->size()));
  for (std::size_t j = 0; j < new_bases.size(); ++j) {
    const std::size_t i = groups_.size();
    PPDC_REQUIRE(new_groups[j] >= 0 && new_groups[j] < kMaxGroupId,
                 "flow " + std::to_string(i) + " appended with group id " +
                     std::to_string(new_groups[j]) +
                     " outside the supported domain [0, 2^20)");
    PPDC_REQUIRE(new_bases[j] >= 0.0,
                 "flow " + std::to_string(i) +
                     " appended with negative base rate " +
                     std::to_string(new_bases[j]));
    const VmFlow& f = (*flows_)[i];
    base_rates_.push_back(new_bases[j]);
    groups_.push_back(new_groups[j]);
    snap_src_.push_back(f.src_host);
    snap_dst_.push_back(f.dst_host);
    if (new_bases[j] != 0.0) {
      queue_patch(ensure_group_row(new_groups[j]), new_bases[j], 0.0,
                  f.src_host, f.dst_host);
    }
  }
}

void CostModel::reserve_churn(std::size_t flows, std::size_t patches) {
  grow_capacity(base_rates_, flows);
  grow_capacity(groups_, flows);
  grow_capacity(snap_src_, flows);
  grow_capacity(snap_dst_, flows);
  grow_capacity(patches_, patches_.size() + patches);
}

void CostModel::refresh_scaled(const std::vector<double>& scales) {
  PPDC_REQUIRE(group_refresh_enabled(),
               "refresh_scaled needs enable_group_refresh first");
  PPDC_REQUIRE(scales.size() == static_cast<std::size_t>(num_groups_),
               "scale vector size mismatch");
  for (const double s : scales) {
    PPDC_REQUIRE(s >= 0.0, "negative group scale");
  }
  recombine(scales);
  last_scales_ = scales;
}

void CostModel::endpoints_moved(const std::vector<FlowId>& flow_ids) {
  // Scales shorter than the id domain come from before a churn call that
  // introduced a new group id: recombining under them would read past
  // their end, so they count as unknown, like no scales at all.
  if (!group_refresh_enabled() ||
      last_scales_.size() < static_cast<std::size_t>(num_groups_)) {
    refresh();
    return;
  }
  const FlowId end = flow_count(*flows_);
  for (const FlowId i : flow_ids) {
    PPDC_REQUIRE(i.valid() && i < end,
                 "moved flow " + std::to_string(i.value()) +
                     " out of range [0, " + std::to_string(end.value()) + ")");
  }
  if (flow_ids.size() * kDirtyRebuildDivisor >= flows_->size()) {
    CostModel* self = this;
    rebuild_group_bases({&self, 1});
  } else {
    drain_patches();
    for (const FlowId i : flow_ids) {
      patch_moved_flow(i);
    }
  }
  recombine(last_scales_);
}

CostModel::GroupSnapshot CostModel::group_snapshot() {
  drain_patches();
  GroupSnapshot snap;
  snap.num_groups = num_groups_;
  snap.base_rates = base_rates_;
  snap.groups = groups_;
  snap.group_rows = group_rows_;
  snap.row_groups = row_groups_;
  snap.group_ingress = group_ingress_;
  snap.group_egress = group_egress_;
  snap.last_scales = last_scales_;
  snap.snap_src = snap_src_;
  snap.snap_dst = snap_dst_;
  return snap;
}

double CostModel::ingress_attraction(NodeId a) const {
  PPDC_REQUIRE(apsp_->graph().is_switch(a), "ingress must be a switch");
  return ingress_[switch_slot(a)];
}

double CostModel::egress_attraction(NodeId b) const {
  PPDC_REQUIRE(apsp_->graph().is_switch(b), "egress must be a switch");
  return egress_[switch_slot(b)];
}

double CostModel::chain_cost(const Placement& p) const {
  double c = 0.0;
  for (std::size_t j = 0; j + 1 < p.size(); ++j) {
    c += apsp_->cost(p[j], p[j + 1]);
  }
  return c;
}

double CostModel::communication_cost(const Placement& p) const {
  validate_placement(apsp_->graph(), p);
  return lambda_sum_ * chain_cost(p) + ingress_attraction(p.front()) +
         egress_attraction(p.back());
}

double CostModel::migration_cost(const Placement& from, const Placement& to,
                                 double mu) const {
  PPDC_REQUIRE(from.size() == to.size(),
               "migration must preserve the SFC length");
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
  double c = 0.0;
  for (std::size_t j = 0; j < from.size(); ++j) {
    c += apsp_->cost(from[j], to[j]);
  }
  return mu * c;
}

double CostModel::total_cost(const Placement& from, const Placement& to,
                             double mu) const {
  return migration_cost(from, to, mu) + communication_cost(to);
}

double CostModel::flow_cost(const VmFlow& flow, const Placement& p) const {
  validate_placement(apsp_->graph(), p);
  return flow.rate * (apsp_->cost(flow.src_host, p.front()) + chain_cost(p) +
                      apsp_->cost(p.back(), flow.dst_host));
}

}  // namespace ppdc
