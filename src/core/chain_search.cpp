#include "core/chain_search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Depth-first branch-and-bound state. Candidate-universe rows are the
/// CandidateIdx domain throughout; NodeIds appear only at the cost-model
/// boundary (attractions, distances). The candidate-to-candidate distance
/// closure and the per-row candidate orderings are flat row-major matrices
/// with stride |candidates| (DESIGN.md §11), so the descend() inner loop
/// reads two contiguous rows instead of hopping per-candidate vectors and
/// the big APSP matrix.
class Searcher {
 public:
  Searcher(const CostModel& model, int n, const ExtraMatrix& extra,
           const ChainSearchConfig& config)
      : model_(model),
        apsp_(model.apsp()),
        switches_(model.placement_candidates()),
        n_(n),
        extra_(extra),
        config_(config) {
    const std::size_t s = switches_.size();
    PPDC_REQUIRE(n_ >= 1, "need at least one VNF");
    PPDC_REQUIRE(static_cast<std::size_t>(n_) <= s,
                 "more VNFs than eligible switches");
    PPDC_REQUIRE(extra_.empty() ||
                     (extra_.size() == static_cast<std::size_t>(n_) &&
                      extra_[0].size() == s),
                 "extra matrix has wrong shape");

    // Suffix lower bounds of the extra term: Σ_{j'>=j} min_w extra[j'][w].
    extra_suffix_min_.assign(static_cast<std::size_t>(n_) + 1, 0.0);
    if (!extra_.empty()) {
      for (int j = n_ - 1; j >= 0; --j) {
        const auto& row = extra_[static_cast<std::size_t>(j)];
        extra_suffix_min_[static_cast<std::size_t>(j)] =
            extra_suffix_min_[static_cast<std::size_t>(j) + 1] +
            *std::min_element(row.begin(), row.end());
      }
    }

    // Flat candidate-distance closure dist_[i·s + k] = c(u_i, u_k) plus
    // the NodeId -> row map (replaces the linear row_of scan).
    const NodeId* sw = switches_.raw().data();
    dist_.resize(s * s);
    row_of_.assign(static_cast<std::size_t>(apsp_.num_nodes()),
                   CandidateIdx::invalid());
    std::vector<std::int32_t> cols(s);
    for (std::size_t k = 0; k < s; ++k) cols[k] = apsp_.core_index(sw[k]);
    for (std::size_t i = 0; i < s; ++i) {
      // Candidates are switches, i.e. core vertices with no leaf weight.
      const double* arow = apsp_.cost_row(sw[i]).cost;
      double* drow = dist_.data() + i * s;
      for (std::size_t k = 0; k < s; ++k) {
        drow[k] = arow[static_cast<std::size_t>(cols[k])];
      }
      row_of_[static_cast<std::size_t>(sw[i])] =
          CandidateIdx{static_cast<CandidateIdx::rep_type>(i)};
    }

    // Candidate orderings: per switch, all switches by increasing distance
    // (drives the DFS toward cheap completions first). Row i of the flat
    // order table is the CandidateIdx permutation for predecessor row i.
    by_distance_.resize(s * s);
    for (std::size_t i = 0; i < s; ++i) {
      CandidateIdx* order = by_distance_.data() + i * s;
      for (std::size_t k = 0; k < s; ++k) {
        order[k] = CandidateIdx{static_cast<CandidateIdx::rep_type>(k)};
      }
      const double* drow = dist_.data() + i * s;
      std::sort(order, order + s, [&](CandidateIdx a, CandidateIdx b) {
        return drow[static_cast<std::size_t>(a.value())] <
               drow[static_cast<std::size_t>(b.value())];
      });
    }

    used_.assign(s, 0);
    current_.assign(static_cast<std::size_t>(n_), kInvalidNode);

    best_cost_ = kInf;
    if (config_.initial.has_value()) {
      best_cost_ = evaluate(*config_.initial);
      best_ = *config_.initial;
    }
  }

  ChainSearchResult run() {
    // First position ordered by ingress attraction + its extra term.
    std::vector<CandidateIdx> first_order;
    first_order.reserve(switches_.size());
    for (const CandidateIdx i : switches_.ids()) first_order.push_back(i);
    std::sort(first_order.begin(), first_order.end(),
              [&](CandidateIdx a, CandidateIdx b) {
                return first_key(a) < first_key(b);
              });
    exhausted_ = false;
    for (const CandidateIdx row : first_order) {
      const NodeId w = switches_[row];
      const double cost = model_.ingress_attraction(w) + extra_at(0, row);
      descend(1, row, cost);
      if (exhausted_) break;
    }
    ChainSearchResult r;
    r.placement = best_;
    r.objective = best_cost_;
    r.proven_optimal = !exhausted_ && best_cost_ < kInf;
    r.nodes_explored = nodes_;
    PPDC_REQUIRE(!r.placement.empty(), "search found no placement");
    return r;
  }

 private:
  double extra_at(int j, CandidateIdx row) const {
    return extra_.empty() ? 0.0
                          : extra_[static_cast<std::size_t>(j)][row];
  }

  double first_key(CandidateIdx row) const {
    return model_.ingress_attraction(switches_[row]) + extra_at(0, row);
  }

  double evaluate(const Placement& p) const {
    PPDC_REQUIRE(static_cast<int>(p.size()) == n_, "warm start wrong size");
    double c = model_.communication_cost(p);
    if (!extra_.empty()) {
      for (int j = 0; j < n_; ++j) {
        const CandidateIdx row = row_of(p[static_cast<std::size_t>(j)]);
        c += extra_[static_cast<std::size_t>(j)][row];
      }
    }
    return c;
  }

  CandidateIdx row_of(NodeId w) const {
    PPDC_REQUIRE(w >= 0 && w < static_cast<NodeId>(row_of_.size()) &&
                     row_of_[static_cast<std::size_t>(w)].valid(),
                 "placement node is not a candidate switch");
    return row_of_[static_cast<std::size_t>(w)];
  }

  /// Lower bound on any completion after `depth` positions are fixed with
  /// accumulated cost `partial` (ingress + chain so far + extras so far).
  double completion_bound(int depth, double partial) const {
    const int remaining_edges = n_ - depth;
    double bound = partial + extra_suffix_min_[static_cast<std::size_t>(depth)];
    if (remaining_edges > 0) {
      bound += model_.total_rate() * static_cast<double>(remaining_edges) *
               apsp_.min_switch_distance();
    }
    bound += model_.min_egress_attraction();
    return bound;
  }

  /// Expands position `depth` given the previous pick at `prev_row`.
  /// `partial` excludes the final egress term.
  void descend(int depth, CandidateIdx prev_row, double partial) {
    if (exhausted_) return;
    ++nodes_;
    // The node budget is gated on an incumbent existing: the search never
    // stops before a first complete placement has been recorded, so run()
    // always returns a valid answer, even under a budget smaller than n.
    if (config_.node_budget != 0 && nodes_ > config_.node_budget &&
        best_cost_ < kInf) {
      exhausted_ = true;
      return;
    }
    used_[prev_row] = 1;
    current_[static_cast<std::size_t>(depth - 1)] = switches_[prev_row];

    if (depth == n_) {
      const double total =
          partial + model_.egress_attraction(switches_[prev_row]);
      if (total < best_cost_) {
        best_cost_ = total;
        best_ = current_;
      }
      used_[prev_row] = 0;
      return;
    }

    if (completion_bound(depth, partial) >= best_cost_) {
      used_[prev_row] = 0;
      return;
    }

    const std::size_t s = switches_.size();
    const std::size_t prev = static_cast<std::size_t>(prev_row.value());
    const double* drow = dist_.data() + prev * s;
    const CandidateIdx* order = by_distance_.data() + prev * s;
    const double rate = model_.total_rate();
    for (std::size_t oi = 0; oi < s; ++oi) {
      const CandidateIdx row = order[oi];
      if (used_[row]) continue;
      const double step =
          rate * drow[static_cast<std::size_t>(row.value())] +
          extra_at(depth, row);
      const double next_partial = partial + step;
      if (completion_bound(depth + 1, next_partial) >= best_cost_) {
        // Candidates are sorted by distance from `prev`. Without an extra
        // term the step cost is monotone in that order, so every later
        // candidate fails the same bound; with extras prune only this one.
        if (extra_.empty()) break;
        continue;
      }
      descend(depth + 1, row, next_partial);
      if (exhausted_) break;
    }
    used_[prev_row] = 0;
  }

  const CostModel& model_;
  const AllPairs& apsp_;
  /// Candidate universe, copied once so rows are typed CandidateIdx.
  IndexedVector<CandidateIdx, NodeId> switches_;
  int n_;
  const ExtraMatrix& extra_;
  ChainSearchConfig config_;

  /// Flat |candidates|² matrices, row stride switches_.size().
  std::vector<double> dist_;
  std::vector<CandidateIdx> by_distance_;
  /// NodeId -> candidate row; invalid() outside the universe.
  std::vector<CandidateIdx> row_of_;
  std::vector<double> extra_suffix_min_;
  IndexedVector<CandidateIdx, char> used_;
  Placement current_;
  Placement best_;
  double best_cost_ = kInf;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

ChainSearchResult chain_search(const CostModel& model, int n,
                               const ExtraMatrix& extra,
                               const ChainSearchConfig& config) {
  Searcher s(model, n, extra, config);
  return s.run();
}

ChainSearchResult solve_top_exhaustive(const CostModel& model, int n,
                                       const ChainSearchConfig& config) {
  static const ExtraMatrix kNoExtra;
  return chain_search(model, n, kNoExtra, config);
}

ChainSearchResult solve_tom_exhaustive(const CostModel& model,
                                       const Placement& from, double mu,
                                       const ChainSearchConfig& config) {
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
  const auto& switches = model.placement_candidates();
  ExtraMatrix extra(
      from.size(), IndexedVector<CandidateIdx, double>(switches.size(), 0.0));
  for (std::size_t j = 0; j < from.size(); ++j) {
    for (const CandidateIdx k : id_range<CandidateIdx>(switches.size())) {
      extra[j][k] = mu * model.apsp().cost(
                             from[j],
                             switches[static_cast<std::size_t>(k.value())]);
    }
  }
  return chain_search(model, static_cast<int>(from.size()), extra, config);
}

}  // namespace ppdc
