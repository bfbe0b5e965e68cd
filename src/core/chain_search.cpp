#include "core/chain_search.hpp"

#include <algorithm>
#include <limits>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Depth-first branch-and-bound state. Candidate-universe rows are the
/// CandidateIdx domain throughout; NodeIds appear only at the boundary
/// (the distance closure, warm start and result). The candidate-to-candidate
/// distance closure and the per-row candidate orderings are flat row-major
/// matrices with stride |candidates| (DESIGN.md §11), so the descend() inner
/// loop reads two contiguous rows instead of hopping per-candidate vectors
/// and the big APSP matrix.
class Searcher {
 public:
  Searcher(const AllPairs& apsp, const ChainObjective& objective,
           const ChainSearchConfig& config)
      : apsp_(apsp),
        obj_(objective),
        switches_(objective.candidates),
        n_(static_cast<int>(objective.unary.size())),
        config_(config) {
    const std::size_t s = switches_.size();
    PPDC_REQUIRE(n_ >= 1, "need at least one VNF");
    PPDC_REQUIRE(static_cast<std::size_t>(n_) <= s,
                 "more VNFs than eligible switches");
    PPDC_REQUIRE(obj_.leg_weight.size() + 1 == obj_.unary.size(),
                 "chain objective needs one leg weight per adjacent pair");
    PPDC_REQUIRE(obj_.unary.front().size() == s,
                 "chain objective's ingress row has wrong shape");
    for (const CandidateRow& row : obj_.unary) {
      PPDC_REQUIRE(row.empty() || row.size() == s,
                   "chain objective's unary row has wrong shape");
    }
    PPDC_REQUIRE(obj_.tail.empty() || obj_.tail.size() == s,
                 "chain objective's tail row has wrong shape");

    // Per-depth bound terms, depth = positions fixed (1..n):
    // Σ_{j>=depth} min U_j, and the remaining legs' weight times the least
    // switch distance. The leg weights are summed in long double and
    // rounded once, so n - depth equal weights Λ give exactly Λ·(n - depth).
    const auto depths = static_cast<std::size_t>(n_) + 1;
    unary_suffix_min_.assign(depths, 0.0);
    leg_bound_.assign(depths, 0.0);
    long double legs = 0.0L;
    for (int j = n_ - 1; j >= 1; --j) {
      const auto d = static_cast<std::size_t>(j);
      const CandidateRow& row = obj_.unary[d];
      unary_suffix_min_[d] =
          unary_suffix_min_[d + 1] +
          (row.empty() ? 0.0 : *std::min_element(row.begin(), row.end()));
      legs += obj_.leg_weight[d - 1];
      leg_bound_[d] = static_cast<double>(legs) * apsp_.min_switch_distance();
    }
    min_tail_ = obj_.tail.empty()
                    ? 0.0
                    : *std::min_element(obj_.tail.begin(), obj_.tail.end());

    // Flat candidate-distance closure dist_[i·s + k] = c(u_i, u_k) plus
    // the NodeId -> row map (replaces the linear row_of scan).
    const NodeId* sw = switches_.raw().data();
    dist_.resize(s * s);
    row_of_.assign(static_cast<std::size_t>(apsp_.num_nodes()),
                   CandidateIdx::invalid());
    std::vector<std::int32_t> cols(s);
    for (std::size_t k = 0; k < s; ++k) {
      PPDC_REQUIRE(apsp_.graph().is_switch(sw[k]),
                   "chain search candidates must be switches");
      cols[k] = apsp_.core_index(sw[k]);
    }
    for (std::size_t i = 0; i < s; ++i) {
      PPDC_REQUIRE(!row_of_[static_cast<std::size_t>(sw[i])].valid(),
                   "chain search candidates must be distinct");
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
    // First position ordered by its unary term (ingress, plus any extra).
    const CandidateRow& first = obj_.unary.front();
    std::vector<CandidateIdx> first_order;
    first_order.reserve(switches_.size());
    for (const CandidateIdx i : switches_.ids()) first_order.push_back(i);
    std::sort(first_order.begin(), first_order.end(),
              [&](CandidateIdx a, CandidateIdx b) {
                return first[a] < first[b];
              });
    exhausted_ = false;
    for (const CandidateIdx row : first_order) {
      descend(1, row, first[row]);
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
  double tail_at(CandidateIdx row) const {
    return obj_.tail.empty() ? 0.0 : obj_.tail[row];
  }

  /// The objective of a complete tuple, summed step by step exactly as
  /// descend() sums it.
  double evaluate(const Placement& p) const {
    PPDC_REQUIRE(static_cast<int>(p.size()) == n_, "warm start wrong size");
    validate_placement(apsp_.graph(), p);
    CandidateIdx prev = row_of(p.front());
    double c = obj_.unary.front()[prev];
    for (int j = 1; j < n_; ++j) {
      const CandidateIdx row = row_of(p[static_cast<std::size_t>(j)]);
      c += step(j, prev, row);
      prev = row;
    }
    return c + tail_at(prev);
  }

  /// Cost of placing `row` at position `depth` after `prev_row`: the leg
  /// into it plus its unary term.
  double step(int depth, CandidateIdx prev_row, CandidateIdx row) const {
    const auto d = static_cast<std::size_t>(depth);
    const CandidateRow& unary = obj_.unary[d];
    const std::size_t at =
        static_cast<std::size_t>(prev_row.value()) * switches_.size() +
        static_cast<std::size_t>(row.value());
    return obj_.leg_weight[d - 1] * dist_[at] +
           (unary.empty() ? 0.0 : unary[row]);
  }

  CandidateIdx row_of(NodeId w) const {
    PPDC_REQUIRE(w >= 0 && w < static_cast<NodeId>(row_of_.size()) &&
                     row_of_[static_cast<std::size_t>(w)].valid(),
                 "placement node is not a candidate switch");
    return row_of_[static_cast<std::size_t>(w)];
  }

  /// Lower bound on any completion after `depth` positions are fixed with
  /// accumulated cost `partial` (unary terms and legs so far).
  double completion_bound(int depth, double partial) const {
    const auto d = static_cast<std::size_t>(depth);
    return partial + unary_suffix_min_[d] + leg_bound_[d] + min_tail_;
  }

  /// Expands position `depth` given the previous pick at `prev_row`.
  /// `partial` excludes the tail term.
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
      const double total = partial + tail_at(prev_row);
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
    const CandidateIdx* order =
        by_distance_.data() + static_cast<std::size_t>(prev_row.value()) * s;
    const bool no_unary = obj_.unary[static_cast<std::size_t>(depth)].empty();
    for (std::size_t oi = 0; oi < s; ++oi) {
      const CandidateIdx row = order[oi];
      if (used_[row]) continue;
      const double next_partial = partial + step(depth, prev_row, row);
      if (completion_bound(depth + 1, next_partial) >= best_cost_) {
        // Candidates are sorted by distance from `prev_row`. Without a
        // unary term here the step cost is monotone in that order, so every
        // later candidate fails the same bound; with one prune only this one.
        if (no_unary) break;
        continue;
      }
      descend(depth + 1, row, next_partial);
      if (exhausted_) break;
    }
    used_[prev_row] = 0;
  }

  const AllPairs& apsp_;
  const ChainObjective& obj_;
  const IndexedVector<CandidateIdx, NodeId>& switches_;
  int n_;
  ChainSearchConfig config_;

  /// Flat |candidates|² matrices, row stride switches_.size().
  std::vector<double> dist_;
  std::vector<CandidateIdx> by_distance_;
  /// NodeId -> candidate row; invalid() outside the universe.
  std::vector<CandidateIdx> row_of_;
  /// Per-depth completion-bound terms (index = positions fixed).
  std::vector<double> unary_suffix_min_;
  std::vector<double> leg_bound_;
  double min_tail_ = 0.0;
  IndexedVector<CandidateIdx, char> used_;
  Placement current_;
  Placement best_;
  double best_cost_ = kInf;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

ChainSearchResult chain_search(const AllPairs& apsp,
                               const ChainObjective& objective,
                               const ChainSearchConfig& config) {
  Searcher s(apsp, objective, config);
  return s.run();
}

namespace {

/// TOP's chain objective {U_0 = A, W_j = Λ, T = B} over the model's
/// placement candidates; rows 1..n-1 are left empty (all zero).
ChainObjective top_objective(const CostModel& model, int n) {
  PPDC_REQUIRE(n >= 1, "need at least one VNF");
  ChainObjective obj;
  obj.candidates =
      IndexedVector<CandidateIdx, NodeId>(model.placement_candidates());
  const std::size_t s = obj.candidates.size();
  obj.leg_weight.assign(static_cast<std::size_t>(n) - 1, model.total_rate());
  obj.unary.resize(static_cast<std::size_t>(n));
  obj.unary.front() = CandidateRow(s);
  obj.tail = CandidateRow(s);
  for (const CandidateIdx k : obj.candidates.ids()) {
    obj.unary.front()[k] = model.ingress_attraction(obj.candidates[k]);
    obj.tail[k] = model.egress_attraction(obj.candidates[k]);
  }
  return obj;
}

}  // namespace

ChainSearchResult solve_top_exhaustive(const CostModel& model, int n,
                                       const ChainSearchConfig& config) {
  return chain_search(model.apsp(), top_objective(model, n), config);
}

ChainSearchResult solve_tom_exhaustive(const CostModel& model,
                                       const Placement& from, double mu,
                                       const ChainSearchConfig& config) {
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
  ChainObjective obj = top_objective(model, static_cast<int>(from.size()));
  const std::size_t s = obj.candidates.size();
  for (std::size_t j = 0; j < from.size(); ++j) {
    CandidateRow& row = obj.unary[j];
    if (row.empty()) row = CandidateRow(s, 0.0);
    for (const CandidateIdx k : obj.candidates.ids()) {
      row[k] += mu * model.apsp().cost(from[j], obj.candidates[k]);
    }
  }
  return chain_search(model.apsp(), obj, config);
}

}  // namespace ppdc
