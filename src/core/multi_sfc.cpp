#include "core/multi_sfc.hpp"

#include <algorithm>
#include <limits>

#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/indexed_vector.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MultiSfcCostModel::MultiSfcCostModel(const AllPairs& apsp,
                                     std::vector<RangedFlow> flows, int n)
    : apsp_(&apsp), flows_(std::move(flows)), n_(n) {
  PPDC_REQUIRE(n_ >= 1, "catalogue must hold at least one VNF");
  const std::vector<NodeId>& switches = apsp.graph().switches();
  const std::size_t ns = switches.size();
  leg_load_.assign(static_cast<std::size_t>(std::max(0, n_ - 1)), 0.0);
  entry_.assign(static_cast<std::size_t>(n_) * ns, 0.0);
  exit_.assign(static_cast<std::size_t>(n_) * ns, 0.0);

  for (const auto& rf : flows_) {
    PPDC_REQUIRE(rf.first >= 0 && rf.first <= rf.last && rf.last < n_,
                 "flow range outside the VNF catalogue");
    PPDC_REQUIRE(rf.flow.rate >= 0.0, "negative traffic rate");
    for (int j = rf.first; j < rf.last; ++j) {
      leg_load_[static_cast<std::size_t>(j)] += rf.flow.rate;
    }
    // Switch k of Graph::switches() sits at SwitchIdx k.
    double* entry = entry_.data() + static_cast<std::size_t>(rf.first) * ns;
    double* exit = exit_.data() + static_cast<std::size_t>(rf.last) * ns;
    for (std::size_t k = 0; k < ns; ++k) {
      entry[k] += rf.flow.rate * apsp.cost(rf.flow.src_host, switches[k]);
      exit[k] += rf.flow.rate * apsp.cost(switches[k], rf.flow.dst_host);
    }
  }
}

double MultiSfcCostModel::leg_load(int j) const {
  PPDC_REQUIRE(j >= 0 && j < n_ - 1, "leg index out of range");
  return leg_load_[static_cast<std::size_t>(j)];
}

std::size_t MultiSfcCostModel::slot(int j, NodeId w) const {
  PPDC_REQUIRE(j >= 0 && j < n_, "position out of range");
  PPDC_REQUIRE(apsp_->graph().is_switch(w),
               "attractions are defined on switches only");
  // A switch's core position is its SwitchIdx.
  return static_cast<std::size_t>(j) * apsp_->graph().switches().size() +
         static_cast<std::size_t>(apsp_->core_index(w));
}

double MultiSfcCostModel::entry_attraction(int j, NodeId w) const {
  return entry_[slot(j, w)];
}

double MultiSfcCostModel::exit_attraction(int j, NodeId w) const {
  return exit_[slot(j, w)];
}

double MultiSfcCostModel::communication_cost(const Placement& p,
                                             bool allow_colocation) const {
  PPDC_REQUIRE(static_cast<int>(p.size()) == n_,
               "placement length must match the catalogue");
  if (!allow_colocation) {
    validate_placement(apsp_->graph(), p);
  }
  double total = 0.0;
  for (int j = 0; j < n_ - 1; ++j) {
    total += leg_load_[static_cast<std::size_t>(j)] *
             apsp_->cost(p[static_cast<std::size_t>(j)],
                         p[static_cast<std::size_t>(j + 1)]);
  }
  for (int j = 0; j < n_; ++j) {
    total += entry_attraction(j, p[static_cast<std::size_t>(j)]) +
             exit_attraction(j, p[static_cast<std::size_t>(j)]);
  }
  return total;
}

MultiSfcResult solve_multi_sfc_relaxed(const MultiSfcCostModel& model) {
  const AllPairs& apsp = model.apsp();
  const auto& switches = apsp.graph().switches();
  const int n = model.sfc_length();
  const std::size_t s = switches.size();
  PPDC_REQUIRE(static_cast<std::size_t>(n) <= s, "more VNFs than switches");

  // Viterbi over positions: best[j][w] = cheapest prefix ending with
  // position j at switch w (relaxed: duplicates allowed).
  std::vector<double> best(s), next(s);
  // Flat n x s backpointer table (row-major).
  std::vector<int> back(static_cast<std::size_t>(n) * s, -1);
  const auto back_at = [&](int j, std::size_t w) -> int& {
    return back[static_cast<std::size_t>(j) * s + w];
  };
  for (std::size_t w = 0; w < s; ++w) {
    best[w] = model.entry_attraction(0, switches[w]) +
              model.exit_attraction(0, switches[w]);
  }
  for (int j = 1; j < n; ++j) {
    for (std::size_t w = 0; w < s; ++w) {
      double b = kInf;
      int arg = -1;
      for (std::size_t prev = 0; prev < s; ++prev) {
        const double cand =
            best[prev] + model.leg_load(j - 1) *
                             apsp.cost(switches[prev], switches[w]);
        if (cand < b) {
          b = cand;
          arg = static_cast<int>(prev);
        }
      }
      next[w] = b + model.entry_attraction(j, switches[w]) +
                model.exit_attraction(j, switches[w]);
      back_at(j, w) = arg;
    }
    best.swap(next);
  }
  const auto last =
      static_cast<std::size_t>(std::min_element(best.begin(), best.end()) -
                               best.begin());
  Placement p(static_cast<std::size_t>(n));
  std::size_t cur = last;
  for (int j = n - 1; j >= 0; --j) {
    p[static_cast<std::size_t>(j)] = switches[cur];
    if (j > 0) {
      cur = static_cast<std::size_t>(back_at(j, cur));
    }
  }

  // Greedy repair: move duplicate positions to their cheapest free switch.
  std::vector<char> used(static_cast<std::size_t>(apsp.num_nodes()), 0);
  for (int j = 0; j < n; ++j) {
    const NodeId w = p[static_cast<std::size_t>(j)];
    if (!used[static_cast<std::size_t>(w)]) {
      used[static_cast<std::size_t>(w)] = 1;
      continue;
    }
    // Conflict: choose the unused switch minimizing this position's local
    // cost (legs to both fixed neighbours + its own attractions).
    double bcost = kInf;
    NodeId bsw = kInvalidNode;
    for (const NodeId cand : switches) {
      if (used[static_cast<std::size_t>(cand)]) continue;
      double local = model.entry_attraction(j, cand) +
                     model.exit_attraction(j, cand);
      if (j > 0) {
        local += model.leg_load(j - 1) *
                 apsp.cost(p[static_cast<std::size_t>(j - 1)], cand);
      }
      if (j < n - 1) {
        local += model.leg_load(j) *
                 apsp.cost(cand, p[static_cast<std::size_t>(j + 1)]);
      }
      if (local < bcost) {
        bcost = local;
        bsw = cand;
      }
    }
    PPDC_REQUIRE(bsw != kInvalidNode, "repair ran out of switches");
    p[static_cast<std::size_t>(j)] = bsw;
    used[static_cast<std::size_t>(bsw)] = 1;
  }

  MultiSfcResult r;
  r.comm_cost = model.communication_cost(p);
  r.placement = std::move(p);
  return r;
}

MultiSfcResult solve_multi_sfc_exhaustive(const MultiSfcCostModel& model,
                                          const ChainSearchConfig& config) {
  const int n = model.sfc_length();
  ChainObjective obj;
  obj.candidates =
      IndexedVector<CandidateIdx, NodeId>(model.apsp().graph().switches());
  for (int j = 0; j + 1 < n; ++j) obj.leg_weight.push_back(model.leg_load(j));
  obj.unary.assign(static_cast<std::size_t>(n),
                   CandidateRow(obj.candidates.size()));
  for (int j = 0; j < n; ++j) {
    CandidateRow& row = obj.unary[static_cast<std::size_t>(j)];
    for (const CandidateIdx k : obj.candidates.ids()) {
      const NodeId w = obj.candidates[k];
      row[k] = model.entry_attraction(j, w) + model.exit_attraction(j, w);
    }
  }
  ChainSearchResult r = chain_search(model.apsp(), obj, config);
  MultiSfcResult out;
  out.comm_cost = model.communication_cost(r.placement);
  out.placement = std::move(r.placement);
  out.proven_optimal = r.proven_optimal;
  return out;
}

}  // namespace ppdc
