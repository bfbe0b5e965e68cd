#include "core/frontier.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

MigrationFrontiers::MigrationFrontiers(const AllPairs& apsp,
                                       const Placement& from,
                                       const Placement& to) {
  PPDC_REQUIRE(!from.empty(), "empty placement");
  PPDC_REQUIRE(from.size() == to.size(), "placement size mismatch");
  const Graph& g = apsp.graph();
  paths_.reserve(from.size());
  h_.reserve(from.size());
  for (std::size_t j = 0; j < from.size(); ++j) {
    PPDC_REQUIRE(g.is_switch(from[j]) && g.is_switch(to[j]),
                 "migration endpoints must be switches");
    std::vector<NodeId> path = from[j] == to[j]
                                   ? std::vector<NodeId>{from[j]}
                                   : apsp.path(from[j], to[j]);
    // Drop any host vertices (possible only on degenerate topologies where
    // a host has degree > 1); a VNF cannot pause on a host.
    path.erase(std::remove_if(path.begin(), path.end(),
                              [&](NodeId v) { return g.is_host(v); }),
               path.end());
    PPDC_REQUIRE(!path.empty() && path.front() == from[j] &&
                     path.back() == to[j],
                 "migration path must connect the endpoints via switches");
    h_.push_back(static_cast<int>(path.size()));
    h_max_ = std::max(h_max_, h_.back());
    paths_.push_back(std::move(path));
  }
}

Placement MigrationFrontiers::parallel_frontier(int i) const {
  PPDC_REQUIRE(i >= 1 && i <= h_max_, "frontier index out of range");
  Placement fr;
  fr.reserve(paths_.size());
  for (const ChainPos j : paths_.ids()) {
    const int k = std::min(i, h_[j]);
    fr.push_back(paths_[j][static_cast<std::size_t>(k - 1)]);
  }
  return fr;
}

std::vector<Placement> MigrationFrontiers::all_parallel_frontiers() const {
  std::vector<Placement> rows;
  rows.reserve(static_cast<std::size_t>(h_max_));
  for (int i = 1; i <= h_max_; ++i) rows.push_back(parallel_frontier(i));
  return rows;
}

std::int64_t MigrationFrontiers::frontier_count() const noexcept {
  std::int64_t count = 1;
  for (const int h : h_) {
    if (count > std::numeric_limits<std::int64_t>::max() / h) {
      return std::numeric_limits<std::int64_t>::max();
    }
    count *= h;
  }
  return count;
}

void MigrationFrontiers::for_each_frontier(
    std::int64_t max_enumerated,
    const std::function<void(const Placement&)>& visit) const {
  PPDC_REQUIRE(frontier_count() <= max_enumerated,
               "frontier space too large to enumerate");
  const std::size_t n = paths_.size();
  IndexedVector<ChainPos, int> odometer(n, 0);
  Placement fr(n);
  for (;;) {
    for (const ChainPos j : paths_.ids()) {
      fr[static_cast<std::size_t>(j.value())] =
          paths_[j][static_cast<std::size_t>(odometer[j])];
    }
    visit(fr);
    // Increment odometer.
    ChainPos j{0};
    const ChainPos end = paths_.end_id();
    while (j < end) {
      if (++odometer[j] < h_[j]) break;
      odometer[j] = 0;
      ++j;
    }
    if (j == end) break;
  }
}

const std::vector<NodeId>& MigrationFrontiers::path(ChainPos j) const {
  PPDC_REQUIRE(paths_.contains(j), "path index out of range");
  return paths_[j];
}

bool is_collision_free(const Placement& p) {
  Placement sorted = p;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace ppdc
