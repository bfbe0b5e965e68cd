#include "core/stroll_dp.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"

namespace ppdc {
namespace {

/// The Fig. 4 instance of the paper. Raw-graph DP would find the 3-edge
/// path s,A,B,t of cost 7; the metric-closure DP must find the cheaper
/// walk-equivalent s,D,C,t of cost 6 (Example 2).
struct Fig4 {
  Graph g;
  NodeId s, t, a, b, c, d;
  Fig4() {
    s = g.add_node(NodeKind::kHost, "s");
    t = g.add_node(NodeKind::kHost, "t");
    a = g.add_node(NodeKind::kSwitch, "A");
    b = g.add_node(NodeKind::kSwitch, "B");
    c = g.add_node(NodeKind::kSwitch, "C");
    d = g.add_node(NodeKind::kSwitch, "D");
    g.add_edge(s, a, 3.0);
    g.add_edge(a, b, 2.0);
    g.add_edge(b, t, 2.0);
    g.add_edge(s, d, 2.0);
    g.add_edge(d, t, 2.0);
    g.add_edge(t, c, 1.0);
  }
};

TEST(StrollDp, Fig4Example2FindsCost6ViaClosure) {
  Fig4 f;
  const AllPairs apsp(f.g);
  const StrollResult r = solve_top1_dp(apsp, f.s, f.t, 2);
  EXPECT_DOUBLE_EQ(r.cost, 6.0);
  ASSERT_EQ(r.placement.size(), 2u);
  EXPECT_EQ(r.placement[0], f.d);
  EXPECT_EQ(r.placement[1], f.c);
  EXPECT_FALSE(r.used_fallback);
}

TEST(StrollDp, Fig4MatchesBruteForce) {
  Fig4 f;
  const AllPairs apsp(f.g);
  for (int n = 1; n <= 4; ++n) {
    const StrollResult r = solve_top1_dp(apsp, f.s, f.t, n);
    const double opt = testing::brute_force_stroll_cost(apsp, f.s, f.t, n);
    EXPECT_GE(r.cost + 1e-9, opt) << "n=" << n;
    EXPECT_LE(r.cost, 2.0 * opt + 1e-9) << "n=" << n;
  }
}

TEST(StrollDp, ZeroQuotaIsDirectEdge) {
  Fig4 f;
  const AllPairs apsp(f.g);
  const StrollResult r = solve_top1_dp(apsp, f.s, f.t, 0);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);  // s-D-t shortest path
  EXPECT_TRUE(r.placement.empty());
  EXPECT_EQ(r.edges_used, 1);
}

TEST(StrollDp, RateScalesCostLinearly) {
  Fig4 f;
  const AllPairs apsp(f.g);
  const StrollResult r1 = solve_top1_dp(apsp, f.s, f.t, 2, 1.0);
  const StrollResult r5 = solve_top1_dp(apsp, f.s, f.t, 2, 5.0);
  EXPECT_DOUBLE_EQ(r5.cost, 5.0 * r1.cost);
  EXPECT_EQ(r1.placement, r5.placement);
}

TEST(StrollDp, PlacementIsDistinctSwitchesExcludingEndpoints) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId s = topo.racks[RackIdx{0}][0];
  const NodeId t = topo.racks[RackIdx{5}][1];
  for (int n = 1; n <= 10; ++n) {
    const StrollResult r = solve_top1_dp(apsp, s, t, n);
    ASSERT_EQ(r.placement.size(), static_cast<std::size_t>(n));
    std::vector<NodeId> sorted = r.placement;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    for (const NodeId w : r.placement) {
      EXPECT_TRUE(topo.graph.is_switch(w));
      EXPECT_NE(w, s);
      EXPECT_NE(w, t);
    }
  }
}

TEST(StrollDp, WalkConnectsSourceToDestination) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId s = topo.racks[RackIdx{0}][0];
  const NodeId t = topo.racks[RackIdx{7}][0];
  const StrollResult r = solve_top1_dp(apsp, s, t, 5);
  ASSERT_GE(r.walk.size(), 2u);
  EXPECT_EQ(r.walk.front(), s);
  EXPECT_EQ(r.walk.back(), t);
  // The reported cost equals the metric length of the walk.
  double len = 0.0;
  for (std::size_t i = 0; i + 1 < r.walk.size(); ++i) {
    len += apsp.cost(r.walk[i], r.walk[i + 1]);
  }
  EXPECT_NEAR(r.cost, len, 1e-9);
}

TEST(StrollDp, Example3SevenStrollAcrossPods) {
  // §IV Example 3 shape: a 7-stroll between hosts of different pods in a
  // k=4 fat-tree admits an 8-edge all-unit-hop path, so the optimum is 8.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId h4 = topo.racks[RackIdx{1}][1];  // pod 0
  const NodeId h5 = topo.racks[RackIdx{2}][0];  // pod 1
  const StrollResult r = solve_top1_dp(apsp, h4, h5, 7);
  EXPECT_GE(r.cost, 8.0);   // 8 legs, each at least one hop
  EXPECT_LE(r.cost, 12.0);  // DP stays near the optimum
  EXPECT_EQ(r.placement.size(), 7u);
}

TEST(StrollDp, NTourSameEndpointHost) {
  // s == t (Fig. 5: both VMs on h1) — the n-tour case Algorithm 2 covers.
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const StrollResult r = solve_top1_dp(apsp, h1, h1, 2);
  // Optimal 2-tour: h1, s1, s2, s1, h1 -> shortcut h1,s1,s2 + s2->h1 = 1+1+2.
  EXPECT_DOUBLE_EQ(r.cost, 4.0);
  EXPECT_EQ(r.placement.size(), 2u);
}

TEST(StrollDp, ZeroQuotaSameEndpointIsSingleNodeWalk) {
  // Degenerate n-tour base: s == t with nothing to place needs no edge at
  // all. The walk must be the single node {s} — the old {s, s} answer
  // broke the "consecutive walk nodes are distinct" invariant downstream
  // consumers rely on.
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const StrollResult r = solve_top1_dp(apsp, h1, h1, 0);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.walk, std::vector<NodeId>{h1});
  EXPECT_TRUE(r.placement.empty());
  EXPECT_EQ(r.edges_used, 0);
  EXPECT_FALSE(r.used_fallback);
  for (std::size_t i = 0; i + 1 < r.walk.size(); ++i) {
    EXPECT_NE(r.walk[i], r.walk[i + 1]);
  }
}

TEST(StrollDp, MatchesBruteForceOnRandomWeightedGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Topology topo = build_random_connected(7, 2, 6, 0.5, 3.0, seed);
    const AllPairs apsp(topo.graph);
    const NodeId s = topo.graph.hosts()[0];
    const NodeId t = topo.graph.hosts()[1];
    for (int n = 1; n <= 4; ++n) {
      const StrollResult r = solve_top1_dp(apsp, s, t, n);
      const double opt = testing::brute_force_stroll_cost(apsp, s, t, n);
      EXPECT_GE(r.cost + 1e-9, opt) << "seed=" << seed << " n=" << n;
      EXPECT_LE(r.cost, 2.0 * opt + 1e-9) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(StrollDp, Theorem3CertifiesOptimality) {
  // Whenever the sufficient condition of Theorem 3 holds, the DP result
  // must equal the brute-force optimum.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Topology topo = build_random_connected(6, 2, 5, 0.5, 2.0, seed);
    const AllPairs apsp(topo.graph);
    const NodeId s = topo.graph.hosts()[0];
    const NodeId t = topo.graph.hosts()[1];
    for (int n = 1; n <= 3; ++n) {
      StrollTable table(apsp, t, 1.0);
      const StrollResult r = table.find(s, n);
      if (table.satisfies_theorem3(r)) {
        const double opt = testing::brute_force_stroll_cost(apsp, s, t, n);
        EXPECT_NEAR(r.cost, opt, 1e-9) << "seed=" << seed << " n=" << n;
      }
    }
  }
}

TEST(StrollDp, TableIsReusableAcrossSources) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& sw = topo.graph.switches();
  StrollTable table(apsp, sw[10], 2.0);
  for (const NodeId s : {sw[0], sw[3], sw[7]}) {
    const StrollResult shared = table.find(s, 3);
    const StrollResult fresh = solve_top1_dp(apsp, s, sw[10], 3, 2.0);
    EXPECT_DOUBLE_EQ(shared.cost, fresh.cost);
  }
}

// find() keeps a row bitmap and the walk's distinct switches across
// queries. A table that has already answered other sources and quotas,
// the greedy cap fallback included, must answer every query like a fresh
// table.
void expect_same_stroll(const StrollResult& got, const StrollResult& want) {
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.walk, want.walk);
  EXPECT_EQ(got.placement, want.placement);
  EXPECT_EQ(got.edges_used, want.edges_used);
  EXPECT_EQ(got.used_fallback, want.used_fallback);
}

TEST(StrollDp, ReusedScratchMatchesFreshTable) {
  {
    const Topology topo = build_fat_tree(4);
    const AllPairs apsp(topo.graph);
    const auto& sw = topo.graph.switches();
    const NodeId h = topo.graph.hosts()[3];
    const NodeId t = sw[10];
    StrollTable reused(apsp, t, 1.5);
    const std::pair<NodeId, int> queries[] = {
        {sw[0], 5}, {h, 2}, {sw[0], 1}, {t, 3},     {h, 9},
        {sw[7], 0}, {t, 0}, {sw[0], 5}, {sw[19], 12}, {h, 2}};
    for (const auto& [s, n] : queries) {
      SCOPED_TRACE(::testing::Message() << "s=" << s << " n=" << n);
      StrollTable fresh(apsp, t, 1.5);
      expect_same_stroll(reused.find(s, n), fresh.find(s, n));
    }
  }
  // The unit triangle A, B, C keeps every optimal stroll inside it, so a
  // quota of four exhausts the edge cap and the greedy completion adds
  // the far switch F (kernel_equivalence_test pins that result).
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch, "A");
  const NodeId b = g.add_node(NodeKind::kSwitch, "B");
  const NodeId c = g.add_node(NodeKind::kSwitch, "C");
  const NodeId f = g.add_node(NodeKind::kSwitch, "F");
  const NodeId s = g.add_node(NodeKind::kHost, "src");
  const NodeId t = g.add_node(NodeKind::kHost, "dst");
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  g.add_edge(c, a, 1.0);
  g.add_edge(a, f, 1000.0);
  g.add_edge(s, a, 1.0);
  g.add_edge(t, a, 1.0);
  const AllPairs apsp(g);
  StrollTable reused(apsp, t, 2.0);
  const std::pair<NodeId, int> queries[] = {
      {s, 4}, {s, 1}, {s, 4}, {s, 3}, {b, 2}, {b, 3}, {s, 4}, {s, 2}};
  int fallbacks = 0;
  for (const auto& [from, n] : queries) {
    SCOPED_TRACE(::testing::Message() << "s=" << from << " n=" << n);
    StrollTable fresh(apsp, t, 2.0);
    const StrollResult got = reused.find(from, n);
    expect_same_stroll(got, fresh.find(from, n));
    fallbacks += got.used_fallback ? 1 : 0;
  }
  EXPECT_GE(fallbacks, 3);
}

TEST(StrollDp, SharedLevelsScaleByRateAtQueryTime) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& sw = topo.graph.switches();
  const auto levels = std::make_shared<const StrollLevels>(
      std::make_shared<const StrollMetric>(apsp), sw[10]);
  StrollTable unit(levels);
  StrollTable scaled(levels, 3.5);
  for (const NodeId s : {sw[0], sw[3], topo.graph.hosts()[2]}) {
    const StrollResult a = unit.find(s, 4);
    const StrollResult b = scaled.find(s, 4);
    EXPECT_EQ(a.walk, b.walk);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(b.cost, 3.5 * a.cost);
    EXPECT_EQ(b.cost, solve_top1_dp(apsp, s, sw[10], 4, 3.5).cost);
  }
}

TEST(StrollDp, ConcurrentQueriesOnSharedLevelsMatchSerial) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto& sw = topo.graph.switches();
  const NodeId t = sw[17];
  std::vector<std::pair<NodeId, int>> queries;
  for (const int n : {3, 5, 9}) {
    for (std::size_t i = 0; i < 24; ++i) {
      if (sw[i] != t) queries.emplace_back(sw[i], n);
    }
    queries.emplace_back(topo.graph.hosts()[5], n);
  }

  std::vector<StrollResult> want;
  StrollTable serial(apsp, t);
  for (const auto& [s, n] : queries) want.push_back(serial.find(s, n));

  // Four threads grow two shared tables concurrently, each visiting the
  // queries in its own rotation so the extensions interleave. The second
  // table starts with the levels of a 3-switch query, so a view opened on
  // it reads the n = 3 switch sources from level r (warm) and scans the
  // rest; views on the first are warm or cold as the race falls, and
  // every fifth query runs on a private table, which is always cold.
  const auto metric = std::make_shared<const StrollMetric>(apsp);
  const auto shared = std::make_shared<const StrollLevels>(metric, t);
  const auto warmed = std::make_shared<const StrollLevels>(metric, t);
  StrollTable(warmed).find(sw[0], 3);
  std::vector<std::vector<StrollResult>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < got.size(); ++w) {
    threads.emplace_back([&, w] {
      StrollTable view(shared);
      StrollTable warm(warmed);
      std::vector<StrollResult> out(queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::size_t q = (i + w * 7) % queries.size();
        const auto [s, n] = queries[q];
        if (i % 5 == 4) {
          out[q] = StrollTable(apsp, t).find(s, n);
        } else {
          (i % 2 == 0 ? view : warm).find(s, n, out[q]);
        }
      }
      got[w] = std::move(out);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto& out : got) {
    for (std::size_t q = 0; q < want.size(); ++q) {
      EXPECT_EQ(out[q].walk, want[q].walk) << "query " << q;
      EXPECT_EQ(out[q].cost, want[q].cost) << "query " << q;
      EXPECT_EQ(out[q].used_fallback, want[q].used_fallback);
    }
  }
}

TEST(StrollDp, CacheBuildsEachTableOncePerFabric) {
  const Topology topo = build_fat_tree(4);
  const NodeId t = topo.graph.switches()[5];
  const AllPairs apsp(topo.graph);
  StrollTableCache& cache = StrollTableCache::of(apsp);
  EXPECT_EQ(&StrollTableCache::of(apsp), &cache);
  const auto levels = cache.levels(t);
  EXPECT_EQ(cache.levels(t), levels);
  EXPECT_EQ(cache.stats().levels_built, 1u);
  EXPECT_EQ(cache.stats().level_hits, 1u);

  // Queries grow the shared levels; the cache accounts for them.
  StrollTable(levels).find(topo.graph.hosts()[0], 3);
  EXPECT_GT(levels->bytes(), 0u);
  EXPECT_EQ(cache.stats().bytes, cache.metric()->bytes() + levels->bytes());

  // A copy is another fabric instance with its own (empty) cache.
  const AllPairs copy = apsp;
  EXPECT_NE(&StrollTableCache::of(copy), &cache);
  EXPECT_EQ(StrollTableCache::of(copy).stats().levels_built, 0u);
}

/// Copies level rows out, so later checks see the values they had then.
std::vector<std::vector<double>> cost_rows(
    const std::vector<StrollLevels::Level>& levels, std::size_t rows) {
  std::vector<std::vector<double>> out;
  for (const StrollLevels::Level& lv : levels) {
    out.emplace_back(lv.cost, lv.cost + rows);
  }
  return out;
}

void expect_same_levels(const std::vector<StrollLevels::Level>& got,
                        const std::vector<StrollLevels::Level>& want,
                        std::size_t rows) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < got.size(); ++e) {
    for (std::size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(got[e].cost[i], want[e].cost[i]) << "level " << e + 1;
      ASSERT_EQ(got[e].succ[i], want[e].succ[i]) << "level " << e + 1;
    }
  }
}

TEST(StrollDp, SlabLevelsStayPutWhenLaterLevelsSpill) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId t = topo.graph.switches()[7];
  const auto cached = StrollTableCache::of(apsp).levels(t);
  const std::size_t rows = cached->metric().rows();

  std::vector<StrollLevels::Level> early;
  cached->at_least(3, early);
  const auto early_costs = cost_rows(early, rows);
  std::vector<std::vector<NodeId>> early_succ;
  for (const auto& lv : early) early_succ.emplace_back(lv.succ, lv.succ + rows);

  // Two more slabs' worth of levels.
  const int count = static_cast<int>(2 * StrollLevels::kSlabLevels + 1);
  std::vector<StrollLevels::Level> all;
  cached->at_least(count, all);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(count));
  for (std::size_t e = 0; e < early.size(); ++e) {
    EXPECT_EQ(all[e].cost, early[e].cost) << "level " << e + 1 << " moved";
    EXPECT_EQ(all[e].succ, early[e].succ) << "level " << e + 1 << " moved";
    EXPECT_EQ(std::vector<double>(early[e].cost, early[e].cost + rows),
              early_costs[e]);
    EXPECT_EQ(std::vector<NodeId>(early[e].succ, early[e].succ + rows),
              early_succ[e]);
  }
  // One slab packs kSlabLevels consecutive levels, in the cached tables
  // and in a private table over a restricted (degraded) universe alike.
  const auto expect_packed = [](const std::vector<StrollLevels::Level>& lv,
                                std::size_t level_bytes) {
    ASSERT_GE(lv.size(), StrollLevels::kSlabLevels);
    for (std::size_t e = 0; e + 1 < StrollLevels::kSlabLevels; ++e) {
      const auto* a = reinterpret_cast<const std::byte*>(lv[e].cost);
      const auto* b = reinterpret_cast<const std::byte*>(lv[e + 1].cost);
      EXPECT_EQ(static_cast<std::size_t>(b - a), level_bytes) << "level " << e;
    }
  };
  expect_packed(all, cached->level_bytes());
  std::vector<NodeId> universe = topo.graph.switches();
  universe.resize(universe.size() - 2);
  const StrollLevels restricted(
      std::make_shared<const StrollMetric>(apsp, universe), t);
  std::vector<StrollLevels::Level> restricted_levels;
  restricted.at_least(count, restricted_levels);
  expect_packed(restricted_levels, restricted.level_bytes());

  // Private levels over every switch are the same numbers.
  const StrollLevels fresh(std::make_shared<const StrollMetric>(apsp), t);
  std::vector<StrollLevels::Level> want;
  fresh.at_least(count, want);
  expect_same_levels(all, want, rows);
}

TEST(StrollDp, ConcurrentCachedBuildsMatchSerial) {
  const Topology topo = build_fat_tree(8);
  const auto& sw = topo.graph.switches();
  constexpr int kLevels = 6;

  const AllPairs serial_apsp(topo.graph);
  StrollTableCache& serial = StrollTableCache::of(serial_apsp);
  std::vector<std::vector<StrollLevels::Level>> want(sw.size());
  for (std::size_t d = 0; d < sw.size(); ++d) {
    serial.levels(sw[d])->at_least(kLevels, want[d]);
  }

  // A fresh fabric, so four threads build every destination cold.
  const AllPairs parallel_apsp(topo.graph);
  StrollTableCache& parallel = StrollTableCache::of(parallel_apsp);
  std::vector<std::vector<StrollLevels::Level>> got(sw.size());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t d = w; d < sw.size(); d += 4) {
        parallel.levels(sw[d])->at_least(kLevels, got[d]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const std::size_t rows = parallel.metric()->rows();
  for (std::size_t d = 0; d < sw.size(); ++d) {
    SCOPED_TRACE("destination " + std::to_string(sw[d]));
    expect_same_levels(got[d], want[d], rows);
  }
  EXPECT_EQ(parallel.stats().levels_built, sw.size());
  EXPECT_EQ(parallel.stats().level_hits, 0u);
  EXPECT_EQ(parallel.stats().bytes, serial.stats().bytes);
}

TEST(StrollDp, CacheBytesAccountForEveryLevel) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  StrollTableCache& cache = StrollTableCache::of(apsp);
  const auto& sw = topo.graph.switches();
  // Level counts that end inside the first slab, exactly at its end, and
  // in a later slab.
  const int counts[] = {1, 4, static_cast<int>(StrollLevels::kSlabLevels),
                        static_cast<int>(StrollLevels::kSlabLevels) + 3};
  std::size_t levels_bytes = 0;
  std::vector<StrollLevels::Level> out;
  for (std::size_t d = 0; d < std::size(counts); ++d) {
    const auto levels = cache.levels(sw[d]);
    levels->at_least(counts[d], out);
    const std::size_t rows = levels->metric().rows();
    EXPECT_GE(levels->level_bytes(), rows * (sizeof(double) + sizeof(NodeId)));
    EXPECT_EQ(levels->bytes(),
              static_cast<std::size_t>(counts[d]) * levels->level_bytes());
    levels_bytes += levels->bytes();
  }
  const StrollTableCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.levels_built, std::size(counts));
  EXPECT_EQ(stats.bytes, cache.metric()->bytes() + levels_bytes);
}

TEST(StrollDp, RejectsImpossibleQuota) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  EXPECT_THROW(solve_top1_dp(apsp, h1, h2, 4), PpdcError);  // only 3 switches
  EXPECT_THROW(solve_top1_dp(apsp, h1, h2, -1), PpdcError);
  EXPECT_THROW(solve_top1_dp(apsp, h1, h2, 2, 0.0), PpdcError);
  // The level kernel excludes a candidate's own row, so a universe must
  // name each switch once.
  const NodeId sw = topo.graph.switches()[1];
  EXPECT_THROW(StrollMetric(apsp, {sw, topo.graph.switches()[0], sw}),
               PpdcError);
}

TEST(StrollDp, QuotaCountsOnlyUniverseEndpoints) {
  // Ten universe switches less the destination leave nine intermediates,
  // whether the source is a host or a switch outside the universe; only
  // a source inside the universe takes one more.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& sw = topo.graph.switches();
  const std::vector<NodeId> universe(sw.begin(), sw.begin() + 10);
  const NodeId t = universe.back();
  StrollTable table(apsp, t, 1.0, universe);
  for (const NodeId s : {topo.graph.hosts()[0], sw[15]}) {
    SCOPED_TRACE(::testing::Message() << "s=" << s);
    const StrollResult r = table.find(s, 9);
    ASSERT_EQ(r.placement.size(), 9u);
    for (const NodeId w : r.placement) {
      EXPECT_NE(w, t);
      EXPECT_NE(std::find(universe.begin(), universe.end(), w),
                universe.end());
    }
  }
  EXPECT_THROW(table.find(universe.front(), 9), PpdcError);
}

TEST(StrollDp, CostNondecreasingInQuota) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId s = topo.racks[RackIdx{0}][0];
  const NodeId t = topo.racks[RackIdx{6}][1];
  double prev = 0.0;
  for (int n = 1; n <= 12; ++n) {
    const StrollResult r = solve_top1_dp(apsp, s, t, n);
    EXPECT_GE(r.cost + 1e-9, prev) << "n=" << n;
    prev = r.cost;
  }
}

}  // namespace
}  // namespace ppdc
