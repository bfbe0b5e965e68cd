// Equivalence suite for the incremental group-scaled cost-model refresh:
// refresh_scaled()/endpoints_moved() must match a from-scratch rebuild to
// 1e-9 (relative) across diurnal schedules, grouped offsets, degenerate
// Λ = 0 rates, and after PLAN/MCF endpoint moves — plus a property test
// over random topologies and seeds, and an engine-level check that the
// grouped fast path reproduces the full-rescan trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/vm_migration.hpp"
#include "core/placement_dp.hpp"
#include "core/sharded_cost_model.hpp"
#include "sim/engine.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"
#include "workload/diurnal.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

double rel_tol(double a, double b) {
  return 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Asserts that `inc` (incrementally maintained) agrees with a cost model
/// rebuilt from scratch over the same flow vector.
void expect_matches_rebuild(const AllPairs& apsp,
                            const std::vector<VmFlow>& flows,
                            const CostModel& inc) {
  const CostModel ref(apsp, flows);
  ASSERT_NEAR(inc.total_rate(), ref.total_rate(),
              rel_tol(inc.total_rate(), ref.total_rate()));
  for (const NodeId sw : apsp.graph().switches()) {
    const double ai = inc.ingress_attraction(sw);
    const double ar = ref.ingress_attraction(sw);
    ASSERT_NEAR(ai, ar, rel_tol(ai, ar)) << "ingress at switch " << sw;
    const double bi = inc.egress_attraction(sw);
    const double br = ref.egress_attraction(sw);
    ASSERT_NEAR(bi, br, rel_tol(bi, br)) << "egress at switch " << sw;
  }
  ASSERT_NEAR(inc.min_ingress_attraction(), ref.min_ingress_attraction(),
              rel_tol(inc.min_ingress_attraction(),
                      ref.min_ingress_attraction()));
  ASSERT_NEAR(inc.min_egress_attraction(), ref.min_egress_attraction(),
              rel_tol(inc.min_egress_attraction(),
                      ref.min_egress_attraction()));
}

std::vector<VmFlow> spatial_workload(const Topology& topo, int l,
                                     std::uint64_t seed,
                                     double zipf = 2.0) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  cfg.rack_zipf_s = zipf;
  Rng rng(seed);
  return generate_vm_flows(topo, cfg, rng);
}

TEST(IncrementalRefresh, MatchesFullRebuildAcrossDiurnalSchedule) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 40, 3);
  const std::vector<double> base = rates_of(flows);
  const std::vector<int> groups = groups_of(flows);
  const int n_groups = num_groups(groups);

  CostModel inc(apsp, flows);
  inc.enable_group_refresh(base, groups);
  const DiurnalModel diurnal;
  for (const Hour hour : id_range(Hour{0}, Hour{25})) {
    set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, hour));
    inc.refresh_scaled(diurnal.group_scales(hour, n_groups));
    expect_matches_rebuild(apsp, flows, inc);
  }
}

TEST(IncrementalRefresh, GroupedOffsetsBeyondTwoCoasts) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 30, 5);
  // Spread the flows over five lagged groups instead of two coasts.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].group = static_cast<int>(i % 5);
  }
  const std::vector<double> base = rates_of(flows);
  const std::vector<int> groups = groups_of(flows);

  CostModel inc(apsp, flows);
  inc.enable_group_refresh(base, groups);
  DiurnalModel diurnal;
  diurnal.coast_offset = 2;
  for (const Hour hour : id_range(Hour{0}, Hour{12})) {
    set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, hour));
    inc.refresh_scaled(diurnal.group_scales(hour, num_groups(groups)));
    expect_matches_rebuild(apsp, flows, inc);
  }
}

TEST(IncrementalRefresh, DegenerateZeroRates) {
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  std::vector<VmFlow> flows{{h1, h2, 0.0, 0}, {h2, h1, 0.0, 1}};
  CostModel inc(apsp, flows);
  inc.enable_group_refresh({0.0, 0.0}, {0, 1});
  inc.refresh_scaled({1.0, 0.5});
  expect_matches_rebuild(apsp, flows, inc);
  EXPECT_DOUBLE_EQ(inc.total_rate(), 0.0);

  // Non-zero base rates, all-zero scales: Λ must collapse to 0 too.
  std::vector<VmFlow> live{{h1, h2, 7.0, 0}, {h2, h1, 3.0, 0}};
  CostModel inc2(apsp, live);
  inc2.enable_group_refresh({7.0, 3.0}, {0, 0});
  inc2.refresh_scaled({0.0});
  set_rates(live, {0.0, 0.0});
  expect_matches_rebuild(apsp, live, inc2);
  EXPECT_DOUBLE_EQ(inc2.total_rate(), 0.0);
}

TEST(IncrementalRefresh, EndpointMovesFromPlanAndMcf) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  for (const bool use_mcf : {false, true}) {
    std::vector<VmFlow> flows = spatial_workload(topo, 25, 11, 2.5);
    const std::vector<double> base = rates_of(flows);
    const std::vector<int> groups = groups_of(flows);

    CostModel inc(apsp, flows);
    inc.enable_group_refresh(base, groups);
    const DiurnalModel diurnal;
    set_rates(flows, diurnal_rates_grouped(diurnal, base, groups, Hour{4}));
    inc.refresh_scaled(diurnal.group_scales(Hour{4}, num_groups(groups)));
    const Placement p = solve_top_dp(inc, 3).placement;

    VmMigrationConfig cfg;
    cfg.mu = 0.1;  // cheap moves so endpoints definitely change
    const VmMigrationResult r =
        use_mcf ? solve_vm_migration_mcf(apsp, flows, p, cfg)
                : solve_vm_migration_plan(apsp, flows, p, cfg);
    ASSERT_GT(r.vms_moved, 0) << (use_mcf ? "MCF" : "PLAN");
    flows = r.flows;
    inc.endpoints_moved(r.moved_flow_indices);
    expect_matches_rebuild(apsp, flows, inc);
  }
}

TEST(IncrementalRefresh, LargeDirtySetTriggersRebuildFallback) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 20, 13);
  const std::vector<double> base = rates_of(flows);
  const std::vector<int> groups = groups_of(flows);

  CostModel inc(apsp, flows);
  inc.enable_group_refresh(base, groups);
  inc.refresh_scaled(DiurnalModel{}.group_scales(Hour{6}, num_groups(groups)));
  set_rates(flows,
            diurnal_rates_grouped(DiurnalModel{}, base, groups, Hour{6}));

  // Move every flow to a fresh host: the dirty set covers the whole
  // population, exercising the full-rebuild fallback.
  const auto& hosts = topo.graph.hosts();
  std::vector<FlowId> moved;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].src_host = hosts[(i * 3) % hosts.size()];
    flows[i].dst_host = hosts[(i * 5 + 1) % hosts.size()];
    moved.push_back(FlowId{static_cast<int>(i)});
  }
  inc.endpoints_moved(moved);
  expect_matches_rebuild(apsp, flows, inc);
}

TEST(IncrementalRefresh, PropertyRandomTopologiesScalesAndMoves) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 977);
    const int shape = static_cast<int>(rng.uniform_int(0, 2));
    const Topology topo =
        shape == 0   ? build_fat_tree(4)
        : shape == 1 ? build_linear(6)
                     : build_random_connected(10, 8, 14, 0.5, 3.0,
                                              seed * 31 + 7);
    const AllPairs apsp(topo.graph);
    const auto& hosts = topo.graph.hosts();

    const int l = static_cast<int>(rng.uniform_int(1, 30));
    const int n_groups = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<VmFlow> flows;
    for (int i = 0; i < l; ++i) {
      VmFlow f;
      f.src_host = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(hosts.size()) - 1))];
      f.dst_host = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(hosts.size()) - 1))];
      f.rate = rng.uniform_real(0.0, 10000.0);
      f.group = static_cast<int>(rng.uniform_int(0, n_groups - 1));
      flows.push_back(f);
    }
    const std::vector<double> base = rates_of(flows);
    const std::vector<int> groups = groups_of(flows);

    CostModel inc(apsp, flows);
    inc.enable_group_refresh(base, groups);
    for (int step = 0; step < 10; ++step) {
      std::vector<double> scales;
      for (int g = 0; g < n_groups; ++g) {
        scales.push_back(rng.uniform_real(0.0, 2.0));
      }
      for (int i = 0; i < l; ++i) {
        flows[static_cast<std::size_t>(i)].rate =
            base[static_cast<std::size_t>(i)] *
            scales[static_cast<std::size_t>(
                groups[static_cast<std::size_t>(i)])];
      }
      inc.refresh_scaled(scales);
      expect_matches_rebuild(apsp, flows, inc);

      // Occasionally relocate a random subset of endpoints.
      if (rng.uniform_int(0, 1) == 0) {
        std::vector<FlowId> moved;
        const int k = static_cast<int>(rng.uniform_int(1, l));
        for (int j = 0; j < k; ++j) {
          const int i = static_cast<int>(rng.uniform_int(0, l - 1));
          auto& f = flows[static_cast<std::size_t>(i)];
          f.src_host = hosts[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(hosts.size()) - 1))];
          f.dst_host = hosts[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(hosts.size()) - 1))];
          moved.push_back(FlowId{i});
        }
        inc.endpoints_moved(moved);
        expect_matches_rebuild(apsp, flows, inc);
      }
    }
  }
}

TEST(IncrementalRefresh, EngineGroupedPathMatchesFullRescanTrace) {
  // The diurnal fast path must reproduce the trace of an engine run whose
  // custom rate_schedule emits the *same* rates but forces the full
  // per-flow rescan on every epoch.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = spatial_workload(topo, 15, 9, 2.5);
  const std::vector<double> base = rates_of(flows);
  const std::vector<int> groups = groups_of(flows);

  SimConfig grouped_cfg;
  SimConfig rescan_cfg;
  rescan_cfg.rate_schedule = [&](Hour hour) {
    return diurnal_rates_grouped(grouped_cfg.diurnal, base, groups, hour);
  };

  struct Case {
    const char* name;
    std::unique_ptr<MigrationPolicy> a, b;
  };
  VmMigrationConfig vm_cfg;
  vm_cfg.mu = 0.1;
  Case cases[] = {
      {"NoMigration", std::make_unique<NoMigrationPolicy>(),
       std::make_unique<NoMigrationPolicy>()},
      {"mPareto", std::make_unique<ParetoMigrationPolicy>(10.0),
       std::make_unique<ParetoMigrationPolicy>(10.0)},
      {"PLAN", std::make_unique<PlanPolicy>(vm_cfg),
       std::make_unique<PlanPolicy>(vm_cfg)},
      {"MCF", std::make_unique<McfPolicy>(vm_cfg),
       std::make_unique<McfPolicy>(vm_cfg)},
  };
  for (auto& c : cases) {
    const SimTrace fast = run_simulation(apsp, flows, 3, grouped_cfg, *c.a);
    const SimTrace full = run_simulation(apsp, flows, 3, rescan_cfg, *c.b);
    ASSERT_EQ(fast.epochs.size(), full.epochs.size()) << c.name;
    for (std::size_t h = 0; h < fast.epochs.size(); ++h) {
      EXPECT_NEAR(fast.epochs[h].comm_cost, full.epochs[h].comm_cost,
                  rel_tol(fast.epochs[h].comm_cost, full.epochs[h].comm_cost))
          << c.name << " hour " << h;
      EXPECT_NEAR(fast.epochs[h].migration_cost, full.epochs[h].migration_cost,
                  rel_tol(fast.epochs[h].migration_cost,
                          full.epochs[h].migration_cost))
          << c.name << " hour " << h;
    }
    EXPECT_NEAR(fast.total_cost, full.total_cost,
                rel_tol(fast.total_cost, full.total_cost))
        << c.name;
    EXPECT_EQ(fast.total_vnf_migrations, full.total_vnf_migrations) << c.name;
    EXPECT_EQ(fast.total_vm_migrations, full.total_vm_migrations) << c.name;
  }
}

TEST(IncrementalRefresh, SparseGroupIdsCompactAndMatchRebuild) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 60, 17);
  // Sparse, non-contiguous group ids: rows are compacted per distinct id
  // while scale vectors keep indexing by raw id (num_groups = 10).
  const int sparse_ids[3] = {1, 4, 9};
  std::vector<double> bases(flows.size());
  std::vector<int> groups(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    bases[i] = flows[i].rate;
    groups[i] = sparse_ids[i % 3];
    flows[i].group = groups[i];
  }
  CostModel cm(apsp, flows);
  cm.enable_group_refresh(bases, groups);

  std::vector<double> scales(10, 1.0);
  scales[1] = 0.25;
  scales[4] = 2.0;
  scales[9] = 0.0;
  cm.refresh_scaled(scales);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].rate = bases[i] * scales[static_cast<std::size_t>(groups[i])];
  }
  expect_matches_rebuild(apsp, flows, cm);
}

TEST(IncrementalRefresh, MinGroupsWidensScaleDomain) {
  const Topology topo = build_linear(4);
  const AllPairs apsp(topo.graph);
  const NodeId h0 = topo.graph.hosts()[0];
  const NodeId h1 = topo.graph.hosts()[1];
  std::vector<VmFlow> flows{{h0, h1, 2.0, 0}, {h1, h0, 3.0, 0}};
  CostModel cm(apsp, flows);
  // The local subset only mentions group 0, but the caller's global
  // domain has 4 groups (sharded views): scale vectors must be length 4.
  cm.enable_group_refresh({2.0, 3.0}, {0, 0}, 4);
  EXPECT_THROW(cm.refresh_scaled({1.0}), PpdcError);
  cm.refresh_scaled({0.5, 1.0, 1.0, 1.0});
  flows[0].rate = 1.0;
  flows[1].rate = 1.5;
  expect_matches_rebuild(apsp, flows, cm);
}

TEST(IncrementalRefresh, RebaseFlowPatchesBaseVectors) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 40, 23);
  std::vector<double> bases(flows.size());
  std::vector<int> groups(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    bases[i] = flows[i].rate;
    groups[i] = flows[i].group;
  }
  CostModel cm(apsp, flows);
  cm.enable_group_refresh(bases, groups);

  // Departure: slot 3's base drops to 0 in place.
  flows[3].rate = 0.0;
  cm.rebase_flow(FlowId{3}, 0.0, groups[3]);
  // Re-rate: slot 5 keeps endpoints and group, new base.
  flows[5].rate = 2.5;
  cm.rebase_flow(FlowId{5}, 2.5, groups[5]);
  // Re-spawn: slot 3 is re-used by a fresh flow — new endpoints, new
  // group, new base.
  flows[3].src_host = topo.graph.hosts()[0];
  flows[3].dst_host = topo.graph.hosts().back();
  flows[3].group = 1 - groups[3];
  flows[3].rate = 1.7;
  cm.rebase_flow(FlowId{3}, 1.7, flows[3].group);

  // Batched-churn contract: recombine once, then query.
  cm.refresh_scaled({1.0, 1.0});
  expect_matches_rebuild(apsp, flows, cm);
}

TEST(IncrementalRefresh, ShardChurnPatchesEqualRebuildBitForBit) {
  // Integer link weights (host links 2, fabric links 1) and integer base
  // rates keep every partial sum an exact integer, so the order in which
  // patches landed cannot matter: the churn-patched base vectors of each
  // shard must equal a from-scratch rebuild exactly. The host links make
  // the leaf weight of every endpoint visible in the sums.
  Topology topo = build_fat_tree(4);
  for (const NodeId h : topo.graph.hosts()) {
    topo.graph.set_edge_weight(h, topo.graph.neighbors(h)[0].to, 2.0);
  }
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::vector<NodeId>& hosts = topo.graph.hosts();
  constexpr int kGroups = 4;
  Rng rng(29);
  auto any_host = [&] {
    return hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  };
  auto fresh_flow = [&] {
    VmFlow f;
    f.src_host = any_host();
    f.dst_host = any_host();
    f.rate = static_cast<double>(rng.uniform_int(1, 9));
    f.group = static_cast<int>(rng.uniform_int(0, kGroups - 1));
    return f;
  };
  std::vector<VmFlow> flows;
  for (int i = 0; i < 48; ++i) flows.push_back(fresh_flow());
  ShardedCostModel sharded(apsp, map, flows, kGroups);
  const std::vector<double> scales(kGroups, 1.0);

  for (int epoch = 0; epoch < 10; ++epoch) {
    FlowChurn churn;
    for (std::size_t g = 0; g < flows.size(); ++g) {
      const FlowId id{static_cast<std::int32_t>(g)};
      const std::int64_t roll = rng.uniform_int(0, 9);
      if (flows[g].rate == 0.0) {
        if (roll < 3) {  // re-spawn into a vacant slot, any pod
          flows[g] = fresh_flow();
          churn.arrived.push_back(id);
        }
      } else if (roll == 0) {
        flows[g].rate = 0.0;
        churn.departed.push_back(id);
      } else if (roll == 1) {
        flows[g].rate = static_cast<double>(rng.uniform_int(1, 9));
        churn.rerated.push_back(id);
      }
    }
    for (int a = 0; a < 2; ++a) {  // appended global slots
      churn.arrived.push_back(FlowId{static_cast<std::int32_t>(flows.size())});
      flows.push_back(fresh_flow());
    }
    sharded.apply_churn(flows, churn);

    // PLAN-style VM moves: one live flow per shard changes endpoints (its
    // source stays in the shard's pod) and the model is told through
    // endpoints_moved(), mirrored into the global vector.
    for (int s = 0; s < sharded.num_shards(); ++s) {
      ShardedCostModel::Shard& sh = sharded.shard(s);
      sh.model->refresh_scaled(scales);
      for (std::size_t l = 0; l < sh.flows.size(); ++l) {
        if (sh.base_rates[l] == 0.0) continue;
        NodeId src = any_host();
        while (map.shard_of(src) != s) src = any_host();
        sh.flows[l].src_host = src;
        sh.flows[l].dst_host = any_host();
        const auto g = static_cast<std::size_t>(sh.global_ids[l].value());
        flows[g].src_host = sh.flows[l].src_host;
        flows[g].dst_host = sh.flows[l].dst_host;
        sh.model->endpoints_moved({FlowId{static_cast<std::int32_t>(l)}});
        break;
      }
    }
  }

  const std::size_t ns = topo.graph.switches().size();
  for (int s = 0; s < sharded.num_shards(); ++s) {
    const ShardedCostModel::Shard& sh = sharded.shard(s);
    CostModel rebuilt(apsp, sh.flows);
    rebuilt.enable_group_refresh(sh.base_rates, sh.groups, kGroups);
    const CostModel::GroupSnapshot got = sh.model->group_snapshot();
    const CostModel::GroupSnapshot want = rebuilt.group_snapshot();
    ASSERT_EQ(got.group_ingress.size(), got.row_groups.size() * ns);
    // Rows are allocated in first-use order by the patches and in id
    // order by the rebuild; a group emptied by churn keeps an all-zero
    // row in the patched model only.
    auto row = [&](const CostModel::GroupSnapshot& snap,
                   const std::vector<double>& vec, int g, std::size_t j) {
      if (static_cast<std::size_t>(g) >= snap.group_rows.size() ||
          snap.group_rows[static_cast<std::size_t>(g)] < 0) {
        return 0.0;
      }
      return vec[static_cast<std::size_t>(
                     snap.group_rows[static_cast<std::size_t>(g)]) *
                     ns +
                 j];
    };
    for (int g = 0; g < kGroups; ++g) {
      for (std::size_t j = 0; j < ns; ++j) {
        ASSERT_EQ(row(got, got.group_ingress, g, j),
                  row(want, want.group_ingress, g, j))
            << "shard " << s << " group " << g << " switch slot " << j;
        ASSERT_EQ(row(got, got.group_egress, g, j),
                  row(want, want.group_egress, g, j))
            << "shard " << s << " group " << g << " switch slot " << j;
      }
    }
  }
}

/// Asserts that two grouped models hold bit-identical state: the group
/// snapshot, Λ, every attraction and the argmins.
void expect_same_grouped_state(const CostModel& got, const CostModel& want) {
  const CostModel::GroupSnapshot a = got.group_snapshot();
  const CostModel::GroupSnapshot b = want.group_snapshot();
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.base_rates, b.base_rates);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.group_rows, b.group_rows);
  EXPECT_EQ(a.row_groups, b.row_groups);
  EXPECT_EQ(a.group_ingress, b.group_ingress);
  EXPECT_EQ(a.group_egress, b.group_egress);
  EXPECT_EQ(a.last_scales, b.last_scales);
  EXPECT_EQ(a.snap_src, b.snap_src);
  EXPECT_EQ(a.snap_dst, b.snap_dst);
  EXPECT_EQ(got.total_rate(), want.total_rate());
  for (const NodeId sw : got.apsp().graph().switches()) {
    EXPECT_EQ(got.ingress_attraction(sw), want.ingress_attraction(sw))
        << "ingress at switch " << sw;
    EXPECT_EQ(got.egress_attraction(sw), want.egress_attraction(sw))
        << "egress at switch " << sw;
  }
  EXPECT_EQ(got.best_ingress(), want.best_ingress());
  EXPECT_EQ(got.best_egress(), want.best_egress());
  EXPECT_EQ(got.min_ingress_attraction(), want.min_ingress_attraction());
  EXPECT_EQ(got.min_egress_attraction(), want.min_egress_attraction());
}

TEST(IncrementalRefresh, GroupedConstructorMatchesTwoStepPath) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  struct Case {
    const char* name;
    std::vector<int> ids;  ///< group of flow i is ids[i % ids.size()]
    int min_groups;
  };
  const Case cases[] = {
      {"dense", {0, 1}, 0},
      {"sparse", {1, 4, 9}, 0},
      {"min_groups", {0, 1}, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<VmFlow> base_flows = spatial_workload(topo, 50, 41);
    std::vector<double> bases(base_flows.size());
    std::vector<int> groups(base_flows.size());
    for (std::size_t i = 0; i < base_flows.size(); ++i) {
      bases[i] = base_flows[i].rate;
      groups[i] = c.ids[i % c.ids.size()];
    }
    // Each model binds its own flow vector: the churn below mutates both
    // the same way.
    std::vector<VmFlow> two_flows = base_flows;
    std::vector<VmFlow> one_flows = base_flows;
    CostModel two_step(apsp, two_flows);
    two_step.enable_group_refresh(bases, groups, c.min_groups);
    CostModel one_pass(apsp, one_flows, bases, groups, c.min_groups);
    ASSERT_EQ(one_pass.num_groups(), two_step.num_groups());

    std::vector<double> scales(static_cast<std::size_t>(two_step.num_groups()),
                               1.0);
    for (std::size_t g = 0; g < scales.size(); ++g) {
      scales[g] = 0.25 + 0.5 * static_cast<double>(g % 4);
    }
    two_step.refresh_scaled(scales);
    one_pass.refresh_scaled(scales);
    expect_same_grouped_state(one_pass, two_step);

    // Churn afterwards: a departure, a re-spawn into a fresh group id,
    // and two appended flows.
    const auto& hosts = topo.graph.hosts();
    const int fresh_group = two_step.num_groups() + 1;
    for (std::vector<VmFlow>* flows : {&two_flows, &one_flows}) {
      (*flows)[2].rate = 0.0;
      (*flows)[7].src_host = hosts.front();
      (*flows)[7].dst_host = hosts.back();
      (*flows)[7].rate = 1.5;
      (*flows)[7].group = fresh_group;
      for (std::size_t j = 0; j < 2; ++j) {
        flows->push_back({hosts[j + 1], hosts[hosts.size() - 2 - j],
                          0.5 + static_cast<double>(j), c.ids.front()});
      }
    }
    for (CostModel* cm : {&two_step, &one_pass}) {
      cm->rebase_flow(FlowId{2}, 0.0, groups[2]);
      cm->rebase_flow(FlowId{7}, 1.5, fresh_group);
      cm->flows_appended({0.5, 1.5}, {c.ids.front(), c.ids.front()});
    }
    scales.resize(static_cast<std::size_t>(two_step.num_groups()), 2.0);
    two_step.refresh_scaled(scales);
    one_pass.refresh_scaled(scales);
    expect_same_grouped_state(one_pass, two_step);
  }
}

TEST(IncrementalRefresh, FlowsAppendedExtendsModel) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 30, 31);
  std::vector<double> bases(flows.size());
  std::vector<int> groups(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    bases[i] = flows[i].rate;
    groups[i] = flows[i].group;
  }
  CostModel cm(apsp, flows);
  cm.enable_group_refresh(bases, groups);

  const auto& hosts = topo.graph.hosts();
  std::vector<double> new_bases{1.25, 0.75, 3.5};
  std::vector<int> new_groups{1, 0, 1};
  for (std::size_t j = 0; j < new_bases.size(); ++j) {
    VmFlow f;
    f.src_host = hosts[j];
    f.dst_host = hosts[hosts.size() - 1 - j];
    f.rate = new_bases[j];
    f.group = new_groups[j];
    flows.push_back(f);
  }
  cm.flows_appended(new_bases, new_groups);
  cm.refresh_scaled({1.0, 1.0});
  expect_matches_rebuild(apsp, flows, cm);

  // Size mismatch between the grown vector and the registration fails.
  flows.push_back(flows.back());
  EXPECT_THROW(cm.flows_appended({1.0, 1.0}, {0, 0}), PpdcError);
}

TEST(IncrementalRefresh, RebaseRejectsBadIdsByName) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  std::vector<VmFlow> flows{{h1, h1, 1.0, 0}};
  CostModel cm(apsp, flows);
  cm.enable_group_refresh({1.0}, {0});
  EXPECT_THROW(cm.rebase_flow(FlowId{7}, 1.0, 0), PpdcError);
  EXPECT_THROW(cm.rebase_flow(FlowId{0}, -1.0, 0), PpdcError);
  EXPECT_THROW(cm.rebase_flow(FlowId{0}, 1.0, -2), PpdcError);
}

TEST(IncrementalRefresh, RejectsBadInput) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  std::vector<VmFlow> flows{{h1, h1, 1.0, 0}};
  CostModel cm(apsp, flows);
  EXPECT_THROW(cm.refresh_scaled({1.0}), PpdcError);  // not enabled
  EXPECT_THROW(cm.enable_group_refresh({1.0, 2.0}, {0, 0}), PpdcError);
  EXPECT_THROW(cm.enable_group_refresh({1.0}, {-1}), PpdcError);
  EXPECT_THROW(cm.enable_group_refresh({-1.0}, {0}), PpdcError);
  cm.enable_group_refresh({1.0}, {0});
  EXPECT_THROW(cm.refresh_scaled({1.0, 2.0}), PpdcError);  // wrong arity
  EXPECT_THROW(cm.refresh_scaled({-0.5}), PpdcError);
  cm.refresh_scaled({0.5});
  EXPECT_THROW(cm.endpoints_moved({FlowId{7}}), PpdcError);  // index out of range
}

}  // namespace
}  // namespace ppdc
