// Equivalence suite for the incremental group-scaled cost-model refresh:
// refresh_scaled()/endpoints_moved() must match a from-scratch rebuild to
// 1e-9 (relative) across diurnal schedules, grouped offsets, degenerate
// Λ = 0 rates, and after PLAN/MCF endpoint moves — plus a property test
// over random topologies and seeds, and an engine-level check that the
// grouped fast path reproduces the full-rescan trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "baselines/vm_migration.hpp"
#include "core/placement_dp.hpp"
#include "core/sharded_cost_model.hpp"
#include "sim/engine.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"
#include "topology/weights.hpp"
#include "util/checksum.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"
#include "workload/diurnal.hpp"
#include "workload/vm_placement.hpp"
#include "test_support.hpp"

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

/// One grouped model over `flows`, built by CostModel::build_grouped.
std::unique_ptr<CostModel> grouped_model(const AllPairs& apsp,
                                         const std::vector<VmFlow>& flows,
                                         const std::vector<double>& bases,
                                         const std::vector<int>& groups,
                                         int min_groups = 0) {
  const CostModel::GroupedFlows set{&flows, &bases, &groups};
  return std::move(
      CostModel::build_grouped(apsp, {&set, 1}, min_groups).front());
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

/// Fat-tree k=4 whose host links weigh 2 and fabric links 1: integer
/// weights, with the leaf weight of every endpoint visible in the sums.
Topology churn_fabric() {
  Topology topo = build_fat_tree(4);
  for (const NodeId h : topo.graph.hosts()) {
    topo.graph.set_edge_weight(h, topo.graph.neighbors(h)[0].to, 2.0);
  }
  return topo;
}

/// A pod-sharded model over 48 random flows and the ten-epoch churn
/// history it is driven through: arrivals (re-spawns into vacant slots of
/// any pod, two appended global slots per epoch), departures and
/// re-rates, then one PLAN-style endpoint move per shard. Base rates are
/// multiples of `rate_unit` (1 keeps every partial sum an exact integer).
/// Not movable: the models bind to the members.
struct ChurnHistory {
  static constexpr int kGroups = 4;
  static constexpr int kEpochs = 10;

  explicit ChurnHistory(double unit)
      : rate_unit(unit),
        topo(churn_fabric()),
        apsp(topo.graph),
        map(ShardMap::by_ingress_pod(topo)),
        rng(29),
        flows(initial_flows()),
        sharded(apsp, map, flows, kGroups) {}
  ChurnHistory(const ChurnHistory&) = delete;
  ChurnHistory& operator=(const ChurnHistory&) = delete;

  NodeId any_host() {
    const std::vector<NodeId>& hosts = topo.graph.hosts();
    return hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  }
  VmFlow fresh_flow() {
    VmFlow f;
    f.src_host = any_host();
    f.dst_host = any_host();
    f.rate = rate_unit * static_cast<double>(rng.uniform_int(1, 9));
    f.group = static_cast<int>(rng.uniform_int(0, kGroups - 1));
    return f;
  }
  std::vector<VmFlow> initial_flows() {
    std::vector<VmFlow> out;
    for (int i = 0; i < 48; ++i) out.push_back(fresh_flow());
    return out;
  }

  /// Draws one epoch of churn into `flows` (the global vector) and
  /// returns its lists; the caller mirrors them with apply_churn.
  FlowChurn draw_churn() {
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
        flows[g].rate = rate_unit * static_cast<double>(rng.uniform_int(1, 9));
        churn.rerated.push_back(id);
      }
    }
    for (int a = 0; a < 2; ++a) {  // appended global slots
      churn.arrived.push_back(FlowId{static_cast<std::int32_t>(flows.size())});
      flows.push_back(fresh_flow());
    }
    return churn;
  }

  /// PLAN-style VM moves: one live flow per shard changes endpoints (its
  /// source stays in the shard's pod), the model is told through
  /// endpoints_moved() under unit scales, and the move is mirrored into
  /// the global vector. Returns the moved local slot per shard (invalid
  /// for a shard with no live flow).
  std::vector<FlowId> move_endpoints() {
    std::vector<FlowId> moved(static_cast<std::size_t>(sharded.num_shards()),
                              FlowId::invalid());
    const std::vector<double> scales(kGroups, 1.0);
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
        const FlowId local{static_cast<std::int32_t>(l)};
        sh.model->endpoints_moved({local});
        moved[static_cast<std::size_t>(s)] = local;
        break;
      }
    }
    return moved;
  }

  /// The whole history with plain apply_churn calls.
  void run() {
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const FlowChurn churn = draw_churn();
      sharded.apply_churn(flows, churn);
      move_endpoints();
    }
  }

  double rate_unit;
  Topology topo;
  AllPairs apsp;
  ShardMap map;
  Rng rng;
  std::vector<VmFlow> flows;
  ShardedCostModel sharded;
};

/// Hash of every field of every shard's group snapshot, doubles by bit
/// pattern.
std::uint64_t shard_snapshot_hash(ShardedCostModel& sharded) {
  Hash64 h;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    const CostModel::GroupSnapshot snap =
        sharded.shard(s).model->group_snapshot();
    h.i64(snap.num_groups);
    for (const double v : snap.base_rates) h.f64(v);
    for (const int v : snap.groups) h.i64(v);
    for (const int v : snap.group_rows) h.i64(v);
    for (const int v : snap.row_groups) h.i64(v);
    for (const double v : snap.group_ingress) h.f64(v);
    for (const double v : snap.group_egress) h.f64(v);
    for (const double v : snap.last_scales) h.f64(v);
    for (const NodeId v : snap.snap_src) h.i64(v);
    for (const NodeId v : snap.snap_dst) h.i64(v);
  }
  return h.value();
}

TEST(IncrementalRefresh, ShardChurnSnapshotBitsArePinned) {
  // The bits every shard's base rows hold after the churn history, with
  // integer rates (exact sums) and with rates in tenths (inexact sums,
  // so the order in which patches land shows). Recorded from the
  // immediate-patch implementation that queued patches replaced; a
  // change here means churn patches no longer land as before.
  ChurnHistory exact(1.0);
  exact.run();
  EXPECT_EQ(shard_snapshot_hash(exact.sharded), 0xe3c3ccf6a5e293f4ULL);
  ChurnHistory tenths(0.1);
  tenths.run();
  EXPECT_EQ(shard_snapshot_hash(tenths.sharded), 0x17dd2e762cf20fe1ULL);
}

TEST(IncrementalRefresh, ShardChurnPatchesEqualRebuildBitForBit) {
  // Integer link weights and integer base rates keep every partial sum
  // an exact integer, so the order in which patches landed cannot
  // matter: the churn-patched base vectors of each shard must equal a
  // from-scratch rebuild exactly.
  ChurnHistory h(1.0);
  h.run();
  const Topology& topo = h.topo;
  const AllPairs& apsp = h.apsp;
  const ShardedCostModel& sharded = h.sharded;
  constexpr int kGroups = ChurnHistory::kGroups;

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
void expect_same_grouped_state(CostModel& got, CostModel& want) {
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
    const std::unique_ptr<CostModel> one_pass_model =
        grouped_model(apsp, one_flows, bases, groups, c.min_groups);
    CostModel& one_pass = *one_pass_model;
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

TEST(IncrementalRefresh, EndpointsMovedAfterNewGroupIdRefreshes) {
  // A rebase_flow() since the last refresh_scaled() that introduces a new
  // group id leaves the last scales shorter than the id domain. No scale
  // is known for the new id, so endpoints_moved() must fall back to the
  // full rescan instead of recombining (which read past the scales' end).
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  std::vector<VmFlow> flows = spatial_workload(topo, 12, 5);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].group = static_cast<int>(i % 2);
  }
  const std::unique_ptr<CostModel> model =
      grouped_model(apsp, flows, rates_of(flows), groups_of(flows));
  CostModel& cm = *model;
  cm.refresh_scaled({1.0, 1.0});
  flows[3].rate = 2.0;
  flows[3].group = 7;
  cm.rebase_flow(FlowId{3}, 2.0, 7);
  const std::vector<NodeId>& hosts = topo.graph.hosts();
  flows[4].src_host = hosts.front();
  flows[4].dst_host = hosts.back();
  cm.endpoints_moved({FlowId{4}});
  EXPECT_EQ(cm.num_groups(), 8);
  EXPECT_TRUE(cm.group_snapshot().last_scales.empty());
  // refresh() is the ungrouped constructor's rescan, bit for bit.
  const CostModel ref(apsp, flows);
  EXPECT_EQ(cm.total_rate(), ref.total_rate());
  for (const NodeId sw : topo.graph.switches()) {
    EXPECT_EQ(cm.ingress_attraction(sw), ref.ingress_attraction(sw))
        << "ingress at switch " << sw;
    EXPECT_EQ(cm.egress_attraction(sw), ref.egress_attraction(sw))
        << "egress at switch " << sw;
  }
  // The base rows followed the move and the new group.
  cm.refresh_scaled(std::vector<double>(8, 1.0));
  expect_matches_rebuild(apsp, flows, cm);
}

/// Asserts that two double vectors hold the same bits, element for
/// element (so -0.0 differs from 0.0 and a NaN equals itself).
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

/// Asserts that a model's base rows and their bookkeeping equal the
/// oracle's bit for bit.
void expect_rows_match(const CostModel::GroupSnapshot& got,
                       const CostModel::GroupSnapshot& want) {
  EXPECT_EQ(got.num_groups, want.num_groups);
  EXPECT_EQ(got.groups, want.groups);
  EXPECT_EQ(got.group_rows, want.group_rows);
  EXPECT_EQ(got.row_groups, want.row_groups);
  EXPECT_EQ(got.snap_src, want.snap_src);
  EXPECT_EQ(got.snap_dst, want.snap_dst);
  expect_same_bits(got.base_rates, want.base_rates, "base_rates");
  expect_same_bits(got.group_ingress, want.group_ingress, "group_ingress");
  expect_same_bits(got.group_egress, want.group_egress, "group_egress");
}

/// Where every global flow sat before an apply_churn call.
struct SlotMap {
  std::vector<int> shard;
  std::vector<FlowId> local;
};

SlotMap slot_map(const ShardedCostModel& sharded, std::size_t num_flows) {
  SlotMap m;
  for (std::size_t g = 0; g < num_flows; ++g) {
    const FlowId id{static_cast<std::int32_t>(g)};
    m.shard.push_back(sharded.flow_shard(id));
    m.local.push_back(m.shard.back() >= 0 ? sharded.flow_local(id)
                                          : FlowId::invalid());
  }
  return m;
}

/// Replays one apply_churn call on per-shard oracles, in the order
/// apply_churn issues its rebase/append calls. Slots are read off the
/// model: `before` for flows it held, `after` for the slots arrivals got.
void replay_churn(std::vector<testing::ImmediatePatchOracle>& oracles,
                  const ShardMap& map, const ShardedCostModel& after,
                  const SlotMap& before, const std::vector<VmFlow>& flows,
                  const FlowChurn& churn) {
  // Departures, re-rates and vacated slots keep their snapshot endpoints.
  auto rebase_in_place = [&](int s, FlowId l, double base) {
    testing::ImmediatePatchOracle& o = oracles[static_cast<std::size_t>(s)];
    const auto i = static_cast<std::size_t>(l.value());
    o.rebase(l, base, o.state().groups[i], o.state().snap_src[i],
             o.state().snap_dst[i]);
  };
  for (const FlowId g : churn.departed) {
    const auto gi = static_cast<std::size_t>(g.value());
    rebase_in_place(before.shard[gi], before.local[gi], 0.0);
  }
  for (const FlowId g : churn.rerated) {
    const auto gi = static_cast<std::size_t>(g.value());
    rebase_in_place(before.shard[gi], before.local[gi], flows[gi].rate);
  }
  for (const FlowId g : churn.arrived) {
    const auto gi = static_cast<std::size_t>(g.value());
    const VmFlow& f = flows[gi];
    const int s = map.shard_of(f.src_host);
    if (gi < before.shard.size() && before.shard[gi] >= 0) {
      const int old_s = before.shard[gi];
      const FlowId old_l = before.local[gi];
      testing::ImmediatePatchOracle& o =
          oracles[static_cast<std::size_t>(old_s)];
      if (old_s == s) {
        o.rebase(old_l, f.rate, f.group, f.src_host, f.dst_host);
        continue;
      }
      if (o.state().base_rates[static_cast<std::size_t>(old_l.value())] !=
          0.0) {
        rebase_in_place(old_s, old_l, 0.0);
      }
    }
    ASSERT_EQ(after.flow_shard(g), s) << "flow " << g.value();
    const FlowId l = after.flow_local(g);
    testing::ImmediatePatchOracle& o = oracles[static_cast<std::size_t>(s)];
    if (static_cast<std::size_t>(l.value()) < o.num_flows()) {
      o.rebase(l, f.rate, f.group, f.src_host, f.dst_host);
    } else {
      ASSERT_EQ(static_cast<std::size_t>(l.value()), o.num_flows());
      o.append(f.rate, f.group, f.src_host, f.dst_host);
    }
  }
}

TEST(ShardedChurn, QueuedDrainMatchesImmediatePatches) {
  // Rates in tenths make the sums inexact, so a cell that saw its
  // additions in another order, or a fused re-rate rounded differently
  // from the subtract and add passes it replaces, shows in the bits.
  ChurnHistory h(0.1);
  ShardedCostModel& sharded = h.sharded;
  const int shards = sharded.num_shards();
  std::vector<testing::ImmediatePatchOracle> oracles;
  for (int s = 0; s < shards; ++s) {
    oracles.emplace_back(h.apsp, sharded.shard(s).model->group_snapshot());
  }
  auto apply = [&](const FlowChurn& churn) {
    const SlotMap before = slot_map(sharded, h.flows.size());
    sharded.apply_churn(h.flows, churn);
    for (int s = 0; s < shards; ++s) {
      EXPECT_FALSE(sharded.shard(s).model->has_queued_patches())
          << "apply_churn left shard " << s << " undrained";
    }
    replay_churn(oracles, h.map, sharded, before, h.flows, churn);
  };
  auto expect_all_match = [&](const std::string& when) {
    for (int s = 0; s < shards; ++s) {
      SCOPED_TRACE(when + ", shard " + std::to_string(s));
      expect_rows_match(sharded.shard(s).model->group_snapshot(),
                        oracles[static_cast<std::size_t>(s)].state());
    }
  };

  // The random history: departures, re-rates, re-spawns into vacant
  // slots of the same or another pod (group changes with them), and
  // appended global slots, then one endpoint move per shard.
  for (int epoch = 0; epoch < ChurnHistory::kEpochs; ++epoch) {
    apply(h.draw_churn());
    expect_all_match("churn of epoch " + std::to_string(epoch));
    const std::vector<FlowId> moved = h.move_endpoints();
    for (int s = 0; s < shards; ++s) {
      const FlowId l = moved[static_cast<std::size_t>(s)];
      if (!l.valid()) continue;
      const ShardedCostModel::Shard& sh = sharded.shard(s);
      // One dirty flow in more than four takes the per-flow patch path
      // that move() replays, not the rebuild fallback.
      ASSERT_GT(sh.flows.size(), 4u);
      const VmFlow& f = sh.flows[static_cast<std::size_t>(l.value())];
      oracles[static_cast<std::size_t>(s)].move(l, f.src_host, f.dst_host);
    }
    expect_all_match("moves of epoch " + std::to_string(epoch));
  }

  // One hand-made epoch for what a random history may miss: live slots
  // that depart and arrive in one epoch (same pod with new endpoints and
  // group, same pod with only a new rate, and cross-pod), a local tail
  // append, and a shard with no churn at all.
  ASSERT_GE(shards, 4);
  constexpr int kQuiet = 0;
  std::vector<FlowId> taken;
  auto live_flow = [&](int s) {
    const ShardedCostModel::Shard& sh = sharded.shard(s);
    for (std::size_t l = 0; l < sh.flows.size(); ++l) {
      const FlowId g = sh.global_ids[l];
      if (sh.base_rates[l] == 0.0 || !g.valid() ||
          std::find(taken.begin(), taken.end(), g) != taken.end()) {
        continue;
      }
      taken.push_back(g);
      return g;
    }
    ADD_FAILURE() << "shard " << s << " has too few live flows";
    return FlowId::invalid();
  };
  auto host_in = [&](int s, std::size_t skip) {
    for (const NodeId host : h.topo.graph.hosts()) {
      if (h.map.shard_of(host) == s && skip-- == 0) return host;
    }
    return kInvalidNode;
  };
  auto& flows = h.flows;
  auto at = [&](FlowId g) -> VmFlow& {
    return flows[static_cast<std::size_t>(g.value())];
  };
  FlowChurn churn;
  const FlowId respawn = live_flow(1);  // same pod, new endpoints + group
  at(respawn).src_host = host_in(1, 1);
  at(respawn).dst_host = host_in(3, 2);
  at(respawn).group = (at(respawn).group + 1) % ChurnHistory::kGroups;
  at(respawn).rate = 0.7;
  churn.arrived.push_back(respawn);
  const FlowId same_slot = live_flow(1);  // same pod, only the rate
  at(same_slot).rate += 0.3;
  churn.arrived.push_back(same_slot);
  const FlowId cross = live_flow(2);  // live slot re-spawned in pod 3
  at(cross).src_host = host_in(3, 0);
  churn.arrived.push_back(cross);
  const FlowId rerate = live_flow(2);
  at(rerate).rate += 0.2;
  churn.rerated.push_back(rerate);
  const FlowId depart = live_flow(3);
  at(depart).rate = 0.0;
  churn.departed.push_back(depart);
  // Enough appended global slots into pod 2 to use up its free local
  // slots (plus the one `cross` vacates first), so the last one appends
  // a local tail slot.
  const std::size_t free_in_2 = sharded.shard(2).free_locals.size() + 1;
  for (std::size_t a = 0; a <= free_in_2; ++a) {
    churn.arrived.push_back(FlowId{static_cast<std::int32_t>(flows.size())});
    flows.push_back({host_in(2, a % 2), host_in(1, 0), 0.4, 1});
  }
  std::sort(churn.arrived.begin(), churn.arrived.end());
  const std::size_t quiet_before = sharded.shard(kQuiet).flows.size();
  const std::size_t tail_before = sharded.shard(2).flows.size();
  apply(churn);
  EXPECT_EQ(sharded.shard(kQuiet).flows.size(), quiet_before);
  EXPECT_GT(sharded.shard(2).flows.size(), tail_before)
      << "no local tail slot was appended";
  expect_all_match("hand-made epoch");
}

TEST(ShardedChurn, ApplyChurnIsWidthInvariant) {
  // The same history, once at full width and once with apply_churn (so
  // its shard-parallel apply and drain) inside serially(): every shard's
  // snapshot must hold the same bits after every epoch.
  ChurnHistory wide(0.1);
  ChurnHistory narrow(0.1);
  for (int epoch = 0; epoch < ChurnHistory::kEpochs; ++epoch) {
    wide.sharded.apply_churn(wide.flows, wide.draw_churn());
    const FlowChurn churn = narrow.draw_churn();
    bool threw = false;
    serially([&]() noexcept {
      try {
        narrow.sharded.apply_churn(narrow.flows, churn);
      } catch (...) {
        threw = true;
      }
    });
    ASSERT_FALSE(threw);
    for (int s = 0; s < wide.sharded.num_shards(); ++s) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + ", shard " +
                   std::to_string(s));
      const CostModel::GroupSnapshot a =
          wide.sharded.shard(s).model->group_snapshot();
      const CostModel::GroupSnapshot b =
          narrow.sharded.shard(s).model->group_snapshot();
      expect_rows_match(a, b);
      expect_same_bits(a.last_scales, b.last_scales, "last_scales");
    }
    wide.move_endpoints();
    narrow.move_endpoints();
  }
}

/// Asserts that two sharded models hold the same shards, bit for bit,
/// and map the first `num_flows` global ids the same way.
void expect_same_shards(ShardedCostModel& a, ShardedCostModel& b,
                        std::size_t num_flows) {
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (int s = 0; s < a.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ShardedCostModel::Shard& x = a.shard(s);
    ShardedCostModel::Shard& y = b.shard(s);
    ASSERT_EQ(x.flows.size(), y.flows.size());
    for (std::size_t l = 0; l < x.flows.size(); ++l) {
      EXPECT_EQ(x.flows[l].src_host, y.flows[l].src_host) << "slot " << l;
      EXPECT_EQ(x.flows[l].dst_host, y.flows[l].dst_host) << "slot " << l;
      EXPECT_EQ(x.flows[l].group, y.flows[l].group) << "slot " << l;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.flows[l].rate),
                std::bit_cast<std::uint64_t>(y.flows[l].rate))
          << "slot " << l;
    }
    expect_same_bits(x.base_rates, y.base_rates, "base_rates");
    EXPECT_EQ(x.groups, y.groups);
    EXPECT_EQ(x.global_ids, y.global_ids);
    EXPECT_EQ(x.free_locals, y.free_locals);
    EXPECT_EQ(x.live, y.live);
    const CostModel::GroupSnapshot gx = x.model->group_snapshot();
    const CostModel::GroupSnapshot gy = y.model->group_snapshot();
    expect_rows_match(gx, gy);
    expect_same_bits(gx.last_scales, gy.last_scales, "last_scales");
  }
  for (std::size_t g = 0; g < num_flows; ++g) {
    const FlowId id{static_cast<std::int32_t>(g)};
    ASSERT_EQ(a.flow_shard(id), b.flow_shard(id)) << "flow " << g;
    if (a.flow_shard(id) >= 0) {
      EXPECT_EQ(a.flow_local(id), b.flow_local(id)) << "flow " << g;
    }
  }
}

TEST(ShardedCostModel, PerShardApplyMatchesApplyChurn) {
  // The sharded engine routes each epoch's churn on one thread and lets
  // every shard task apply its own bucket, in whatever order the tasks
  // run. Applying the buckets in reverse shard order must leave every
  // shard and both global maps the same bits as apply_churn.
  ChurnHistory whole(0.1);
  ChurnHistory split(0.1);
  const int shards = whole.sharded.num_shards();
  ASSERT_GE(shards, 4);
  auto apply = [&](const FlowChurn& churn) {
    ASSERT_EQ(whole.flows.size(), split.flows.size());
    const std::vector<int> want = whole.sharded.apply_churn(whole.flows,
                                                            churn);
    const std::vector<int> got = split.sharded.route_churn(split.flows,
                                                           churn);
    EXPECT_EQ(got, want);
    for (int s = shards - 1; s >= 0; --s) {
      split.sharded.apply_shard_churn(s, split.flows);
    }
    expect_same_shards(whole.sharded, split.sharded, whole.flows.size());
  };
  for (int epoch = 0; epoch < ChurnHistory::kEpochs; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const FlowChurn churn = whole.draw_churn();
    EXPECT_EQ(split.draw_churn().total(), churn.total());
    apply(churn);
    whole.move_endpoints();
    split.move_endpoints();
  }

  // Hand-made epochs, the same edits on both histories.
  auto host_in = [&](int s, std::size_t skip) {
    for (const NodeId host : whole.topo.graph.hosts()) {
      if (whole.map.shard_of(host) == s && skip-- == 0) return host;
    }
    return kInvalidNode;
  };
  std::vector<FlowId> taken;
  auto live_flow = [&](int s) {
    const ShardedCostModel::Shard& sh = whole.sharded.shard(s);
    for (std::size_t l = 0; l < sh.flows.size(); ++l) {
      const FlowId g = sh.global_ids[l];
      if (sh.base_rates[l] == 0.0 || !g.valid() ||
          std::find(taken.begin(), taken.end(), g) != taken.end()) {
        continue;
      }
      taken.push_back(g);
      return g;
    }
    ADD_FAILURE() << "shard " << s << " has too few live flows";
    return FlowId::invalid();
  };
  auto edit = [&](FlowId g, auto&& fn) {
    fn(whole.flows[static_cast<std::size_t>(g.value())]);
    fn(split.flows[static_cast<std::size_t>(g.value())]);
  };
  auto append = [&](const VmFlow& f, FlowChurn& churn) {
    churn.arrived.push_back(
        FlowId{static_cast<std::int32_t>(whole.flows.size())});
    whole.flows.push_back(f);
    split.flows.push_back(f);
  };

  // A PLAN-style move takes a flow's source to another pod without
  // moving it to that pod's shard.
  const FlowId relocated = live_flow(1);
  for (ChurnHistory* h : {&whole, &split}) {
    const int s = h->sharded.flow_shard(relocated);
    const FlowId l = h->sharded.flow_local(relocated);
    ShardedCostModel::Shard& sh = h->sharded.shard(s);
    sh.flows[static_cast<std::size_t>(l.value())].src_host = host_in(2, 1);
    h->flows[static_cast<std::size_t>(relocated.value())].src_host =
        host_in(2, 1);
    sh.model->endpoints_moved({l});
  }
  ASSERT_EQ(split.sharded.flow_shard(relocated), 1);

  FlowChurn churn;
  // The relocated flow departs from the shard that still holds it.
  edit(relocated, [](VmFlow& f) { f.rate = 0.0; });
  churn.departed.push_back(relocated);
  // One live flow departs and arrives in the same epoch, in another pod.
  const FlowId bounced = live_flow(3);
  churn.departed.push_back(bounced);
  edit(bounced, [&](VmFlow& f) {
    f.src_host = host_in(0, 1);
    f.rate = 0.6;
  });
  churn.arrived.push_back(bounced);
  // A cross-pod re-spawn out of pod 2, then enough appends into pod 2 to
  // use up its free slots, so the last of them re-uses the slot the
  // re-spawn vacated in this epoch.
  const FlowId cross = live_flow(2);
  edit(cross, [&](VmFlow& f) { f.src_host = host_in(1, 0); });
  churn.arrived.push_back(cross);
  std::sort(churn.departed.begin(), churn.departed.end());
  std::sort(churn.arrived.begin(), churn.arrived.end());
  const std::size_t free_in_2 = whole.sharded.shard(2).free_locals.size();
  for (std::size_t a = 0; a <= free_in_2; ++a) {
    append({host_in(2, a % 2), host_in(3, 0), 0.4, 1}, churn);
  }
  // Appends into every other pod too.
  for (int s : {0, 1, 3}) append({host_in(s, 0), host_in(2, 0), 0.3, 2}, churn);
  const FlowId cross_slot = whole.sharded.flow_local(cross);
  apply(churn);
  const ShardedCostModel::Shard& pod2 = split.sharded.shard(2);
  EXPECT_TRUE(pod2.global_ids[static_cast<std::size_t>(cross_slot.value())]
                  .valid())
      << "no append re-used the slot the re-spawn vacated";
  EXPECT_EQ(split.sharded.flow_shard(cross), 1);
  EXPECT_EQ(split.sharded.flow_shard(bounced), 0);

  // A route that throws changes nothing: the next epoch applies as if it
  // had never been called.
  FlowChurn bad;
  bad.departed.push_back(FlowId{0});
  const auto end = static_cast<std::int32_t>(split.flows.size());
  bad.arrived = {FlowId{end}, FlowId{end + 2}};  // skips an unmapped id
  std::vector<VmFlow> grown = split.flows;
  grown.resize(grown.size() + 3, {host_in(0, 0), host_in(1, 0), 0.5, 0});
  EXPECT_THROW((void)split.sharded.route_churn(grown, bad), PpdcError);
  EXPECT_EQ(split.sharded.flow_shard(FlowId{end}), -1);
  FlowChurn next;
  append({host_in(1, 1), host_in(0, 0), 0.5, 0}, next);
  apply(next);
}

TEST(ShardedChurn, LoneModelReadersDrainFirst) {
  // A lone model read right after churn, with its patches still queued,
  // by each reader of the base rows. The reader must drain before it
  // reads, so what it derives equals the oracle's immediate patches.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const std::vector<NodeId>& hosts = topo.graph.hosts();
  const std::size_t ns = topo.graph.switches().size();
  enum class Reader { kRefreshScaled, kEndpointsMoved, kRefresh, kSnapshot };
  for (const Reader reader : {Reader::kRefreshScaled, Reader::kEndpointsMoved,
                              Reader::kRefresh, Reader::kSnapshot}) {
    SCOPED_TRACE(static_cast<int>(reader));
    std::vector<VmFlow> flows = spatial_workload(topo, 40, 23);
    std::vector<double> bases(flows.size());
    std::vector<int> groups(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      bases[i] = flows[i].rate;
      groups[i] = flows[i].group;
    }
    const std::unique_ptr<CostModel> model =
        grouped_model(apsp, flows, bases, groups);
    CostModel& cm = *model;
    const std::vector<double> scales{0.75, 1.25};
    ASSERT_EQ(cm.num_groups(), 2);
    cm.refresh_scaled(scales);
    testing::ImmediatePatchOracle oracle(apsp, cm.group_snapshot());

    // A departure, a re-rate in place (a fused patch), a re-spawn with
    // new endpoints and group, and an appended flow.
    flows[3].rate = 0.0;
    cm.rebase_flow(FlowId{3}, 0.0, groups[3]);
    oracle.rebase(FlowId{3}, 0.0, groups[3], flows[3].src_host,
                  flows[3].dst_host);
    flows[5].rate = 2.5;
    cm.rebase_flow(FlowId{5}, 2.5, groups[5]);
    oracle.rebase(FlowId{5}, 2.5, groups[5], flows[5].src_host,
                  flows[5].dst_host);
    flows[3] = {hosts.front(), hosts.back(), 1.7, 1 - groups[3]};
    cm.rebase_flow(FlowId{3}, 1.7, flows[3].group);
    oracle.rebase(FlowId{3}, 1.7, flows[3].group, flows[3].src_host,
                  flows[3].dst_host);
    flows.push_back({hosts[1], hosts[hosts.size() - 2], 0.6, 0});
    cm.flows_appended({0.6}, {0});
    oracle.append(0.6, 0, hosts[1], hosts[hosts.size() - 2]);
    ASSERT_TRUE(cm.has_queued_patches());

    // Moves flow 9 to fresh endpoints in the bound vector and the oracle.
    auto move_flow_9 = [&] {
      flows[9].src_host = hosts[2];
      flows[9].dst_host = hosts[3];
      oracle.move(FlowId{9}, hosts[2], hosts[3]);
    };
    bool recombined = true;
    switch (reader) {
      case Reader::kRefreshScaled:
        cm.refresh_scaled(scales);
        break;
      case Reader::kEndpointsMoved:
        move_flow_9();
        cm.endpoints_moved({FlowId{9}});
        break;
      case Reader::kRefresh:
        // refresh() re-derives A and B from the rates, and resyncs the
        // base rows to endpoints moved behind its back.
        move_flow_9();
        cm.refresh();
        recombined = false;
        break;
      case Reader::kSnapshot:
        recombined = false;
        break;
    }
    if (reader != Reader::kSnapshot) {
      EXPECT_FALSE(cm.has_queued_patches());
    }
    if (recombined) {
      const auto [in, eg] = oracle.recombine(scales);
      for (std::size_t j = 0; j < ns; ++j) {
        const NodeId sw = topo.graph.switches()[j];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(cm.ingress_attraction(sw)),
                  std::bit_cast<std::uint64_t>(in[j]))
            << "ingress at switch slot " << j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(cm.egress_attraction(sw)),
                  std::bit_cast<std::uint64_t>(eg[j]))
            << "egress at switch slot " << j;
      }
    }
    expect_rows_match(cm.group_snapshot(), oracle.state());
  }
}

TEST(ShardedChurn, RebuildFallbackDropsQueuedPatches) {
  // endpoints_moved() over a large dirty set rebuilds every base row from
  // the bookkeeping, which the queued patches have already reached; a
  // queue it kept would land those patches a second time.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const std::vector<NodeId>& hosts = topo.graph.hosts();
  std::vector<VmFlow> flows = spatial_workload(topo, 40, 23);
  const std::unique_ptr<CostModel> model =
      grouped_model(apsp, flows, rates_of(flows), groups_of(flows));
  CostModel& cm = *model;
  const std::vector<double> scales{0.75, 1.25};
  cm.refresh_scaled(scales);
  flows[5].rate = 2.5;
  cm.rebase_flow(FlowId{5}, 2.5, flows[5].group);
  flows.push_back({hosts[1], hosts[hosts.size() - 2], 0.6, 0});
  cm.flows_appended({0.6}, {0});
  ASSERT_TRUE(cm.has_queued_patches());
  std::vector<FlowId> dirty;
  for (std::int32_t i = 10; i < 30; ++i) {
    flows[static_cast<std::size_t>(i)].src_host = hosts[2];
    dirty.push_back(FlowId{i});
  }
  cm.endpoints_moved(dirty);
  EXPECT_FALSE(cm.has_queued_patches());
  const std::unique_ptr<CostModel> fresh =
      grouped_model(apsp, flows, rates_of(flows), groups_of(flows));
  expect_rows_match(cm.group_snapshot(), fresh->group_snapshot());
}

/// Asserts that `model`'s base rows hold the plain flow-order sums
/// base · (weight + row[j]) of every flow with a nonzero base, per group
/// row, starting from 0.0: what the block kernel computes, bit for bit.
void expect_base_rows_are_flow_order_sums(CostModel& model,
                                          const std::vector<VmFlow>& flows,
                                          const std::vector<double>& bases) {
  const AllPairs& apsp = model.apsp();
  const CostModel::GroupSnapshot snap = model.group_snapshot();
  const std::size_t ns = apsp.graph().switches().size();
  std::vector<double> in(snap.row_groups.size() * ns, 0.0);
  std::vector<double> eg(in.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (bases[i] == 0.0) continue;
    const std::size_t row = static_cast<std::size_t>(
        snap.group_rows[static_cast<std::size_t>(snap.groups[i])]);
    const AllPairs::CoreRow src = apsp.cost_row(flows[i].src_host);
    const AllPairs::CoreRow dst = apsp.cost_col(flows[i].dst_host);
    for (std::size_t j = 0; j < ns; ++j) {
      in[row * ns + j] += bases[i] * (src.weight + src.cost[j]);
      eg[row * ns + j] += bases[i] * (dst.weight + dst.cost[j]);
    }
  }
  EXPECT_EQ(snap.group_ingress, in);
  EXPECT_EQ(snap.group_egress, eg);
}

/// `l` flows whose ingress hosts sit in shard 0 for 45% of them, in shard
/// 1 for another 45%, and in the other shards for the rest: the shape of
/// a rack-skewed tenant mix, where two pods carry most of the build.
std::vector<VmFlow> two_pod_workload(const Topology& topo,
                                     const ShardMap& map, int l) {
  std::vector<std::vector<NodeId>> hosts(
      static_cast<std::size_t>(map.num_shards()));
  for (const NodeId h : topo.graph.hosts()) {
    hosts[static_cast<std::size_t>(map.shard_of(h))].push_back(h);
  }
  const std::vector<NodeId>& all = topo.graph.hosts();
  const auto pick = [](Rng& rng, const std::vector<NodeId>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  std::vector<VmFlow> flows;
  Rng rng(29);
  for (int i = 0; i < l; ++i) {
    const int slot = i % 20;
    const std::size_t shard =
        slot < 9    ? 0
        : slot < 18 ? 1
                    : 2 + static_cast<std::size_t>(i) % (hosts.size() - 2);
    const NodeId src = pick(rng, hosts[shard]);
    NodeId dst = pick(rng, all);
    while (dst == src) dst = pick(rng, all);
    flows.push_back({src, dst, rng.uniform_real(0.25, 1.25), 0});
  }
  return flows;
}

TEST(ShardedBuild, BatchedShardModelsEqualLoneModelsBitForBit) {
  // ShardedCostModel accumulates every shard's base rows in one parallel
  // pass over (shard, switch block) pairs. Built at full width and inside
  // serially(), each shard must hold the bits of a lone grouped model over
  // its vectors, and those are the plain flow-order sums. k=24 has 720
  // switches, so every shard spans two blocks; k=4 has one. The weighted
  // k=24 fabric reads its egress rows from the transposed core, and the
  // two-pod workload puts at least 45% of the flows in each of two shards.
  struct Case {
    const char* name;
    int k;
    int flows;
    bool weighted;
    bool two_pods;
  };
  constexpr int kGroups = 6;
  for (const Case c : {Case{"k=24", 24, 3000, false, false},
                       Case{"k=4", 4, 60, false, false},
                       Case{"weighted k=24", 24, 3000, true, false},
                       Case{"two-pod k=24", 24, 4000, false, true}}) {
    SCOPED_TRACE(c.name);
    Topology topo = build_fat_tree(c.k);
    if (c.weighted) apply_uniform_delay_weights(topo.graph, 7);
    const AllPairs apsp(topo.graph);
    const ShardMap map = ShardMap::by_ingress_pod(topo);
    std::vector<VmFlow> flows = c.two_pods
                                    ? two_pod_workload(topo, map, c.flows)
                                    : spatial_workload(topo, c.flows, 17, 0.5);
    // Sparse group ids (rows compact to 0, 2, 5) and some vacant slots.
    for (std::size_t i = 0; i < flows.size(); ++i) {
      flows[i].group = std::array{0, 2, 5}[i % 3];
      if (i % 11 == 0) flows[i].rate = 0.0;
    }
    const ShardedCostModel wide(apsp, map, flows, kGroups);
    std::unique_ptr<ShardedCostModel> narrow;
    bool threw = false;
    serially([&]() noexcept {
      try {
        narrow = std::make_unique<ShardedCostModel>(apsp, map, flows, kGroups);
      } catch (...) {
        threw = true;
      }
    });
    ASSERT_FALSE(threw);
    ASSERT_EQ(wide.num_shards(), narrow->num_shards());
    if (c.two_pods) {
      for (const int s : {0, 1}) {
        EXPECT_GE(wide.shard(s).flows.size() * 100, flows.size() * 45);
      }
    }
    for (int s = 0; s < wide.num_shards(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const ShardedCostModel::Shard& sh = wide.shard(s);
      const std::unique_ptr<CostModel> lone =
          grouped_model(apsp, sh.flows, sh.base_rates, sh.groups, kGroups);
      expect_same_grouped_state(*sh.model, *lone);
      expect_same_grouped_state(*narrow->shard(s).model, *lone);
      expect_base_rows_are_flow_order_sums(*lone, sh.flows, sh.base_rates);
    }
  }
}

}  // namespace
}  // namespace ppdc
