// google-benchmark microbenchmarks of the library's computational kernels:
// APSP construction, the DP-Stroll table, the Algorithm 3 placement sweep,
// the mPareto frontier scan, and the MCF baseline's assignment solver.
// These guard the asymptotic behaviour the figure harnesses depend on.
//
// Two entry modes (own main below):
//   * default: the usual google-benchmark CLI over the BM_* kernels;
//   * --bench_json DIR [--smoke]: runs the *pinned* scenarios and emits
//     one BENCH_<kernel>.json perf artifact per kernel (see bench_common
//     and EXPERIMENTS.md). tools/bench_compare gates these against the
//     committed baselines in bench/baselines/.
#include <benchmark/benchmark.h>

#include "baselines/vm_migration.hpp"
#include "bench_common.hpp"
#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "core/stroll_dp.hpp"
#include "net/link_load.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "util/executor.hpp"
#include "workload/vm_placement.hpp"

namespace {

using namespace ppdc;

/// Smoke mode of the pinned scenarios (--smoke): fewer, shorter
/// repetitions, recorded in the artifact so bench_compare can widen its
/// tolerance accordingly.
bool g_smoke = false;

std::vector<VmFlow> workload(const Topology& topo, int l, std::uint64_t seed) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  Rng rng(seed);
  return generate_vm_flows(topo, cfg, rng);
}

void BM_AllPairs(benchmark::State& state) {
  const Topology topo = build_fat_tree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    AllPairs apsp(topo.graph);
    benchmark::DoNotOptimize(apsp.diameter());
  }
  state.SetComplexityN(topo.graph.num_nodes());
}
BENCHMARK(BM_AllPairs)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_StrollDp(benchmark::State& state) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 1, 7);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const StrollResult r =
        solve_top1_dp(apsp, flows[0].src_host, flows[0].dst_host, n);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_StrollDp)->Arg(3)->Arg(7)->Arg(13)->Unit(benchmark::kMillisecond);

void BM_PlacementDp(benchmark::State& state) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 200, 11);
  CostModel cm(apsp, flows);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const PlacementResult r = solve_top_dp(cm, n);
    benchmark::DoNotOptimize(r.comm_cost);
  }
}
BENCHMARK(BM_PlacementDp)->Arg(3)->Arg(7)->Arg(13)
    ->Unit(benchmark::kMillisecond);

void BM_ParetoMigration(benchmark::State& state) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  auto flows = workload(topo, 200, 13);
  CostModel cm(apsp, flows);
  const Placement from = solve_top_dp(cm, 7).placement;
  std::vector<double> rates = rates_of(flows);
  std::reverse(rates.begin(), rates.end());
  set_rates(flows, rates);
  cm.refresh();
  for (auto _ : state) {
    const MigrationResult r = solve_tom_pareto(cm, from, 1e4);
    benchmark::DoNotOptimize(r.total_cost);
  }
}
BENCHMARK(BM_ParetoMigration)->Unit(benchmark::kMillisecond);

void BM_VmMigrationMcf(benchmark::State& state) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, static_cast<int>(state.range(0)), 17);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 7).placement;
  VmMigrationConfig cfg;
  cfg.mu = 1e4;
  cfg.host_capacity = 4;  // binds, so the assignment augments
  cfg.candidate_hosts = 16;
  for (auto _ : state) {
    const VmMigrationResult r = solve_vm_migration_mcf(apsp, flows, p, cfg);
    benchmark::DoNotOptimize(r.total_cost);
  }
}
BENCHMARK(BM_VmMigrationMcf)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_LinkLoadPolicyRouting(benchmark::State& state) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, static_cast<int>(state.range(0)), 23);
  CostModel cm(apsp, flows);
  const Placement p = solve_top_dp(cm, 5).placement;
  for (auto _ : state) {
    const LinkLoadMap m = policy_link_load(apsp, flows, p);
    benchmark::DoNotOptimize(m.max_load());
  }
}
BENCHMARK(BM_LinkLoadPolicyRouting)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Pinned BENCH_*.json scenarios. Every parameter below (arity, workload
// size, seed, n, mu) is part of the artifact's scenario fingerprint:
// editing one without refreshing bench/baselines/ makes bench_compare
// reject the comparison instead of reporting a bogus delta. The checksums
// hash kernel *outputs* bit-exactly, so the artifacts also pin the
// numeric behaviour of the flattened kernels across PRs.
// ---------------------------------------------------------------------------

using bench::BenchRecord;

std::uint64_t hash_placement(ppdc::Hash64& h, const Placement& p) {
  h.u64(p.size());
  for (const NodeId w : p) h.i64(w);
  return h.value();
}

BenchRecord pin_all_pairs() {
  BenchRecord rec;
  rec.kernel = "AllPairs";
  rec.scenario = "fat-tree k=8, full APSP build";
  rec.fingerprint = Hash64{}.str(rec.kernel).i64(8).value();
  const Topology topo = build_fat_tree(8);
  {
    const AllPairs apsp(topo.graph);
    rec.checksum = Hash64{}
                       .f64(apsp.diameter())
                       .f64(apsp.min_switch_distance())
                       .i64(apsp.num_nodes())
                       .value();
  }
  rec.timing = bench::time_kernel(
      [&] {
        AllPairs apsp(topo.graph);
        benchmark::DoNotOptimize(apsp.diameter());
      },
      g_smoke);
  return rec;
}

BenchRecord pin_stroll_dp() {
  BenchRecord rec;
  rec.kernel = "StrollDp";
  rec.scenario = "fat-tree k=8, l=1 seed 7, n=13";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(8).i64(1).u64(7).i64(13).value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 1, 7);
  const StrollResult ref =
      solve_top1_dp(apsp, flows[0].src_host, flows[0].dst_host, 13);
  Hash64 h;
  h.f64(ref.cost).i64(ref.edges_used).b(ref.used_fallback);
  hash_placement(h, ref.walk);
  rec.checksum = hash_placement(h, ref.placement);
  rec.timing = bench::time_kernel(
      [&] {
        const StrollResult r =
            solve_top1_dp(apsp, flows[0].src_host, flows[0].dst_host, 13);
        benchmark::DoNotOptimize(r.cost);
      },
      g_smoke);
  return rec;
}

/// One cold level build of the stroll DP over a fabric's full switch set:
/// the hour-0 hot path, which StrollDp (k=8, one query) barely reaches.
/// The metric (a view of the transposed APSP core) is built once; every
/// repetition grows fresh level tables toward the same destination.
BenchRecord pin_stroll_levels() {
  constexpr int kArity = 16;
  constexpr int kLevels = 8;
  BenchRecord rec;
  rec.kernel = "StrollLevels";
  rec.scenario = "fat-tree k=16, full switch universe, t = last switch, "
                 "levels 1..8";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(kArity).i64(kLevels).value();
  const Topology topo = build_fat_tree(kArity);
  const AllPairs apsp(topo.graph);
  const auto metric = std::make_shared<const StrollMetric>(apsp);
  const NodeId t = topo.graph.switches().back();
  std::vector<StrollLevels::Level> levels;
  {
    const StrollLevels ref(metric, t);
    ref.at_least(kLevels, levels);
    Hash64 h;
    for (const StrollLevels::Level& level : levels) {
      for (std::size_t i = 0; i < metric->rows(); ++i) {
        h.f64(level.cost[i]).i64(level.succ[i]);
      }
    }
    rec.checksum = h.value();
  }
  rec.timing = bench::time_kernel(
      [&] {
        const StrollLevels cold(metric, t);
        cold.at_least(kLevels, levels);
        benchmark::DoNotOptimize(levels.back().cost);
        benchmark::ClobberMemory();
      },
      g_smoke);
  return rec;
}

BenchRecord pin_placement_dp() {
  BenchRecord rec;
  rec.kernel = "PlacementDp";
  rec.scenario = "fat-tree k=8, l=200 seed 11, n=7";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(8).i64(200).u64(11).i64(7).value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 200, 11);
  CostModel cm(apsp, flows);
  const PlacementResult ref = solve_top_dp(cm, 7);
  Hash64 h;
  h.f64(ref.comm_cost).b(ref.used_fallback);
  rec.checksum = hash_placement(h, ref.placement);
  rec.timing = bench::time_kernel(
      [&] {
        const PlacementResult r = solve_top_dp(cm, 7);
        benchmark::DoNotOptimize(r.comm_cost);
      },
      g_smoke);
  return rec;
}

BenchRecord pin_pareto_migration() {
  BenchRecord rec;
  rec.kernel = "ParetoMigration";
  rec.scenario =
      "fat-tree k=8, l=200 seed 13, n=7, reversed rates, mu=1e4";
  rec.fingerprint = Hash64{}
                        .str(rec.kernel)
                        .i64(8)
                        .i64(200)
                        .u64(13)
                        .i64(7)
                        .f64(1e4)
                        .value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  auto flows = workload(topo, 200, 13);
  CostModel cm(apsp, flows);
  const Placement from = solve_top_dp(cm, 7).placement;
  std::vector<double> rates = rates_of(flows);
  std::reverse(rates.begin(), rates.end());
  set_rates(flows, rates);
  cm.refresh();
  const MigrationResult ref = solve_tom_pareto(cm, from, 1e4);
  Hash64 h;
  h.f64(ref.total_cost)
      .f64(ref.migration_cost)
      .f64(ref.comm_cost)
      .i64(ref.vnfs_moved);
  rec.checksum = hash_placement(h, ref.migration);
  rec.timing = bench::time_kernel(
      [&] {
        const MigrationResult r = solve_tom_pareto(cm, from, 1e4);
        benchmark::DoNotOptimize(r.total_cost);
      },
      g_smoke);
  return rec;
}

BenchRecord pin_cost_refresh() {
  BenchRecord rec;
  rec.kernel = "CostRefresh";
  rec.scenario = "fat-tree k=8, l=5000 seed 19, full attraction rescan";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(8).i64(5000).u64(19).value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 5000, 19);
  CostModel cm(apsp, flows);
  cm.refresh();
  Hash64 h;
  h.f64(cm.total_rate())
      .f64(cm.min_ingress_attraction())
      .f64(cm.min_egress_attraction());
  for (const NodeId sw : cm.placement_candidates()) {
    h.f64(cm.ingress_attraction(sw)).f64(cm.egress_attraction(sw));
  }
  rec.checksum = h.value();
  rec.timing = bench::time_kernel(
      [&] {
        cm.refresh();
        benchmark::DoNotOptimize(cm.min_ingress_attraction());
      },
      g_smoke);
  return rec;
}

/// One MCF VM re-assignment in the Fig. 11 shape: k=16, l=400 skewed
/// pairs (80% intra-rack, rack Zipf 2.2), n=7, mu=1e4, the 16 hosts
/// nearest each chain end as targets, 4 VMs per host, a 4-hour horizon.
/// The chain ends sit on racks 3 and 100 (different pods), so VMs move
/// and the host capacity binds. The checksum covers the objective and
/// every moved endpoint; the assignment solver may choose another of two
/// exactly equal-cost hosts, so it pins this implementation's choice.
BenchRecord pin_vm_migration_mcf() {
  constexpr int kArity = 16;
  constexpr int kPairs = 400;
  constexpr std::uint64_t kSeed = 41;
  constexpr int kChain = 7;
  BenchRecord rec;
  rec.kernel = "VmMigrationMcf";
  rec.scenario = "fat-tree k=16, l=400 seed 41 skewed, n=7, chain ends on "
                 "racks 3 and 100, mu=1e4, limit 16, capacity 4, horizon 4";
  rec.fingerprint = Hash64{}
                        .str(rec.kernel)
                        .i64(kArity)
                        .i64(kPairs)
                        .u64(kSeed)
                        .i64(kChain)
                        .f64(1e4)
                        .i64(16)
                        .i64(4)
                        .f64(4.0)
                        .value();
  const Topology topo = build_fat_tree(kArity);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig wl;
  wl.num_pairs = kPairs;
  wl.intra_rack_fraction = 0.8;
  wl.rack_zipf_s = 2.2;
  Rng rng(kSeed);
  const auto flows = generate_vm_flows(topo, wl, rng);
  CostModel cm(apsp, flows);
  Placement p = solve_top_dp(cm, kChain).placement;
  p.front() = topo.rack_switches[RackIdx{3}];
  p.back() = topo.rack_switches[RackIdx{100}];
  VmMigrationConfig cfg;
  cfg.mu = 1e4;
  cfg.candidate_hosts = 16;
  cfg.host_capacity = 4;
  cfg.horizon_hours = 4.0;
  const VmMigrationResult ref = solve_vm_migration_mcf(apsp, flows, p, cfg);
  Hash64 h;
  h.f64(ref.total_cost).f64(ref.migration_cost).i64(ref.vms_moved);
  for (const FlowId i : ref.moved_flow_indices) {
    const VmFlow& f = ref.flows[static_cast<std::size_t>(i.value())];
    h.i64(i.value()).i64(f.src_host).i64(f.dst_host);
  }
  rec.checksum = h.value();
  rec.timing = bench::time_kernel(
      [&] {
        const VmMigrationResult r = solve_vm_migration_mcf(apsp, flows, p, cfg);
        benchmark::DoNotOptimize(r.total_cost);
      },
      g_smoke);
  return rec;
}

/// Emits the pinned artifacts. The committed baselines are
/// single-threaded, so every kernel is timed (and the provenance taken)
/// inside serially(), where the parallel APSP and refresh run on this
/// thread alone.
int run_pinned(const std::string& dir) {
  int rc = 0;
  serially([&]() noexcept {
    const bench::BenchBuildInfo build = bench::bench_build_info();
    const BenchRecord records[] = {
        pin_all_pairs(), pin_stroll_dp(), pin_stroll_levels(),
        pin_placement_dp(), pin_pareto_migration(), pin_cost_refresh(),
        pin_vm_migration_mcf()};
    for (const BenchRecord& rec : records) {
      if (!bench::write_bench_json(dir, rec, build, g_smoke)) {
        rc = 1;
        return;
      }
      std::cout << "BENCH_" << rec.kernel << ".json  best "
                << rec.timing.best_ns / 1e6 << " ms  checksum "
                << bench::bench_hex64(rec.checksum) << "\n";
    }
  });
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_dir;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench_json" && i + 1 < argc) {
      json_dir = argv[++i];
    } else if (arg == "--smoke") {
      g_smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_dir.empty()) return run_pinned(json_dir);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
