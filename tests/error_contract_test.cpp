// Every documented PpdcError path of the public API, asserted with its
// message content where the message is part of the contract (line numbers
// in the loaders, policy/epoch attribution in the engine, hour/flow
// attribution in the rate-schedule validation).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cost_model.hpp"
#include "fault/fault.hpp"
#include "io/serialize.hpp"
#include "sim/engine.hpp"
#include "sim/sharded.hpp"
#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "util/require.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

/// Runs `fn`, expecting a PpdcError; returns its message.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const PpdcError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a PpdcError";
  return {};
}

bool mentions(const std::string& message, const std::string& needle) {
  return message.find(needle) != std::string::npos;
}

using testing::random_flows;

TEST(ErrorContract, RateScheduleWrongSizeNamesHourAndCounts) {
  const Topology topo = build_linear(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 3, 1);
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 2;
  cfg.rate_schedule = [](Hour) { return std::vector<double>{1.0}; };
  const std::string msg = error_of(
      [&] { run_simulation(apsp, flows, 2, cfg, policy); });
  EXPECT_TRUE(mentions(msg, "rate_schedule(hour 0)")) << msg;
  EXPECT_TRUE(mentions(msg, "returned 1 rates for 3 flows")) << msg;
}

TEST(ErrorContract, RateScheduleNegativeRateNamesFlow) {
  const Topology topo = build_linear(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 3, 1);
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 2;
  cfg.rate_schedule = [](Hour hour) {
    std::vector<double> r{1.0, 1.0, 1.0};
    if (hour == Hour{1}) r[2] = -0.5;
    return r;
  };
  const std::string msg = error_of(
      [&] { run_simulation(apsp, flows, 2, cfg, policy); });
  EXPECT_TRUE(mentions(msg, "rate_schedule(hour 1)")) << msg;
  EXPECT_TRUE(mentions(msg, "negative rate for flow 2")) << msg;
}

TEST(ErrorContract, RateScheduleRejectsEpochJournal) {
  // The journal fingerprint cannot hash a std::function, so a resumed run
  // could silently continue under another schedule: the combination is
  // refused up front, before any journal is read or written.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  VmPlacementConfig wl;
  wl.num_pairs = 6;
  StreamingWorkload workload(topo, wl, StreamingChurnConfig{}, Rng(3));
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 2;
  cfg.rate_schedule = [](Hour) { return std::vector<double>(6, 1.0); };
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  const std::string journal = "error_contract_schedule_journal.bin";
  const std::string msg = error_of([&] {
    run_sharded_simulation(apsp, ShardMap::single(topo), workload, 2, cfg,
                           sharded, policy, nullptr, journal);
  });
  EXPECT_TRUE(mentions(msg, "rate_schedule")) << msg;
  EXPECT_TRUE(mentions(msg, "epoch journal")) << msg;
  EXPECT_TRUE(mentions(msg, "built-in diurnal model")) << msg;
  EXPECT_FALSE(std::filesystem::exists(journal));
}

/// A policy that hands back a corrupt placement (duplicate switch).
class VandalPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Vandal"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<VandalPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel&, SimState& state) override {
    state.placement.back() = state.placement.front();
    return {};
  }
};

TEST(ErrorContract, EngineNamesPolicyAndEpochOnInvalidPlacement) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 5, 2);
  VandalPolicy vandal;
  SimConfig cfg;
  cfg.hours = 3;
  const std::string msg = error_of(
      [&] { run_simulation(apsp, flows, 3, cfg, vandal); });
  EXPECT_TRUE(mentions(msg, "policy 'Vandal'")) << msg;
  EXPECT_TRUE(mentions(msg, "invalid placement at epoch 1")) << msg;
}

TEST(ErrorContract, LoadersReportLineNumberAndOffendingText) {
  // Physical line 3 (header on 1, comment on 2) carries the bad flow.
  std::stringstream bad_flow;
  bad_flow << "ppdc-flows v1\n# ok\nflow 1 2\n";
  std::string msg = error_of([&] { load_flows(bad_flow); });
  EXPECT_TRUE(mentions(msg, "line 3")) << msg;
  EXPECT_TRUE(mentions(msg, "malformed flow line")) << msg;
  EXPECT_TRUE(mentions(msg, "'flow 1 2'")) << msg;

  std::stringstream bad_directive;
  bad_directive << "ppdc-topology v1\nnode 0 host h0\nfrobnicate 1 2\n";
  msg = error_of([&] { load_topology(bad_directive); });
  EXPECT_TRUE(mentions(msg, "line 3")) << msg;
  EXPECT_TRUE(mentions(msg, "unknown topology directive")) << msg;

  std::stringstream sparse;
  sparse << "ppdc-placement v1\nvnf 0 4\nvnf 2 5\n";
  msg = error_of([&] { load_placement(sparse); });
  EXPECT_TRUE(mentions(msg, "line 3")) << msg;
  EXPECT_TRUE(mentions(msg, "dense")) << msg;

  std::stringstream wrong_header;
  wrong_header << "# preamble\nppdc-flows v2\n";
  msg = error_of([&] { load_flows(wrong_header); });
  EXPECT_TRUE(mentions(msg, "line 2")) << msg;
  EXPECT_TRUE(mentions(msg, "expected header 'ppdc-flows v1'")) << msg;
}

// Every file of the committed malformed-artifact corpus
// (tests/corpus/README.md) must raise a PpdcError whose message carries a
// 1-based line number — truncated, bit-rotted, and hostile inputs all get
// the same diagnosable rejection. The loader is picked by filename
// prefix; an unknown prefix is itself a test failure so stray files
// cannot silently skip coverage.
TEST(ErrorContract, MalformedCorpusAllRaiseLineNumberedErrors) {
  namespace fs = std::filesystem;
  const fs::path dir(PPDC_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 15u) << "corpus looks gutted";
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string name = path.filename().string();
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    const std::string msg = error_of([&] {
      if (name.rfind("topo_", 0) == 0) {
        load_topology(in);
      } else if (name.rfind("flows_", 0) == 0) {
        load_flows(in);
      } else if (name.rfind("placement_", 0) == 0) {
        load_placement(in);
      } else {
        FAIL() << "corpus file with unknown loader prefix: " << name;
      }
    });
    EXPECT_TRUE(mentions(msg, "line ")) << name << ": " << msg;
  }
}

TEST(ErrorContract, LoaderAnchorsGraphErrorsOnTheOffendingLine) {
  // The graph layer rejects the duplicate edge; the loader must re-anchor
  // that diagnostic on the file line so the artifact is fixable.
  std::stringstream dup;
  dup << "ppdc-topology v1\nnode 0 switch s0\nnode 1 switch s1\n"
      << "edge 0 1 1.0\nedge 1 0 2.0\n";
  const std::string msg = error_of([&] { load_topology(dup); });
  EXPECT_TRUE(mentions(msg, "line 5")) << msg;
  EXPECT_TRUE(mentions(msg, "bad edge")) << msg;
}

TEST(ErrorContract, FaultInjectorRejectsInconsistentSchedules) {
  const Topology topo = build_fat_tree(4);
  const Graph& g = topo.graph;
  const NodeId sw = topo.rack_switches[RackIdx{0}];
  const NodeId host = topo.racks[RackIdx{0}][0];
  const FaultEvent fail{Hour{1}, FaultKind::kSwitchFail, sw, kInvalidNode,
                        kInvalidNode};

  // Unsorted epochs are rejected at construction.
  EXPECT_THROW(FaultInjector(g, {{Hour{2}, FaultKind::kSwitchFail, sw,
                                  kInvalidNode, kInvalidNode},
                                 fail}),
               PpdcError);
  // Switch events must name a switch.
  EXPECT_THROW(FaultInjector(g, {{Hour{1}, FaultKind::kSwitchFail, host,
                                  kInvalidNode, kInvalidNode}}),
               PpdcError);
  // Link events must name an existing normalized edge.
  EXPECT_THROW(FaultInjector(g, {{Hour{1}, FaultKind::kLinkFail, kInvalidNode,
                                  g.num_nodes() - 1, g.num_nodes() - 2}}),
               PpdcError);

  // Double failure / repair-of-healthy surface as the events are applied.
  FaultInjector double_fail(g, {fail, {Hour{2}, FaultKind::kSwitchFail, sw,
                                       kInvalidNode, kInvalidNode}});
  double_fail.advance_to(Hour{1});
  EXPECT_THROW(double_fail.advance_to(Hour{2}), PpdcError);
  FaultInjector repair_healthy(
      g, {{Hour{1}, FaultKind::kSwitchRepair, sw, kInvalidNode, kInvalidNode}});
  EXPECT_THROW(repair_healthy.advance_to(Hour{1}), PpdcError);
}

TEST(ErrorContract, EngineRejectsBadFaultConfig) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto flows = random_flows(topo, 4, 3);
  NoMigrationPolicy policy;
  SimConfig cfg;
  cfg.hours = 4;
  // Events at epoch 0 would fault the initial placement's fabric.
  cfg.faults = {{Hour{0}, FaultKind::kSwitchFail, topo.rack_switches[RackIdx{0}],
                 kInvalidNode, kInvalidNode}};
  EXPECT_THROW(run_simulation(apsp, flows, 3, cfg, policy), PpdcError);
  cfg.faults.clear();
  cfg.fault.mu = -1.0;
  EXPECT_THROW(run_simulation(apsp, flows, 3, cfg, policy), PpdcError);
  cfg.fault.mu = 1.0;
  cfg.fault.quarantine_penalty = -0.1;
  EXPECT_THROW(run_simulation(apsp, flows, 3, cfg, policy), PpdcError);
}

TEST(ErrorContract, RestrictCandidatesValidatesItsUniverse) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  auto flows = random_flows(topo, 4, 4);
  CostModel model(apsp, flows);
  const NodeId sw = topo.rack_switches[RackIdx{0}];
  EXPECT_THROW(model.restrict_candidates({}), PpdcError);
  EXPECT_THROW(model.restrict_candidates({topo.racks[RackIdx{0}][0]}), PpdcError);
  EXPECT_THROW(model.restrict_candidates({sw, sw}), PpdcError);
  // A valid restriction narrows the solver universe.
  model.restrict_candidates({sw, topo.rack_switches[RackIdx{1}]});
  EXPECT_EQ(model.placement_candidates().size(), 2u);
}

}  // namespace
}  // namespace ppdc
