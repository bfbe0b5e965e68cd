// Crash-safe checkpointing and failure containment (DESIGN.md §10): every
// (trial, policy) cell of the experiment runner keeps its own epoch
// journal. Interrupted-then-resumed campaigns must be bit-identical to
// uninterrupted ones at every thread count, a finished grid must replay
// without a single policy call, corrupt or foreign journals must degrade
// to rerunning the affected cells, and keep-going must quarantine a
// failing policy without perturbing anyone else's numbers.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_cost_model.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "util/require.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

// ---------------------------------------------------------------------------
// Test policies.
// ---------------------------------------------------------------------------

/// Always throws a deterministic (non-retryable) error.
class ThrowingPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Thrower"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ThrowingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel&, SimState&) override {
    throw PpdcError("boom: deterministic policy failure");
  }
};

/// Fails with TransientError until the runner's retry path hands it a
/// fresh per-attempt stream via reseed() — the minimal "transient
/// condition that heals on retry".
class FlakyPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Flaky"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<FlakyPolicy>(*this);
  }
  void reseed(Rng& attempt_rng) override {
    attempt_rng.uniform_int(0, 100);  // consume the resplit stream
    healed_ = true;
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (!healed_) throw TransientError("flaky: transient hiccup");
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  bool healed_ = false;
};

/// Completes cleanly but reports a budget-truncated solve every epoch.
class TruncatingPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Truncating"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<TruncatingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    d.truncated_solves = 1;
    return d;
  }
};

/// Forwards to a real policy under its name (so journals match) and
/// counts every on_epoch call; `cancel_after` > 0 raises `*cancel` on
/// that call, which stops the run mid-cell.
class CountingPolicy final : public MigrationPolicy {
 public:
  struct Shared {
    std::atomic<int> calls{0};
    std::atomic<int> cancel_after{0};
    std::atomic<bool>* cancel = nullptr;
  };
  CountingPolicy(const MigrationPolicy& inner, Shared* shared)
      : inner_(inner.clone()), shared_(shared) {}
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<CountingPolicy>(*inner_, shared_);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    const int call = shared_->calls.fetch_add(1) + 1;
    if (call == shared_->cancel_after.load()) shared_->cancel->store(true);
    return inner_->on_epoch(model, state);
  }

 private:
  std::unique_ptr<MigrationPolicy> inner_;
  Shared* shared_;
};

/// A reseed-sensitive retry: a clone that was never reseeded (attempt 0)
/// throws a TransientError while `transients` lasts; a reseeded clone adds
/// the salt it drew from its attempt stream to every comm cost, so a
/// resume under the wrong attempt reports different costs. The call that
/// counts `cancel_after` down to zero raises `*cancel`.
class ReseedSensitivePolicy final : public MigrationPolicy {
 public:
  struct Shared {
    std::atomic<int> transients{0};
    std::atomic<int> cancel_after{0};
    std::atomic<bool>* cancel = nullptr;
  };
  explicit ReseedSensitivePolicy(Shared* shared) : shared_(shared) {}
  std::string name() const override { return "ReseedSensitive"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ReseedSensitivePolicy>(*this);
  }
  void reseed(Rng& attempt_rng) override {
    salt_ = 1.0 + static_cast<double>(attempt_rng.uniform_int(0, 100));
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (salt_ == 0.0 && shared_->transients.fetch_sub(1) > 0) {
      throw TransientError("transient: attempt 0 hiccup");
    }
    if (shared_->cancel_after.fetch_sub(1) == 1) shared_->cancel->store(true);
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement) + salt_;
    return d;
  }

 private:
  Shared* shared_;
  double salt_ = 0.0;
};

/// Raises `*flag` at the end of epoch `hour`: the run stops before the
/// next epoch, with epochs 0..hour journaled.
class CancelAfterEpoch final : public EpochObserver {
 public:
  CancelAfterEpoch(std::atomic<bool>* flag, int hour)
      : flag_(flag), hour_(hour) {}
  void on_epoch_end(Hour hour, const EpochDecision&) override {
    if (hour.value() == hour_) flag_->store(true);
  }

 private:
  std::atomic<bool>* flag_;
  int hour_;
};

/// `topo` with its first switch-to-switch link reweighted to `weight`: the
/// same shape, node ids and shard map, another metric.
Topology reweighted(const Topology& topo, double weight) {
  Topology out = topo;
  for (const NodeId sw : out.graph.switches()) {
    for (const Adjacency& a : out.graph.neighbors(sw)) {
      if (out.graph.is_switch(a.to)) {
        out.graph.set_edge_weight(sw, a.to, weight);
        return out;
      }
    }
  }
  throw PpdcError("no switch-to-switch link");
}

// ---------------------------------------------------------------------------
// Fixture: a small grid whose full run takes well under a second.
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : topo_(build_fat_tree(4)), apsp_(topo_.graph) {}

  ExperimentConfig base_config() const {
    ExperimentConfig cfg;
    cfg.trials = 3;
    cfg.seed = 7;
    cfg.workload.num_pairs = 12;
    cfg.sfc_length = 2;
    cfg.threads = 1;
    cfg.sim.hours = 4;
    return cfg;
  }

  /// A fresh checkpoint base: removes every cell journal of a grid of up
  /// to 4 trials x 4 policies below it.
  static std::string journal_base(const std::string& name) {
    const std::string base = ::testing::TempDir() + "ppdc_" + name + ".jnl";
    for (int t = 0; t < 4; ++t) {
      for (int p = 0; p < 4; ++p) {
        remove_epoch_journal(cell(base, t, p));
        remove_epoch_journal(cell(base, t, p) + ".tmp");
      }
    }
    return base;
  }

  static std::string cell(const std::string& base, int trial, int policy) {
    return base + ".t" + std::to_string(trial) + "p" + std::to_string(policy);
  }

  static EpochJournalState read(const std::string& path) {
    EpochJournalState state;
    EXPECT_TRUE(read_epoch_journal(path, state)) << path;
    return state;
  }

  static void flip_byte(const std::string& path, std::size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  Topology topo_;
  AllPairs apsp_;
  NoMigrationPolicy none_;
  ParetoMigrationPolicy pareto_{1e4};
};

/// Bit-exact PolicyStats comparison: EXPECT_EQ on every double.
void expect_same(const MeanCi& a, const MeanCi& b, const std::string& what) {
  EXPECT_EQ(a.mean, b.mean) << what << ".mean";
  EXPECT_EQ(a.ci95, b.ci95) << what << ".ci95";
}

void expect_same(const PolicyStats& a, const PolicyStats& b) {
  EXPECT_EQ(a.name, b.name);
  expect_same(a.total_cost, b.total_cost, a.name + " total_cost");
  expect_same(a.comm_cost, b.comm_cost, a.name + " comm_cost");
  expect_same(a.migration_cost, b.migration_cost, a.name + " migration_cost");
  expect_same(a.vnf_migrations, b.vnf_migrations, a.name + " vnf_migrations");
  expect_same(a.vm_migrations, b.vm_migrations, a.name + " vm_migrations");
  expect_same(a.recovery_migrations, b.recovery_migrations,
              a.name + " recovery_migrations");
  expect_same(a.recovery_cost, b.recovery_cost, a.name + " recovery_cost");
  expect_same(a.quarantined_flow_epochs, b.quarantined_flow_epochs,
              a.name + " quarantined_flow_epochs");
  expect_same(a.quarantine_penalty, b.quarantine_penalty,
              a.name + " quarantine_penalty");
  expect_same(a.downtime_epochs, b.downtime_epochs,
              a.name + " downtime_epochs");
  expect_same(a.truncated_solves, b.truncated_solves,
              a.name + " truncated_solves");
  expect_same(a.shard_resolves, b.shard_resolves,
              a.name + " shard_resolves");
  expect_same(a.shard_holds, b.shard_holds, a.name + " shard_holds");
  expect_same(a.quarantined_shard_epochs, b.quarantined_shard_epochs,
              a.name + " quarantined_shard_epochs");
  expect_same(a.shard_retries, b.shard_retries, a.name + " shard_retries");
  expect_same(a.shard_penalty, b.shard_penalty, a.name + " shard_penalty");
  ASSERT_EQ(a.hourly_cost.size(), b.hourly_cost.size());
  for (std::size_t h = 0; h < a.hourly_cost.size(); ++h) {
    expect_same(a.hourly_cost[h], b.hourly_cost[h],
                a.name + " hourly_cost[" + std::to_string(h) + "]");
    expect_same(a.hourly_migrations[h], b.hourly_migrations[h],
                a.name + " hourly_migrations[" + std::to_string(h) + "]");
  }
  EXPECT_EQ(a.completed_trials, b.completed_trials) << a.name;
  EXPECT_EQ(a.failures.size(), b.failures.size()) << a.name;
}

void expect_same(const std::vector<PolicyStats>& a,
                 const std::vector<PolicyStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// Cell journals after an uninterrupted checkpointed run.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, EveryCellKeepsACompleteJournal) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("full");
  run_experiment(topo_, apsp_, cfg, {&none_, &pareto_});
  std::vector<std::uint64_t> fingerprints;
  for (int t = 0; t < 3; ++t) {
    for (int p = 0; p < 2; ++p) {
      const EpochJournalState state = read(cell(cfg.checkpoint_path, t, p));
      EXPECT_EQ(state.attempt, 0u);
      EXPECT_EQ(state.hours, 4u);
      EXPECT_EQ(state.shards, 1u);  // a monolithic cell is one shard
      EXPECT_EQ(state.epochs.size(), 4u);  // the final epoch included
      fingerprints.push_back(state.fingerprint);
    }
  }
  // Every cell is its own run: no two journals share a fingerprint.
  std::sort(fingerprints.begin(), fingerprints.end());
  EXPECT_EQ(std::adjacent_find(fingerprints.begin(), fingerprints.end()),
            fingerprints.end());
  EXPECT_FALSE(std::filesystem::exists(cell(cfg.checkpoint_path, 3, 0)));
}

// ---------------------------------------------------------------------------
// The headline contract: interrupt mid-cell, resume, bit-identical — at
// one worker and at four.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ResumeAfterMidCellInterruptionIsBitIdentical) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Kill the grid mid-cell: the 6th policy answer (cell (0, 1), epoch
    // 3) raises the cancel flag.
    ExperimentConfig cfg = base_config();
    cfg.checkpoint_path = journal_base("resume");
    cfg.threads = threads;
    std::atomic<bool> cancel{false};
    cfg.sim.cancel = &cancel;
    CountingPolicy::Shared none_calls;
    CountingPolicy::Shared pareto_calls;
    pareto_calls.cancel_after = 3;
    pareto_calls.cancel = &cancel;
    const CountingPolicy none(none_, &none_calls);
    const CountingPolicy pareto(pareto_, &pareto_calls);
    EXPECT_THROW(run_experiment(topo_, apsp_, cfg, {&none, &pareto}),
                 ExperimentInterrupted);
    if (threads == 1) {
      // Cell (0, 0) finished; cell (0, 1) stopped after epoch 2; nothing
      // else started.
      EXPECT_EQ(read(cell(cfg.checkpoint_path, 0, 0)).epochs.size(), 4u);
      EXPECT_EQ(read(cell(cfg.checkpoint_path, 0, 1)).epochs.size(), 3u);
      EXPECT_FALSE(std::filesystem::exists(cell(cfg.checkpoint_path, 1, 0)));
    }

    cancel.store(false);
    const std::vector<PolicyStats> resumed =
        run_experiment(topo_, apsp_, cfg, policies);
    expect_same(resumed, reference);
    // The resumed run completed every journal.
    for (int t = 0; t < 3; ++t) {
      for (int p = 0; p < 2; ++p) {
        EXPECT_EQ(read(cell(cfg.checkpoint_path, t, p)).epochs.size(), 4u);
      }
    }
  }
}

TEST_F(CheckpointTest, TruncatedCellJournalsResumeBitIdentically) {
  // A kill can land after any epoch's write: cut every cell journal back
  // to a different prefix (none, hour 0 only, ..., complete) and resume.
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("truncated-cells");
  run_experiment(topo_, apsp_, cfg, policies);
  std::size_t keep = 0;
  for (int t = 0; t < 3; ++t) {
    for (int p = 0; p < 2; ++p) {
      const std::string path = cell(cfg.checkpoint_path, t, p);
      EpochJournalState state = read(path);
      state.epochs.resize(std::min<std::size_t>(keep++ % 5, 4));
      write_epoch_journal(path, state);
    }
  }
  cfg.threads = 4;
  expect_same(run_experiment(topo_, apsp_, cfg, policies), reference);
}

TEST_F(CheckpointTest, FullyJournaledGridReplaysWithoutAPolicyCall) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("noop");
  CountingPolicy::Shared calls;
  const CountingPolicy none(none_, &calls);
  const CountingPolicy pareto(pareto_, &calls);
  const std::vector<PolicyStats> first =
      run_experiment(topo_, apsp_, cfg, {&none, &pareto});
  EXPECT_EQ(calls.calls.load(), 3 * 2 * 3);  // hours 1-3 of every cell

  // Every cell replays from its journal: no policy call, and the result
  // comes purely from the journaled answers — bit-identical.
  calls.calls = 0;
  ::testing::internal::CaptureStderr();
  const std::vector<PolicyStats> second =
      run_experiment(topo_, apsp_, cfg, {&none, &pareto});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls.calls.load(), 0);
  expect_same(second, first);
  EXPECT_NE(err.find("4 of 4 epochs already journaled"), std::string::npos)
      << err;
}

// ---------------------------------------------------------------------------
// Cancellation (the SIGINT/SIGTERM path).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CancelledRunThrowsExperimentInterruptedAndResumes) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("cancel");
  std::atomic<bool> cancel{true};  // flag already raised: stop immediately
  cfg.sim.cancel = &cancel;
  try {
    run_experiment(topo_, apsp_, cfg, policies);
    FAIL() << "expected ExperimentInterrupted";
  } catch (const ExperimentInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find(cfg.checkpoint_path),
              std::string::npos)
        << "the interruption message must name the journals";
    EXPECT_NE(e.partial_summary().find("NoMigration"), std::string::npos);
    EXPECT_NE(e.partial_summary().find("0/3"), std::string::npos);
  }

  // No cell started, so no journal exists; the resume runs the full grid
  // and matches the uninterrupted reference bit for bit.
  EXPECT_FALSE(std::filesystem::exists(cell(cfg.checkpoint_path, 0, 0)));
  cancel.store(false);
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  expect_same(resumed, reference);
}

TEST_F(CheckpointTest, CancellationWithoutJournalSaysWorkIsLost) {
  ExperimentConfig cfg = base_config();
  std::atomic<bool> cancel{true};
  cfg.sim.cancel = &cancel;
  try {
    run_experiment(topo_, apsp_, cfg, {&none_});
    FAIL() << "expected ExperimentInterrupted";
  } catch (const ExperimentInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find("no checkpoint journal"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Corruption handling.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CorruptCellJournalsWarnAndRerun) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("corrupt");
  run_experiment(topo_, apsp_, cfg, policies);

  // A torn epoch frame, a flipped header byte, and a file that is no
  // journal at all: each cell warns, reruns fresh, and rewrites its
  // journal; the campaign still matches bit for bit.
  const std::string torn = cell(cfg.checkpoint_path, 0, 1);
  flip_byte(torn, std::filesystem::file_size(torn) - 3);
  flip_byte(cell(cfg.checkpoint_path, 1, 0), 16);
  std::ofstream(cell(cfg.checkpoint_path, 2, 1)) << "not a journal\n";

  ::testing::internal::CaptureStderr();
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  const std::string err = ::testing::internal::GetCapturedStderr();
  expect_same(resumed, reference);
  EXPECT_NE(err.find("CRC32"), std::string::npos) << err;
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  EXPECT_NE(err.find("starting the run fresh"), std::string::npos) << err;
  for (const auto& [t, p] : {std::pair{0, 1}, std::pair{1, 0}, std::pair{2, 1}}) {
    EXPECT_EQ(read(cell(cfg.checkpoint_path, t, p)).epochs.size(), 4u);
  }
}

TEST_F(CheckpointTest, NonJournalFileIsRejectedByMagic) {
  const std::string path = journal_base("notajournal");
  std::ofstream(path) << "this is not a journal\n";
  EpochJournalState state;
  EXPECT_THROW(read_epoch_journal(path, state), PpdcError);
  remove_epoch_journal(path);
}

// ---------------------------------------------------------------------------
// Fingerprint coverage: a cell journal resumes only its own run.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CellJournalNeverResumesADivergedExperiment) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("diverged");
  CountingPolicy::Shared calls;
  const CountingPolicy none(none_, &calls);
  const CountingPolicy pareto(pareto_, &calls);
  const std::vector<const MigrationPolicy*> policies{&none, &pareto};

  // Runs `other` over journals written by `cfg` and requires every cell
  // to warn and start fresh — equal to a journal-free run of `other`.
  auto expect_fresh = [&](const ExperimentConfig& other, const Topology& topo,
                          const AllPairs& apsp,
                          const std::vector<const MigrationPolicy*>& ps,
                          const std::string& what) {
    SCOPED_TRACE(what);
    run_experiment(topo_, apsp_, cfg, policies);  // journals of `cfg`
    ExperimentConfig plain = other;
    plain.checkpoint_path.clear();
    const std::vector<PolicyStats> fresh =
        run_experiment(topo, apsp, plain, ps);
    ::testing::internal::CaptureStderr();
    const std::vector<PolicyStats> stats = run_experiment(topo, apsp, other, ps);
    const std::string err = ::testing::internal::GetCapturedStderr();
    expect_same(stats, fresh);
    EXPECT_EQ(err.find("resuming"), std::string::npos) << err;
    EXPECT_NE(err.find("written by a different run"), std::string::npos)
        << err;
  };

  {
    // Topology: the same fat-tree shape with one fabric link reweighted.
    const Topology topo = reweighted(topo_, 3.0);
    const AllPairs apsp(topo.graph);
    expect_fresh(cfg, topo, apsp, policies, "topology");
  }
  {
    ExperimentConfig other = cfg;
    other.workload.num_pairs = 13;
    expect_fresh(other, topo_, apsp_, policies, "workload");
  }
  {
    ExperimentConfig other = cfg;
    FaultEvent fail;
    fail.epoch = Hour{2};
    fail.kind = FaultKind::kSwitchFail;
    fail.node = topo_.graph.switches().back();
    other.sim.faults.push_back(fail);
    expect_fresh(other, topo_, apsp_, policies, "fault schedule");
  }
  {
    // Policy name: the same cell index runs another policy.
    const CountingPolicy swapped_none(pareto_, &calls);
    const CountingPolicy swapped_pareto(none_, &calls);
    expect_fresh(cfg, topo_, apsp_, {&swapped_none, &swapped_pareto},
                 "policy name");
  }
  for (int knob = 0; knob < 6; ++knob) {
    ExperimentConfig other = cfg;
    switch (knob) {
      case 0: other.sim.hours = 5; break;
      case 1: other.sfc_length = 3; break;
      case 2: other.sim.ladder.enabled = true; break;
      case 3: other.sim.fault.quarantine_penalty = 2.0; break;
      case 4: other.sim.fault.mu = 2.0; break;
      default: other.sharded.enabled = true; break;  // pod shards
    }
    expect_fresh(other, topo_, apsp_, policies,
                 "sim config knob " + std::to_string(knob));
  }

  // Wall-clock knobs never invalidate a journal: the grid replays.
  run_experiment(topo_, apsp_, cfg, policies);
  ExperimentConfig other = cfg;
  other.threads = 4;
  other.keep_going = true;
  other.retry_limit = 2;
  other.sharded.threads = 8;
  calls.calls = 0;
  run_experiment(topo_, apsp_, other, policies);
  EXPECT_EQ(calls.calls.load(), 0);
}

TEST_F(CheckpointTest, ShardedCellJournalCoversTheChurnKnobs) {
  ExperimentConfig cfg = base_config();
  cfg.sharded.enabled = true;
  cfg.sharded.churn.arrivals_per_epoch = 2;
  cfg.checkpoint_path = journal_base("sharded-knobs");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  for (int knob = 0; knob < 4; ++knob) {
    run_experiment(topo_, apsp_, cfg, policies);
    ExperimentConfig other = cfg;
    switch (knob) {
      case 0: other.sharded.churn.departure_prob = 0.1; break;
      case 1: other.sharded.resolve_churn_fraction = 0.5; break;
      case 2: other.sharded.max_staleness = 9; break;
      default: other.sharded.quarantine_sla = 1.5; break;
    }
    ExperimentConfig plain = other;
    plain.checkpoint_path.clear();
    ::testing::internal::CaptureStderr();
    const std::vector<PolicyStats> stats =
        run_experiment(topo_, apsp_, other, policies);
    const std::string err = ::testing::internal::GetCapturedStderr();
    SCOPED_TRACE("sharded knob " + std::to_string(knob));
    expect_same(stats, run_experiment(topo_, apsp_, plain, policies));
    EXPECT_EQ(err.find("resuming"), std::string::npos) << err;
  }
}

TEST_F(CheckpointTest, ReweightedFabricStartsTheRunFresh) {
  // A journal written on one fabric must not resume on a fabric of the
  // same shape whose link weights differ: every journaled answer was
  // computed on the old metric.
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_reweighted.ejl";
  remove_epoch_journal(path);
  SimConfig sim;
  sim.hours = 6;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 1;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  ParetoMigrationPolicy proto(1e3);
  auto run = [&](const Topology& topo, const AllPairs& apsp,
                 const SimConfig& cfg, EpochObserver* observer,
                 const std::string& journal) {
    StreamingWorkload w(topo, wl, StreamingChurnConfig{}, Rng(3));
    return run_sharded_simulation(apsp, ShardMap::by_ingress_pod(topo), w, 3,
                                  cfg, sharded, proto, observer, journal);
  };

  // Write a journal of the first three epochs, then stop.
  {
    std::atomic<bool> cancel{false};
    CancelAfterEpoch stop(&cancel, 2);
    SimConfig interrupted = sim;
    interrupted.cancel = &cancel;
    EXPECT_THROW(run(topo_, apsp_, interrupted, &stop, path), SimInterrupted);
    ASSERT_EQ(read(path).epochs.size(), 3u);
  }

  const Topology other = reweighted(topo_, 0.25);
  const AllPairs apsp(other.graph);
  ASSERT_EQ(ShardMap::by_ingress_pod(other).shard_of_host, map.shard_of_host);
  const SimTrace fresh = run(other, apsp, sim, nullptr, {});
  ASSERT_NE(fresh.total_cost, run(topo_, apsp_, sim, nullptr, {}).total_cost)
      << "the reweighted link must matter to this workload";

  ::testing::internal::CaptureStderr();
  const SimTrace resumed = run(other, apsp, sim, nullptr, path);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("written by a different run"), std::string::npos) << err;
  EXPECT_EQ(err.find("resuming"), std::string::npos) << err;
  EXPECT_EQ(resumed.total_cost, fresh.total_cost);
  EXPECT_EQ(resumed.total_comm_cost, fresh.total_comm_cost);
  EXPECT_EQ(resumed.initial_placement, fresh.initial_placement);
  remove_epoch_journal(path);
}

// ---------------------------------------------------------------------------
// Failure containment: keep-going quarantine and retries.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, KeepGoingQuarantinesOnlyTheFailingPolicy) {
  ThrowingPolicy thrower;
  const std::vector<PolicyStats> solo =
      run_experiment(topo_, apsp_, base_config(), {&none_, &pareto_});

  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, {&none_, &thrower, &pareto_});
  ASSERT_EQ(stats.size(), 3u);

  // The healthy policies are bit-identical to a run without the thrower.
  expect_same(stats[0], solo[0]);
  expect_same(stats[2], solo[1]);

  // The thrower is fully quarantined: no samples, every trial recorded.
  EXPECT_EQ(stats[1].completed_trials, 0);
  ASSERT_EQ(stats[1].failures.size(), 3u);
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(stats[1].failures[static_cast<std::size_t>(trial)].trial, trial);
    EXPECT_EQ(stats[1].failures[static_cast<std::size_t>(trial)].attempts, 1);
    EXPECT_NE(stats[1].failures[static_cast<std::size_t>(trial)].error.find(
                  "boom"),
              std::string::npos);
  }
}

TEST_F(CheckpointTest, WithoutKeepGoingTheFirstGridOrderErrorSurfaces) {
  ThrowingPolicy thrower;
  ExperimentConfig cfg = base_config();
  try {
    run_experiment(topo_, apsp_, cfg, {&none_, &thrower});
    FAIL() << "expected PpdcError";
  } catch (const PpdcError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST_F(CheckpointTest, FailedCellsLeaveNoJournalAndRerunOnResume) {
  ThrowingPolicy thrower;
  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;
  cfg.checkpoint_path = journal_base("failed");
  const std::vector<const MigrationPolicy*> policies{&none_, &thrower};
  const std::vector<PolicyStats> first =
      run_experiment(topo_, apsp_, cfg, policies);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(read(cell(cfg.checkpoint_path, t, 0)).epochs.size(), 4u);
    EXPECT_FALSE(std::filesystem::exists(cell(cfg.checkpoint_path, t, 1)));
  }

  // Failed cells rerun on resume (they might have been transient); here
  // they deterministically fail again and the result is unchanged.
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  EXPECT_EQ(resumed[1].completed_trials, 0);
  EXPECT_EQ(resumed[1].failures.size(), 3u);
  expect_same(resumed, first);
}

TEST_F(CheckpointTest, TransientErrorRetriesWithReseedAndSucceeds) {
  FlakyPolicy flaky;
  ExperimentConfig cfg = base_config();
  cfg.retry_limit = 1;
  cfg.checkpoint_path = journal_base("retry");
  const std::vector<const MigrationPolicy*> policies{&none_, &flaky};
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, policies);
  EXPECT_EQ(stats[1].completed_trials, 3);
  EXPECT_TRUE(stats[1].failures.empty());
  for (int t = 0; t < 3; ++t) {
    // Attempt 0 threw, attempt 1 healed and journaled the cell.
    EXPECT_EQ(read(cell(cfg.checkpoint_path, t, 0)).attempt, 0u);
    EXPECT_EQ(read(cell(cfg.checkpoint_path, t, 1)).attempt, 1u);
  }
  // The replay continues the healed attempt: nothing throws.
  expect_same(run_experiment(topo_, apsp_, cfg, policies), stats);
}

TEST_F(CheckpointTest, TransientErrorWithoutRetryBudgetFails) {
  FlakyPolicy flaky;
  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;  // retry_limit stays 0
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, {&flaky});
  EXPECT_EQ(stats[0].completed_trials, 0);
  ASSERT_EQ(stats[0].failures.size(), 3u);
  EXPECT_EQ(stats[0].failures[0].attempts, 1);
  EXPECT_NE(stats[0].failures[0].error.find("flaky"), std::string::npos);
}

TEST_F(CheckpointTest, ResumedRetryAttemptContinuesItsReseededAttempt) {
  // A sharded cell whose attempt 0 fails transiently and whose attempt 1
  // is cancelled mid-run must resume as attempt 1 — reseeded as it was —
  // or the live epochs after the resume point report other costs.
  ExperimentConfig cfg = base_config();
  cfg.trials = 1;
  cfg.sim.hours = 6;
  cfg.retry_limit = 1;
  cfg.sharded.enabled = true;
  cfg.sharded.threads = 1;
  ReseedSensitivePolicy::Shared shared;
  const ReseedSensitivePolicy policy(&shared);

  shared.transients = 1;
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, cfg, {&policy});
  ASSERT_EQ(reference[0].completed_trials, 1);

  cfg.checkpoint_path = journal_base("attempt");
  std::atomic<bool> cancel{false};
  cfg.sim.cancel = &cancel;
  shared.transients = 1;
  shared.cancel_after = 10;  // attempt 0's hour-1 calls count too
  shared.cancel = &cancel;
  EXPECT_THROW(run_experiment(topo_, apsp_, cfg, {&policy}),
               ExperimentInterrupted);
  const EpochJournalState journal = read(cell(cfg.checkpoint_path, 0, 0));
  EXPECT_EQ(journal.attempt, 1u);
  EXPECT_GE(journal.epochs.size(), 2u);  // the resume replays a prefix...
  EXPECT_LT(journal.epochs.size(), 6u);  // ...and solves the rest live

  cancel.store(false);
  shared.transients = 0;
  shared.cancel_after = 0;
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, {&policy});
  expect_same(resumed, reference);
}

TEST_F(CheckpointTest, TruncatedSolvesSurviveTheReplay) {
  TruncatingPolicy truncating;
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_base("truncated");
  const std::vector<PolicyStats> first =
      run_experiment(topo_, apsp_, cfg, {&truncating});
  EXPECT_EQ(first[0].truncated_solves.mean, 3.0);  // hours 1-3
  for (const EpochRecord& rec :
       read(cell(cfg.checkpoint_path, 1, 0)).epochs) {
    const ShardAnswer& a = rec.shards.front();
    if (a.policy == ShardAnswer::Policy::kAnswered) {
      EXPECT_EQ(a.decision.truncated_solves, 1);
    }
  }
  expect_same(run_experiment(topo_, apsp_, cfg, {&truncating}), first);
}

// ---------------------------------------------------------------------------
// The epoch journal of one engine run.
// ---------------------------------------------------------------------------

void expect_same_answer(const ShardAnswer& a, const ShardAnswer& b) {
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.recovery_target, b.recovery_target);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.decision.comm_cost, b.decision.comm_cost);
  EXPECT_EQ(a.decision.migration_cost, b.decision.migration_cost);
  EXPECT_EQ(a.decision.vnf_migrations, b.decision.vnf_migrations);
  EXPECT_EQ(a.decision.vm_migrations, b.decision.vm_migrations);
  EXPECT_EQ(a.decision.truncated_solves, b.decision.truncated_solves);
  EXPECT_EQ(a.decision.policy_failed, b.decision.policy_failed);
  EXPECT_EQ(a.decision.moved_flows, b.decision.moved_flows);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.moved, b.moved);
}

TEST_F(CheckpointTest, EpochJournalRoundTripAndFingerprint) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_rt.ejl";
  remove_epoch_journal(path);

  SimConfig sim;
  sim.hours = 6;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 1;
  VmPlacementConfig wl;
  wl.num_pairs = 40;

  NoMigrationPolicy proto;
  StreamingWorkload workload(topo_, wl, StreamingChurnConfig{}, Rng(3));
  const std::uint64_t fp =
      fingerprint_sharded_run(topo_.graph, map, workload.snapshot(), sim,
                              sharded, 3, proto.name(), 0);
  EXPECT_NE(fp, fingerprint_sharded_run(topo_.graph, map, workload.snapshot(),
                                        sim, sharded, 3, proto.name(), 1));
  const SimTrace trace = run_sharded_simulation(apsp_, map, workload, 3, sim,
                                                sharded, proto, nullptr, path);

  EpochJournalState state = read(path);
  EXPECT_EQ(state.fingerprint, fp);
  EXPECT_EQ(state.attempt, 0u);
  EXPECT_EQ(state.hours, 6u);
  EXPECT_EQ(state.shards, static_cast<std::uint32_t>(map.num_shards()));
  EXPECT_EQ(state.merged_initial, trace.initial_placement);
  // Written after every epoch, the last one included.
  ASSERT_EQ(state.epochs.size(), 6u);
  for (std::size_t e = 0; e < state.epochs.size(); ++e) {
    ASSERT_EQ(state.epochs[e].shards.size(), state.shards);
    for (const ShardAnswer& a : state.epochs[e].shards) {
      EXPECT_FALSE(a.recovered);
      // Hour 0 asks no solver beyond the journaled hour-0 placement; on a
      // pristine churn-free run every later epoch re-solves every shard.
      if (e == 0) {
        EXPECT_EQ(a.policy, ShardAnswer::Policy::kNone);
        continue;
      }
      EXPECT_EQ(a.policy, ShardAnswer::Policy::kAnswered);
      EXPECT_EQ(a.placement.size(), 3u);
      EXPECT_TRUE(a.moved.empty());
    }
  }

  // Byte-level round trip: writing the parsed state back and re-reading
  // reproduces every field.
  state.attempt = 2;
  write_epoch_journal(path, state);
  const EpochJournalState again = read(path);
  EXPECT_EQ(again.fingerprint, state.fingerprint);
  EXPECT_EQ(again.attempt, 2u);
  EXPECT_EQ(again.hours, state.hours);
  EXPECT_EQ(again.shards, state.shards);
  EXPECT_EQ(again.merged_initial, state.merged_initial);
  ASSERT_EQ(again.epochs.size(), state.epochs.size());
  for (std::size_t e = 0; e < state.epochs.size(); ++e) {
    for (std::size_t s = 0; s < state.shards; ++s) {
      expect_same_answer(again.epochs[e].shards[s], state.epochs[e].shards[s]);
    }
  }

  remove_epoch_journal(path);
  EpochJournalState gone;
  EXPECT_FALSE(read_epoch_journal(path, gone));  // gone: fresh start
}

TEST_F(CheckpointTest, EpochFrameBytesArePinned) {
  // The epoch journal is an on-disk format: one fixed epoch frame — a
  // recovered shard whose policy moved two VMs, a shard whose policy
  // threw, and a shard that asked for nothing — must serialize to the
  // same bytes (length, CRC32, then the three answers in pod order).
  EpochJournalState state;
  state.fingerprint = 0x0123456789abcdefULL;
  state.hours = 4;
  state.shards = 3;
  state.merged_initial = {20, 21, 22, 23, 24, 25};
  ShardAnswer answered;
  answered.recovered = true;
  answered.recovery_target = {26, 27};
  answered.policy = ShardAnswer::Policy::kAnswered;
  answered.decision.comm_cost = 1.5;
  answered.decision.migration_cost = 2.25;
  answered.decision.vnf_migrations = 1;
  answered.decision.vm_migrations = 2;
  answered.decision.truncated_solves = 1;
  answered.decision.moved_flows = {FlowId{4}, FlowId{9}};
  answered.placement = {28, 29};
  answered.moved = {{40, 41}, {42, 43}};
  ShardAnswer threw;
  threw.policy = ShardAnswer::Policy::kThrew;
  state.epochs.push_back(EpochRecord{{answered, threw, ShardAnswer{}}});

  const std::string path = ::testing::TempDir() + "ppdc_epoch_pinned.ejl";
  write_epoch_journal(path, state);
  const EpochJournalState again = read(path);
  ASSERT_EQ(again.epochs.size(), 1u);
  for (std::size_t s = 0; s < 3; ++s) {
    expect_same_answer(again.epochs[0].shards[s], state.epochs[0].shards[s]);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  remove_epoch_journal(path);
  constexpr std::size_t kMagic = 8;  // then [len][crc][payload] per frame
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, bytes.data() + kMagic, sizeof header_len);
  const std::string frame = bytes.substr(kMagic + 8 + header_len);
  EXPECT_EQ(frame.size(), 95u);
  EXPECT_EQ(hash64(frame), 0xb417b922f213ba44ULL);
}

TEST_F(CheckpointTest, EpochJournalReplaysAnswersAndNamesDivergence) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_diverge.ejl";
  remove_epoch_journal(path);

  SimConfig sim;
  sim.hours = 6;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  NoMigrationPolicy proto;
  auto run = [&] {
    StreamingWorkload w(topo_, wl, StreamingChurnConfig{}, Rng(3));
    return run_sharded_simulation(apsp_, map, w, 3, sim, sharded, proto,
                                  nullptr, path);
  };

  // The completed run leaves every epoch journaled; a rerun replays them
  // all and reproduces the trace.
  const SimTrace reference = run();
  const EpochJournalState state = read(path);
  ASSERT_EQ(state.epochs.size(), 6u);
  ASSERT_GE(state.shards, 3u);
  EXPECT_EQ(run().total_cost, reference.total_cost);

  auto expect_divergence = [&](const EpochJournalState& edited, int epoch,
                               int shard, const std::string& what) {
    write_epoch_journal(path, edited);
    try {
      run();
      FAIL() << "a journal that disagrees with the run was replayed";
    } catch (const PpdcError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("at epoch " + std::to_string(epoch) + ", shard '" +
                         map.names[static_cast<std::size_t>(shard)] + "'"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
  };
  // A resume takes its answers from the journal instead of solving: a
  // doctored hour-0 placement and policy decision reach the trace.
  {
    EpochJournalState doctored = state;
    std::reverse(doctored.merged_initial.begin(),
                 doctored.merged_initial.begin() + 3);
    doctored.epochs[3].shards[2].decision.comm_cost += 1000.0;
    write_epoch_journal(path, doctored);
    const SimTrace replayed = run();
    EXPECT_EQ(replayed.initial_placement, doctored.merged_initial);
    EXPECT_NE(replayed.initial_placement, reference.initial_placement);
    EXPECT_GT(replayed.epochs[3].comm_cost, reference.epochs[3].comm_cost);
  }

  // The engine asks for an answer the journal lacks...
  EpochJournalState missing = state;
  missing.epochs[3].shards[2] = ShardAnswer{};
  expect_divergence(missing, 3, 2, "holds no policy answer");
  // ...or the journal holds one the engine never asks for (hour 0 runs
  // no policy)...
  EpochJournalState extra = state;
  extra.epochs[0].shards[1].policy = ShardAnswer::Policy::kThrew;
  expect_divergence(extra, 0, 1, "did not ask for");
  // ...or an answer moves a flow the shard does not hold.
  EpochJournalState stray = state;
  stray.epochs[2].shards[0].decision.moved_flows = {FlowId{1 << 20}};
  stray.epochs[2].shards[0].moved = {{0, 0}};
  expect_divergence(stray, 2, 0, "outside the shard's flow vector");
  remove_epoch_journal(path);
}

TEST_F(CheckpointTest, EpochJournalMismatchOrCorruptionStartsFresh) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_stale.ejl";
  remove_epoch_journal(path);

  SimConfig sim;
  sim.hours = 8;
  sim.ladder.enabled = true;
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 4;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  sharded.churn = churn;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  ParetoMigrationPolicy proto(1e3);

  auto run = [&](std::uint64_t seed, bool with_journal) {
    StreamingWorkload w(topo_, wl, churn, Rng(seed));
    return run_sharded_simulation(apsp_, map, w, 3, sim, sharded, proto,
                                  nullptr, with_journal ? path : "");
  };

  const SimTrace reference = run(5, false);

  // A completed seed-9 run leaves its journal behind. A seed-5 run handed
  // that journal must detect the fingerprint mismatch and start fresh —
  // bit-identical to the journal-free reference.
  run(9, true);
  const SimTrace after_mismatch = run(5, true);
  EXPECT_EQ(after_mismatch.total_cost, reference.total_cost);
  EXPECT_EQ(after_mismatch.total_comm_cost, reference.total_comm_cost);

  // Corrupt tail (the previous run refreshed the journal to seed-5): a
  // torn write must degrade to a fresh start, never a poisoned resume.
  flip_byte(path, std::filesystem::file_size(path) - 3);
  const SimTrace after_corruption = run(5, true);
  EXPECT_EQ(after_corruption.total_cost, reference.total_cost);
  EXPECT_EQ(after_corruption.total_comm_cost, reference.total_comm_cost);

  // A journal with a valid CRC and a matching fingerprint whose policy
  // answer names no switch is corrupt too: warn and start fresh.
  EpochJournalState state = read(path);
  ASSERT_GE(state.epochs.size(), 2u);
  ShardAnswer& answer = state.epochs[1].shards[0];
  ASSERT_EQ(answer.policy, ShardAnswer::Policy::kAnswered);
  answer.placement[0] = -1;
  write_epoch_journal(path, state);
  ::testing::internal::CaptureStderr();
  const SimTrace after_bad_answer = run(5, true);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("does not fit the run"), std::string::npos) << err;
  EXPECT_EQ(after_bad_answer.total_cost, reference.total_cost);
  EXPECT_EQ(after_bad_answer.total_comm_cost, reference.total_comm_cost);
  remove_epoch_journal(path);
}

TEST_F(CheckpointTest, EpochJournalFromOlderVersionStartsFresh) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_v3.ejl";
  remove_epoch_journal(path);

  SimConfig sim;
  sim.hours = 6;
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 4;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  sharded.churn = churn;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  NoMigrationPolicy proto;
  auto run = [&](bool with_journal) {
    StreamingWorkload w(topo_, wl, churn, Rng(5));
    return run_sharded_simulation(apsp_, map, w, 3, sim, sharded, proto,
                                  nullptr, with_journal ? path : "");
  };
  const SimTrace reference = run(false);

  // A journal of this very run, restamped as version 3: the layout
  // without the retry attempt. The header frame's CRC is recomputed, so
  // only the version tells it apart.
  run(true);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  constexpr std::size_t kHeader = 8;  // magic, then [len][crc][payload]
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + kHeader, sizeof len);
  const std::uint32_t old_version = 3;
  std::memcpy(bytes.data() + kHeader + 8, &old_version, sizeof old_version);
  const std::uint32_t crc = crc32(bytes.data() + kHeader + 8, len);
  std::memcpy(bytes.data() + kHeader + 4, &crc, sizeof crc);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  EpochJournalState state;
  EXPECT_THROW(read_epoch_journal(path, state), PpdcError);
  ::testing::internal::CaptureStderr();
  const SimTrace fresh = run(true);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("has version 3"), std::string::npos) << err;
  EXPECT_NE(err.find("starting the run fresh"), std::string::npos) << err;
  EXPECT_EQ(err.find("resuming"), std::string::npos) << err;
  EXPECT_EQ(fresh.total_cost, reference.total_cost);
  EXPECT_EQ(fresh.total_comm_cost, reference.total_comm_cost);
  remove_epoch_journal(path);
}

}  // namespace
}  // namespace ppdc
