// Crash-safe checkpointing and failure containment of the experiment
// runner (DESIGN.md §10): interrupted-then-resumed campaigns must be
// bit-identical to uninterrupted ones at every thread count, corrupt
// journals must degrade to rerunning the affected cells, fingerprint
// mismatches must name the diverged component, and keep-going must
// quarantine a failing policy without perturbing anyone else's numbers.
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
#include <sstream>
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

/// Always throws a deterministic (non-retryable) error. The display name
/// is configurable so a test can impersonate a healthy policy (policy
/// lists are fingerprinted by name) and prove a resumed cell never reran.
class ThrowingPolicy final : public MigrationPolicy {
 public:
  explicit ThrowingPolicy(std::string name = "Thrower")
      : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ThrowingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel&, SimState&) override {
    throw PpdcError("boom: deterministic policy failure");
  }

 private:
  std::string name_;
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

/// Completes cleanly but reports budget-truncated solves, so its jobs
/// must journal as kTruncated rather than kOk.
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

  std::string journal_path(const std::string& name) const {
    const std::string path = ::testing::TempDir() + "ppdc_" + name + ".jnl";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
  }

  static void truncate_file(const std::string& path, std::size_t size) {
    std::filesystem::resize_file(path, size);
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
// Journal contents after an uninterrupted checkpointed run.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, JournalRecordsEveryCellOfTheGrid) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("full");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  run_experiment(topo_, apsp_, cfg, policies);

  const JournalContents contents = read_journal(cfg.checkpoint_path);
  EXPECT_FALSE(contents.tail_dropped);
  EXPECT_EQ(contents.dims.trials, 3u);
  EXPECT_EQ(contents.dims.policies, 2u);
  EXPECT_EQ(contents.dims.hours, 4u);
  EXPECT_EQ(contents.fingerprint, fingerprint_experiment(topo_, cfg, policies));
  ASSERT_EQ(contents.records.size(), 6u);
  ASSERT_EQ(contents.record_offsets.size(), 6u);
  for (const JobRecord& rec : contents.records) {
    EXPECT_EQ(rec.outcome, JobOutcome::kOk);
    EXPECT_EQ(rec.attempts, 1u);
    EXPECT_EQ(rec.policy_name,
              policies[rec.policy]->name());
    EXPECT_EQ(rec.stats.total.count(), 1u);  // single-trial bundle
    EXPECT_TRUE(rec.error.empty());
  }
}

TEST_F(CheckpointTest, RecordFrameBytesArePinned) {
  // The journal is an on-disk format: a fixed record, every statistic
  // distinct, must serialize to the same frame bytes (length, CRC32, and
  // the 20 scalar statistics in journal order, then the hourly series).
  JobRecord rec;
  rec.trial = 1;
  rec.policy = 2;
  rec.outcome = JobOutcome::kTruncated;
  rec.attempts = 3;
  rec.policy_name = "pinned";
  rec.stats = StatsBundle(2);
  StatsBundle& b = rec.stats;
  RunningStats* const scalars[] = {
      &b.total,          &b.comm,           &b.migration,
      &b.vnf_moves,      &b.vm_moves,       &b.recovery_moves,
      &b.recovery_cost,  &b.quarantined,    &b.penalty,
      &b.downtime,       &b.truncated,      &b.ladder_transitions,
      &b.refresh_only,   &b.frozen,         &b.policy_failures,
      &b.shard_resolves, &b.shard_holds,    &b.shard_quarantines,
      &b.shard_retries,  &b.shard_penalty};
  for (std::size_t i = 0; i < std::size(scalars); ++i) {
    scalars[i]->add(1.0 + static_cast<double>(i));
    scalars[i]->add(0.5 * static_cast<double>(i * i));
  }
  for (std::size_t h = 0; h < 2; ++h) {
    b.hourly_cost[h].add(10.0 + static_cast<double>(h));
    b.hourly_moves[h].add(20.0 + static_cast<double>(h));
  }

  const std::string path = journal_path("pinned-record");
  {
    CheckpointJournal journal(path, ExperimentFingerprint{},
                              JournalDims{4, 3, 2});
    journal.append(rec);
  }
  const JournalContents contents = read_journal(path);
  ASSERT_EQ(contents.records.size(), 1u);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string frame = bytes.substr(contents.record_offsets[0]);
  EXPECT_EQ(frame.size(), 1000u);
  EXPECT_EQ(hash64(frame), 0x1f0fca8c365adbddULL);
}

// ---------------------------------------------------------------------------
// The headline contract: interrupt mid-grid, resume, bit-identical — at
// one worker and at four.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ResumeAfterMidRunInterruptionIsBitIdentical) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  // Produce a complete journal once; its record offsets let us simulate a
  // SIGKILL after exactly K durable appends (every prefix of a journal is
  // a valid journal — that is the atomic-append contract).
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("resume");
  run_experiment(topo_, apsp_, cfg, policies);
  const JournalContents full = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(full.record_offsets.size(), 6u);
  std::string bytes;
  {
    std::ifstream in(cfg.checkpoint_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }

  for (const int threads : {1, 4}) {
    for (const std::size_t survivors : {std::size_t{1}, std::size_t{4}}) {
      {
        std::ofstream out(cfg.checkpoint_path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(
                      full.record_offsets[survivors]));
      }
      ExperimentConfig resumed = base_config();
      resumed.checkpoint_path = cfg.checkpoint_path;
      resumed.threads = threads;
      const std::vector<PolicyStats> stats =
          run_experiment(topo_, apsp_, resumed, policies);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " survivors=" +
                   std::to_string(survivors));
      expect_same(stats, reference);

      // The resumed run re-journals the rerun cells: the journal is
      // complete again and a second resume runs zero jobs.
      const JournalContents after = read_journal(cfg.checkpoint_path);
      EXPECT_EQ(after.records.size(), 6u);
    }
  }
}

TEST_F(CheckpointTest, FullyJournaledRunResumesWithoutRunningAnyJob) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("noop");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> first =
      run_experiment(topo_, apsp_, cfg, policies);
  // Resume with impostor prototypes that carry the same names (so the
  // fingerprint matches) but throw on first use: with every cell already
  // journaled, no job runs, nothing throws, and the result comes purely
  // from the journal — bit-identical to the first pass.
  ThrowingPolicy fake_none("NoMigration");
  ThrowingPolicy fake_pareto("mPareto");
  const std::vector<PolicyStats> second =
      run_experiment(topo_, apsp_, cfg, {&fake_none, &fake_pareto});
  expect_same(second, first);
}

// ---------------------------------------------------------------------------
// Cancellation (the SIGINT/SIGTERM path).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CancelledRunThrowsExperimentInterruptedAndResumes) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("cancel");
  std::atomic<bool> cancel{true};  // flag already raised: stop immediately
  cfg.sim.cancel = &cancel;
  try {
    run_experiment(topo_, apsp_, cfg, policies);
    FAIL() << "expected ExperimentInterrupted";
  } catch (const ExperimentInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find(cfg.checkpoint_path),
              std::string::npos)
        << "the interruption message must name the journal";
    EXPECT_NE(e.partial_summary().find("NoMigration"), std::string::npos);
    EXPECT_NE(e.partial_summary().find("0/3"), std::string::npos);
  }

  // Nothing completed, so nothing was journaled; the resume runs the full
  // grid and matches the uninterrupted reference bit for bit.
  EXPECT_TRUE(read_journal(cfg.checkpoint_path).records.empty());
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

TEST_F(CheckpointTest, CorruptRecordTailIsDroppedAndRerunOnResume) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("corrupt");
  run_experiment(topo_, apsp_, cfg, policies);
  const JournalContents full = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(full.records.size(), 6u);

  // Flip one byte inside the 5th record: records 5 and 6 must be dropped
  // (frame boundaries after a corrupt frame cannot be trusted).
  flip_byte(cfg.checkpoint_path, full.record_offsets[4] + 12);
  const JournalContents damaged = read_journal(cfg.checkpoint_path);
  EXPECT_TRUE(damaged.tail_dropped);
  EXPECT_EQ(damaged.records.size(), 4u);
  EXPECT_NE(damaged.warning.find("CRC32"), std::string::npos);
  EXPECT_NE(damaged.warning.find("byte offset"), std::string::npos);

  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  expect_same(resumed, reference);
  EXPECT_FALSE(read_journal(cfg.checkpoint_path).tail_dropped);
}

TEST_F(CheckpointTest, CorruptHeaderIsNotRecoverable) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("badheader");
  const std::vector<const MigrationPolicy*> policies{&none_};
  run_experiment(topo_, apsp_, cfg, policies);
  flip_byte(cfg.checkpoint_path, 16);  // inside the header frame
  EXPECT_THROW(read_journal(cfg.checkpoint_path), PpdcError);
  EXPECT_THROW(run_experiment(topo_, apsp_, cfg, policies), PpdcError);
}

TEST_F(CheckpointTest, NonJournalFileIsRejectedByMagic) {
  const std::string path = journal_path("notajournal");
  std::ofstream(path) << "this is not a journal\n";
  EXPECT_THROW(read_journal(path), PpdcError);
}

// ---------------------------------------------------------------------------
// Fingerprint validation.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FingerprintMismatchNamesTheDivergedComponent) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("fingerprint");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  run_experiment(topo_, apsp_, cfg, policies);

  {
    ExperimentConfig other = cfg;
    other.workload.num_pairs = 13;  // different workload, same everything else
    try {
      run_experiment(topo_, apsp_, other, policies);
      FAIL() << "expected CheckpointMismatchError";
    } catch (const CheckpointMismatchError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("workload"), std::string::npos) << what;
      EXPECT_EQ(what.find("topology"), std::string::npos) << what;
      EXPECT_EQ(what.find("policy list"), std::string::npos) << what;
    }
  }
  {
    try {
      run_experiment(topo_, apsp_, cfg, {&pareto_, &none_});  // reordered
      FAIL() << "expected CheckpointMismatchError";
    } catch (const CheckpointMismatchError& e) {
      EXPECT_NE(std::string(e.what()).find("policy list"), std::string::npos);
    }
  }
  {
    ExperimentConfig other = cfg;
    other.sim.hours = 5;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
  }
  {
    // Thread count is wall-clock-only: it must NOT invalidate the journal.
    ExperimentConfig other = cfg;
    other.threads = 4;
    other.keep_going = true;
    other.retry_limit = 2;
    EXPECT_NO_THROW(run_experiment(topo_, apsp_, other, policies));
  }
}

TEST_F(CheckpointTest, ShardedConfigIsFingerprintedExceptThreads) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("sharded-fp");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  run_experiment(topo_, apsp_, cfg, policies);

  {
    // Turning the sharded streaming engine on is a different experiment.
    ExperimentConfig other = cfg;
    other.sharded.enabled = true;
    try {
      run_experiment(topo_, apsp_, other, policies);
      FAIL() << "expected CheckpointMismatchError";
    } catch (const CheckpointMismatchError& e) {
      EXPECT_NE(std::string(e.what()).find("sim config"), std::string::npos)
          << e.what();
    }
  }
  {
    // So is any churn / staleness knob, even with the engine off — stale
    // journals must be rejected by name, never silently merged.
    ExperimentConfig other = cfg;
    other.sharded.churn.departure_prob = 0.1;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
    other = cfg;
    other.sharded.resolve_churn_fraction = 0.5;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
    other = cfg;
    other.sharded.max_staleness = 9;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
    other = cfg;
    other.sharded.quarantine_sla = 1.5;  // shapes total cost
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
  }
  {
    // Shard worker threads and the epoch-journal path are wall-clock-only
    // (bit-identical results): they must NOT invalidate the journal.
    ExperimentConfig other = cfg;
    other.sharded.threads = 8;
    other.sharded.epoch_journal = journal_path("sharded-fp-epoch");
    EXPECT_NO_THROW(run_experiment(topo_, apsp_, other, policies));
  }
}

TEST_F(CheckpointTest, FingerprintDiffReportsComponentsInFixedOrder) {
  ExperimentFingerprint a;
  ExperimentFingerprint b;
  EXPECT_TRUE(a.diff(b).empty());
  b.topology = 1;
  b.sim_config = 2;
  const std::vector<std::string> names = a.diff(b);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "topology");
  EXPECT_EQ(names[1], "sim config");
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

TEST_F(CheckpointTest, FailedCellsJournalAsFailedAndRerunOnResume) {
  ThrowingPolicy thrower;
  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;
  cfg.checkpoint_path = journal_path("failed");
  const std::vector<const MigrationPolicy*> policies{&none_, &thrower};
  run_experiment(topo_, apsp_, cfg, policies);

  const JournalContents contents = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(contents.records.size(), 6u);
  int failed = 0;
  for (const JobRecord& rec : contents.records) {
    if (rec.outcome != JobOutcome::kFailed) continue;
    ++failed;
    EXPECT_EQ(rec.policy, 1u);
    EXPECT_NE(rec.error.find("boom"), std::string::npos);
    EXPECT_EQ(rec.stats.total.count(), 0u);  // stats absent, not zero
  }
  EXPECT_EQ(failed, 3);

  // Failed records are rerun on resume (they might have been transient);
  // here they deterministically fail again and the result is unchanged.
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  EXPECT_EQ(resumed[1].completed_trials, 0);
  EXPECT_EQ(resumed[1].failures.size(), 3u);
}

TEST_F(CheckpointTest, TransientErrorRetriesWithReseedAndSucceeds) {
  FlakyPolicy flaky;
  ExperimentConfig cfg = base_config();
  cfg.retry_limit = 1;
  cfg.checkpoint_path = journal_path("retry");
  const std::vector<const MigrationPolicy*> policies{&none_, &flaky};
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, policies);
  EXPECT_EQ(stats[1].completed_trials, 3);
  EXPECT_TRUE(stats[1].failures.empty());

  const JournalContents contents = read_journal(cfg.checkpoint_path);
  for (const JobRecord& rec : contents.records) {
    if (rec.policy_name != "Flaky") continue;
    EXPECT_EQ(rec.outcome, JobOutcome::kOk);
    EXPECT_EQ(rec.attempts, 2u);  // attempt 0 threw, attempt 1 healed
  }
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

TEST_F(CheckpointTest, BudgetTruncatedJobsJournalAsTruncated) {
  TruncatingPolicy truncating;
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("truncated");
  run_experiment(topo_, apsp_, cfg, {&truncating});
  const JournalContents contents = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(contents.records.size(), 3u);
  for (const JobRecord& rec : contents.records) {
    EXPECT_EQ(rec.outcome, JobOutcome::kTruncated);
    EXPECT_EQ(rec.stats.total.count(), 1u);  // truncated still has stats
  }
  EXPECT_STREQ(to_string(JobOutcome::kTruncated), "truncated");
  EXPECT_STREQ(to_string(JobOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(JobOutcome::kFailed), "failed");
}

// ---------------------------------------------------------------------------
// Epoch-granular journal of the sharded engine (DESIGN.md §15).
// ---------------------------------------------------------------------------

void expect_same_answer(const ShardAnswer& a, const ShardAnswer& b) {
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.recovery_truncated, b.recovery_truncated);
  EXPECT_EQ(a.recovery_target, b.recovery_target);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.decision.comm_cost, b.decision.comm_cost);
  EXPECT_EQ(a.decision.migration_cost, b.decision.migration_cost);
  EXPECT_EQ(a.decision.migration_distance, b.decision.migration_distance);
  EXPECT_EQ(a.decision.vnf_migrations, b.decision.vnf_migrations);
  EXPECT_EQ(a.decision.vm_migrations, b.decision.vm_migrations);
  EXPECT_EQ(a.decision.truncated_solves, b.decision.truncated_solves);
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
  sharded.epoch_journal = path;
  VmPlacementConfig wl;
  wl.num_pairs = 40;

  NoMigrationPolicy proto;
  StreamingWorkload workload(topo_, wl, StreamingChurnConfig{}, Rng(3));
  const std::uint64_t fp = fingerprint_sharded_run(
      workload.snapshot(), sim, sharded, 3, map.num_shards(), proto.name());
  const SimTrace trace =
      run_sharded_simulation(apsp_, map, workload, 3, sim, sharded, proto);

  EpochJournalState state;
  ASSERT_TRUE(read_epoch_journal(path, state));
  EXPECT_EQ(state.fingerprint, fp);
  EXPECT_EQ(state.hours, 6u);
  EXPECT_EQ(state.shards, static_cast<std::uint32_t>(map.num_shards()));
  EXPECT_EQ(state.merged_initial, trace.initial_placement);
  // Written after every epoch but the last (the run was about to finish).
  ASSERT_EQ(state.epochs.size(), 5u);
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
  write_epoch_journal(path, state);
  EpochJournalState again;
  ASSERT_TRUE(read_epoch_journal(path, again));
  EXPECT_EQ(again.fingerprint, state.fingerprint);
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
  EXPECT_FALSE(read_epoch_journal(path, again));  // gone: fresh start
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
  answered.recovery_truncated = true;
  answered.recovery_target = {26, 27};
  answered.policy = ShardAnswer::Policy::kAnswered;
  answered.decision.comm_cost = 1.5;
  answered.decision.migration_cost = 2.25;
  answered.decision.migration_distance = 3.0;
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
  EpochJournalState again;
  ASSERT_TRUE(read_epoch_journal(path, again));
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
  EXPECT_EQ(frame.size(), 166u);
  EXPECT_EQ(hash64(frame), 0x61f268f8b7b9fbbaULL);
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
  sharded.epoch_journal = path;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  NoMigrationPolicy proto;
  auto run = [&] {
    StreamingWorkload w(topo_, wl, StreamingChurnConfig{}, Rng(3));
    return run_sharded_simulation(apsp_, map, w, 3, sim, sharded, proto);
  };

  // The completed run leaves epochs 0-4 journaled; a rerun replays them
  // and reproduces the trace.
  const SimTrace reference = run();
  EpochJournalState state;
  ASSERT_TRUE(read_epoch_journal(path, state));
  ASSERT_EQ(state.epochs.size(), 5u);
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
  sharded.epoch_journal = path;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  ParetoMigrationPolicy proto(1e3);

  auto run = [&](std::uint64_t seed, bool with_journal) {
    ShardedStreamingConfig cfg = sharded;
    if (!with_journal) cfg.epoch_journal.clear();
    StreamingWorkload w(topo_, wl, churn, Rng(seed));
    return run_sharded_simulation(apsp_, map, w, 3, sim, cfg, proto);
  };

  const SimTrace reference = run(5, false);

  // A completed seed-9 run leaves its journal behind (the bare engine
  // never deletes it; the experiment runner does). A seed-5 run handed
  // that stale journal must detect the fingerprint mismatch and start
  // fresh — bit-identical to the journal-free reference.
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
  EpochJournalState state;
  ASSERT_TRUE(read_epoch_journal(path, state));
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
  const std::string path = ::testing::TempDir() + "ppdc_epoch_v2.ejl";
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
    ShardedStreamingConfig cfg = sharded;
    if (with_journal) cfg.epoch_journal = path;
    StreamingWorkload w(topo_, wl, churn, Rng(5));
    return run_sharded_simulation(apsp_, map, w, 3, sim, cfg, proto);
  };
  const SimTrace reference = run(false);

  // A journal of this very run, restamped as version 2: the layout that
  // dumped the engine state every epoch. The header frame's CRC is
  // recomputed, so only the version tells it apart.
  run(true);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  constexpr std::size_t kHeader = 8;  // magic, then [len][crc][payload]
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + kHeader, sizeof len);
  const std::uint32_t old_version = 2;
  std::memcpy(bytes.data() + kHeader + 8, &old_version, sizeof old_version);
  const std::uint32_t crc = crc32(bytes.data() + kHeader + 8, len);
  std::memcpy(bytes.data() + kHeader + 4, &crc, sizeof crc);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  EpochJournalState state;
  EXPECT_THROW(read_epoch_journal(path, state), PpdcError);
  ::testing::internal::CaptureStderr();
  const SimTrace fresh = run(true);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("has version 2"), std::string::npos) << err;
  EXPECT_NE(err.find("starting the sharded run fresh"), std::string::npos)
      << err;
  EXPECT_EQ(err.find("resuming"), std::string::npos) << err;
  EXPECT_EQ(fresh.total_cost, reference.total_cost);
  EXPECT_EQ(fresh.total_comm_cost, reference.total_comm_cost);
  remove_epoch_journal(path);
}

TEST_F(CheckpointTest, ExperimentRunnerDerivesAndCleansEpochJournals) {
  ExperimentConfig cfg = base_config();
  cfg.sharded.enabled = true;
  cfg.sharded.churn.arrivals_per_epoch = 3;
  cfg.sharded.churn.departure_prob = 0.05;
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, cfg, policies);

  ExperimentConfig with = cfg;
  with.sharded.epoch_journal = ::testing::TempDir() + "ppdc_cell.ejl";
  // Pre-seed one derived cell path with garbage: that cell must warn,
  // start fresh, and the campaign still matches bit for bit.
  std::ofstream(with.sharded.epoch_journal + ".t1p0") << "not a journal";
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, with, policies);
  expect_same(stats, reference);
  // Epoch journals are per-cell scratch: every derived path is removed
  // once its cell's terminal record lands.
  for (int trial = 0; trial < 3; ++trial) {
    for (int p = 0; p < 2; ++p) {
      const std::string cell = with.sharded.epoch_journal + ".t" +
                               std::to_string(trial) + "p" +
                               std::to_string(p);
      EXPECT_FALSE(std::filesystem::exists(cell)) << cell;
    }
  }
}

}  // namespace
}  // namespace ppdc
