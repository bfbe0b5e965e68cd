// Crash-safe checkpointing of the experiment grid (DESIGN.md §10).
//
// A long campaign over the (trial, policy) SimJob grid must survive a
// crash, an OOM kill, or a ^C without discarding completed work. The
// journal persists one record per *terminal* job — the job's merged
// RunningStats bundle in raw IEEE bits, its outcome, attempt count and
// (for quarantined cells) the exception text — plus a header carrying a
// per-component fingerprint of the experiment configuration. A
// re-launched run with the same journal path validates the fingerprint,
// skips journaled cells and merges them into the reduction at their fixed
// trial-major position, so a resumed campaign is bit-identical to an
// uninterrupted one at every thread count.
//
// Durability model: the journal is rewritten through a `write to
// <path>.tmp + fsync + rename over <path>` cycle on every append, so the
// file visible at <path> is always a complete, internally consistent
// journal — a crash at any instant loses at most the in-flight record.
// Each frame (header and records alike) is CRC32-framed
// (util/checksum.hpp); should a non-atomic filesystem still tear the
// file, the loader verifies every frame and drops the corrupt tail with
// a warning instead of poisoning the resume (the dropped jobs simply
// rerun). Journals are host-endian scratch artifacts for resuming on the
// same machine, not interchange files.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "topology/topology.hpp"
#include "util/require.hpp"
#include "workload/streaming.hpp"

namespace ppdc {

/// Terminal outcome of one (trial, policy) SimJob.
enum class JobOutcome : std::uint8_t {
  kOk = 0,         ///< completed cleanly
  kTruncated = 1,  ///< completed, but >= 1 solver fell back on budget expiry
  kFailed = 2,     ///< threw; stats absent (terminal only under keep_going)
};

const char* to_string(JobOutcome outcome) noexcept;

/// Per-component 64-bit hashes of everything that determines experiment
/// *results* (never wall-clock-only knobs: thread count, checkpoint path,
/// keep_going and retry_limit are deliberately excluded, as is
/// SimConfig::cancel). Split per component so a mismatch can name what
/// diverged instead of reporting a bare hash inequality.
struct ExperimentFingerprint {
  std::uint64_t topology = 0;        ///< nodes, edges, weights, racks
  std::uint64_t workload = 0;        ///< seed, trials, generator config
  std::uint64_t fault_schedule = 0;  ///< full failure/repair timeline
  std::uint64_t policy_list = 0;     ///< ordered policy names
  std::uint64_t sim_config = 0;      ///< horizon, diurnal, fault knobs, ...
  bool operator==(const ExperimentFingerprint&) const = default;

  /// Names of the components on which *this differs from `other`
  /// ("topology", "workload", "fault schedule", "policy list",
  /// "sim config"), in that fixed order. Empty iff equal.
  std::vector<std::string> diff(const ExperimentFingerprint& other) const;
};

/// Computes the fingerprint of one run_experiment invocation. Policies
/// are fingerprinted by their ordered name() list — two configurations of
/// a policy that report the same name are indistinguishable here, so give
/// distinct display names to distinct configurations (the benches already
/// do: "mPareto-1e4" vs "mPareto-1e5").
ExperimentFingerprint fingerprint_experiment(
    const Topology& topo, const ExperimentConfig& config,
    const std::vector<const MigrationPolicy*>& policies);

/// One journaled (trial, policy) cell.
struct JobRecord {
  std::uint32_t trial = 0;
  std::uint32_t policy = 0;  ///< index into the experiment's policy list
  JobOutcome outcome = JobOutcome::kOk;
  std::uint32_t attempts = 1;  ///< total attempts including retries
  std::string policy_name;
  std::string error;      ///< what() of the final attempt (kFailed only)
  StatsBundle stats{0};   ///< single-trial bundle; empty when kFailed
};

/// Grid dimensions stored in the journal header (sanity bounds for the
/// records; the fingerprint is the real identity check).
struct JournalDims {
  std::uint32_t trials = 0;
  std::uint32_t policies = 0;
  std::uint32_t hours = 0;
  bool operator==(const JournalDims&) const = default;
};

/// Fingerprint-mismatch on resume: the journal belongs to a different
/// experiment. what() names the diverged components.
class CheckpointMismatchError : public PpdcError {
 public:
  using PpdcError::PpdcError;
};

/// Append-only journal of terminal SimJobs, durable per record.
class CheckpointJournal {
 public:
  /// Opens `path`: an existing journal is loaded and validated against
  /// (`fingerprint`, `dims`) — CheckpointMismatchError on divergence,
  /// PpdcError on an unreadable header; a missing file is created with a
  /// durable header. A corrupt record tail is dropped with a warning
  /// (see load_warning()); the dropped cells rerun.
  CheckpointJournal(std::string path, const ExperimentFingerprint& fingerprint,
                    const JournalDims& dims);

  /// Records recovered from a pre-existing journal, in file order
  /// (later records for the same cell supersede earlier ones).
  const std::vector<JobRecord>& resumed() const noexcept { return resumed_; }

  /// Non-empty when the loader dropped a corrupt/torn tail on open.
  const std::string& load_warning() const noexcept { return warning_; }

  /// Appends one terminal record durably (temp + fsync + rename).
  /// Thread-safe: concurrent SimJob workers may call it directly.
  void append(const JobRecord& record);

  const std::string& path() const noexcept { return path_; }

 private:
  std::mutex mu_;
  std::string path_;
  std::string buffer_;  ///< full serialized journal (header + records)
  std::vector<JobRecord> resumed_;
  std::string warning_;
  int appended_ = 0;
  int crash_after_ = 0;  ///< fault-injection hook; 0 = disabled
};

/// Parsed journal, for inspection/tooling/tests. No fingerprint check.
struct JournalContents {
  ExperimentFingerprint fingerprint;
  JournalDims dims;
  std::vector<JobRecord> records;
  /// Byte offset of each record's frame start (record_offsets[i] is where
  /// records[i] begins; truncating the file to record_offsets[k] leaves a
  /// valid journal holding exactly the first k records).
  std::vector<std::size_t> record_offsets;
  bool tail_dropped = false;  ///< a corrupt/torn tail was discarded
  std::string warning;        ///< where and why, when tail_dropped
};

/// Reads and frame-verifies a journal file. Throws PpdcError when the
/// file is missing or its header is unreadable; a bad record tail is
/// reported via tail_dropped/warning instead of thrown.
JournalContents read_journal(const std::string& path);

// ---------------------------------------------------------------------------
// Epoch-granular journal of one sharded run (DESIGN.md §15).
//
// The grid journal above is cell-granular: a killed job reruns from epoch
// 0. At l = 10^6 one cell is hours of work, so the sharded engine
// additionally journals *within* the cell. The engine is deterministic at
// any thread count, so the journal holds no engine state: it records
// what the solvers answered — the hour-0 placements, then per epoch and
// per shard the recovery target of a stranded shard and the outcome of
// its policy. A resumed run builds fresh state, re-executes every epoch
// from hour 0 and takes those answers from the journal instead of
// solving, so it reproduces the uninterrupted run by construction. A write
// costs O(epochs · shards · n + moved flows) bytes, independent of the
// flow count. The file is rewritten atomically (temp + fsync + rename)
// each checkpoint epoch, CRC32-framed like the grid journal, and keyed by
// a fingerprint of the run's entry state — a relaunch with a stale or
// foreign journal warns and starts fresh instead of resuming garbage.
// ---------------------------------------------------------------------------

/// New endpoints of one flow a VM-migration policy moved.
struct MovedEndpoints {
  NodeId src_host = kInvalidNode;
  NodeId dst_host = kInvalidNode;
  bool operator==(const MovedEndpoints&) const = default;
};

/// What the solvers answered for one shard in one epoch.
struct ShardAnswer {
  /// The shard had VNFs stranded outside the serving core, and emergency
  /// recovery (solve_top_dp, optionally refined exhaustively) moved them
  /// to `recovery_target`.
  bool recovered = false;
  bool recovery_truncated = false;  ///< the refinement ran out of budget
  Placement recovery_target;

  /// Outcome of the shard's policy: not asked (held, frozen, blackout,
  /// hour 0), answered, or threw (contained by the ladder).
  enum class Policy : std::uint8_t { kNone = 0, kAnswered = 1, kThrew = 2 };
  Policy policy = Policy::kNone;
  /// kAnswered: the decision exactly as on_epoch returned it (before the
  /// engine adds downtime), the new placement, and the new endpoints of
  /// each of decision.moved_flows, in the same order.
  EpochDecision decision;
  Placement placement;
  std::vector<MovedEndpoints> moved;
};

/// One journaled epoch: every shard's answers, in fixed pod order.
struct EpochRecord {
  std::vector<ShardAnswer> shards;
};

/// Everything an epoch journal persists: the identity key, the hour-0
/// placements and the answers of each journaled epoch. `epochs.size()` is
/// the first epoch a resumed run solves live.
struct EpochJournalState {
  std::uint64_t fingerprint = 0;  ///< fingerprint_sharded_run of the run
  std::uint32_t hours = 0;        ///< horizon (sanity bound)
  std::uint32_t shards = 0;       ///< shard count (sanity bound)
  /// Hour-0 placements of every shard, concatenated in pod order (the
  /// on_run_begin payload of the trace).
  Placement merged_initial;
  std::vector<EpochRecord> epochs;
};

/// Identity of one sharded run for the epoch journal: the run's entry
/// state (workload snapshot bytes before any epoch ran) plus every config
/// knob that shapes its trace. Wall-clock knobs (threads, journal paths)
/// are excluded.
std::uint64_t fingerprint_sharded_run(
    const StreamingWorkload::Snapshot& entry_state, const SimConfig& config,
    const ShardedStreamingConfig& sharded, int n, int num_shards,
    const std::string& policy_name);

/// Serializes `state` and atomically replaces the journal at `path`.
/// Honors the PPDC_EPOCH_CRASH_AFTER=N fault-injection hook: the process
/// hard-exits (code 37) right after the N-th epoch-journal write of this
/// process becomes durable — the kill half of the kill-resume gate.
void write_epoch_journal(const std::string& path,
                         const EpochJournalState& state);

/// Loads the epoch journal at `path` into `out`. Returns false when the
/// file does not exist; throws PpdcError when it exists but is malformed
/// (bad magic/version/CRC, truncated, or an epoch frame whose shard count
/// disagrees with the header — callers typically warn and start fresh).
/// A fingerprint mismatch is the caller's check: compare `out.fingerprint`
/// against fingerprint_sharded_run.
bool read_epoch_journal(const std::string& path, EpochJournalState& out);

/// Removes an epoch journal if present (idempotent; the runner calls this
/// once the cell's terminal record lands in the grid journal, and before
/// retry attempts so a retry never resumes the failed run's state).
void remove_epoch_journal(const std::string& path);

}  // namespace ppdc
