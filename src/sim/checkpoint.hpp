// The epoch journal: crash-safe checkpointing of one run (DESIGN.md §10).
//
// The engine is deterministic at any thread count, so the journal holds
// no engine state: it records what the solvers answered — the hour-0
// placements, then per epoch and per shard the recovery target of a
// stranded shard and the outcome of its policy. A resumed run builds
// fresh state, re-executes every epoch from hour 0 and takes those
// answers from the journal instead of solving, so it reproduces the
// uninterrupted run by construction; a complete journal replays the whole
// run without a solver call. What the engine stamps on a decision itself
// (fault counts, recovery, quarantine, service_down, the rung, the shard
// counters) the replay recomputes, so no frame carries it. A write costs
// O(epochs · shards · n + moved flows) bytes, independent of the flow
// count.
//
// With ExperimentConfig::checkpoint_path set, every (trial, policy) cell
// of run_experiment keeps one such journal, and a finished cell's journal
// is its terminal record. A direct run_sharded_simulation or
// run_simulation call takes the path as its trailing argument.
//
// Durability model: the file is rewritten through a `write to <path>.tmp
// + fsync + rename over <path>` cycle after every epoch, so the file
// visible at <path> is always a complete journal — a crash at any
// instant loses at most the epoch in flight. Every frame is CRC32-framed
// (util/checksum.hpp), and the header carries a fingerprint of the run's
// fabric, entry state and every result-shaping knob: a relaunch with a
// stale, foreign or corrupt journal warns and starts fresh instead of
// resuming garbage. Journals are host-endian scratch artifacts for
// resuming on the same machine, not interchange files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/sharded_cost_model.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "workload/streaming.hpp"

namespace ppdc {

/// New endpoints of one flow a VM-migration policy moved.
struct MovedEndpoints {
  NodeId src_host = kInvalidNode;
  NodeId dst_host = kInvalidNode;
  bool operator==(const MovedEndpoints&) const = default;
};

/// What the solvers answered for one shard in one epoch.
struct ShardAnswer {
  /// The shard had VNFs stranded outside the serving core, and emergency
  /// recovery (solve_top_dp on the degraded model) moved them to
  /// `recovery_target`.
  bool recovered = false;
  Placement recovery_target;

  /// Outcome of the shard's policy: not asked (held, frozen, blackout,
  /// hour 0), answered, or threw (contained by the ladder).
  enum class Policy : std::uint8_t { kNone = 0, kAnswered = 1, kThrew = 2 };
  Policy policy = Policy::kNone;
  /// kAnswered: the decision as on_epoch returned it — the journal keeps
  /// the fields the engine reads back (comm and migration cost, migration
  /// counts, truncated solves, policy_failed, moved_flows) — the new
  /// placement, and the new endpoints of each of decision.moved_flows, in
  /// the same order.
  EpochDecision decision;
  Placement placement;
  std::vector<MovedEndpoints> moved;
};

/// One journaled epoch: every shard's answers, in fixed pod order.
struct EpochRecord {
  std::vector<ShardAnswer> shards;
};

/// Everything an epoch journal persists: the identity key, the retry
/// attempt, the hour-0 placements and the answers of each journaled
/// epoch. `epochs.size()` is the first epoch a resumed run solves live;
/// it equals `hours` once the run finished.
struct EpochJournalState {
  std::uint64_t fingerprint = 0;  ///< fingerprint_sharded_run of the run
  /// Retry attempt of the run (run_experiment's TransientError retries;
  /// 0 for a direct engine call). A resume continues this attempt.
  std::uint32_t attempt = 0;
  std::uint32_t hours = 0;        ///< horizon (sanity bound)
  std::uint32_t shards = 0;       ///< shard count (sanity bound)
  /// Hour-0 placements of every shard, concatenated in pod order (the
  /// on_run_begin payload of the trace).
  Placement merged_initial;
  std::vector<EpochRecord> epochs;
};

/// Identity of one run for the epoch journal: the fabric (nodes, edges,
/// weights) and the shard map, the run's entry state (workload snapshot
/// bytes before any epoch ran), the policy name, the retry attempt, and
/// every config knob that shapes its trace. Wall-clock knobs (threads,
/// journal paths) are excluded.
std::uint64_t fingerprint_sharded_run(
    const Graph& graph, const ShardMap& map,
    const StreamingWorkload::Snapshot& entry_state, const SimConfig& config,
    const ShardedStreamingConfig& sharded, int n,
    const std::string& policy_name, int attempt);

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

/// Removes an epoch journal if present (idempotent; the experiment runner
/// calls this when a cell fails, and before a retry attempt so a retry
/// never resumes the failed attempt's answers).
void remove_epoch_journal(const std::string& path);

}  // namespace ppdc
