#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/cost_model.hpp"
#include "core/sharded_cost_model.hpp"
#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "util/checksum.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

namespace {

// ---------------------------------------------------------------------------
// Little serialization layer: fixed-width fields appended to a string,
// and a bounds-checked cursor for reading them back. Host-endian by
// design (journals are same-machine scratch artifacts).
// ---------------------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked reader over a byte range; every overrun throws with the
/// absolute byte offset so corruption reports are actionable.
class Cursor {
 public:
  Cursor(const std::string& bytes, std::size_t begin, std::size_t end)
      : bytes_(&bytes), pos_(begin), end_(end) {}

  std::size_t pos() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ == end_; }

  void raw(void* out, std::size_t len) {
    PPDC_REQUIRE(len <= end_ - pos_,
                 "journal payload truncated at byte offset " +
                     std::to_string(pos_));
    std::memcpy(out, bytes_->data() + pos_, len);
    pos_ += len;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
 private:
  const std::string* bytes_;
  std::size_t pos_;
  std::size_t end_;
};

/// Frames a payload: [u32 length][u32 crc32(payload)][payload].
void append_frame(std::string& out, const std::string& payload) {
  put_u32(out, checked_cast<std::uint32_t>(payload.size(),
                                           "journal frame length"));
  put_u32(out, crc32(payload));
  out.append(payload);
}

/// Reads the frame starting at `pos`; returns the [begin, end) payload
/// range and advances `pos` past the frame. Throws on truncation or CRC
/// mismatch, naming the offset.
std::pair<std::size_t, std::size_t> read_frame(const std::string& bytes,
                                               std::size_t& pos) {
  Cursor head(bytes, pos, bytes.size());
  const std::uint32_t len = head.u32();
  const std::uint32_t stored_crc = head.u32();
  const std::size_t begin = head.pos();
  PPDC_REQUIRE(len <= bytes.size() - begin,
               "journal frame at byte offset " + std::to_string(pos) +
                   " claims " + std::to_string(len) + " bytes but only " +
                   std::to_string(bytes.size() - begin) + " remain (torn "
                   "write)");
  const std::uint32_t actual_crc = crc32(bytes.data() + begin, len);
  PPDC_REQUIRE(actual_crc == stored_crc,
               "journal frame at byte offset " + std::to_string(pos) +
                   " fails its CRC32 (stored " + std::to_string(stored_crc) +
                   ", computed " + std::to_string(actual_crc) + ")");
  pos = begin + len;
  return {begin, begin + len};
}

// ---------------------------------------------------------------------------
// Durable file plumbing (POSIX): the journal at `path` is replaced via
// write-to-temp + fsync + rename, then the directory entry is fsynced, so
// the visible file is always a complete journal.
// ---------------------------------------------------------------------------

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw PpdcError(what + " '" + path + "': " + std::strerror(errno));
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: FS may not support directory opens
  ::fsync(fd);
  ::close(fd);
}

void write_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot open checkpoint temp file", tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_io("cannot write checkpoint temp file", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io("cannot fsync checkpoint temp file", tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_io("cannot rename checkpoint temp file over", path);
  }
  fsync_parent_dir(path);
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PPDC_REQUIRE(in.good(), "cannot read checkpoint journal '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Fault-injection hook of the kill-resume gates: a positive integer in
/// PPDC_EPOCH_CRASH_AFTER makes the process hard-exit (no unwinding, no
/// atexit — a SIGKILL stand-in) right after that many journal writes
/// became durable. Anything else disables the hook.
int crash_after_from_env() {
  const char* v = std::getenv("PPDC_EPOCH_CRASH_AFTER");
  if (v == nullptr) return 0;
  // strtol instead of atoi so garbage ("", "abc", trailing junk) is
  // detectably rejected rather than silently parsed as 0-ish.
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return 0;
  return n > 0 && n <= std::numeric_limits<int>::max()
             ? static_cast<int>(n)
             : 0;
}

constexpr char kEpochMagic[8] = {'P', 'P', 'D', 'C', 'E', 'J', 'L', '1'};
// Version 2: the per-shard CostModel group base vectors were |V_s| wide
// (SwitchIdx-indexed), not |V| wide. Version 3: the journal holds the
// solvers' answers per epoch and shard instead of a dump of engine state,
// and a resume re-executes the run from hour 0. Version 4: the header
// records the retry attempt, and the fingerprint covers the fabric, the
// shard map and the attempt. Version 5: an answered decision carries only
// the fields the engine reads back (costs, migration counts, truncated
// solves, policy_failed), and a recovery target no truncation flag. An
// older journal is rejected, and the engine warns and starts the run
// fresh.
constexpr std::uint32_t kEpochVersion = 5;

void put_i32(std::string& out, std::int32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

std::int32_t cursor_i32(Cursor& c) {
  return static_cast<std::int32_t>(c.u32());
}

void put_i32_vec(std::string& out, const std::vector<std::int32_t>& v) {
  put_u32(out, checked_cast<std::uint32_t>(v.size(), "epoch journal vector"));
  for (const std::int32_t x : v) put_i32(out, x);
}

std::vector<std::int32_t> cursor_i32_vec(Cursor& c) {
  const std::uint32_t size = c.u32();
  std::vector<std::int32_t> v(size);
  for (std::uint32_t i = 0; i < size; ++i) v[i] = cursor_i32(c);
  return v;
}

void put_decision(std::string& out, const EpochDecision& d) {
  // The fields the engine reads back from an answered decision; the
  // engine stamps the rest itself, and moved_flows travels with its
  // endpoints in put_answer.
  put_f64(out, d.comm_cost);
  put_f64(out, d.migration_cost);
  put_i32(out, d.vnf_migrations);
  put_i32(out, d.vm_migrations);
  put_i32(out, d.truncated_solves);
  put_u8(out, d.policy_failed ? 1 : 0);
}

EpochDecision cursor_decision(Cursor& c) {
  EpochDecision d;
  d.comm_cost = c.f64();
  d.migration_cost = c.f64();
  d.vnf_migrations = cursor_i32(c);
  d.vm_migrations = cursor_i32(c);
  d.truncated_solves = cursor_i32(c);
  d.policy_failed = c.u8() != 0;
  return d;
}

void put_answer(std::string& out, const ShardAnswer& a) {
  put_u8(out, a.recovered ? 1 : 0);
  if (a.recovered) put_i32_vec(out, a.recovery_target);
  put_u8(out, static_cast<std::uint8_t>(a.policy));
  if (a.policy != ShardAnswer::Policy::kAnswered) return;
  const std::vector<FlowId>& ids = a.decision.moved_flows;
  PPDC_REQUIRE(a.moved.size() == ids.size(),
               "epoch journal answer has " + std::to_string(a.moved.size()) +
                   " moved endpoints for " + std::to_string(ids.size()) +
                   " moved flows");
  put_decision(out, a.decision);
  put_i32_vec(out, a.placement);
  put_u32(out, checked_cast<std::uint32_t>(ids.size(), "epoch journal moves"));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    put_i32(out, ids[i].value());
    put_i32(out, a.moved[i].src_host);
    put_i32(out, a.moved[i].dst_host);
  }
}

ShardAnswer cursor_answer(Cursor& c) {
  ShardAnswer a;
  a.recovered = c.u8() != 0;
  if (a.recovered) a.recovery_target = cursor_i32_vec(c);
  const std::uint8_t policy = c.u8();
  PPDC_REQUIRE(policy <= static_cast<std::uint8_t>(ShardAnswer::Policy::kThrew),
               "epoch journal answer carries unknown policy outcome " +
                   std::to_string(policy));
  a.policy = static_cast<ShardAnswer::Policy>(policy);
  if (a.policy != ShardAnswer::Policy::kAnswered) return a;
  a.decision = cursor_decision(c);
  a.placement = cursor_i32_vec(c);
  const std::uint32_t moves = c.u32();
  a.decision.moved_flows.resize(moves);
  a.moved.resize(moves);
  for (std::uint32_t i = 0; i < moves; ++i) {
    a.decision.moved_flows[i] = FlowId{cursor_i32(c)};
    a.moved[i].src_host = cursor_i32(c);
    a.moved[i].dst_host = cursor_i32(c);
  }
  return a;
}

std::string serialize_workload_snapshot(
    const StreamingWorkload::Snapshot& snap) {
  std::string out;
  put_u32(out, checked_cast<std::uint32_t>(snap.flows.size(),
                                           "epoch journal flow vector"));
  for (const VmFlow& f : snap.flows) {
    put_i32(out, f.src_host);
    put_i32(out, f.dst_host);
    put_f64(out, f.rate);
    put_i32(out, f.group);
  }
  put_u32(out, checked_cast<std::uint32_t>(snap.free_slots.size(),
                                           "epoch journal vector"));
  for (const FlowId id : snap.free_slots) put_i32(out, id.value());
  for (const std::uint64_t s : snap.rng) put_u64(out, s);
  return out;
}

std::atomic<int> g_epoch_journal_writes{0};

}  // namespace

std::uint64_t fingerprint_sharded_run(
    const Graph& graph, const ShardMap& map,
    const StreamingWorkload::Snapshot& entry_state, const SimConfig& config,
    const ShardedStreamingConfig& sharded, int n,
    const std::string& policy_name, int attempt) {
  Hash64 h;
  // The fabric every cost is measured on, and how its hosts split into
  // shards.
  h.i64(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    h.b(graph.is_switch(v));
    for (const Adjacency& a : graph.neighbors(v)) h.i64(a.to).f64(a.weight);
  }
  h.u64(map.names.size());
  for (const std::string& name : map.names) h.str(name);
  for (const int s : map.shard_of_host) h.i64(s);
  // The entry-state snapshot pins the exact initial draw; the churn knobs
  // pin how it evolves (the snapshot alone cannot — two configs share an
  // epoch-0 state but diverge from epoch 1).
  h.u64(hash64(serialize_workload_snapshot(entry_state)));
  h.i64(sharded.churn.arrivals_per_epoch);
  h.f64(sharded.churn.departure_prob);
  h.f64(sharded.churn.rerate_prob);
  h.f64(sharded.resolve_churn_fraction);
  h.i64(sharded.max_staleness);
  h.f64(sharded.quarantine_sla);
  h.str(policy_name).i64(attempt);
  h.i64(n).i64(config.hours);
  h.i64(config.diurnal.hours_per_day).f64(config.diurnal.tau_min);
  h.i64(config.diurnal.coast_offset);
  h.i64(config.initial_placement.candidate_limit);
  h.u64(config.faults.size());
  for (const FaultEvent& e : config.faults) {
    h.i64(e.epoch.value()).u64(static_cast<std::uint64_t>(e.kind));
    h.i64(e.node).i64(e.u).i64(e.v);
  }
  h.f64(config.fault.mu).f64(config.fault.quarantine_penalty);
  h.i64(config.fault.placement.candidate_limit);
  h.b(config.ladder.enabled);
  h.b(config.audit.enabled);
  return h.value();
}

void write_epoch_journal(const std::string& path,
                         const EpochJournalState& state) {
  PPDC_REQUIRE(!path.empty(), "epoch journal path is empty");
  std::string bytes(kEpochMagic, sizeof kEpochMagic);
  {
    std::string header;
    put_u32(header, kEpochVersion);
    put_u64(header, state.fingerprint);
    put_u32(header, state.attempt);
    put_u32(header, state.hours);
    put_u32(header, state.shards);
    put_i32_vec(header, state.merged_initial);
    append_frame(bytes, header);
  }
  for (const EpochRecord& rec : state.epochs) {
    PPDC_REQUIRE(rec.shards.size() == state.shards,
                 "epoch journal record holds " +
                     std::to_string(rec.shards.size()) + " shard answers for " +
                     std::to_string(state.shards) + " shards");
    std::string payload;
    for (const ShardAnswer& a : rec.shards) put_answer(payload, a);
    append_frame(bytes, payload);
  }
  write_atomic(path, bytes);
  static const int crash_after = crash_after_from_env();
  const int writes =
      g_epoch_journal_writes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (crash_after > 0 && writes >= crash_after) {
    // SIGKILL stand-in for the kill-resume gates: no unwinding, no
    // flushing beyond what is already durable.
    std::_Exit(37);
  }
}

bool read_epoch_journal(const std::string& path, EpochJournalState& out) {
  if (!file_exists(path)) return false;
  const std::string bytes = read_file(path);
  PPDC_REQUIRE(bytes.size() >= sizeof kEpochMagic &&
                   std::memcmp(bytes.data(), kEpochMagic,
                               sizeof kEpochMagic) == 0,
               "'" + path + "' is not a ppdc epoch journal (bad magic)");
  std::size_t pos = sizeof kEpochMagic;
  {
    const auto [begin, end] = read_frame(bytes, pos);
    Cursor c(bytes, begin, end);
    const std::uint32_t version = c.u32();
    PPDC_REQUIRE(version == kEpochVersion,
                 "epoch journal '" + path + "' has version " +
                     std::to_string(version) + ", this build reads version " +
                     std::to_string(kEpochVersion));
    out.fingerprint = c.u64();
    out.attempt = c.u32();
    out.hours = c.u32();
    out.shards = c.u32();
    out.merged_initial = cursor_i32_vec(c);
    PPDC_REQUIRE(c.exhausted(),
                 "epoch journal '" + path + "' header has trailing bytes");
  }
  out.epochs.clear();
  while (pos < bytes.size()) {
    PPDC_REQUIRE(out.epochs.size() < out.hours,
                 "epoch journal '" + path + "' holds more epochs than its " +
                     std::to_string(out.hours) + "-hour horizon");
    const auto [begin, end] = read_frame(bytes, pos);
    Cursor c(bytes, begin, end);
    EpochRecord rec;
    rec.shards.reserve(out.shards);
    for (std::uint32_t s = 0; s < out.shards; ++s) {
      rec.shards.push_back(cursor_answer(c));
    }
    PPDC_REQUIRE(c.exhausted(),
                 "epoch journal '" + path + "' epoch " +
                     std::to_string(out.epochs.size()) +
                     " frame has trailing bytes");
    out.epochs.push_back(std::move(rec));
  }
  return true;
}

void remove_epoch_journal(const std::string& path) {
  if (path.empty()) return;
  ::unlink(path.c_str());
}

}  // namespace ppdc
