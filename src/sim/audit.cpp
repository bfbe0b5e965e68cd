#include "core/sharded_cost_model.hpp"
#include "core/stroll_dp.hpp"
#include "graph/graph.hpp"
#include "sim/audit.hpp"
#include "util/ids.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

namespace ppdc {

namespace {

std::string format_violation(const AuditViolation& v) {
  std::string msg = "invariant audit failed at epoch " +
                    std::to_string(v.epoch.value()) + " (policy '" +
                    v.policy + "'): [" + v.invariant + "] " + v.detail;
  if (v.flow.valid()) msg += " (flow " + std::to_string(v.flow.value()) + ")";
  if (v.node != kInvalidNode) {
    msg += " (switch " + std::to_string(v.node) + ")";
  }
  if (!v.shard.empty()) msg += " (shard '" + v.shard + "')";
  return msg;
}

/// Cost-conservation tolerance: the per-epoch comm cost may differ from
/// the recomputed Σ flow_cost by kRelTol x magnitude + kAbsTol (the engine
/// and the policies accumulate in different orders).
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-6;

bool close(double a, double b) {
  const double diff = std::abs(a - b);
  return diff <= kAbsTol + kRelTol * std::max(std::abs(a), std::abs(b));
}

/// The sampled stroll-cache check: for the model's cheapest ingress and
/// egress switches, the Algorithm 3 stroll served by the shared table
/// cache must equal, bit for bit, the one from tables built from scratch.
/// Returns a description of the mismatch, or "" when they agree (or the
/// model's solves never reach the cache: a restricted universe, or an SFC
/// too short for the stroll DP).
std::string stroll_cache_mismatch(const CostModel& model, int n) {
  const NodeId s = model.best_ingress();
  const NodeId t = model.best_egress();
  if (n < 3 || model.candidates_restricted() || s == kInvalidNode ||
      t == kInvalidNode || s == t ||
      model.placement_candidates().size() < static_cast<std::size_t>(n)) {
    return {};
  }
  StrollTable cached(StrollTableCache::of(model.apsp()).levels(t));
  StrollTable fresh(model.apsp(), t);
  const StrollResult a = cached.find(s, n - 2);
  const StrollResult b = fresh.find(s, n - 2);
  if (a.walk == b.walk && a.placement == b.placement &&
      a.edges_used == b.edges_used && a.used_fallback == b.used_fallback &&
      std::bit_cast<std::uint64_t>(a.cost) ==
          std::bit_cast<std::uint64_t>(b.cost)) {
    return {};
  }
  return "cached stroll " + std::to_string(s) + " -> " + std::to_string(t) +
         " (cost " + std::to_string(a.cost) + ", " +
         std::to_string(a.edges_used) +
         " edges) differs from a fresh DP (cost " + std::to_string(b.cost) +
         ", " + std::to_string(b.edges_used) + " edges)";
}

}  // namespace

AuditError::AuditError(AuditViolation violation)
    : PpdcError(format_violation(violation)),
      violation_(std::move(violation)) {}

ShardedInvariantAuditor::ShardedInvariantAuditor(
    std::string policy_name, std::vector<std::string> shard_names)
    : policy_(std::move(policy_name)),
      shard_names_(std::move(shard_names)) {
  PPDC_REQUIRE(!shard_names_.empty(),
               "sharded audit needs at least one shard");
  shard_rungs_.assign(shard_names_.size(), DegradationRung::kFull);
}

void ShardedInvariantAuditor::fail(Hour epoch, std::string invariant,
                                   std::string detail, int shard,
                                   FlowId flow, NodeId node) const {
  AuditViolation v;
  v.epoch = epoch;
  v.policy = policy_;
  v.invariant = std::move(invariant);
  v.flow = flow;
  v.node = node;
  if (shard >= 0 && shard < static_cast<int>(shard_names_.size())) {
    v.shard = shard_names_[static_cast<std::size_t>(shard)];
  }
  v.detail = std::move(detail);
  throw AuditError(std::move(v));
}

void ShardedInvariantAuditor::on_run_begin(Hour horizon,
                                           const Placement& /*initial*/) {
  horizon_ = horizon;
}

void ShardedInvariantAuditor::on_epoch_begin(Hour hour) {
  if (open_epoch_.valid() && !epoch_ended_) {
    fail(hour, "event-stream",
         "epoch began before epoch " + std::to_string(open_epoch_.value()) +
             " ended");
  }
  if (last_ended_.valid() && hour <= last_ended_) {
    fail(hour, "event-stream", "epoch hours must strictly increase");
  }
  open_epoch_ = hour;
  epoch_ended_ = false;
  saw_faults_event_ = false;
  last_faults_ = EpochFaults{};
  stream_quarantined_ = 0;
  stream_penalty_ = 0.0;
  epoch_comm_sum_ = 0.0;
  shards_checked_ = 0;
}

void ShardedInvariantAuditor::on_faults(Hour hour, const EpochFaults& events) {
  if (hour != open_epoch_) {
    fail(hour, "event-stream", "on_faults outside its epoch");
  }
  saw_faults_event_ = true;
  last_faults_ = events;
}

void ShardedInvariantAuditor::on_quarantine(Hour hour, int flows,
                                            double /*unserved_rate*/,
                                            double penalty) {
  if (hour != open_epoch_) {
    fail(hour, "event-stream", "on_quarantine outside its epoch");
  }
  stream_quarantined_ = flows;
  stream_penalty_ = penalty;
}

void ShardedInvariantAuditor::on_shard_ladder_transition(
    Hour hour, int shard, const std::string& name, DegradationRung from,
    DegradationRung to, const std::string& reason) {
  if (hour != open_epoch_) {
    fail(hour, "event-stream", "shard ladder transition outside its epoch",
         shard);
  }
  if (shard < 0 || shard >= static_cast<int>(shard_rungs_.size())) {
    fail(hour, "event-stream",
         "ladder transition names unknown shard " + std::to_string(shard) +
             " ('" + name + "')");
  }
  const DegradationRung tracked =
      shard_rungs_[static_cast<std::size_t>(shard)];
  if (from != tracked) {
    fail(hour, "event-stream",
         std::string("shard ladder transition from rung '") +
             to_string(from) + "' but the stream is at '" +
             to_string(tracked) + "'",
         shard);
  }
  const int step = static_cast<int>(to) - static_cast<int>(from);
  if (step != 1 && step != -1) {
    fail(hour, "event-stream",
         std::string("shard ladder must move one rung at a time, got '") +
             to_string(from) + "' -> '" + to_string(to) + "' (" + reason +
             ")",
         shard);
  }
  shard_rungs_[static_cast<std::size_t>(shard)] = to;
  ++transitions_seen_;
}

void ShardedInvariantAuditor::on_epoch_end(Hour hour,
                                           const EpochDecision& d) {
  if (hour != open_epoch_ || epoch_ended_) {
    fail(hour, "event-stream", "on_epoch_end without a matching begin");
  }
  // The merged decision executes at the worst rung any shard sits on.
  DegradationRung max_rung = DegradationRung::kFull;
  for (const DegradationRung r : shard_rungs_) {
    if (static_cast<int>(r) > static_cast<int>(max_rung)) max_rung = r;
  }
  if (d.rung != max_rung) {
    fail(hour, "event-stream",
         std::string("decision executed at rung '") + to_string(d.rung) +
             "' but the worst shard rung is '" + to_string(max_rung) + "'");
  }
  const EpochFaults expected =
      saw_faults_event_ ? last_faults_ : EpochFaults{};
  if (d.switch_failures != expected.switch_failures ||
      d.link_failures != expected.link_failures ||
      d.repairs != expected.repairs) {
    fail(hour, "event-stream",
         "decision fault stamps disagree with the on_faults event");
  }
  if (d.quarantined_flows != stream_quarantined_ ||
      d.quarantine_penalty != stream_penalty_) {
    fail(hour, "event-stream",
         "decision quarantine stamps disagree with the on_quarantine event");
  }
  epoch_ended_ = true;
  last_ended_ = hour;
}

void ShardedInvariantAuditor::check_shard_placement(
    const ShardAuditContext& ctx) const {
  const Placement& p = *ctx.placement;
  if (p.size() != static_cast<std::size_t>(ctx.n)) {
    fail(ctx.epoch, "placement-feasibility",
         "shard placement length " + std::to_string(p.size()) +
             " does not match the SFC length " + std::to_string(ctx.n),
         ctx.shard);
  }
  try {
    validate_placement(ctx.model->apsp().graph(), p);
  } catch (const PpdcError& e) {
    NodeId bad = p.empty() ? kInvalidNode : p.front();
    for (std::size_t j = 0; j < p.size(); ++j) {
      const bool dup =
          std::find(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(j),
                    p[j]) != p.begin() + static_cast<std::ptrdiff_t>(j);
      if (p[j] < 0 || dup) {
        bad = p[j];
        break;
      }
    }
    fail(ctx.epoch, "placement-feasibility", e.what(), ctx.shard,
         FlowId::invalid(), bad);
  }
  if (ctx.degraded != nullptr) {
    for (const NodeId s : p) {
      if (!ctx.degraded->in_core(s)) {
        fail(ctx.epoch, "placement-feasibility",
             "VNF sits outside the serving core of the degraded fabric",
             ctx.shard, FlowId::invalid(), s);
      }
    }
  }
  // Every served local flow must reach the shard's chain at finite cost;
  // an infinite cost means the quarantine logic let an unreachable flow
  // through (flow id is the shard-local slot).
  const auto& flows = *ctx.flows;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].rate == 0.0) continue;
    const double c = ctx.model->flow_cost(flows[i], p);
    if (!std::isfinite(c)) {
      fail(ctx.epoch, "placement-feasibility",
           "served flow has infinite end-to-end cost (missed quarantine?)",
           ctx.shard, FlowId{static_cast<FlowId::rep_type>(i)}, p.front());
    }
  }
}

void ShardedInvariantAuditor::check_shard_conservation(
    const ShardAuditContext& ctx) const {
  // Frozen shards charge a stale estimate by design; blackout epochs
  // serve nothing — both exempt. Held (and quarantined) shards are NOT
  // exempt: hold-and-patch must keep the charge exactly refreshed.
  if (ctx.service_down || ctx.frozen) return;
  double sum = 0.0;
  for (const VmFlow& f : *ctx.flows) {
    if (f.rate == 0.0) continue;  // vacant or quarantined slot
    sum += ctx.model->flow_cost(f, *ctx.placement);
  }
  if (!close(sum, ctx.charged_comm)) {
    fail(ctx.epoch, "cost-conservation",
         "per-flow recomputation " + std::to_string(sum) +
             " disagrees with the shard's charged communication cost " +
             std::to_string(ctx.charged_comm),
         ctx.shard);
  }
}

void ShardedInvariantAuditor::check_shard_epoch(const ShardAuditContext& ctx) {
  if (ctx.epoch != open_epoch_ || !epoch_ended_) {
    fail(ctx.epoch, "event-stream",
         "check_shard_epoch called before the epoch's on_epoch_end",
         ctx.shard);
  }
  if (!ctx.service_down) {
    check_shard_placement(ctx);
    // Sampled: one shard per epoch, rotating, keeps the from-scratch DP
    // off every shard of every epoch.
    if (!ctx.frozen && static_cast<std::size_t>(ctx.epoch.value()) %
                               shard_names_.size() ==
                           static_cast<std::size_t>(ctx.shard)) {
      if (const std::string why = stroll_cache_mismatch(*ctx.model, ctx.n);
          !why.empty()) {
        fail(ctx.epoch, "stroll-cache", why, ctx.shard);
      }
    }
  }
  check_shard_conservation(ctx);
  // Accumulate in fixed shard order: the engine's merge sums the same
  // per-shard charges in the same order from 0.0, so the comparison in
  // check_epoch is bit-exact.
  epoch_comm_sum_ += ctx.charged_comm;
  ++shards_checked_;
}

void ShardedInvariantAuditor::check_idmap(
    const ShardedAuditContext& ctx) const {
  const ShardedCostModel& shards = *ctx.shards;
  const auto& global = *ctx.global_flows;
  // Forward: every mapped local slot points back at itself through the
  // global maps, and its endpoints match the global flow's.
  for (int s = 0; s < shards.num_shards(); ++s) {
    const auto& sh = shards.shard(s);
    int vacant = 0;
    for (std::size_t j = 0; j < sh.global_ids.size(); ++j) {
      const FlowId g = sh.global_ids[j];
      if (!g.valid()) {
        ++vacant;
        continue;
      }
      if (static_cast<std::size_t>(g.value()) >= global.size()) {
        fail(ctx.epoch, "id-map-consistency",
             "local slot maps to a global id beyond the flow vector", s, g);
      }
      if (shards.flow_shard(g) != s) {
        fail(ctx.epoch, "id-map-consistency",
             "global map assigns the flow to shard " +
                 std::to_string(shards.flow_shard(g)) +
                 " but shard " + std::to_string(s) + " holds it",
             s, g);
      }
      const FlowId l = shards.flow_local(g);
      if (!l.valid() || static_cast<std::size_t>(l.value()) != j) {
        fail(ctx.epoch, "id-map-consistency",
             "global->local map does not point back at the holding slot", s,
             g);
      }
      const VmFlow& lf = sh.flows[j];
      const VmFlow& gf = global[static_cast<std::size_t>(g.value())];
      if (lf.src_host != gf.src_host || lf.dst_host != gf.dst_host) {
        fail(ctx.epoch, "id-map-consistency",
             "local flow endpoints diverged from the global flow", s, g);
      }
    }
    if (vacant != static_cast<int>(sh.free_locals.size())) {
      fail(ctx.epoch, "id-map-consistency",
           "shard free-list holds " + std::to_string(sh.free_locals.size()) +
               " slots but " + std::to_string(vacant) + " are vacant",
           s);
    }
  }
  // Reverse: every global flow is held by exactly the shard the map says.
  for (std::size_t gi = 0; gi < global.size(); ++gi) {
    const FlowId g{static_cast<FlowId::rep_type>(gi)};
    const int s = shards.flow_shard(g);
    if (s < 0 || s >= shards.num_shards()) {
      fail(ctx.epoch, "id-map-consistency",
           "global flow is mapped to no shard", -1, g);
    }
    const FlowId l = shards.flow_local(g);
    const auto& sh = shards.shard(s);
    if (!l.valid() ||
        static_cast<std::size_t>(l.value()) >= sh.global_ids.size() ||
        sh.global_ids[static_cast<std::size_t>(l.value())] != g) {
      fail(ctx.epoch, "id-map-consistency",
           "shard does not hold the flow its map entry claims", s, g);
    }
  }
}

void ShardedInvariantAuditor::check_injector(
    const ShardedAuditContext& ctx) const {
  if (ctx.injector == nullptr) {
    if (ctx.degraded != nullptr) {
      fail(ctx.epoch, "injector-consistency",
           "degraded view exists without a fault injector");
    }
    return;
  }
  const bool active = ctx.injector->any_faults_active();
  if (active != (ctx.degraded != nullptr)) {
    fail(ctx.epoch, "injector-consistency",
         active ? "faults are active but no degraded view was built"
                : "degraded view survives a fully healed fabric");
  }
  const auto& dead = ctx.injector->dead_nodes();
  int dead_count = 0;
  for (std::size_t v = 0; v < dead.size(); ++v) {
    if (!dead[v]) continue;
    ++dead_count;
    const auto node = static_cast<NodeId>(v);
    if (ctx.degraded != nullptr && ctx.degraded->in_core(node)) {
      fail(ctx.epoch, "injector-consistency",
           "dead switch is inside the serving core", -1, FlowId::invalid(),
           node);
    }
  }
  if (dead_count != ctx.injector->dead_switch_count()) {
    fail(ctx.epoch, "injector-consistency",
         "dead_switch_count " +
             std::to_string(ctx.injector->dead_switch_count()) +
             " disagrees with the dead-node mask (" +
             std::to_string(dead_count) + ")");
  }
  if (ctx.degraded != nullptr) {
    const Graph& masked = ctx.degraded->apsp().graph();
    for (const auto& [u, v] : ctx.injector->dead_edges()) {
      if (masked.has_edge(u, v)) {
        fail(ctx.epoch, "injector-consistency",
             "dead link still present in the degraded graph", -1,
             FlowId::invalid(), u);
      }
    }
    for (const NodeId s : ctx.degraded->core_switches()) {
      if (dead[static_cast<std::size_t>(s)]) {
        fail(ctx.epoch, "injector-consistency",
             "serving core lists a dead switch", -1, FlowId::invalid(), s);
      }
    }
  }
}

void ShardedInvariantAuditor::check_epoch(const ShardedAuditContext& ctx) {
  if (ctx.epoch != open_epoch_ || !epoch_ended_) {
    fail(ctx.epoch, "event-stream",
         "check_epoch called before the epoch's on_epoch_end");
  }
  check_injector(ctx);
  check_idmap(ctx);
  const EpochDecision& d = *ctx.decision;
  if (!d.service_down) {
    if (shards_checked_ != ctx.shards->num_shards()) {
      fail(ctx.epoch, "event-stream",
           "check_epoch ran with " + std::to_string(shards_checked_) +
               " of " + std::to_string(ctx.shards->num_shards()) +
               " shards checked");
    }
    // The merge sums the same per-shard charges in the same fixed order
    // from the same 0.0, so this holds bit for bit — any drift means a
    // shard was charged something other than what it reported.
    if (epoch_comm_sum_ != d.comm_cost) {
      fail(ctx.epoch, "cost-conservation",
           "per-shard charges sum to " + std::to_string(epoch_comm_sum_) +
               " but the merged epoch charged " +
               std::to_string(d.comm_cost));
    }
  }
  ++checked_epochs_;
}

void ShardedInvariantAuditor::check_run(const SimTrace& trace) const {
  if (open_epoch_.valid() && !epoch_ended_) {
    fail(open_epoch_, "event-stream", "run ended inside an open epoch");
  }
  if (horizon_.valid() &&
      trace.epochs.size() != static_cast<std::size_t>(horizon_.value())) {
    fail(last_ended_, "event-stream",
         "trace has " + std::to_string(trace.epochs.size()) +
             " epochs for a horizon of " + std::to_string(horizon_.value()));
  }
  if (horizon_.valid() && checked_epochs_ != horizon_.value()) {
    fail(last_ended_, "event-stream",
         "audited " + std::to_string(checked_epochs_) +
             " epochs do not cover the horizon of " +
             std::to_string(horizon_.value()));
  }
  if (trace.ladder_transitions != transitions_seen_) {
    fail(last_ended_, "event-stream",
         "trace counts " + std::to_string(trace.ladder_transitions) +
             " ladder transitions, the stream delivered " +
             std::to_string(transitions_seen_));
  }
  // TraceRecorder conservation: every total must equal the sum of its
  // per-epoch entries (bit-identical — same values, same order).
  double comm = 0.0;
  double migration = 0.0;
  double recovery = 0.0;
  double penalty = 0.0;
  double shard_penalty = 0.0;
  int truncated = 0;
  int downtime = 0;
  int quarantined_shards = 0;
  int retries = 0;
  for (const EpochDecision& d : trace.epochs) {
    comm += d.comm_cost;
    migration += d.migration_cost;
    recovery += d.recovery_cost;
    penalty += d.quarantine_penalty;
    shard_penalty += d.shard_penalty;
    truncated += d.truncated_solves;
    quarantined_shards += d.quarantined_shards;
    retries += d.shard_retries;
    if (d.service_down) ++downtime;
  }
  if (comm != trace.total_comm_cost ||
      migration != trace.total_migration_cost ||
      recovery != trace.total_recovery_cost ||
      penalty != trace.total_quarantine_penalty ||
      shard_penalty != trace.total_shard_penalty) {
    fail(last_ended_, "cost-conservation",
         "trace totals disagree with the per-epoch sums");
  }
  const double grand = comm + migration + recovery + penalty + shard_penalty;
  if (grand != trace.total_cost) {
    fail(last_ended_, "cost-conservation",
         "total_cost " + std::to_string(trace.total_cost) +
             " is not the sum of its parts " + std::to_string(grand));
  }
  if (truncated != trace.total_truncated_solves ||
      downtime != trace.downtime_epochs) {
    fail(last_ended_, "event-stream",
         "trace truncation/downtime totals disagree with the epochs");
  }
  if (quarantined_shards != trace.quarantined_shard_epochs ||
      retries != trace.total_shard_retries) {
    fail(last_ended_, "event-stream",
         "trace shard quarantine/retry totals disagree with the epochs");
  }
}

}  // namespace ppdc
