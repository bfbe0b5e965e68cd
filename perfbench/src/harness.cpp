#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <utility>

#include "core/stroll_dp.hpp"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

namespace {

/// The `limit` switches with the smallest `key` (all when limit <= 0), as
/// Algorithm 3 picks its ingress and egress candidates.
template <typename Key>
std::vector<ppdc::NodeId> cheapest(std::vector<ppdc::NodeId> switches,
                                   int limit, Key&& key) {
  if (limit <= 0 || static_cast<std::size_t>(limit) >= switches.size()) {
    return switches;
  }
  std::nth_element(
      switches.begin(), switches.begin() + limit, switches.end(),
      [&](ppdc::NodeId a, ppdc::NodeId b) { return key(a) < key(b); });
  switches.resize(static_cast<std::size_t>(limit));
  return switches;
}

}  // namespace

StrollSample replay_strolls(const ppdc::CostModel& model, int candidate_limit,
                            int n, SpanLog& log) {
  StrollSample out;
  const std::vector<ppdc::NodeId>& sw = model.placement_candidates();
  const auto egress = cheapest(sw, candidate_limit, [&](ppdc::NodeId v) {
    return model.egress_attraction(v);
  });
  const auto ingress = cheapest(sw, candidate_limit, [&](ppdc::NodeId v) {
    return model.ingress_attraction(v);
  });
  out.egress_candidates = static_cast<int>(egress.size());
  out.universe = sw.size();
  const double rate = model.total_rate() > 0.0 ? model.total_rate() : 1.0;
  for (const ppdc::NodeId e : egress) {
    std::vector<ppdc::NodeId> sources;
    for (const ppdc::NodeId i : ingress) {
      if (i != e) sources.push_back(i);
    }
    const double t0 = now_s();
    ppdc::StrollTable table(model.apsp(), e, rate, sw);
    (void)table.find(sources.front(), n - 2);
    const double t1 = now_s();
    log.add("replay.stroll_table", t0, t1, -1, 0);
    out.table_s.push_back(t1 - t0);
    for (std::size_t i = 1; i < sources.size(); ++i) {
      out.find_s.push_back(timed(&log, "replay.stroll_find", [&] {
        (void)table.find(sources[i], n - 2);
      }, -1, 0));
    }
  }
  return out;
}

int SpanLog::add(std::string name, double start_s, double end_s, int parent,
                 int epoch) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_s, end_s, parent, epoch});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open(std::string name, double start_s, int parent, int epoch) {
  return add(std::move(name), start_s, std::nan(""), parent, epoch);
}

void SpanLog::close(int id, double end_s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = end_s;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(9);
  const std::vector<Span> spans = snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << ", \"parent\": " << s.parent << ", \"epoch\": " << s.epoch
        << "}\n";
  }
  return static_cast<bool>(out);
}

void PolicyProbe::record(PolicyCall call) {
  call.epoch = epoch();
  if (log_ != nullptr) {
    log_->add("policy." + call.policy, call.start_s, call.end_s,
              epoch_span_.load(std::memory_order_relaxed), call.epoch);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(std::move(call));
}

std::vector<PolicyCall> PolicyProbe::calls() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

TimedPolicy::TimedPolicy(std::unique_ptr<ppdc::MigrationPolicy> inner,
                         PolicyProbe* probe)
    : inner_(std::move(inner)), probe_(probe), name_(inner_->name()) {}

std::unique_ptr<ppdc::MigrationPolicy> TimedPolicy::clone() const {
  return std::make_unique<TimedPolicy>(inner_->clone(), probe_);
}

ppdc::EpochDecision TimedPolicy::on_epoch(const ppdc::CostModel& model,
                                          ppdc::SimState& state) {
  const double t0 = now_s();
  ppdc::EpochDecision d = inner_->on_epoch(model, state);
  PolicyCall call;
  call.policy = name_;
  call.start_s = t0;
  call.end_s = now_s();
  if (last_start_s_) call.period_s = t0 - *last_start_s_;
  last_start_s_ = t0;
  probe_->record(std::move(call));
  return d;
}

void LoopProbe::on_run_begin(ppdc::Hour /*horizon*/,
                             const ppdc::Placement& /*initial*/) {
  run_begin_s_ = now_s();
  if (stop_ != nullptr) stop_->store(true, std::memory_order_relaxed);
}

void LoopProbe::on_epoch_begin(ppdc::Hour hour) {
  open_ = EpochSample{};
  open_.hour = hour.value();
  open_.start_s = now_s();
  if (log_ != nullptr) {
    open_.span = log_->open("sim.epoch", open_.start_s, -1, open_.hour);
  }
  if (policies_ != nullptr) policies_->set_epoch(open_.hour, open_.span);
}

void LoopProbe::on_shard_batch(ppdc::Hour /*hour*/, int resolved, int held,
                               int churned) {
  open_.resolved = resolved;
  open_.held = held;
  open_.churned = churned;
}

void LoopProbe::on_epoch_end(ppdc::Hour /*hour*/,
                             const ppdc::EpochDecision& /*d*/) {
  open_.end_s = now_s();
  if (log_ != nullptr) log_->close(open_.span, open_.end_s);
  epochs_.push_back(open_);
}

void write_spans(const SpanLog& log, const RunArgs& args, Report& report) {
  if (args.spans_path.empty()) return;
  if (!log.write_jsonl(args.spans_path)) {
    report.fail("cannot write span log " + args.spans_path);
    return;
  }
  std::printf("spans: %zu written to %s\n", log.snapshot().size(),
              args.spans_path.c_str());
}

}  // namespace perfbench
