#include "sim/engine.hpp"

#include <memory>
#include <string>

#include "core/cost_model.hpp"
#include "core/sharded_cost_model.hpp"
#include "sim/sharded.hpp"
#include "util/rng.hpp"
#include "workload/streaming.hpp"

namespace ppdc {

namespace {

/// Every clone forwards to the caller's policy. The single-shard run
/// clones it exactly once, so the run drives the caller's own object
/// (callers read state back from it).
class BorrowedPolicy final : public MigrationPolicy {
 public:
  explicit BorrowedPolicy(MigrationPolicy& policy) : policy_(&policy) {}
  std::string name() const override { return policy_->name(); }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<BorrowedPolicy>(*policy_);
  }
  void reseed(Rng& attempt_rng) override { policy_->reseed(attempt_rng); }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    return policy_->on_epoch(model, state);
  }

 private:
  MigrationPolicy* policy_;
};

}  // namespace

SimTrace run_simulation(const AllPairs& apsp,
                        const std::vector<VmFlow>& base_flows, int n,
                        const SimConfig& config, MigrationPolicy& policy,
                        EpochObserver* observer, const std::string& journal,
                        int attempt) {
  // One shard holding every node, fed by a churn-free flow source.
  ShardMap map;
  map.names.push_back("all");
  map.shard_of_host.assign(static_cast<std::size_t>(apsp.graph().num_nodes()),
                           0);
  StreamingWorkload workload(base_flows);
  return run_sharded_simulation(apsp, map, workload, n, config,
                                ShardedStreamingConfig{},
                                BorrowedPolicy(policy), observer, journal,
                                attempt);
}

}  // namespace ppdc
