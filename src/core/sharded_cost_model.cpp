#include "core/sharded_cost_model.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "graph/graph.hpp"
#include "util/executor.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

/// Grows `v`'s capacity to at least `n` the way push_back would.
template <class T>
void grow_capacity(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.size()));
}

}  // namespace

int ShardMap::shard_of(NodeId host) const {
  PPDC_REQUIRE(host != kInvalidNode && static_cast<std::size_t>(host) <
                                           shard_of_host.size(),
               "host " + std::to_string(host) + " outside the shard map");
  const int s = shard_of_host[static_cast<std::size_t>(host)];
  PPDC_REQUIRE(s >= 0, "node " + std::to_string(host) +
                           " is not a mapped host (switch or unracked?)");
  return s;
}

ShardMap ShardMap::by_ingress_pod(const Topology& topo) {
  PPDC_REQUIRE(!topo.racks.empty(), "topology exposes no racks");
  ShardMap map;
  map.shard_of_host.assign(topo.graph.num_nodes(), -1);
  if (topo.power_domains.empty()) return single(topo);

  // Rack -> domain via its top-of-rack switch (domains list switches in
  // ascending NodeId order, so binary search applies).
  for (std::size_t d = 0; d < topo.power_domains.size(); ++d) {
    map.names.push_back(topo.power_domains[d].name);
  }
  std::vector<RackIdx> leftover;
  for (const RackIdx r : topo.racks.ids()) {
    const NodeId tor = topo.rack_switches[r];
    int shard = -1;
    for (std::size_t d = 0; d < topo.power_domains.size(); ++d) {
      const auto& sw = topo.power_domains[d].switches;
      if (std::binary_search(sw.begin(), sw.end(), tor)) {
        shard = static_cast<int>(d);
        break;
      }
    }
    if (shard < 0) {
      leftover.push_back(r);
      continue;
    }
    for (const NodeId h : topo.racks[r]) {
      map.shard_of_host[static_cast<std::size_t>(h)] = shard;
    }
  }
  if (!leftover.empty()) {
    const int shard = map.num_shards();
    map.names.push_back("unpodded");
    for (const RackIdx r : leftover) {
      for (const NodeId h : topo.racks[r]) {
        map.shard_of_host[static_cast<std::size_t>(h)] = shard;
      }
    }
  }
  return map;
}

ShardMap ShardMap::single(const Topology& topo) {
  PPDC_REQUIRE(!topo.racks.empty(), "topology exposes no racks");
  ShardMap map;
  map.names.push_back("all");
  map.shard_of_host.assign(topo.graph.num_nodes(), -1);
  for (const RackIdx r : topo.racks.ids()) {
    for (const NodeId h : topo.racks[r]) {
      map.shard_of_host[static_cast<std::size_t>(h)] = 0;
    }
  }
  return map;
}

ShardedCostModel::ShardedCostModel(const AllPairs& apsp, const ShardMap& map,
                                   const std::vector<VmFlow>& flows,
                                   int min_groups)
    : apsp_(&apsp), map_(&map), min_groups_(min_groups) {
  PPDC_REQUIRE(map.num_shards() >= 1, "shard map has no shards");
  buckets_.resize(static_cast<std::size_t>(map.num_shards()));
  shards_.reserve(static_cast<std::size_t>(map.num_shards()));
  for (int s = 0; s < map.num_shards(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->name = map.names[static_cast<std::size_t>(s)];
    shards_.push_back(std::move(shard));
  }

  // Partition in ascending global id order, so each shard's local order
  // is the global order restricted to the shard (and the single-shard
  // partition is the identity).
  flow_shard_.reserve(flows.size());
  flow_local_.reserve(flows.size());
  for (std::size_t g = 0; g < flows.size(); ++g) {
    const VmFlow& f = flows[g];
    const int s = map.shard_of(f.src_host);
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    flow_shard_.push_back(s);
    flow_local_.push_back(flow_count(sh.flows));
    sh.flows.push_back(f);
    sh.base_rates.push_back(f.rate);
    sh.groups.push_back(f.group);
    sh.global_ids.push_back(FlowId{static_cast<std::int32_t>(g)});
    if (f.rate != 0.0) ++sh.live;
  }

  // Every shard's base rows accumulate in one parallel pass over the
  // (shard, switch block) pairs.
  std::vector<CostModel::GroupedFlows> sets;
  sets.reserve(shards_.size());
  for (const auto& shard : shards_) {
    sets.push_back({&shard->flows, &shard->base_rates, &shard->groups});
  }
  std::vector<std::unique_ptr<CostModel>> models =
      CostModel::build_grouped(apsp, sets, min_groups_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->model = std::move(models[s]);
  }
}

int ShardedCostModel::flow_shard(FlowId g) const {
  const auto i = static_cast<std::size_t>(g.value());
  return i < flow_shard_.size() ? flow_shard_[i] : -1;
}

FlowId ShardedCostModel::flow_local(FlowId g) const {
  return flow_local_[static_cast<std::size_t>(g.value())];
}

void ShardedCostModel::allocate_local(int s, FlowId g, const VmFlow& f) {
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  if (!sh.free_locals.empty()) {
    const FlowId local = sh.free_locals.back();
    sh.free_locals.pop_back();
    const auto l = static_cast<std::size_t>(local.value());
    sh.flows[l] = f;
    sh.base_rates[l] = f.rate;
    sh.groups[l] = f.group;
    sh.global_ids[l] = g;
    sh.model->rebase_flow(local, f.rate, f.group);
    flow_local_[static_cast<std::size_t>(g.value())] = local;
  } else {
    const FlowId local = flow_count(sh.flows);
    sh.flows.push_back(f);
    sh.base_rates.push_back(f.rate);
    sh.groups.push_back(f.group);
    sh.global_ids.push_back(g);
    sh.model->flows_appended({f.rate}, {f.group});
    flow_local_[static_cast<std::size_t>(g.value())] = local;
  }
  flow_shard_[static_cast<std::size_t>(g.value())] = s;
  ++sh.live;
}

std::vector<int> ShardedCostModel::apply_churn(
    const std::vector<VmFlow>& flows, const FlowChurn& churn) {
  std::vector<int> touched = route_churn(flows, churn);
  std::vector<int> churned;
  for (int s = 0; s < num_shards(); ++s) {
    if (touched[static_cast<std::size_t>(s)] > 0) churned.push_back(s);
  }
  parallel_for(churned.size(), 1, [&](std::size_t k) noexcept {
    apply_shard_churn(churned[k], flows);
  });
  return touched;
}

std::vector<int> ShardedCostModel::route_churn(
    const std::vector<VmFlow>& flows, const FlowChurn& churn) {
  using Kind = ChurnEvent::Kind;
  for (const auto& bucket : buckets_) {
    PPDC_REQUIRE(bucket.empty(),
                 "route_churn called while a routed bucket is unapplied");
  }
  std::vector<int> touched(shards_.size(), 0);
  auto push = [&](int s, const ChurnEvent& e) {
    buckets_[static_cast<std::size_t>(s)].push_back(e);
    ++touched[static_cast<std::size_t>(s)];
  };
  auto mapped = [&](FlowId g, const char* what) {
    const auto gi = static_cast<std::size_t>(g.value());
    PPDC_REQUIRE(gi < flow_shard_.size() && flow_shard_[gi] >= 0,
                 std::string(what) + " flow " + std::to_string(g.value()) +
                     " was never mapped to a shard");
    return gi;
  };
  // A route that throws leaves the model as it found it.
  const std::size_t mapped_ids = flow_shard_.size();
  try {
    // Departures: the slot's base drops to 0 in place. It stays mapped
    // to its shard (endpoints kept valid, contributes nothing) until an
    // arrival re-uses its global id.
    for (const FlowId g : churn.departed) {
      const std::size_t gi = mapped(g, "departed");
      push(flow_shard_[gi], {Kind::kDepart, flow_local_[gi], g});
    }
    // Re-rates: base re-drawn, endpoints and group unchanged.
    for (const FlowId g : churn.rerated) {
      const std::size_t gi = mapped(g, "re-rated");
      PPDC_REQUIRE(gi < flows.size(),
                   "re-rated flow " + std::to_string(g.value()) +
                       " outside the global flow vector");
      push(flow_shard_[gi], {Kind::kRerate, flow_local_[gi], g});
    }
    // Arrivals: a re-used global slot stays in its shard when the new
    // ingress pod matches, otherwise the old local slot is vacated and
    // the flow allocates in its new shard. Appended global ids always
    // allocate; their map entries are written by the shard that does.
    for (std::size_t k = 0; k < churn.arrived.size(); ++k) {
      const FlowId g = churn.arrived[k];
      PPDC_REQUIRE(k == 0 || churn.arrived[k - 1] < g,
                   "arrived flow " + std::to_string(g.value()) +
                       " is not listed in strictly ascending id order");
      const auto gi = static_cast<std::size_t>(g.value());
      PPDC_REQUIRE(g.valid() && gi < flows.size(),
                   "arrived flow " + std::to_string(g.value()) +
                       " outside the global flow vector");
      const VmFlow& f = flows[gi];
      const int new_shard = map_->shard_of(f.src_host);
      if (gi < flow_shard_.size() && flow_shard_[gi] >= 0) {
        const int old_shard = flow_shard_[gi];
        const FlowId local = flow_local_[gi];
        if (old_shard == new_shard) {
          push(old_shard, {Kind::kRespawn, local, g});
          continue;
        }
        push(old_shard, {Kind::kVacate, local, g});
      } else if (gi >= flow_shard_.size()) {
        PPDC_REQUIRE(gi == flow_shard_.size(),
                     "arrived flow " + std::to_string(g.value()) +
                         " skips over unmapped global slots");
        flow_shard_.push_back(-1);
        flow_local_.push_back(FlowId::invalid());
      }
      push(new_shard, {Kind::kAllocate, FlowId::invalid(), g});
    }
  } catch (...) {
    for (auto& bucket : buckets_) bucket.clear();
    flow_shard_.resize(mapped_ids);
    flow_local_.resize(mapped_ids);
    throw;
  }
  // Make room here for the local slots each shard will append and the
  // patches it will queue, so that no shard task reallocates a per-flow
  // vector or a patch queue: a block a worker thread allocates stays in
  // that worker's malloc arena, where later runs' main-thread
  // allocations cannot re-use it (EXPERIMENTS.md, "One shard region per
  // churn epoch"). A re-rate or re-spawn may queue two patches (the old
  // base out at its snapshot endpoints, the new one in), every other
  // event at most one.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<ChurnEvent>& bucket = buckets_[s];
    if (bucket.empty()) continue;
    Shard& sh = *shards_[s];
    std::size_t free = sh.free_locals.size();
    std::size_t appends = 0;
    std::size_t patches = bucket.size();
    for (const ChurnEvent& e : bucket) {
      if (e.kind == Kind::kRerate || e.kind == Kind::kRespawn) {
        ++patches;
      } else if (e.kind == Kind::kVacate) {
        ++free;
      } else if (e.kind == Kind::kAllocate) {
        if (free > 0) {
          --free;
        } else {
          ++appends;
        }
      }
    }
    const std::size_t slots = sh.flows.size() + appends;
    grow_capacity(sh.flows, slots);
    grow_capacity(sh.base_rates, slots);
    grow_capacity(sh.groups, slots);
    grow_capacity(sh.global_ids, slots);
    sh.model->reserve_churn(slots, patches);
  }
  return touched;
}

void ShardedCostModel::apply_shard_churn(int s,
                                         const std::vector<VmFlow>& flows) {
  using Kind = ChurnEvent::Kind;
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  std::vector<ChurnEvent>& bucket = buckets_[static_cast<std::size_t>(s)];
  for (const ChurnEvent& e : bucket) {
    const auto l = static_cast<std::size_t>(e.local.value());
    // Valid for re-rates and arrivals, whose ids route_churn checked.
    auto flow = [&]() -> const VmFlow& {
      return flows[static_cast<std::size_t>(e.global.value())];
    };
    switch (e.kind) {
      case Kind::kDepart:
        sh.flows[l].rate = 0.0;
        sh.base_rates[l] = 0.0;
        sh.model->rebase_flow(e.local, 0.0, sh.groups[l]);
        --sh.live;
        break;
      case Kind::kRerate: {
        const double base = flow().rate;
        sh.flows[l].rate = base;
        sh.base_rates[l] = base;
        sh.model->rebase_flow(e.local, base, sh.groups[l]);
        break;
      }
      case Kind::kRespawn: {
        // Same-pod re-spawn (or same-epoch depart+arrive): overwrite in
        // place. The slot may still carry a non-zero base — rebase_flow
        // subtracts it at the snapshot endpoints before adding the new.
        const VmFlow& f = flow();
        if (sh.base_rates[l] == 0.0) ++sh.live;
        sh.flows[l] = f;
        sh.base_rates[l] = f.rate;
        sh.groups[l] = f.group;
        sh.model->rebase_flow(e.local, f.rate, f.group);
        break;
      }
      case Kind::kVacate:
        if (sh.base_rates[l] != 0.0) {
          sh.model->rebase_flow(e.local, 0.0, sh.groups[l]);
          --sh.live;
        }
        sh.flows[l].rate = 0.0;
        sh.base_rates[l] = 0.0;
        sh.global_ids[l] = FlowId::invalid();
        // Free-lists stay descending, so pop_back re-uses the smallest
        // slot.
        sh.free_locals.insert(
            std::lower_bound(sh.free_locals.begin(), sh.free_locals.end(),
                             e.local, std::greater<FlowId>()),
            e.local);
        break;
      case Kind::kAllocate:
        allocate_local(s, e.global, flow());
        break;
    }
  }
  bucket.clear();
  // Each queue drains in the order it was filled, so every cell sees the
  // same additions in the same order at any width.
  sh.model->drain_patches();
}

}  // namespace ppdc
