#include "core/sharded_cost_model.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "graph/graph.hpp"
#include "util/executor.hpp"
#include "util/require.hpp"

namespace ppdc {

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
  std::vector<int> touched(shards_.size(), 0);

  // Departures: the slot's base drops to 0 in place. It stays mapped to
  // its shard (endpoints kept valid, contributes nothing) until an
  // arrival re-uses its global id.
  for (const FlowId g : churn.departed) {
    const auto gi = static_cast<std::size_t>(g.value());
    PPDC_REQUIRE(gi < flow_shard_.size() && flow_shard_[gi] >= 0,
                 "departed flow " + std::to_string(g.value()) +
                     " was never mapped to a shard");
    Shard& sh = *shards_[static_cast<std::size_t>(flow_shard_[gi])];
    const FlowId local = flow_local_[gi];
    const auto l = static_cast<std::size_t>(local.value());
    sh.flows[l].rate = 0.0;
    sh.base_rates[l] = 0.0;
    sh.model->rebase_flow(local, 0.0, sh.groups[l]);
    --sh.live;
    ++touched[static_cast<std::size_t>(flow_shard_[gi])];
  }

  // Re-rates: base re-drawn, endpoints and group unchanged.
  for (const FlowId g : churn.rerated) {
    const auto gi = static_cast<std::size_t>(g.value());
    PPDC_REQUIRE(gi < flow_shard_.size() && flow_shard_[gi] >= 0,
                 "re-rated flow " + std::to_string(g.value()) +
                     " was never mapped to a shard");
    Shard& sh = *shards_[static_cast<std::size_t>(flow_shard_[gi])];
    const FlowId local = flow_local_[gi];
    const auto l = static_cast<std::size_t>(local.value());
    const double base = flows[gi].rate;
    sh.flows[l].rate = base;
    sh.base_rates[l] = base;
    sh.model->rebase_flow(local, base, sh.groups[l]);
    ++touched[static_cast<std::size_t>(flow_shard_[gi])];
  }

  // Arrivals: a re-used global slot stays in its shard when the new
  // ingress pod matches, otherwise the old local slot is freed and the
  // flow allocates in its new shard. Appended global ids always allocate.
  for (const FlowId g : churn.arrived) {
    const auto gi = static_cast<std::size_t>(g.value());
    const VmFlow& f = flows[gi];
    const int new_shard = map_->shard_of(f.src_host);
    if (gi < flow_shard_.size() && flow_shard_[gi] >= 0) {
      const int old_shard = flow_shard_[gi];
      Shard& old_sh = *shards_[static_cast<std::size_t>(old_shard)];
      const FlowId local = flow_local_[gi];
      const auto l = static_cast<std::size_t>(local.value());
      if (old_shard == new_shard) {
        // Same-pod re-spawn (or same-epoch depart+arrive): overwrite in
        // place. The slot may still carry a non-zero base — rebase_flow
        // subtracts it at the snapshot endpoints before adding the new.
        if (old_sh.base_rates[l] == 0.0) ++old_sh.live;
        old_sh.flows[l] = f;
        old_sh.base_rates[l] = f.rate;
        old_sh.groups[l] = f.group;
        old_sh.model->rebase_flow(local, f.rate, f.group);
        ++touched[static_cast<std::size_t>(old_shard)];
        continue;
      }
      // Cross-pod re-spawn: vacate the old local slot.
      if (old_sh.base_rates[l] != 0.0) {
        old_sh.model->rebase_flow(local, 0.0, old_sh.groups[l]);
        --old_sh.live;
      }
      old_sh.flows[l].rate = 0.0;
      old_sh.base_rates[l] = 0.0;
      old_sh.global_ids[l] = FlowId::invalid();
      // Free-lists stay descending, so pop_back re-uses the smallest slot.
      old_sh.free_locals.insert(
          std::lower_bound(old_sh.free_locals.begin(),
                           old_sh.free_locals.end(), local,
                           std::greater<FlowId>()),
          local);
      ++touched[static_cast<std::size_t>(old_shard)];
    } else if (gi >= flow_shard_.size()) {
      PPDC_REQUIRE(gi == flow_shard_.size(),
                   "arrived flow " + std::to_string(g.value()) +
                       " skips over unmapped global slots");
      flow_shard_.push_back(-1);
      flow_local_.push_back(FlowId::invalid());
    }
    allocate_local(new_shard, g, f);
    ++touched[static_cast<std::size_t>(new_shard)];
  }

  // The loops above only queued the O(|V_s|) row patches. Drain every
  // churned shard at once, one shard per task: shards share no row, and
  // each queue drains in the order it was filled, so every cell sees the
  // same additions in the same order at any width.
  std::vector<CostModel*> queued;
  for (auto& shard : shards_) {
    CostModel* model = shard->model.get();
    if (model->has_queued_patches()) queued.push_back(model);
  }
  parallel_for(queued.size(), 1,
               [&](std::size_t k) noexcept { queued[k]->drain_patches(); });
  return touched;
}

}  // namespace ppdc
