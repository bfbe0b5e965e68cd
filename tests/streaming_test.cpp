// StreamingWorkload contract (workload/streaming.hpp): epoch 0 is
// bit-identical to the one-shot generator, churn is a deterministic
// function of the seed, freed slots are re-used smallest-first, and the
// per-epoch churn lists are sorted, disjoint, and consistent with the
// slot-dense flow vector. advance() is draw() then commit(), and matches
// a reference of the original single-pass advance() bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "topology/fat_tree.hpp"
#include "util/require.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

VmPlacementConfig small_config(int pairs) {
  VmPlacementConfig cfg;
  cfg.num_pairs = pairs;
  cfg.intra_rack_fraction = 0.8;
  return cfg;
}

StreamingChurnConfig busy_churn() {
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 30;
  churn.departure_prob = 0.1;
  churn.rerate_prob = 0.25;
  return churn;
}

void expect_same_flows(const std::vector<VmFlow>& a,
                       const std::vector<VmFlow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_host, b[i].src_host) << "flow " << i;
    EXPECT_EQ(a[i].dst_host, b[i].dst_host) << "flow " << i;
    EXPECT_EQ(a[i].rate, b[i].rate) << "flow " << i;
    EXPECT_EQ(a[i].group, b[i].group) << "flow " << i;
  }
}

TEST(StreamingWorkload, EpochZeroMatchesOneShotGenerator) {
  const Topology topo = build_fat_tree(4);
  const VmPlacementConfig cfg = small_config(200);

  Rng gen_rng(7);
  const std::vector<VmFlow> expected = generate_vm_flows(topo, cfg, gen_rng);

  const StreamingWorkload workload(topo, cfg, busy_churn(), Rng(7));
  expect_same_flows(workload.flows(), expected);
  EXPECT_EQ(workload.live_flows(), 200);
}

TEST(StreamingWorkload, SamplerMatchesGeneratorPerIndex) {
  const Topology topo = build_fat_tree(4);
  const VmPlacementConfig cfg = small_config(64);

  Rng gen_rng(11);
  const std::vector<VmFlow> expected = generate_vm_flows(topo, cfg, gen_rng);

  const VmFlowSampler sampler(topo, cfg);
  Rng sample_rng(11);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const VmFlow f = sampler.sample(sample_rng);
    EXPECT_EQ(f.src_host, expected[i].src_host) << "flow " << i;
    EXPECT_EQ(f.rate, expected[i].rate) << "flow " << i;
    EXPECT_EQ(f.group, expected[i].group) << "flow " << i;
  }
}

TEST(StreamingWorkload, AdvanceIsDeterministic) {
  const Topology topo = build_fat_tree(4);
  const VmPlacementConfig cfg = small_config(150);

  StreamingWorkload a(topo, cfg, busy_churn(), Rng(42));
  StreamingWorkload b(topo, cfg, busy_churn(), Rng(42));
  for (int epoch = 0; epoch < 8; ++epoch) {
    const FlowChurn ca = a.advance();
    const FlowChurn cb = b.advance();
    EXPECT_EQ(ca.departed, cb.departed) << "epoch " << epoch;
    EXPECT_EQ(ca.arrived, cb.arrived) << "epoch " << epoch;
    EXPECT_EQ(ca.rerated, cb.rerated) << "epoch " << epoch;
    expect_same_flows(a.flows(), b.flows());
    EXPECT_EQ(a.live_flows(), b.live_flows());
  }
}

TEST(StreamingWorkload, ChurnListsSortedDisjointAndConsistent) {
  const Topology topo = build_fat_tree(4);
  StreamingWorkload workload(topo, small_config(120), busy_churn(), Rng(3));

  for (int epoch = 0; epoch < 10; ++epoch) {
    const FlowChurn churn = workload.advance();
    EXPECT_TRUE(std::is_sorted(churn.departed.begin(), churn.departed.end()));
    EXPECT_TRUE(std::is_sorted(churn.arrived.begin(), churn.arrived.end()));
    EXPECT_TRUE(std::is_sorted(churn.rerated.begin(), churn.rerated.end()));
    for (const FlowId id : churn.departed) {
      // A same-epoch depart+arrive slot is reported only as arrived.
      EXPECT_FALSE(std::binary_search(churn.arrived.begin(),
                                      churn.arrived.end(), id));
      EXPECT_EQ(workload.flows()[id.value()].rate, 0.0);
    }
    for (const FlowId id : churn.arrived) {
      EXPECT_GT(workload.flows()[id.value()].rate, 0.0);
    }
    // live_flows() tracks exactly the slots carrying traffic.
    int live = 0;
    for (const VmFlow& f : workload.flows()) {
      if (f.rate > 0.0) ++live;
    }
    EXPECT_EQ(workload.live_flows(), live);
  }
}

TEST(StreamingWorkload, FreedSlotsReusedSmallestFirst) {
  const Topology topo = build_fat_tree(4);
  // Everything departs each epoch, fewer arrivals than departures: the
  // arrivals must land in the smallest vacated slots, never extend the
  // vector.
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 5;
  churn.departure_prob = 1.0;
  StreamingWorkload workload(topo, small_config(40), churn, Rng(9));

  const FlowChurn first = workload.advance();
  ASSERT_EQ(static_cast<int>(first.arrived.size()), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(first.arrived[static_cast<std::size_t>(i)], FlowId{i});
  }
  EXPECT_EQ(workload.flows().size(), 40u);
  EXPECT_EQ(workload.live_flows(), 5);

  // With no free slots left, arrivals extend the vector densely.
  StreamingChurnConfig grow;
  grow.arrivals_per_epoch = 3;
  StreamingWorkload growing(topo, small_config(10), grow, Rng(9));
  const FlowChurn grown = growing.advance();
  ASSERT_EQ(static_cast<int>(grown.arrived.size()), 3);
  EXPECT_EQ(grown.arrived[0], FlowId{10});
  EXPECT_EQ(grown.arrived[2], FlowId{12});
  EXPECT_EQ(growing.flows().size(), 13u);
}

/// The churn epoch as the workload first implemented it: per-slot vacancy
/// and respawn flags, one checked bernoulli() per flow. An independent
/// reference for the draw/commit split.
struct ReferenceWorkload {
  VmFlowSampler sampler;
  StreamingChurnConfig churn;
  Rng rng;
  std::vector<VmFlow> flows;
  std::vector<FlowId> free;  // sorted descending

  ReferenceWorkload(const Topology& topo, const VmPlacementConfig& cfg,
                    const StreamingChurnConfig& c, Rng r)
      : sampler(topo, cfg), churn(c), rng(r) {
    for (int i = 0; i < cfg.num_pairs; ++i) {
      flows.push_back(sampler.sample(rng));
    }
  }

  FlowChurn advance() {
    FlowChurn out;
    std::vector<char> freed(flows.size(), 0);
    for (const FlowId id : free) {
      freed[static_cast<std::size_t>(id.value())] = 1;
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (freed[i] != 0 || !rng.bernoulli(churn.departure_prob)) continue;
      flows[i].rate = 0.0;
      freed[i] = 1;
      out.departed.push_back(FlowId{static_cast<std::int32_t>(i)});
      free.push_back(FlowId{static_cast<std::int32_t>(i)});
    }
    std::sort(free.begin(), free.end(), std::greater<FlowId>());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (freed[i] != 0 || !rng.bernoulli(churn.rerate_prob)) continue;
      flows[i].rate = sampler.config().rates.sample(rng);
      out.rerated.push_back(FlowId{static_cast<std::int32_t>(i)});
    }
    for (int a = 0; a < churn.arrivals_per_epoch; ++a) {
      const VmFlow f = sampler.sample(rng);
      if (!free.empty()) {
        flows[static_cast<std::size_t>(free.back().value())] = f;
        out.arrived.push_back(free.back());
        free.pop_back();
      } else {
        out.arrived.push_back(flow_count(flows));
        flows.push_back(f);
      }
    }
    std::vector<char> respawned(flows.size(), 0);
    for (const FlowId id : out.arrived) {
      respawned[static_cast<std::size_t>(id.value())] = 1;
    }
    std::erase_if(out.departed, [&](FlowId id) {
      return respawned[static_cast<std::size_t>(id.value())] != 0;
    });
    return out;
  }
};

void expect_same_churn(const FlowChurn& a, const FlowChurn& b, int epoch) {
  EXPECT_EQ(a.departed, b.departed) << "epoch " << epoch;
  EXPECT_EQ(a.arrived, b.arrived) << "epoch " << epoch;
  EXPECT_EQ(a.rerated, b.rerated) << "epoch " << epoch;
}

void expect_same_snapshot(const StreamingWorkload::Snapshot& a,
                          const StreamingWorkload::Snapshot& b) {
  expect_same_flows(a.flows, b.flows);
  EXPECT_EQ(a.free_slots, b.free_slots);
  EXPECT_EQ(a.rng, b.rng);
}

TEST(StreamingWorkload, DrawThenCommitMatchesAdvance) {
  const Topology topo = build_fat_tree(4);
  // 15 arrivals an epoch against a fifth of the live flows departing:
  // arrivals re-use every free slot, the epoch's own departures among them
  // (re-spawns), and append a tail until the population settles near 75.
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 15;
  churn.departure_prob = 0.2;
  churn.rerate_prob = 0.3;
  const VmPlacementConfig cfg = small_config(60);

  StreamingWorkload advanced(topo, cfg, churn, Rng(17));
  StreamingWorkload committed(topo, cfg, churn, Rng(17));
  ReferenceWorkload reference(topo, cfg, churn, Rng(17));
  ChurnDraw d;  // reused across epochs, as the engine does
  int respawn_epochs = 0;
  int append_epochs = 0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const std::size_t slots = committed.flows().size();
    const std::vector<FlowId> vacant = committed.free_slots();

    const FlowChurn want = reference.advance();
    const FlowChurn got = advanced.advance();
    committed.draw(d);
    committed.commit(d);
    expect_same_churn(got, want, epoch);
    expect_same_churn(d.churn, want, epoch);
    expect_same_flows(advanced.flows(), reference.flows);
    expect_same_flows(committed.flows(), reference.flows);
    EXPECT_EQ(advanced.free_slots(), reference.free);
    EXPECT_EQ(committed.free_slots(), reference.free);
    EXPECT_EQ(advanced.snapshot().rng, reference.rng.state());
    EXPECT_EQ(committed.snapshot().rng, reference.rng.state());

    bool respawned = false;
    bool appended = false;
    for (const FlowId id : want.arrived) {
      if (static_cast<std::size_t>(id.value()) >= slots) {
        appended = true;
      } else if (std::find(vacant.begin(), vacant.end(), id) ==
                 vacant.end()) {
        respawned = true;  // live before the epoch: departed and re-used
      }
    }
    respawn_epochs += respawned ? 1 : 0;
    append_epochs += appended ? 1 : 0;
  }
  EXPECT_GT(respawn_epochs, 10);
  EXPECT_GE(append_epochs, 3);
}

TEST(StreamingWorkload, DrawDoesNotChangeTheWorkload) {
  const Topology topo = build_fat_tree(4);
  StreamingWorkload workload(topo, small_config(80), busy_churn(), Rng(5));
  for (int epoch = 0; epoch < 3; ++epoch) (void)workload.advance();

  const StreamingWorkload::Snapshot before = workload.snapshot();
  ChurnDraw first;
  ChurnDraw second;
  workload.draw(first);
  expect_same_snapshot(workload.snapshot(), before);
  workload.draw(second);
  expect_same_snapshot(workload.snapshot(), before);

  expect_same_churn(first.churn, second.churn, 0);
  EXPECT_GT(first.churn.total(), 0u);
  EXPECT_EQ(first.rerates, second.rerates);
  expect_same_flows(first.arrivals, second.arrivals);
  EXPECT_EQ(first.free_slots, second.free_slots);
  EXPECT_EQ(first.rng.state(), second.rng.state());

  // Once one draw is committed, the other is stale.
  workload.commit(first);
  EXPECT_THROW(workload.commit(second), PpdcError);
}

TEST(StreamingWorkload, RejectsInvalidChurnConfig) {
  const Topology topo = build_fat_tree(4);
  StreamingChurnConfig churn;
  churn.departure_prob = 1.5;
  EXPECT_THROW(StreamingWorkload(topo, small_config(10), churn, Rng(1)),
               PpdcError);
  churn.departure_prob = 0.0;
  churn.arrivals_per_epoch = -1;
  EXPECT_THROW(StreamingWorkload(topo, small_config(10), churn, Rng(1)),
               PpdcError);
  churn.arrivals_per_epoch = 0;
  churn.rerate_prob = -0.1;
  EXPECT_THROW(StreamingWorkload(topo, small_config(10), churn, Rng(1)),
               PpdcError);
}

}  // namespace
}  // namespace ppdc
