// StreamingWorkload contract (workload/streaming.hpp): epoch 0 is
// bit-identical to the one-shot generator, churn is a deterministic
// function of the seed, freed slots are re-used smallest-first, and the
// per-epoch churn lists are sorted, disjoint, and consistent with the
// slot-dense flow vector.
#include <gtest/gtest.h>

#include <algorithm>

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
