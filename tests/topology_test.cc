// Multi-tier relay topology tests.
//
// The load-bearing anchor: a tree of *pass-through* relays (unconstrained
// ingress/egress, zero latency, no loss) must reproduce the flat topology
// bitwise — including against the historical single-cache goldens of
// tests/golden_test.cc — so the flat engine is exactly the degenerate case
// of the relay engine. The remaining tests cover the TopologySpec
// structure, the Network routing tables, the RelayAgent store-and-forward
// semantics, and the matched-bandwidth topology sweep.

#include <gtest/gtest.h>

#include <vector>

#include "core/relay.h"
#include "core/system.h"
#include "data/topology.h"
#include "exp/experiment.h"
#include "exp/multicache.h"
#include "net/network.h"
#include "util/shard_pool.h"

namespace besync {
namespace {

// ------------------------------------------------------------ TopologySpec

TEST(TopologySpecTest, MakeRelayTreeShapes) {
  // 8 leaves, fanout 2, one relay tier: 4 relays (nodes 8..11), all tier-1.
  TopologySpec one = MakeRelayTree(8, 2, 1);
  EXPECT_EQ(one.num_leaves, 8);
  EXPECT_EQ(one.num_nodes(), 12);
  EXPECT_EQ(one.num_relays(), 4);
  EXPECT_EQ(one.depth(), 2);
  for (int leaf = 0; leaf < 8; ++leaf) EXPECT_EQ(one.parent[leaf], 8 + leaf / 2);
  for (int relay = 8; relay < 12; ++relay) EXPECT_EQ(one.parent[relay], -1);
  EXPECT_TRUE(one.Validate(8).ok());

  // Two relay tiers: 4 + 2 relays, leaves at tier 3.
  TopologySpec two = MakeRelayTree(8, 2, 2);
  EXPECT_EQ(two.num_nodes(), 14);
  EXPECT_EQ(two.num_relays(), 6);
  EXPECT_EQ(two.depth(), 3);
  EXPECT_EQ(two.parent[8], 12);
  EXPECT_EQ(two.parent[11], 13);
  EXPECT_EQ(two.parent[12], -1);
  EXPECT_EQ(two.TierOf(0), 3);
  EXPECT_EQ(two.TierOf(8), 2);
  EXPECT_EQ(two.TierOf(12), 1);
  EXPECT_TRUE(two.Validate(8).ok());

  // Zero tiers is the flat topology.
  TopologySpec flat = MakeRelayTree(8, 2, 0);
  EXPECT_TRUE(flat.flat());
  EXPECT_TRUE(flat.Validate(8).ok());
  EXPECT_EQ(flat.depth(), 1);
  EXPECT_EQ(TopologyLabel(flat), "flat");
  EXPECT_EQ(TopologyLabel(two), "tree(relays=6,depth=3)");
}

TEST(TopologySpecTest, SubtreeLeafCountsAndOrder) {
  TopologySpec spec = MakeRelayTree(8, 2, 2);
  const std::vector<int64_t> counts = spec.SubtreeLeafCounts();
  for (int leaf = 0; leaf < 8; ++leaf) EXPECT_EQ(counts[leaf], 1);
  for (int relay = 8; relay < 12; ++relay) EXPECT_EQ(counts[relay], 2);
  for (int relay = 12; relay < 14; ++relay) EXPECT_EQ(counts[relay], 4);
  // Bottom-up: the tier just above the leaves before the top tier.
  const std::vector<int32_t> bottom_up = spec.RelaysBottomUp();
  ASSERT_EQ(bottom_up.size(), 6u);
  EXPECT_EQ(bottom_up[0], 8);
  EXPECT_EQ(bottom_up[3], 11);
  EXPECT_EQ(bottom_up[4], 12);
  EXPECT_EQ(bottom_up[5], 13);
}

TEST(TopologySpecTest, ValidateRejectsMalformedTrees) {
  TopologySpec spec = MakeRelayTree(4, 2, 1);
  EXPECT_FALSE(spec.Validate(3).ok());  // leaf count mismatch

  TopologySpec leaf_parent = spec;
  leaf_parent.parent[0] = 1;  // a leaf cannot be a parent
  EXPECT_FALSE(leaf_parent.Validate(4).ok());

  TopologySpec cycle = spec;
  cycle.parent.push_back(-1);  // node 6
  cycle.parent[4] = 6;
  cycle.parent[6] = 4;  // 4 <-> 6
  EXPECT_FALSE(cycle.Validate(4).ok());

  TopologySpec childless = spec;
  childless.parent.push_back(-1);  // relay 6 with no children
  EXPECT_FALSE(childless.Validate(4).ok());

  TopologySpec bad_loss = spec;
  bad_loss.edge_loss = {0.0, 0.0, 0.0, 0.0, 1.5};
  EXPECT_FALSE(bad_loss.Validate(4).ok());
}

// ----------------------------------------------------------- Network routing

TEST(NetworkTopologyTest, RoutingTables) {
  NetworkConfig config;
  config.num_sources = 2;
  config.num_caches = 8;
  config.topology = MakeRelayTree(8, 2, 2);
  Rng rng(1);
  Network network(config, &rng);
  EXPECT_TRUE(network.has_relays());
  EXPECT_EQ(network.num_nodes(), 14);
  // Leaf 5's path: 5 -> 10 -> 13; refreshes enter at the tier-1 ancestor.
  EXPECT_EQ(network.first_hop(5), 13);
  EXPECT_EQ(network.NextHop(13, 5), 10);
  EXPECT_EQ(network.NextHop(10, 5), 5);
  // Leaf 0 lives under the other top relay.
  EXPECT_EQ(network.first_hop(0), 12);
  EXPECT_EQ(network.NextHop(12, 0), 8);
  // Downstream order visits parents before children.
  const std::vector<int32_t>& down = network.downstream_relays();
  ASSERT_EQ(down.size(), 6u);
  EXPECT_EQ(down[0], 12);
  EXPECT_EQ(down[1], 13);
  // Only the top relays are source-fed.
  EXPECT_EQ(network.tier1_nodes(), (std::vector<int32_t>{12, 13}));
}

TEST(NetworkTopologyTest, ControlMailPumpsToTierOne) {
  NetworkConfig config;
  config.num_sources = 1;
  config.num_caches = 4;
  config.topology = MakeRelayTree(4, 2, 1);  // relays 4, 5
  Rng rng(1);
  Network network(config, &rng);
  ShardPool pool(1);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(/*cache_id=*/3, /*source_index=*/0, feedback);
  network.SendToSource(/*cache_id=*/0, /*source_index=*/0, feedback);
  // Not deliverable until the next tick, exactly like the flat channel.
  network.BeginTick(0.0, 1.0, &pool);
  EXPECT_EQ(network.PumpControlUpstream(), 2);
  EXPECT_TRUE(network.TakeSourceMail(/*node=*/0, 0).empty());
  const std::vector<Message> at_four = network.TakeSourceMail(/*node=*/4, 0);
  ASSERT_EQ(at_four.size(), 1u);
  EXPECT_EQ(at_four[0].cache_id, 0);  // originating leaf survives the hops
  const std::vector<Message> at_five = network.TakeSourceMail(/*node=*/5, 0);
  ASSERT_EQ(at_five.size(), 1u);
  EXPECT_EQ(at_five[0].cache_id, 3);
}

// -------------------------------------------------------------- RelayAgent

Message MakeRefresh(int32_t cache_id, double priority, double send_time,
                    int64_t cost = 1) {
  Message message;
  message.kind = MessageKind::kRefresh;
  message.cache_id = cache_id;
  message.forward_priority = priority;
  message.send_time = send_time;
  message.cost = cost;
  return message;
}

TEST(RelayAgentTest, FifoPreservesArrivalOrder) {
  RelayAgent relay(4, RelayForwardPolicy::kFifo, /*ingress_latency=*/0.0);
  relay.OnArrival(MakeRefresh(0, 1.0, 0.0), 1.0);
  relay.OnArrival(MakeRefresh(1, 9.0, 0.0), 1.0);
  relay.OnArrival(MakeRefresh(2, 5.0, 0.0), 1.0);
  std::vector<int32_t> order;
  const int64_t sent = relay.Forward(
      1.0, [](int64_t) { return true; },
      [&order](const Message& m) { order.push_back(m.cache_id); });
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(order, (std::vector<int32_t>{0, 1, 2}));
}

TEST(RelayAgentTest, PriorityDrainsHighestFirstWithFifoTies) {
  RelayAgent relay(4, RelayForwardPolicy::kPriority, 0.0);
  relay.OnArrival(MakeRefresh(0, 1.0, 0.0), 1.0);
  relay.OnArrival(MakeRefresh(1, 9.0, 0.0), 1.0);
  relay.OnArrival(MakeRefresh(2, 9.0, 0.0), 1.0);  // tie with cache 1
  relay.OnArrival(MakeRefresh(3, 5.0, 0.0), 1.0);
  std::vector<int32_t> order;
  relay.Forward(
      1.0, [](int64_t) { return true; },
      [&order](const Message& m) { order.push_back(m.cache_id); });
  EXPECT_EQ(order, (std::vector<int32_t>{1, 2, 3, 0}));
}

TEST(RelayAgentTest, EgressBudgetBoundsForwarding) {
  RelayAgent relay(4, RelayForwardPolicy::kFifo, 0.0);
  for (int i = 0; i < 5; ++i) relay.OnArrival(MakeRefresh(i, 1.0, 0.0), 1.0);
  int64_t budget = 2;
  std::vector<int32_t> order;
  const int64_t sent = relay.Forward(
      1.0,
      [&budget](int64_t cost) {
        if (budget <= 0) return false;
        budget -= cost;
        return true;
      },
      [&order](const Message& m) { order.push_back(m.cache_id); });
  EXPECT_EQ(sent, 2);
  EXPECT_EQ(relay.store_size(), 3u);
  // Denied messages are forwarded first (FIFO) next time, and their store
  // wait is accounted.
  relay.Forward(
      3.0, [](int64_t) { return true; },
      [&order](const Message& m) { order.push_back(m.cache_id); });
  EXPECT_EQ(order, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(relay.forwarded(), 5);
  // Messages 2..4 waited 2 s each in the store.
  EXPECT_DOUBLE_EQ(relay.total_queue_delay(), 6.0);
  EXPECT_DOUBLE_EQ(relay.total_transit_delay(), 2.0 * 1.0 + 3.0 * 3.0);
}

TEST(RelayAgentTest, IngressLatencyDelaysEligibility) {
  RelayAgent relay(4, RelayForwardPolicy::kFifo, /*ingress_latency=*/5.0);
  relay.OnArrival(MakeRefresh(0, 1.0, 0.0), 1.0);
  relay.OnArrival(MakeRefresh(1, 1.0, 0.0), 3.0);
  std::vector<int32_t> order;
  auto sink = [&order](const Message& m) { order.push_back(m.cache_id); };
  EXPECT_EQ(relay.Forward(4.0, [](int64_t) { return true; }, sink), 0);
  EXPECT_EQ(relay.Forward(6.0, [](int64_t) { return true; }, sink), 1);
  EXPECT_EQ(relay.Forward(8.0, [](int64_t) { return true; }, sink), 1);
  EXPECT_EQ(order, (std::vector<int32_t>{0, 1}));
}

// ------------------------------------- degenerate pass-through equivalence

/// The historical CooperativeTrigger golden (tests/golden_test.cc), with a
/// configurable relay-tree depth layered on the single cache. Pass-through
/// relays must not move a single bit of it.
ExperimentConfig GoldenTriggerConfig(int relay_tiers) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 25;
  config.workload.seed = 42;
  config.workload.relay_tiers = relay_tiers;
  config.workload.relay_fanout = 2;
  config.harness.warmup = 50.0;
  config.harness.measure = 300.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

TEST(DegenerateTreeTest, PassThroughTreeReproducesGoldenRun) {
  for (int tiers : {1, 2, 3}) {
    const auto result = RunExperiment(GoldenTriggerConfig(tiers));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The exact pre-relay golden values — equality, not tolerance.
    EXPECT_EQ(result->total_weighted_divergence, 226.69154803746471)
        << "relay_tiers=" << tiers;
    EXPECT_EQ(result->scheduler.refreshes_sent, 3150);
    EXPECT_EQ(result->scheduler.feedback_sent, 436);
    // The relays did real work (every delivered refresh crossed each tier)
    // without perturbing the outcome.
    EXPECT_GT(result->scheduler.relays_forwarded, 0);
    EXPECT_EQ(result->scheduler.relay_queue_delay_mean, 0.0);
  }
}

/// Runs a multi-cache grid point flat and as a pass-through tree; every
/// reported number must match exactly (bitwise doubles).
void ExpectTreeEqualsFlat(ExperimentConfig flat_config, int relay_tiers,
                          int fanout) {
  const auto flat = RunExperiment(flat_config);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ExperimentConfig tree_config = flat_config;
  tree_config.workload.relay_tiers = relay_tiers;
  tree_config.workload.relay_fanout = fanout;
  const auto tree = RunExperiment(tree_config);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  EXPECT_EQ(tree->total_weighted_divergence, flat->total_weighted_divergence);
  ASSERT_EQ(tree->per_cache_weighted.size(), flat->per_cache_weighted.size());
  for (size_t c = 0; c < flat->per_cache_weighted.size(); ++c) {
    EXPECT_EQ(tree->per_cache_weighted[c], flat->per_cache_weighted[c]) << c;
  }
  EXPECT_EQ(tree->per_object_weighted, flat->per_object_weighted);
  EXPECT_EQ(tree->per_object_unweighted, flat->per_object_unweighted);
  EXPECT_EQ(tree->scheduler.refreshes_sent, flat->scheduler.refreshes_sent);
  EXPECT_EQ(tree->scheduler.refreshes_delivered,
            flat->scheduler.refreshes_delivered);
  EXPECT_EQ(tree->scheduler.feedback_sent, flat->scheduler.feedback_sent);
  EXPECT_EQ(tree->scheduler.mean_threshold, flat->scheduler.mean_threshold);
}

TEST(DegenerateTreeTest, MultiCachePartitionedTreeEqualsFlat) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 10;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 5;
  config.harness.warmup = 40.0;
  config.harness.measure = 300.0;
  config.cache_bandwidth_avg = 6.0;
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/1, /*fanout=*/2);
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/2, /*fanout=*/2);
}

TEST(DegenerateTreeTest, EquivalenceHoldsWithLossAndFluctuatingBandwidth) {
  // Loss consumes the scheduler RNG per leaf and fluctuating bandwidth
  // consumes it per link — the exact draws the relay construction must not
  // disturb.
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 10;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kZipfOverlap;
  config.workload.seed = 77;
  config.harness.warmup = 30.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = 8.0;
  config.bandwidth_change_rate = 0.05;
  config.loss_rate = 0.1;
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/1, /*fanout=*/2);
  ExpectTreeEqualsFlat(config, /*relay_tiers=*/2, /*fanout=*/3);
}

// ----------------------------------------- constrained-tree behavior

TEST(RelayTreeTest, OversubscribedRelaysIncreaseDivergence) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 10;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 5;
  config.workload.relay_tiers = 1;
  config.workload.relay_fanout = 2;
  config.harness.warmup = 40.0;
  config.harness.measure = 300.0;
  config.cache_bandwidth_avg = 6.0;

  // Pass-through tree == flat baseline.
  const auto pass_through = RunExperiment(config);
  ASSERT_TRUE(pass_through.ok());
  // Relay edges at half their subtree demand throttle the tree.
  config.workload.relay_bandwidth_factor = 0.5;
  const auto throttled = RunExperiment(config);
  ASSERT_TRUE(throttled.ok());
  EXPECT_GT(throttled->total_weighted_divergence,
            pass_through->total_weighted_divergence);
  EXPECT_LT(throttled->scheduler.refreshes_delivered,
            pass_through->scheduler.refreshes_delivered);
  EXPECT_GT(throttled->scheduler.relay_transit_delay_mean, 0.0);
  // Control mail kept flowing upstream through the relays.
  EXPECT_GT(throttled->scheduler.relay_control_moved, 0);
  EXPECT_GT(throttled->scheduler.feedback_sent, 0);
}

TEST(RelayTreeTest, BaselineSchedulersRejectTrees) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCGM1;
  config.workload.num_sources = 2;
  config.workload.objects_per_source = 5;
  config.workload.relay_tiers = 1;
  config.harness.warmup = 10.0;
  config.harness.measure = 50.0;
  const auto result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
}

TEST(RelayTreeTest, TopologySweepMatchesTotalBandwidth) {
  TopologySweepConfig config;
  config.base.workload.num_sources = 8;
  config.base.workload.objects_per_source = 5;
  config.base.workload.num_caches = 8;
  config.base.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.base.workload.seed = 3;
  config.base.harness.warmup = 20.0;
  config.base.harness.measure = 100.0;
  config.base.cache_bandwidth_avg = 4.0;
  config.relay_tier_counts = {0, 1};
  config.fanout = 4;
  const auto points = RunTopologySweep(config);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  // flat + (fifo, priority) for the tree.
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[0].relay_tiers, 0);
  EXPECT_EQ((*points)[0].num_edges, 8);
  EXPECT_DOUBLE_EQ((*points)[0].leaf_edge_bandwidth, 4.0);
  // Tree: 8 leaf edges (weight 1) + 2 relay edges (weight 4) share
  // 8 x 4 = 32 over total weight 16 -> leaf edges get 2.0 each.
  EXPECT_EQ((*points)[1].relay_tiers, 1);
  EXPECT_EQ((*points)[1].num_edges, 10);
  EXPECT_DOUBLE_EQ((*points)[1].leaf_edge_bandwidth, 2.0);
  EXPECT_EQ((*points)[1].forward, RelayForwardPolicy::kFifo);
  EXPECT_EQ((*points)[2].forward, RelayForwardPolicy::kPriority);
  // Identical workloads: the two forwarding policies deliver comparable
  // refresh volume, and every point produced a real run.
  for (const TopologySweepPoint& point : *points) {
    EXPECT_GT(point.result.scheduler.refreshes_delivered, 0);
  }
}

}  // namespace
}  // namespace besync
