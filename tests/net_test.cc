#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/bandwidth.h"
#include "net/link.h"
#include "net/network.h"
#include "util/shard_pool.h"

namespace besync {
namespace {

std::unique_ptr<BandwidthModel> ConstantBandwidth(double rate) {
  return std::make_unique<BandwidthModel>(std::make_unique<ConstantFluctuation>(rate));
}

TEST(BandwidthModelTest, IntegerRateYieldsExactBudget) {
  BandwidthModel model(std::make_unique<ConstantFluctuation>(5.0));
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(model.BudgetForTick(t, 1.0), 5);
  }
}

TEST(BandwidthModelTest, FractionalRateAccumulatesCredit) {
  BandwidthModel model(std::make_unique<ConstantFluctuation>(0.5));
  int64_t total = 0;
  for (int t = 0; t < 100; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_EQ(total, 50);  // 0.5 msg/s over 100 s
}

TEST(BandwidthModelTest, SineAveragesOut) {
  Rng rng(4);
  BandwidthModel model(MakeBandwidthFluctuation(10.0, 0.25, &rng));
  int64_t total = 0;
  const int kTicks = 1000;
  for (int t = 0; t < kTicks; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_NEAR(static_cast<double>(total) / kTicks, 10.0, 0.5);
}

TEST(LinkTest, DeliversUpToBudget) {
  Link link("test", ConstantBandwidth(3.0));
  link.BeginTick(0.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    Message message;
    message.object_index = i;
    link.Enqueue(message);
  }
  std::vector<int64_t> delivered;
  link.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{0, 1, 2}));  // FIFO, 3 of 5
  EXPECT_EQ(link.queue_size(), 2u);
  EXPECT_EQ(link.remaining_budget(), 0);

  link.BeginTick(1.0, 1.0);
  delivered.clear();
  link.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(link.remaining_budget(), 1);
}

TEST(LinkTest, ConsumeBudgetGrantsPartial) {
  Link link("test", ConstantBandwidth(2.0));
  link.BeginTick(0.0, 1.0);
  EXPECT_EQ(link.ConsumeBudget(5), 2);
  EXPECT_EQ(link.ConsumeBudget(1), 0);
}

TEST(LinkTest, UtilizationTracksUsedOverOffered) {
  Link link("test", ConstantBandwidth(4.0));
  link.BeginTick(0.0, 1.0);
  link.ConsumeBudget(2);
  link.BeginTick(1.0, 1.0);  // closes previous tick's accounting
  EXPECT_DOUBLE_EQ(link.utilization().utilization(), 0.5);
}

TEST(LinkTest, QueueGrowsWhenOverloaded) {
  Link link("test", ConstantBandwidth(1.0));
  for (int tick = 0; tick < 10; ++tick) {
    link.BeginTick(tick, 1.0);
    for (int i = 0; i < 3; ++i) link.Enqueue(Message{});
    link.DeliverQueued([](const Message&) {});
  }
  // 30 enqueued, 10 delivered.
  EXPECT_EQ(link.queue_size(), 20u);
  EXPECT_GE(link.max_queue_size(), 20u);
}

TEST(LinkTest, ResetStatsPreservesQueue) {
  Link link("test", ConstantBandwidth(1.0));
  link.BeginTick(0.0, 1.0);
  link.Enqueue(Message{});
  link.Enqueue(Message{});
  link.ResetStats();
  EXPECT_EQ(link.queue_size(), 2u);
  EXPECT_EQ(link.messages_delivered(), 0);
}

TEST(NetworkTest, ConstructsStarTopology) {
  NetworkConfig config;
  config.num_sources = 4;
  config.cache_bandwidth_avg = 10.0;
  config.source_bandwidth_avg = 2.0;
  Rng rng(1);
  Network network(config, &rng);
  ShardPool pool(1);
  EXPECT_EQ(network.num_sources(), 4);
  network.BeginTick(0.0, 1.0, &pool);
  EXPECT_EQ(network.cache_link().tick_budget(), 10);
  EXPECT_EQ(network.source_link(0).tick_budget(), 2);
}

TEST(NetworkTest, UnconstrainedSourceBandwidth) {
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  config.source_bandwidth_avg = -1.0;  // unconstrained
  Rng rng(1);
  Network network(config, &rng);
  ShardPool pool(1);
  network.BeginTick(0.0, 1.0, &pool);
  EXPECT_GT(network.source_link(0).tick_budget(), 1000000);
}

TEST(NetworkTest, ControlMailDeliveredNextTick) {
  NetworkConfig config;
  config.num_sources = 2;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);
  ShardPool pool(1);

  network.BeginTick(0.0, 1.0, &pool);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(1, feedback);
  // Not deliverable within the same tick.
  EXPECT_TRUE(network.TakeSourceMail(1).empty());

  network.BeginTick(1.0, 1.0, &pool);
  auto mail = network.TakeSourceMail(1);
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].kind, MessageKind::kFeedback);
  // Draining is destructive.
  EXPECT_TRUE(network.TakeSourceMail(1).empty());
  // The other source got nothing.
  EXPECT_TRUE(network.TakeSourceMail(0).empty());
}

TEST(NetworkTest, ControlMailInvisibleUntilNextTickAndDrainedOnce) {
  // The double-buffer contract in one place: a deposit during tick t is
  // invisible for the whole of tick t (even across multiple reads), becomes
  // deliverable exactly at tick t+1, is drained exactly once, and does not
  // reappear at tick t+2.
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);
  ShardPool pool(1);

  network.BeginTick(0.0, 1.0, &pool);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(0, feedback);
  network.SendToSource(0, feedback);      // two deposits in the same tick
  EXPECT_TRUE(network.TakeSourceMail(0).empty());
  EXPECT_TRUE(network.TakeSourceMail(0).empty());  // still invisible

  network.BeginTick(1.0, 1.0, &pool);
  EXPECT_EQ(network.TakeSourceMail(0).size(), 2u);  // both, exactly once
  EXPECT_TRUE(network.TakeSourceMail(0).empty());

  network.BeginTick(2.0, 1.0, &pool);
  EXPECT_TRUE(network.TakeSourceMail(0).empty());  // gone for good
}

TEST(NetworkTest, UndrainedMailSurvivesIntoLaterTicks) {
  // A tick that never drains its mail must not lose it: deliverable mail
  // accumulates until the source reads it.
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);
  ShardPool pool(1);

  network.BeginTick(0.0, 1.0, &pool);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(0, feedback);
  network.BeginTick(1.0, 1.0, &pool);  // deliverable, but nobody drains
  network.SendToSource(0, feedback);
  network.BeginTick(2.0, 1.0, &pool);
  EXPECT_EQ(network.TakeSourceMail(0).size(), 2u);
}

TEST(NetworkTest, FluctuatingBandwidthAverages) {
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 20.0;
  config.bandwidth_change_rate = 0.05;
  Rng rng(7);
  Network network(config, &rng);
  ShardPool pool(1);
  int64_t total = 0;
  const int kTicks = 2000;
  for (int t = 0; t < kTicks; ++t) {
    network.BeginTick(t, 1.0, &pool);
    total += network.cache_link().tick_budget();
  }
  EXPECT_NEAR(static_cast<double>(total) / kTicks, 20.0, 1.0);
}

}  // namespace
}  // namespace besync
