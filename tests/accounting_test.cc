// Regression tests for two divergence-accounting drift bugs:
//
//  1. Harness::Run's weight-refresh deadline was advanced by a fixed
//     `+= interval` per refresh, so with tick_length > weight_refresh_interval
//     it fell unboundedly behind the clock. The deadline now catches up via
//     NextWeightRefreshDeadline (first interval multiple strictly after t).
//
//  2. Link::BeginTick measured a tick's usage as tick_budget - remaining,
//     but a tick that starts in debt (deficit carried over from a large
//     multi-tick transmission) begins *below* budget — the borrowed units
//     were re-reported as used, double-counting them (e.g. budget 10, spend
//     13, then spend 7 recorded 23/20). Usage is now measured against the
//     recorded start-of-tick level, so cumulative used <= capacity.

#include <gtest/gtest.h>

#include "core/harness.h"
#include "exp/experiment.h"
#include "net/link.h"
#include "util/fluctuation.h"

namespace besync {
namespace {

TEST(WeightRefreshDeadlineTest, FirstMultipleStrictlyAfterT) {
  EXPECT_DOUBLE_EQ(NextWeightRefreshDeadline(0.0, 20.0), 20.0);
  EXPECT_DOUBLE_EQ(NextWeightRefreshDeadline(5.0, 2.0), 6.0);
  EXPECT_DOUBLE_EQ(NextWeightRefreshDeadline(4.9, 2.0), 6.0);
  // Landing exactly on a multiple schedules the *next* one (strictly after).
  EXPECT_DOUBLE_EQ(NextWeightRefreshDeadline(6.0, 2.0), 8.0);
}

TEST(WeightRefreshDeadlineTest, KeepsUpWithTicksLongerThanInterval) {
  // Replays Harness::Run's refresh-deadline loop for a coarse-tick run
  // (tick 7, interval 2). The fixed `deadline += interval` of the old code
  // would lag t by ~5 more each tick; the catch-up keeps the deadline
  // within one interval of the clock forever.
  const double tick = 7.0;
  const double interval = 2.0;
  double deadline = interval;
  double drifting_deadline = interval;  // the old `+= interval` rule
  double t = 0.0;
  for (t = tick; t < 700.0; t += tick) {
    if (t >= deadline) deadline = NextWeightRefreshDeadline(t, interval);
    if (t >= drifting_deadline) drifting_deadline += interval;
    EXPECT_GT(deadline, t);
    EXPECT_LE(deadline, t + interval);
  }
  // The old rule gains only `interval` per tick of length `tick`, ending
  // ~(tick - interval) * #ticks behind the clock.
  EXPECT_LT(drifting_deadline, t - 400.0);
}

TEST(WeightRefreshDeadlineTest, SubTickIntervalMatchesTickAlignedInterval) {
  // Weight refreshes happen at tick granularity, so any interval <= tick
  // means "every tick": a sub-tick interval must reproduce the
  // interval == tick_length run exactly.
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 10;
  config.workload.weight_fluctuation_amplitude = 0.5;
  config.workload.seed = 21;
  config.harness.tick_length = 1.0;
  config.harness.warmup = 20.0;
  config.harness.measure = 120.0;
  config.cache_bandwidth_avg = 6.0;

  config.harness.weight_refresh_interval = 0.25;
  const auto sub_tick = RunExperiment(config);
  ASSERT_TRUE(sub_tick.ok());

  config.harness.weight_refresh_interval = 1.0;
  const auto tick_aligned = RunExperiment(config);
  ASSERT_TRUE(tick_aligned.ok());

  EXPECT_DOUBLE_EQ(sub_tick->total_weighted_divergence,
                   tick_aligned->total_weighted_divergence);
}

Link MakeConstantLink(double bandwidth) {
  return Link("test", std::make_unique<BandwidthModel>(
                          Fluctuation::Constant(bandwidth)));
}

TEST(LinkUtilizationTest, DeficitCarryoverIsNotDoubleCounted) {
  // Budget 10/tick. Tick 1 starts a cost-13 transmission (3 units of debt);
  // tick 2 starts at 7 remaining and spends it all. Total spend 20 over
  // capacity 20 — the old accounting recorded 13 + 10 = 23.
  Link link = MakeConstantLink(10.0);
  link.BeginTick(0.0, 1.0);
  ASSERT_EQ(link.tick_budget(), 10);
  ASSERT_TRUE(link.TryConsumeAllowingDeficit(13));
  link.BeginTick(1.0, 1.0);
  ASSERT_EQ(link.remaining_budget(), 7);
  ASSERT_TRUE(link.TryConsumeAllowingDeficit(7));
  link.BeginTick(2.0, 1.0);

  EXPECT_DOUBLE_EQ(link.utilization().used(), 20.0);
  EXPECT_DOUBLE_EQ(link.utilization().capacity(), 20.0);
  EXPECT_LE(link.utilization().used(), link.utilization().capacity());
  EXPECT_DOUBLE_EQ(link.utilization().utilization(), 1.0);
}

TEST(LinkUtilizationTest, PartialUseStillMeasuredAgainstBudget) {
  Link link = MakeConstantLink(10.0);
  link.BeginTick(0.0, 1.0);
  EXPECT_EQ(link.ConsumeBudget(4), 4);
  link.BeginTick(1.0, 1.0);
  EXPECT_DOUBLE_EQ(link.utilization().used(), 4.0);
  EXPECT_DOUBLE_EQ(link.utilization().capacity(), 10.0);
}

TEST(LinkUtilizationTest, FinishTickFlushesTheFinalTickOnce) {
  // Without the flush, the deficit tick is recorded (13/10) at the second
  // BeginTick but the payoff tick (7/10) is lost at end of run, leaving
  // cumulative used = 13 > capacity = 10.
  Link link = MakeConstantLink(10.0);
  link.BeginTick(0.0, 1.0);
  ASSERT_TRUE(link.TryConsumeAllowingDeficit(13));
  link.BeginTick(1.0, 1.0);
  ASSERT_TRUE(link.TryConsumeAllowingDeficit(7));
  link.FinishTick();
  link.FinishTick();  // idempotent
  EXPECT_DOUBLE_EQ(link.utilization().used(), 20.0);
  EXPECT_DOUBLE_EQ(link.utilization().capacity(), 20.0);
}

TEST(LinkUtilizationTest, SaturatedNonUniformCostRunStaysWithinCapacity) {
  // End-to-end pin: a saturated run with cost-4 messages keeps the cache
  // link in rolling deficit, which the old accounting inflated past 100%.
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 10;
  config.workload.cost_scheme = CostScheme::kHalfLarge;
  config.workload.large_cost = 4;
  config.workload.seed = 33;
  config.harness.warmup = 20.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = 3.0;  // far below the update volume
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.cache_utilization, 0.5);
  EXPECT_LE(result->scheduler.cache_utilization, 1.0 + 1e-9);
}

}  // namespace
}  // namespace besync
