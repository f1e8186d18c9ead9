#include <memory>

#include <gtest/gtest.h>

#include "data/workload.h"
#include "divergence/ground_truth.h"
#include "divergence/metric.h"
#include "divergence/tracker.h"

namespace besync {
namespace {

// ----------------------------------------------------------------- Metrics

TEST(StalenessMetricTest, ValueEqualityDefinesFreshness) {
  StalenessMetric metric;
  EXPECT_DOUBLE_EQ(metric.Divergence(5.0, 3, 5.0, 1), 0.0);  // same value: fresh
  EXPECT_DOUBLE_EQ(metric.Divergence(5.0, 3, 4.0, 1), 1.0);
}

TEST(StalenessMetricTest, RandomWalkReturnIsFreshAgain) {
  // A random walk can return to the cached value: staleness drops to 0 even
  // though versions differ (the paper defines staleness on values).
  StalenessMetric metric;
  EXPECT_DOUBLE_EQ(metric.Divergence(7.0, 10, 7.0, 2), 0.0);
}

TEST(LagMetricTest, CountsUnpropagatedUpdates) {
  LagMetric metric;
  EXPECT_DOUBLE_EQ(metric.Divergence(0.0, 12, 0.0, 12), 0.0);
  EXPECT_DOUBLE_EQ(metric.Divergence(0.0, 12, 0.0, 7), 5.0);
}

TEST(ValueDeviationMetricTest, DefaultIsAbsoluteDifference) {
  ValueDeviationMetric metric;
  EXPECT_DOUBLE_EQ(metric.Divergence(5.0, 0, 2.0, 0), 3.0);
  EXPECT_DOUBLE_EQ(metric.Divergence(2.0, 0, 5.0, 0), 3.0);
}

TEST(ValueDeviationMetricTest, CustomDelta) {
  ValueDeviationMetric metric(
      [](double v1, double v2) { return (v1 - v2) * (v1 - v2); });
  EXPECT_DOUBLE_EQ(metric.Divergence(5.0, 0, 2.0, 0), 9.0);
}

TEST(MetricFactoryTest, ProducesAllKinds) {
  for (MetricKind kind :
       {MetricKind::kStaleness, MetricKind::kLag, MetricKind::kValueDeviation}) {
    auto metric = MakeMetric(kind);
    ASSERT_NE(metric, nullptr);
    EXPECT_EQ(metric->kind(), kind);
  }
}

// ----------------------------------------------------------------- Tracker

TEST(DivergenceTrackerTest, StartsSynchronized) {
  LagMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.IntegralTo(10.0), 0.0);
}

TEST(DivergenceTrackerTest, LagIntegralPiecewiseConstant) {
  LagMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(2.0, 1.0, 1);  // lag 1 from t=2
  tracker.OnUpdate(5.0, 2.0, 2);  // lag 2 from t=5
  // ∫ = 0*(2-0) + 1*(5-2) = 3 at t=5; + 2*(8-5) = 9 at t=8.
  EXPECT_DOUBLE_EQ(tracker.IntegralTo(5.0), 3.0);
  EXPECT_DOUBLE_EQ(tracker.IntegralTo(8.0), 9.0);
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 2.0);
  EXPECT_EQ(tracker.updates_since_refresh(), 2);
}

TEST(DivergenceTrackerTest, RefreshResetsEverything) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 10.0, 0);
  tracker.OnUpdate(1.0, 13.0, 1);
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 3.0);
  tracker.OnRefresh(4.0, 13.0, 1);
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.IntegralTo(9.0), 0.0);
  EXPECT_EQ(tracker.updates_since_refresh(), 0);
  EXPECT_DOUBLE_EQ(tracker.last_refresh_time(), 4.0);
  EXPECT_DOUBLE_EQ(tracker.shipped_value(), 13.0);
}

TEST(DivergenceTrackerTest, StalenessCanRevert) {
  StalenessMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 5.0, 0);
  tracker.OnUpdate(1.0, 6.0, 1);
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 1.0);
  tracker.OnUpdate(3.0, 5.0, 2);  // walked back to the cached value
  EXPECT_DOUBLE_EQ(tracker.current_divergence(), 0.0);
  // ∫ = 1*(3-1) = 2, frozen once fresh again.
  EXPECT_DOUBLE_EQ(tracker.IntegralTo(10.0), 2.0);
}

// The priority quantity (t-t_last)*D - ∫D is constant between updates
// (Section 8.2): verify directly from tracker quantities.
TEST(DivergenceTrackerTest, AreaPriorityConstantBetweenUpdates) {
  LagMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(2.0, 1.0, 1);
  auto priority_at = [&tracker](double t) {
    return (t - tracker.last_refresh_time()) * tracker.current_divergence() -
           tracker.IntegralTo(t);
  };
  EXPECT_DOUBLE_EQ(priority_at(3.0), priority_at(7.0));
  EXPECT_DOUBLE_EQ(priority_at(3.0), 2.0);  // D=1 since t=2, refreshed at 0
}

// ------------------------------------------------------------ GroundTruth

class GroundTruthTest : public ::testing::Test {
 protected:
  GroundTruthTest() {
    WorkloadConfig config;
    config.num_sources = 1;
    config.objects_per_source = 2;
    config.seed = 5;
    workload_ = std::move(MakeWorkload(config)).ValueOrDie();
  }

  Workload workload_;
  LagMetric lag_;
  ValueDeviationMetric deviation_;
};

TEST_F(GroundTruthTest, TracksLagIntegralExactly) {
  GroundTruth ground_truth(&workload_, &lag_);
  ground_truth.Initialize(0.0);
  ground_truth.StartMeasurement(0.0);
  // Object 0: updates at t=1 and t=2; refresh applied at t=3 carrying v2.
  ground_truth.OnSourceUpdate(0, 1.0, 1.0, 1);
  ground_truth.OnSourceUpdate(0, 2.0, 2.0, 2);
  ground_truth.OnCacheApply(0, 3.0, 2.0, 2);
  ground_truth.FinishMeasurement(10.0);
  // ∫D = 1*(2-1) + 2*(3-2) = 3 over 10 s, two objects.
  EXPECT_NEAR(ground_truth.TotalWeightedAverage(), 0.3, 1e-12);
  EXPECT_NEAR(ground_truth.PerObjectUnweightedAverage(), 0.15, 1e-12);
}

TEST_F(GroundTruthTest, StaleMessageContentStillCounts) {
  GroundTruth ground_truth(&workload_, &deviation_);
  ground_truth.Initialize(0.0);
  ground_truth.StartMeasurement(0.0);
  ground_truth.OnSourceUpdate(0, 1.0, 4.0, 1);
  // A message carrying the OLD value 4 arrives after another update.
  ground_truth.OnSourceUpdate(0, 2.0, 6.0, 2);
  ground_truth.OnCacheApply(0, 3.0, 4.0, 1);  // still 2 away from source
  EXPECT_DOUBLE_EQ(ground_truth.current_divergence(0), 2.0);
  ground_truth.FinishMeasurement(4.0);
  // ∫D = |4-0|*(2-1) + |6-0|*(3-2) + |6-4|*(4-3) = 4 + 6 + 2 = 12 over 4 s.
  EXPECT_NEAR(ground_truth.TotalWeightedAverage(), 3.0, 1e-12);
}

TEST_F(GroundTruthTest, WarmupExcluded) {
  GroundTruth ground_truth(&workload_, &lag_);
  ground_truth.Initialize(0.0);
  ground_truth.OnSourceUpdate(0, 1.0, 1.0, 1);  // during warm-up
  ground_truth.StartMeasurement(5.0);
  ground_truth.FinishMeasurement(10.0);
  // D=1 held through the whole 5 s measurement window.
  EXPECT_NEAR(ground_truth.TotalWeightedAverage(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(ground_truth.measurement_duration(), 5.0);
}

TEST_F(GroundTruthTest, OutOfOrderApplyIgnored) {
  GroundTruth ground_truth(&workload_, &lag_);
  ground_truth.Initialize(0.0);
  ground_truth.OnSourceUpdate(0, 1.0, 1.0, 1);
  ground_truth.OnSourceUpdate(0, 2.0, 2.0, 2);
  ground_truth.OnCacheApply(0, 3.0, 2.0, 2);
  ground_truth.OnCacheApply(0, 4.0, 1.0, 1);  // stale duplicate: ignore
  EXPECT_EQ(ground_truth.cached_version(0), 2);
  EXPECT_DOUBLE_EQ(ground_truth.current_divergence(0), 0.0);
}

TEST_F(GroundTruthTest, SourceWeightsViewDiffers) {
  workload_.SetSourceWeight(0, Fluctuation::Constant(10.0));
  GroundTruth cache_view(&workload_, &lag_, /*use_source_weights=*/false);
  GroundTruth source_view(&workload_, &lag_, /*use_source_weights=*/true);
  cache_view.Initialize(0.0);
  source_view.Initialize(0.0);
  cache_view.StartMeasurement(0.0);
  source_view.StartMeasurement(0.0);
  cache_view.OnSourceUpdate(0, 0.0, 1.0, 1);
  source_view.OnSourceUpdate(0, 0.0, 1.0, 1);
  cache_view.FinishMeasurement(1.0);
  source_view.FinishMeasurement(1.0);
  EXPECT_DOUBLE_EQ(cache_view.TotalWeightedAverage(), 1.0);
  EXPECT_DOUBLE_EQ(source_view.TotalWeightedAverage(), 10.0);
}

}  // namespace
}  // namespace besync
