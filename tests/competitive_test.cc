#include <memory>

#include <gtest/gtest.h>

#include "core/competitive.h"
#include "core/harness.h"
#include "core/system.h"
#include "divergence/metric.h"

namespace besync {
namespace {

WorkloadConfig BaseWorkload(uint64_t seed = 13) {
  WorkloadConfig config;
  config.num_sources = 5;
  config.objects_per_source = 20;
  config.rate_lo = 0.05;
  config.rate_hi = 0.5;
  // Cache scheme: half the objects are heavy.
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.heavy_weight = 10.0;
  config.seed = seed;
  return config;
}

struct CompetitiveOutcome {
  double cache_objective;   // weighted divergence under cache weights
  double source_objective;  // weighted divergence under source weights
};

CompetitiveOutcome RunCompetitive(double psi, ShareOption option,
                                  double bandwidth = 15.0) {
  Workload workload = std::move(MakeWorkload(BaseWorkload())).ValueOrDie();
  AssignConflictingSourceWeights(&workload, 10.0, /*seed=*/77);
  auto metric = MakeMetric(MetricKind::kValueDeviation);

  HarnessConfig harness_config;
  harness_config.warmup = 50.0;
  harness_config.measure = 400.0;

  Harness harness(&workload, metric.get(), harness_config);
  GroundTruth source_view(&workload, metric.get(), /*use_source_weights=*/true);
  harness.AddGroundTruth(&source_view);

  CompetitiveConfig config;
  config.base.cache_bandwidth_avg = bandwidth;
  config.psi = psi;
  config.option = option;
  CompetitiveScheduler scheduler(config);
  EXPECT_TRUE(harness.Run(&scheduler).ok());

  CompetitiveOutcome outcome;
  outcome.cache_objective = harness.ground_truth().PerObjectWeightedAverage();
  outcome.source_objective = source_view.PerObjectWeightedAverage();
  return outcome;
}

TEST(ShareOptionTest, Names) {
  EXPECT_EQ(ShareOptionToString(ShareOption::kEqualShare), "equal-share");
  EXPECT_EQ(ShareOptionToString(ShareOption::kProportionalShare),
            "proportional-share");
  EXPECT_EQ(ShareOptionToString(ShareOption::kPiggyback), "piggyback");
}

TEST(AssignConflictingSourceWeightsTest, HalfHeavyPerSource) {
  Workload workload = std::move(MakeWorkload(BaseWorkload())).ValueOrDie();
  AssignConflictingSourceWeights(&workload, 10.0, 3);
  for (int j = 0; j < workload.num_sources; ++j) {
    int heavy = 0;
    int total = 0;
    for (const auto& spec : workload.objects) {
      if (spec.source_index != j) continue;
      ASSERT_GE(spec.source_weight, 0);
      const double w = workload.source_weights[spec.source_weight].average();
      EXPECT_TRUE(w == 1.0 || w == 10.0);
      heavy += w == 10.0;
      ++total;
    }
    EXPECT_EQ(heavy, total / 2);
  }
}

TEST(CompetitiveSchedulerTest, PsiZeroMatchesPlainCooperativeObjective) {
  const CompetitiveOutcome with_zero_psi =
      RunCompetitive(0.0, ShareOption::kEqualShare);
  // Sanity: runs and produces finite divergence under both views.
  EXPECT_GT(with_zero_psi.cache_objective, 0.0);
  EXPECT_GT(with_zero_psi.source_objective, 0.0);
}

class CompetitiveOptionTest : public ::testing::TestWithParam<ShareOption> {};

TEST_P(CompetitiveOptionTest, PsiImprovesSourceObjective) {
  const CompetitiveOutcome none = RunCompetitive(0.0, GetParam());
  const CompetitiveOutcome half = RunCompetitive(0.5, GetParam());
  // Spending Ψ = 0.5 of the bandwidth on source priorities must improve the
  // sources' objective...
  EXPECT_LT(half.source_objective, none.source_objective);
  // ...at some cost to the cache's own objective (or at least not a large
  // improvement — allow simulation noise).
  EXPECT_GT(half.cache_objective, none.cache_objective * 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllOptions, CompetitiveOptionTest,
                         ::testing::Values(ShareOption::kEqualShare,
                                           ShareOption::kProportionalShare,
                                           ShareOption::kPiggyback));

TEST(CompetitiveSchedulerTest, NamesIncludeOption) {
  CompetitiveConfig config;
  config.option = ShareOption::kPiggyback;
  CompetitiveScheduler scheduler(config);
  EXPECT_EQ(scheduler.name(), "competitive-piggyback");
}

}  // namespace
}  // namespace besync
