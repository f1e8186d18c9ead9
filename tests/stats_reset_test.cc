// Measurement-start reset audit: every count-like scheduler statistic must
// cover the measurement window only. Two angles:
//
//  1. A second OnMeasurementStart() immediately after a finished run must
//     zero every SchedulerStats field but the named level fields, for every
//     scheduler family and for a run exercising every feature. The audit
//     walks the field table of tests/stats_fields.h, so a field added later
//     is covered the day it is added.
//  2. Warm-up independence: for deterministic schedulers, stats from runs
//     that differ only in warm-up length must be identical — counters that
//     leak warm-up traffic scale with the warm-up instead.

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "exp/experiment.h"
#include "stats_fields.h"

namespace besync {
namespace {

ExperimentConfig BaseConfig(SchedulerKind kind) {
  ExperimentConfig config;
  config.scheduler = kind;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 10;
  config.workload.seed = 19;
  config.harness.warmup = 30.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = 8.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

/// Fields that describe a level the simulation is at (adaptive thresholds,
/// high-water marks, replicas still awaiting a refill) rather than a count
/// over the window: a measurement start need not zero them.
const std::set<std::string>& LevelFields() {
  static const std::set<std::string> kLevels = {
      "mean_threshold", "max_cache_queue", "max_relay_store", "resync_pending"};
  return kLevels;
}

struct RunThenResetStats {
  SchedulerStats after_run;
  SchedulerStats reset;
};

/// Runs `config` to completion, then starts a second measurement window on
/// the same scheduler instance.
RunThenResetStats RunThenReset(const ExperimentConfig& config) {
  const Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  const auto metric = MakeMetric(config.metric);
  const auto scheduler = MakeScheduler(config);
  Harness harness(&workload, metric.get(), config.harness);
  EXPECT_TRUE(harness.Run(scheduler.get()).ok());
  const SchedulerStats after_run = scheduler->stats();
  scheduler->OnMeasurementStart(harness.now());
  return {after_run, scheduler->stats()};
}

class StatsResetTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(StatsResetTest, SecondMeasurementStartZeroesEveryField) {
  // Walks the whole field table: a reset that skipped any counter — the
  // relay / read-path / protocol / fault ones included, zero here only
  // because the config does not exercise them — would leak the previous
  // window's value on a reused scheduler.
  const RunThenResetStats stats = RunThenReset(BaseConfig(GetParam()));
  EXPECT_GT(stats.after_run.refreshes_sent + stats.after_run.refreshes_delivered +
                stats.after_run.polls_sent,
            0);
  EXPECT_EQ(NonZeroStatsFields(stats.reset, LevelFields()),
            std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, StatsResetTest,
                         ::testing::Values(SchedulerKind::kCooperative,
                                           SchedulerKind::kIdealCooperative,
                                           SchedulerKind::kIdealCacheBased,
                                           SchedulerKind::kCGM1,
                                           SchedulerKind::kCGM2,
                                           SchedulerKind::kRoundRobin));

TEST(StatsResetAuditTest, EveryFeatureRunZeroesEveryField) {
  // Drive every counter family at once — reads with the invalidation
  // protocol, a relay tier, and a cache crash/restart (with its resync
  // episode), a relay failover, a link flap and a slowdown — then start a
  // fresh window on the same scheduler and demand a clean slate across the
  // whole field table.
  ExperimentConfig config = BaseConfig(SchedulerKind::kCooperative);
  config.workload.num_caches = 2;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.read.read_rate = 4.0;
  config.workload.read.capacity = 8;
  config.workload.relay_tiers = 1;
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  config.workload.fault.cache_crashes = 2;
  config.workload.fault.relay_failures = 1;
  config.workload.fault.link_flaps = 1;
  config.workload.fault.slowdowns = 1;
  config.workload.fault.window_start = 40.0;
  config.workload.fault.window_end = 120.0;
  const RunThenResetStats stats = RunThenReset(config);

  // The run must really have exercised the fields, or the audit below
  // passes vacuously. The exceptions are fields this config cannot move.
  const std::set<std::string> kUnexercised = {
      // Invalidation sources never push: no threshold refreshes, no
      // surplus feedback (the push-protocol cooperative case above runs
      // both).
      "refreshes_sent", "feedback_sent",
      // CGM polling only.
      "polls_sent",
      // Links and relays drain within the tick they fill at this load.
      "avg_cache_queue", "relay_queue_delay_mean", "relay_transit_delay_mean",
      // Most reads are served fresh, so only the tail of the staleness
      // distribution moves.
      "read_staleness_p50", "read_staleness_p95",
      // Every resync episode closes before the run ends.
      "resync_pending",
  };
  ForEachStatsField([&](const char* name, auto member) {
    if (kUnexercised.count(name) == 0) {
      EXPECT_NE(stats.after_run.*member, 0) << name << " was never exercised";
    }
  });
  EXPECT_EQ(NonZeroStatsFields(stats.reset, LevelFields()),
            std::vector<std::string>{});
}

TEST(StatsWarmupIndependenceTest, RoundRobinStatsCoverMeasurementOnly) {
  // Round robin with constant bandwidth is fully deterministic: over a fixed
  // measurement window it performs exactly bandwidth * measure refreshes,
  // regardless of how long the warm-up ran.
  ExperimentConfig short_warmup = BaseConfig(SchedulerKind::kRoundRobin);
  short_warmup.harness.warmup = 50.0;
  ExperimentConfig long_warmup = short_warmup;
  long_warmup.harness.warmup = 250.0;

  const auto a = RunExperiment(short_warmup);
  const auto b = RunExperiment(long_warmup);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->scheduler.refreshes_sent, 0);
  EXPECT_EQ(a->scheduler.refreshes_sent, b->scheduler.refreshes_sent);
  EXPECT_EQ(a->scheduler.refreshes_delivered, b->scheduler.refreshes_delivered);
}

TEST(StatsWarmupIndependenceTest, CooperativeDeliveredMatchesLinkAccounting) {
  // Internal consistency after warm-up reset: the cache agents' delivered
  // count and the sources' sent count must refer to the same (measurement)
  // window — sent can exceed delivered only by in-flight queue contents.
  const ExperimentConfig config = BaseConfig(SchedulerKind::kCooperative);
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scheduler.refreshes_sent, 0);
  EXPECT_GT(result->scheduler.refreshes_delivered, 0);
  EXPECT_GE(result->scheduler.refreshes_sent + result->scheduler.max_cache_queue,
            result->scheduler.refreshes_delivered);
}

}  // namespace
}  // namespace besync
