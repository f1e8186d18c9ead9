// Copyable workloads: CloneWorkload must (a) reproduce exactly the run a
// config-rebuilt workload produces, (b) share no mutable state with the
// original, and (c) let one trace-derived workload fan out across the
// parallel runner with byte-identical JSON at any thread count. A run writes
// nothing of a workload without read streams, so one instance also reruns
// byte-identically.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "data/buoy_trace.h"
#include "data/workload.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "stats_fields.h"
#include "util/fluctuation.h"

namespace besync {
namespace {

WorkloadConfig SmallSyntheticConfig() {
  WorkloadConfig config;
  config.num_sources = 3;
  config.objects_per_source = 5;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.cost_scheme = CostScheme::kHalfLarge;
  config.weight_fluctuation_amplitude = 0.4;  // fills the weight_waves table
  config.seed = 42;
  return config;
}

BuoyTraceConfig SmallBuoyConfig() {
  BuoyTraceConfig config;
  config.num_buoys = 3;
  config.duration = 4.0 * 3600.0;
  config.seed = 2026;
  return config;
}

// Rows and signals are plain values: copying one copies all of it.
static_assert(std::is_trivially_copyable_v<ObjectSpec>);
static_assert(std::is_trivially_copyable_v<Fluctuation>);

TEST(CloneTest, CloneMatchesOriginalSpecs) {
  const Workload original =
      std::move(MakeWorkload(SmallSyntheticConfig())).ValueOrDie();
  const Workload clone = CloneWorkload(original);

  EXPECT_EQ(clone.num_sources, original.num_sources);
  EXPECT_EQ(clone.objects_per_source, original.objects_per_source);
  EXPECT_EQ(clone.num_caches, original.num_caches);
  EXPECT_EQ(clone.has_fluctuating_weights, original.has_fluctuating_weights);
  EXPECT_EQ(clone.replica_offsets, original.replica_offsets);
  EXPECT_EQ(clone.replica_caches, original.replica_caches);
  ASSERT_EQ(clone.weight_waves.size(), original.weight_waves.size());
  ASSERT_EQ(clone.objects.size(), original.objects.size());
  // Copies, not views: the clone's tables are its own storage.
  EXPECT_NE(clone.objects.data(), original.objects.data());
  EXPECT_NE(clone.weight_waves.data(), original.weight_waves.data());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    const ObjectSpec& a = original.objects[i];
    const ObjectSpec& b = clone.objects[i];
    EXPECT_EQ(b.source_index, a.source_index);
    EXPECT_EQ(b.process, a.process);
    EXPECT_EQ(b.lambda, a.lambda);
    EXPECT_EQ(b.step, a.step);
    EXPECT_EQ(b.weight, a.weight);
    EXPECT_EQ(b.weight_wave, a.weight_wave);
    EXPECT_EQ(b.initial_value, a.initial_value);
    EXPECT_EQ(b.max_divergence_rate, a.max_divergence_rate);
    EXPECT_EQ(b.refresh_cost, a.refresh_cost);
    EXPECT_EQ(b.rng_seed, a.rng_seed);
    const ObjectIndex index = static_cast<ObjectIndex>(i);
    EXPECT_EQ(clone.WeightAt(index, 12.5), original.WeightAt(index, 12.5));
  }
}

// The headline guarantee: running a scheduler on a clone produces the
// bitwise-identical RunResult a config-rebuilt workload produces.
TEST(CloneTest, CloneRunEqualsRebuildRun) {
  ExperimentConfig config;
  config.workload = SmallSyntheticConfig();
  config.harness.warmup = 10.0;
  config.harness.measure = 100.0;
  config.cache_bandwidth_avg = 6.0;

  for (SchedulerKind scheduler :
       {SchedulerKind::kCooperative, SchedulerKind::kRoundRobin}) {
    config.scheduler = scheduler;

    const Result<RunResult> rebuilt = RunExperiment(config);
    ASSERT_TRUE(rebuilt.ok());

    const Workload base = std::move(MakeWorkload(config.workload)).ValueOrDie();
    Workload clone = CloneWorkload(base);
    const Result<RunResult> cloned = RunExperimentOnWorkload(config, &clone);
    ASSERT_TRUE(cloned.ok());

    EXPECT_EQ(cloned->total_weighted_divergence, rebuilt->total_weighted_divergence);
    EXPECT_EQ(cloned->per_cache_weighted, rebuilt->per_cache_weighted);
    EXPECT_EQ(cloned->per_object_weighted, rebuilt->per_object_weighted);
    EXPECT_EQ(cloned->per_object_unweighted, rebuilt->per_object_unweighted);
    EXPECT_EQ(cloned->total_replicas, rebuilt->total_replicas);
    EXPECT_EQ(cloned->scheduler.refreshes_sent, rebuilt->scheduler.refreshes_sent);
    EXPECT_EQ(cloned->scheduler.refreshes_delivered,
              rebuilt->scheduler.refreshes_delivered);
    EXPECT_EQ(cloned->scheduler.feedback_sent, rebuilt->scheduler.feedback_sent);
  }
}

// Mutating a clone (touching its rows, interest map and side tables) must
// leave the original untouched — the property that makes concurrent fan-out
// safe. The trace table is immutable, so clones share it.
TEST(CloneTest, MutatingCloneLeavesOriginalUntouched) {
  const Workload original =
      std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();
  Workload clone = CloneWorkload(original);
  ASSERT_NE(original.traces, nullptr);
  EXPECT_EQ(clone.traces.get(), original.traces.get());

  for (ObjectSpec& spec : clone.objects) spec.lambda = -1.0;
  clone.replica_caches.push_back(99);  // structural mutation
  clone.SetWeight(0, Fluctuation::Sine(1.0, 0.5, 10.0, 0.0));

  for (ObjectIndex i = 0; i < original.total_objects(); ++i) {
    EXPECT_GE(original.objects[i].lambda, 0.0);
    EXPECT_EQ(original.num_replicas(i), 1);
    EXPECT_EQ(original.caches(i).front(), 0);
    EXPECT_EQ(original.WeightAt(i, 3.0), 1.0);
  }
  EXPECT_EQ(original.total_replicas(), original.total_objects());
  EXPECT_TRUE(original.weight_waves.empty());
}

// A run only reads its workload: the trace cursors live in the run, so one
// trace-driven instance run twice in a row, with no clone in between, gives
// byte-identical results.
TEST(CloneTest, RerunWithoutCloneIsByteIdentical) {
  const Workload workload =
      std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();
  ExperimentConfig config;
  config.harness.tick_length = 60.0;
  config.harness.warmup = 600.0;
  config.harness.measure = 3000.0;
  config.cache_bandwidth_avg = 0.05;
  const Result<RunResult> a = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(a.ok());
  const Result<RunResult> b = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->scheduler.refreshes_sent, 0);
  EXPECT_EQ(a->total_weighted_divergence, b->total_weighted_divergence);
  EXPECT_EQ(a->per_cache_weighted, b->per_cache_weighted);
  EXPECT_EQ(a->per_object_weighted, b->per_object_weighted);
  EXPECT_EQ(a->per_object_unweighted, b->per_object_unweighted);
  EXPECT_EQ(a->total_replicas, b->total_replicas);
  EXPECT_EQ(DifferingStatsFields(a->scheduler, b->scheduler),
            std::vector<std::string>{});
}

// Without read streams a run writes nothing of its workload, so concurrent
// runs may share one instance (TSan covers this binary in CI).
TEST(CloneTest, ConcurrentRunsShareOneWorkload) {
  const Workload workload =
      std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();
  ExperimentConfig config;
  config.harness.tick_length = 60.0;
  config.harness.warmup = 600.0;
  config.harness.measure = 3000.0;
  config.cache_bandwidth_avg = 0.05;
  const Result<RunResult> sequential = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(sequential.ok());
  std::vector<Result<RunResult>> results(2, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (Result<RunResult>& result : results) {
    threads.emplace_back([&config, &workload, &result] {
      result = RunExperimentOnWorkload(config, &workload);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Result<RunResult>& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->total_weighted_divergence, sequential->total_weighted_divergence);
    EXPECT_EQ(DifferingStatsFields(result->scheduler, sequential->scheduler),
              std::vector<std::string>{});
  }
}

// Clone fan-out across the runner: threads=1 and threads=8 produce
// bitwise-identical results and byte-identical JSON over a trace-derived
// workload no WorkloadConfig can rebuild.
TEST(CloneTest, TraceFanOutIsThreadCountInvariant) {
  const Workload base = std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();

  std::vector<ExperimentJob> jobs;
  for (SchedulerKind scheduler :
       {SchedulerKind::kCooperative, SchedulerKind::kIdealCooperative,
        SchedulerKind::kRoundRobin}) {
    for (double bandwidth : {0.02, 0.1}) {
      ExperimentJob job;
      job.name = SchedulerKindToString(scheduler) + ",B=" +
                 TablePrinter::Cell(bandwidth);
      job.config.scheduler = scheduler;
      job.config.harness.tick_length = 60.0;
      job.config.harness.warmup = 600.0;
      job.config.harness.measure = 3000.0;
      job.config.cache_bandwidth_avg = bandwidth;
      job.config.workload.seed = SmallBuoyConfig().seed;  // metadata only
      jobs.push_back(std::move(job));
    }
  }

  RunnerOptions sequential;
  sequential.threads = 1;
  const std::vector<JobResult> one = RunExperimentsOnWorkload(base, jobs, sequential);

  RunnerOptions parallel;
  parallel.threads = 8;
  const std::vector<JobResult> eight = RunExperimentsOnWorkload(base, jobs, parallel);

  ASSERT_EQ(one.size(), jobs.size());
  ASSERT_EQ(eight.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(one[i].name, jobs[i].name);
    ASSERT_TRUE(one[i].status.ok()) << one[i].status.ToString();
    ASSERT_TRUE(eight[i].status.ok()) << eight[i].status.ToString();
    EXPECT_EQ(one[i].result.total_weighted_divergence,
              eight[i].result.total_weighted_divergence);
    EXPECT_EQ(one[i].result.scheduler.refreshes_delivered,
              eight[i].result.scheduler.refreshes_delivered);
    // The runner stamps the topology from the base workload.
    EXPECT_EQ(one[i].config.workload.num_caches, base.num_caches);
  }

  std::ostringstream json_one;
  std::ostringstream json_eight;
  WriteResultsJson(json_one, one);
  WriteResultsJson(json_eight, eight);
  EXPECT_EQ(json_one.str(), json_eight.str());  // byte-identical
}

}  // namespace
}  // namespace besync
