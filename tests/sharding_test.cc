// Intra-run sharding determinism tests: the cooperative scheduler's
// run_threads knob must be invisible in every result field. Each case runs
// one configuration at run_threads = 1 (the historical sequential engine),
// 2, 4 and 8, and demands EXACT equality — EXPECT_EQ on doubles, no
// tolerance — across the divergence accounting and the full stats block,
// including the fault/resync counters. A pinned golden constant guards
// against the serial baseline itself drifting, which would let the
// equality checks pass vacuously.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "exp/experiment.h"
#include "fault/fault_schedule.h"

namespace besync {
namespace {

/// Serial-baseline pin for the partitioned-lossy configuration below; the
/// sharded runs must then equal it bit for bit.
constexpr double kPartitionedLossyGolden = 77.886079675343339;

/// Runs `config` with the given shard count. The configs in this file keep
/// their workload seeds fixed, so every run builds an identical workload
/// and the only varying input is the thread count.
RunResult RunAt(ExperimentConfig config, int run_threads) {
  config.run_threads = run_threads;
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// Bitwise comparison of two runs: every double with EXPECT_EQ (the
/// sharded phases must reproduce the serial float-accumulation order
/// exactly, not approximately).
void ExpectIdenticalRuns(const RunResult& serial, const RunResult& sharded) {
  EXPECT_EQ(serial.total_weighted_divergence, sharded.total_weighted_divergence);
  EXPECT_EQ(serial.per_object_weighted, sharded.per_object_weighted);
  EXPECT_EQ(serial.per_object_unweighted, sharded.per_object_unweighted);
  EXPECT_EQ(serial.total_replicas, sharded.total_replicas);
  ASSERT_EQ(serial.per_cache_weighted.size(), sharded.per_cache_weighted.size());
  for (size_t c = 0; c < serial.per_cache_weighted.size(); ++c) {
    EXPECT_EQ(serial.per_cache_weighted[c], sharded.per_cache_weighted[c])
        << "cache " << c;
  }

  const SchedulerStats& a = serial.scheduler;
  const SchedulerStats& b = sharded.scheduler;
  EXPECT_EQ(a.refreshes_sent, b.refreshes_sent);
  EXPECT_EQ(a.refreshes_delivered, b.refreshes_delivered);
  EXPECT_EQ(a.feedback_sent, b.feedback_sent);
  EXPECT_EQ(a.polls_sent, b.polls_sent);
  EXPECT_EQ(a.cache_utilization, b.cache_utilization);
  EXPECT_EQ(a.avg_cache_queue, b.avg_cache_queue);
  EXPECT_EQ(a.max_cache_queue, b.max_cache_queue);
  EXPECT_EQ(a.mean_threshold, b.mean_threshold);
  EXPECT_EQ(a.relays_forwarded, b.relays_forwarded);
  EXPECT_EQ(a.relay_queue_delay_mean, b.relay_queue_delay_mean);
  EXPECT_EQ(a.relay_transit_delay_mean, b.relay_transit_delay_mean);
  EXPECT_EQ(a.max_relay_store, b.max_relay_store);
  EXPECT_EQ(a.relay_control_moved, b.relay_control_moved);
  EXPECT_EQ(a.reads_total, b.reads_total);
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.pull_requests_sent, b.pull_requests_sent);
  EXPECT_EQ(a.pulls_delivered, b.pulls_delivered);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.read_staleness_mean, b.read_staleness_mean);
  EXPECT_EQ(a.read_staleness_p50, b.read_staleness_p50);
  EXPECT_EQ(a.read_staleness_p95, b.read_staleness_p95);
  EXPECT_EQ(a.read_staleness_p99, b.read_staleness_p99);
  EXPECT_EQ(a.read_miss_latency_mean, b.read_miss_latency_mean);
  EXPECT_EQ(a.pull_units_delivered, b.pull_units_delivered);
  EXPECT_EQ(a.push_units_delivered, b.push_units_delivered);
  EXPECT_EQ(a.pull_bandwidth_share, b.pull_bandwidth_share);
  EXPECT_EQ(a.invalidations_sent, b.invalidations_sent);
  EXPECT_EQ(a.invalidations_received, b.invalidations_received);
  EXPECT_EQ(a.cache_crashes, b.cache_crashes);
  EXPECT_EQ(a.cache_restarts, b.cache_restarts);
  EXPECT_EQ(a.relay_failures, b.relay_failures);
  EXPECT_EQ(a.link_down_events, b.link_down_events);
  EXPECT_EQ(a.slowdown_events, b.slowdown_events);
  EXPECT_EQ(a.crash_dropped_pulls, b.crash_dropped_pulls);
  EXPECT_EQ(a.resync_deliveries, b.resync_deliveries);
  EXPECT_EQ(a.resync_pending, b.resync_pending);
  EXPECT_EQ(a.time_to_resync_mean, b.time_to_resync_mean);
  EXPECT_EQ(a.time_to_resync_p95, b.time_to_resync_p95);
}

/// Runs `config` at 1/2/4/8 shards and checks every sharded run against
/// the serial one. Returns the serial result for golden pinning. The 8
/// count oversubscribes most of these tiny topologies on purpose: the
/// scheduler clamps its team to the widest shardable axis, and the clamp
/// itself must not perturb results.
RunResult CheckThreadInvariance(const ExperimentConfig& config) {
  const RunResult serial = RunAt(config, 1);
  ExpectIdenticalRuns(serial, RunAt(config, 2));
  ExpectIdenticalRuns(serial, RunAt(config, 4));
  ExpectIdenticalRuns(serial, RunAt(config, 8));
  return serial;
}

// ------------------------------------------------------------ workloads

/// Disjoint partitions with lossy, bandwidth-constrained links on both
/// sides: exercises the buffered send phase (source-link budgets, full-
/// capacity marking) and the two-phase delivery collect (per-link loss
/// draws must land on the same messages in the same order).
TEST(ShardingTest, PartitionedLossyMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 20;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 11;
  config.harness.warmup = 20.0;
  config.harness.measure = 120.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  config.loss_rate = 0.05;
  const RunResult serial = CheckThreadInvariance(config);
  // Pin the serial baseline so a drift there cannot hide behind the
  // equality checks. Exact, like every other golden in this repo.
  EXPECT_DOUBLE_EQ(serial.total_weighted_divergence, kPartitionedLossyGolden);
}

/// Full replication: every source feeds every cache, so a source's
/// buffered emissions fan out across all shared cache links and the
/// interleaving of the serial flush (shuffled source order, ascending
/// cache channels per source) is load-bearing.
TEST(ShardingTest, FullReplicationMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 15;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kFullReplication;
  config.workload.seed = 23;
  config.harness.warmup = 20.0;
  config.harness.measure = 100.0;
  config.harness.seed = 9;
  config.cache_bandwidth_avg = 5.0;
  CheckThreadInvariance(config);
}

/// A two-tier relay tree with binding relay bandwidth: BeginTick advances
/// cache, source, relay-ingress and relay-egress links across shards, and
/// the relay store-and-forward phase runs between the sharded send and
/// delivery phases.
TEST(ShardingTest, RelayTreeMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 12;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.relay_tiers = 2;
  config.workload.relay_fanout = 2;
  config.workload.relay_bandwidth_factor = 0.75;
  config.workload.seed = 31;
  config.harness.warmup = 20.0;
  config.harness.measure = 100.0;
  config.harness.seed = 3;
  config.cache_bandwidth_avg = 6.0;
  CheckThreadInvariance(config);
}

/// Many sources, so the send-phase shuffle is a long Fisher-Yates sequence:
/// in sharded mode that shuffle now runs as the ShardPool prelude,
/// overlapped with the workers' buffered emission compute, and must still
/// land on the exact serial stream position (same draws, same order).
TEST(ShardingTest, ManySourceOverlappedShuffleMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 24;
  config.workload.objects_per_source = 6;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 41;
  config.harness.warmup = 20.0;
  config.harness.measure = 100.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 5.0;
  config.source_bandwidth_avg = 2.0;
  const RunResult serial = CheckThreadInvariance(config);
  EXPECT_GT(serial.scheduler.refreshes_sent, 0);
}

/// The invalidation protocol's send phase (notification queues, batching,
/// lazy tombstones) and validity-tracked read path must be thread-count
/// invariant like the push phases they replace.
TEST(ShardingTest, InvalidationProtocolMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 15;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.read.read_rate = 3.0;
  config.workload.seed = 37;
  config.harness.warmup = 20.0;
  config.harness.measure = 100.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  config.loss_rate = 0.05;
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  config.protocol.max_invalidate_batch = 4;
  const RunResult serial = CheckThreadInvariance(config);
  EXPECT_GT(serial.scheduler.invalidations_sent, 0);
}

/// Reads enabled with a binding capacity: miss-triggered pulls are served
/// inside the tick and travel the same links as pushes, and evictions
/// depend on delivery order — all of it must survive sharding bitwise.
TEST(ShardingTest, ReadPathMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.num_caches = 2;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.read.read_rate = 1.0;
  config.workload.read.capacity = 30;
  config.workload.seed = 17;
  config.harness.warmup = 20.0;
  config.harness.measure = 100.0;
  config.harness.seed = 13;
  config.cache_bandwidth_avg = 6.0;
  const RunResult serial = CheckThreadInvariance(config);
  EXPECT_GT(serial.scheduler.reads_total, 0);
  EXPECT_GT(serial.scheduler.cache_evictions, 0);
}

/// A fault schedule layered on the lossy partitioned workload: crashes,
/// restarts-with-resync, a link flap and a slowdown all land mid-run. The
/// cache-major parallel delivery apply buffers resync bookkeeping per
/// cache and drains it serially; every resync counter and digest quantile
/// must still match the serial engine bit for bit.
TEST(ShardingTest, FaultScheduleMatchesSerialExactly) {
  ExperimentConfig config;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 20;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.read.read_rate = 2.0;
  config.workload.seed = 11;
  config.harness.warmup = 20.0;
  config.harness.measure = 120.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  config.loss_rate = 0.05;
  config.workload.fault.cache_crashes = 2;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.link_flaps = 1;
  config.workload.fault.slowdowns = 1;
  config.workload.fault.window_start = 40.0;
  config.workload.fault.window_end = 120.0;
  config.recovery_policy = RecoveryPolicy::kRecoveryPriority;
  const RunResult serial = CheckThreadInvariance(config);
  EXPECT_GT(serial.scheduler.cache_crashes, 0);
  EXPECT_GT(serial.scheduler.resync_deliveries, 0);
}

}  // namespace
}  // namespace besync
