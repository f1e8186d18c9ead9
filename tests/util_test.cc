#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/shard_pool.h"
#include "util/fluctuation.h"
#include "util/random.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace besync {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad value: ", 42);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "bad value: 42");
  EXPECT_EQ(status.ToString(), "Invalid argument: bad value: 42");
}

TEST(StatusTest, DoublesPrintShortestRoundTrip) {
  EXPECT_EQ(Status::InvalidArgument("got ", 1.0, ", ", -5.0).message(), "got 1, -5");
  EXPECT_EQ(Status::InvalidArgument("rate ", 1e-7).message(), "rate 1e-07");
  EXPECT_EQ(Status::InvalidArgument("loss ", 0.1).message(), "loss 0.1");
  EXPECT_EQ(Status::InvalidArgument("count ", 3).message(), "count 3");
}

TEST(StatusTest, CopyPreservesContent) {
  Status status = Status::NotFound("object ", 7);
  Status copy = status;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), status.message());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Status FailsIfNegative(int value) {
  if (value < 0) return Status::OutOfRange("negative: ", value);
  return Status::OK();
}

Status Caller(int value) {
  BESYNC_RETURN_IF_ERROR(FailsIfNegative(value));
  return Status::Internal("should not be reached on failure");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(-1).IsOutOfRange());
  EXPECT_TRUE(Caller(1).IsInternal());  // fell through to the sentinel
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int value) {
  if (value <= 0) return Status::InvalidArgument("not positive");
  return value * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(-3);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(result.ValueOr(-1), -1);
}

Result<int> ChainedParse(int value) {
  BESYNC_ASSIGN_OR_RETURN(int doubled, ParsePositive(value));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*ChainedParse(5), 11);
  EXPECT_FALSE(ChainedParse(0).ok());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += a.NextUint64() != b.NextUint64();
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(17);
  std::vector<int> counts(6, 0);
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(0, 5)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 6.0, 5.0 * std::sqrt(kDraws / 6.0));
  }
}

TEST(RngTest, ExponentialHasCorrectMean) {
  Rng rng(31);
  const double rate = 2.5;
  double sum = 0.0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(rate);
  EXPECT_NEAR(sum / kDraws, 1.0 / rate, 0.01);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MatchesMeanAndVariance) {
  const double mean = GetParam();
  Rng rng(11 + static_cast<uint64_t>(mean * 1000));
  RunningStat stat;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    stat.Add(static_cast<double>(rng.Poisson(mean)));
  }
  // Poisson: mean == variance.
  EXPECT_NEAR(stat.mean(), mean, 4.0 * std::sqrt(mean / kDraws) + 0.01);
  EXPECT_NEAR(stat.variance(), mean, 0.12 * mean + 0.05);
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 40.0, 200.0));

TEST(RngTest, NormalMoments) {
  Rng rng(77);
  NormalSampler normal(&rng);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(normal.Next(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(5);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = rng.Zipf(10, 1.0);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 10);
    ++counts[k];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], 0);
  // Ratio c1/c2 should be close to 2 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.35);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child stream should not equal the parent's continued stream.
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += parent.NextUint64() != child.NextUint64();
  EXPECT_GT(differing, 60);
}

TEST(RngTest, SplitIsDeterministicAndDoesNotAdvanceParent) {
  // Split is the shard-stream derivation: a pure function of (parent
  // state, key) that leaves the parent's stream untouched, so shards can
  // draw their streams without perturbing the main-thread sequence.
  Rng parent(42);
  Rng probe(42);
  Rng child_a = parent.Split(3);
  Rng child_a2 = parent.Split(3);
  Rng child_b = parent.Split(4);
  // Same key twice: identical child stream.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_a.NextUint64(), child_a2.NextUint64());
  }
  // Different keys: different streams.
  int differing = 0;
  Rng child_b_probe = probe.Split(3);
  for (int i = 0; i < 64; ++i) {
    differing += child_b.NextUint64() != child_b_probe.NextUint64();
  }
  EXPECT_GT(differing, 60);
  // The parent's own stream is exactly where an un-split copy's is.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(parent.NextUint64(), probe.NextUint64());
  }
}

TEST(RngTest, SplitDependsOnParentState) {
  // Two parents with different states must derive different children for
  // the same key (the derivation folds the full state, not just the key).
  Rng a(1);
  Rng b(2);
  Rng child_a = a.Split(7);
  Rng child_b = b.Split(7);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += child_a.NextUint64() != child_b.NextUint64();
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(8);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = values;
  rng.Shuffle(&values);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// ----------------------------------------------------------------- Stats

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_EQ(stat.count(), 8);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(TimeWeightedMeanTest, WeightsByDuration) {
  TimeWeightedMean mean;
  mean.Add(1.0, 3.0);  // value 1 for 3 s
  mean.Add(5.0, 1.0);  // value 5 for 1 s
  EXPECT_DOUBLE_EQ(mean.mean(), 2.0);
  EXPECT_DOUBLE_EQ(mean.total_time(), 4.0);
  EXPECT_DOUBLE_EQ(mean.integral(), 8.0);
}

TEST(TimeWeightedMeanTest, IgnoresNonPositiveDurations) {
  TimeWeightedMean mean;
  mean.Add(100.0, 0.0);
  mean.Add(100.0, -1.0);
  EXPECT_DOUBLE_EQ(mean.mean(), 0.0);
}

TEST(UtilizationStatTest, Ratio) {
  UtilizationStat stat;
  stat.Add(3, 10);
  stat.Add(7, 10);
  EXPECT_DOUBLE_EQ(stat.utilization(), 0.5);
}

// ----------------------------------------------------------- Fluctuation

TEST(FluctuationTest, ConstantIsConstant) {
  const Fluctuation fluctuation = Fluctuation::Constant(4.2);
  EXPECT_TRUE(fluctuation.constant());
  EXPECT_DOUBLE_EQ(fluctuation.ValueAt(0.0), 4.2);
  EXPECT_DOUBLE_EQ(fluctuation.ValueAt(1e6), 4.2);
  EXPECT_DOUBLE_EQ(fluctuation.average(), 4.2);
}

TEST(FluctuationTest, SineStaysPositiveAndAveragesToBase) {
  const Fluctuation fluctuation = Fluctuation::Sine(10.0, 0.5, 100.0, 0.3);
  EXPECT_FALSE(fluctuation.constant());
  double sum = 0.0;
  const int kSteps = 10000;
  for (int i = 0; i < kSteps; ++i) {
    const double v = fluctuation.ValueAt(i * 0.1);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 15.0 + 1e-9);
    sum += v;
  }
  // 10000 * 0.1 = 1000 s = 10 whole periods: the average is exact.
  EXPECT_NEAR(sum / kSteps, 10.0, 0.05);
}

TEST(FluctuationTest, BandwidthFactoryRespectsChangeRate) {
  Rng rng(1);
  const Fluctuation fluctuation = MakeBandwidthFluctuation(100.0, 0.25, &rng);
  // Max relative derivative = amplitude * 2*pi / period must equal mB.
  ASSERT_FALSE(fluctuation.constant());
  const double max_rate = fluctuation.amplitude * 2.0 * M_PI / fluctuation.period;
  EXPECT_NEAR(max_rate, 0.25, 1e-9);
}

TEST(FluctuationTest, BandwidthFactoryZeroRateIsConstant) {
  Rng rng(1);
  EXPECT_TRUE(MakeBandwidthFluctuation(100.0, 0.0, &rng).constant());
}

TEST(FluctuationTest, WeightFactoryDrawsWithinBounds) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const Fluctuation weight = MakeWeightFluctuation(2.0, 0.8, 100.0, 1000.0, &rng);
    EXPECT_DOUBLE_EQ(weight.average(), 2.0);
    for (double t : {0.0, 50.0, 123.0, 999.0}) {
      EXPECT_GT(weight.ValueAt(t), 0.0);
      EXPECT_LT(weight.ValueAt(t), 2.0 * 1.81);
    }
  }
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--count", "7", "--verbose"};
  Flags flags;
  ASSERT_TRUE(Flags::Parse(5, const_cast<char**>(argv),
                           {"alpha", "count", "verbose"}, &flags)
                  .ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags;
  EXPECT_TRUE(Flags::Parse(2, const_cast<char**>(argv), {"alpha"}, &flags)
                  .IsInvalidArgument());
}

TEST(FlagsTest, RejectsPositionalArgument) {
  const char* argv[] = {"prog", "oops"};
  Flags flags;
  EXPECT_FALSE(Flags::Parse(2, const_cast<char**>(argv), {"alpha"}, &flags).ok());
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({TablePrinter::Cell("x"), TablePrinter::Cell(1.5)});
  table.AddRow({TablePrinter::Cell("longer"), TablePrinter::Cell(int64_t{42})});
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(TablePrinterTest, CellFormatsDoubles) {
  EXPECT_EQ(TablePrinter::Cell(1.5), "1.5");
  EXPECT_EQ(TablePrinter::Cell(2.0), "2.0");
  EXPECT_EQ(TablePrinter::Cell(0.12345), "0.1235");  // 4 decimals, rounded
  EXPECT_EQ(TablePrinter::Cell(std::nan("")), "nan");
}

TEST(TablePrinterTest, CsvEscapesSpecials) {
  TablePrinter table({"a", "b"});
  table.AddRow({"plain", "with,comma"});
  table.AddRow({"quote\"inside", "line"});
  std::ostringstream os;
  table.WriteCsv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"quote\"\"inside\""), std::string::npos);
}

// ------------------------------------------------------------- ShardPool

TEST(ShardPoolTest, ShardRangeCoversEveryItemExactlyOnce) {
  for (int64_t count : {0, 1, 3, 7, 8, 100}) {
    for (int shards : {1, 2, 3, 4, 8}) {
      int64_t next = 0;
      for (int s = 0; s < shards; ++s) {
        const auto range = ShardPool::ShardRange(count, s, shards);
        EXPECT_EQ(range.first, next) << count << "/" << shards << " shard " << s;
        EXPECT_LE(range.first, range.second);
        // Balanced: sizes differ by at most one.
        EXPECT_LE(range.second - range.first, count / shards + 1);
        next = range.second;
      }
      EXPECT_EQ(next, count);
    }
  }
}

TEST(ShardPoolTest, ShardRangeTrailingShardsEmptyWhenCountBelowShards) {
  // The footgun documented on ShardRange: a team wider than the item count
  // leaves the trailing lanes with empty ranges. The ranges must still
  // tile [0, count) — work is never lost, only lanes idle.
  const auto r0 = ShardPool::ShardRange(2, 0, 4);
  const auto r1 = ShardPool::ShardRange(2, 1, 4);
  const auto r2 = ShardPool::ShardRange(2, 2, 4);
  const auto r3 = ShardPool::ShardRange(2, 3, 4);
  EXPECT_EQ(r0, (std::pair<int64_t, int64_t>{0, 1}));
  EXPECT_EQ(r1, (std::pair<int64_t, int64_t>{1, 2}));
  EXPECT_EQ(r2.first, r2.second);
  EXPECT_EQ(r3.first, r3.second);
}

TEST(ShardPoolTest, OversubscribedPoolStillProcessesEveryItemOnce) {
  // More lanes than items: trailing shards see empty ranges and must be
  // harmless — every item still processed exactly once across the team.
  constexpr int kItems = 3;
  ShardPool pool(8);
  std::vector<std::atomic<int>> hits(kItems);
  for (auto& h : hits) h.store(0);
  pool.Run([&hits](int shard) {
    const auto range = ShardPool::ShardRange(kItems, shard, 8);
    for (int64_t i = range.first; i < range.second; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(ShardPoolTest, MainPreludeRunsBeforeShardZero) {
  ShardPool pool(4);
  std::atomic<bool> prelude_done{false};
  bool shard0_saw_prelude = false;
  pool.Run(
      [&](int shard) {
        if (shard == 0) shard0_saw_prelude = prelude_done.load();
      },
      [&prelude_done] { prelude_done.store(true); });
  EXPECT_TRUE(shard0_saw_prelude);
  EXPECT_TRUE(prelude_done.load());
}

TEST(ShardPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ShardPool::HardwareThreads(), 1);
}

}  // namespace
}  // namespace besync
