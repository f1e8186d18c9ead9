// Observability-layer tests: compiled-in-but-disabled obs reproduces the
// seed goldens exactly, enabling it never changes run results at any
// run_threads, the exported time-series/trace bytes are identical across
// thread counts (including the sharded send-order mode), the fixed-budget
// downsampler is deterministic, and recorded message lifecycles are
// complete and monotone (enqueue <= send <= apply on matching identities;
// every resync episode opens and closes). The bounded trace merge equals
// the concatenate/stable-sort/truncate reference at every cap, and the
// exported bytes of one small config are pinned across commits.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "stats_fields.h"
#include "util/json.h"
#include "util/random.h"

namespace besync {
namespace {

/// The GoldenTest.CooperativeTrigger configuration (tests/golden_test.cc):
/// the seed-era single-cache constants observability must not disturb.
ExperimentConfig GoldenConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 25;
  config.workload.seed = 42;
  config.harness.warmup = 50.0;
  config.harness.measure = 300.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

constexpr double kGoldenDivergence = 226.69154803746471;
constexpr int64_t kGoldenRefreshes = 3150;
constexpr int64_t kGoldenFeedback = 436;

/// Multi-cache tree configuration with reads and a pinned crash/restart:
/// exercises every trace-producing subsystem (relays, pulls, faults,
/// resync) in one short run.
ExperimentConfig FaultTreeConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 12;
  config.workload.num_caches = 4;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 11;
  config.workload.relay_tiers = 1;
  config.workload.relay_fanout = 2;
  config.workload.read.read_rate = 1.0;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.crash_cache = 0;
  config.workload.fault.crash_duration = 15.0;
  config.workload.fault.window_start = 60.0;
  config.workload.fault.window_end = 0.0;  // fire exactly at 60
  return config;
}

ObsConfig FullObs() {
  ObsConfig obs;
  obs.enabled = true;
  obs.trace = true;
  return obs;
}

std::string TimeSeriesBytes(const RunResult& result) {
  std::ostringstream out;
  WriteTimeSeriesJson(out, {{"job", result.obs.get()}});
  return out.str();
}

std::string TraceBytes(const RunResult& result) {
  std::ostringstream out;
  WriteTraceJson(out, {{"job", result.obs.get()}});
  return out.str();
}

// ------------------------------------------------------ bitwise inertness

TEST(ObsInertnessTest, DisabledObsKeepsSeedGoldens) {
  const auto result = RunExperiment(GoldenConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_weighted_divergence, kGoldenDivergence);
  EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
  EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
  EXPECT_EQ(result->obs, nullptr);  // no collector allocated when disabled
}

TEST(ObsInertnessTest, EnabledObsKeepsSeedGoldensAtAnyThreadCount) {
  for (int run_threads : {1, 2, 8}) {
    ExperimentConfig config = GoldenConfig();
    config.run_threads = run_threads;
    config.obs = FullObs();
    const auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_weighted_divergence, kGoldenDivergence)
        << "run_threads=" << run_threads;
    EXPECT_EQ(result->scheduler.refreshes_sent, kGoldenRefreshes);
    EXPECT_EQ(result->scheduler.feedback_sent, kGoldenFeedback);
    ASSERT_NE(result->obs, nullptr);
    EXPECT_FALSE(result->obs->series.rows().empty());
    EXPECT_FALSE(result->obs->trace.empty());
  }
}

TEST(ObsInertnessTest, EnabledObsIsResultInertOnFaultTreeWithReads) {
  ExperimentConfig off = FaultTreeConfig();
  const auto baseline = RunExperiment(off);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->scheduler.cache_crashes, 0);  // the fault really fired
  ASSERT_GT(baseline->scheduler.reads_total, 0);

  for (int run_threads : {1, 2, 8}) {
    ExperimentConfig on = FaultTreeConfig();
    on.run_threads = run_threads;
    on.obs = FullObs();
    const auto result = RunExperiment(on);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_weighted_divergence,
              baseline->total_weighted_divergence)
        << "observability perturbed the run at run_threads=" << run_threads;
    EXPECT_EQ(DifferingStatsFields(result->scheduler, baseline->scheduler),
              std::vector<std::string>{})
        << "observability perturbed the run at run_threads=" << run_threads;
  }
}

TEST(ObsInertnessTest, ObsOnBaselineSchedulerIsInvalidArgument) {
  ExperimentConfig config = GoldenConfig();
  config.scheduler = SchedulerKind::kRoundRobin;
  config.obs.enabled = true;
  const auto result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
}

// -------------------------------------------- byte-stability of the export

TEST(ObsExportTest, BytesIdenticalAcrossRunThreads) {
  std::string series_bytes;
  std::string trace_bytes;
  for (int run_threads : {1, 2, 8}) {
    ExperimentConfig config = FaultTreeConfig();
    config.run_threads = run_threads;
    config.obs = FullObs();
    const auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->obs, nullptr);
    if (run_threads == 1) {
      series_bytes = TimeSeriesBytes(*result);
      trace_bytes = TraceBytes(*result);
      EXPECT_FALSE(trace_bytes.empty());
      continue;
    }
    EXPECT_EQ(TimeSeriesBytes(*result), series_bytes)
        << "time-series bytes diverged at run_threads=" << run_threads;
    EXPECT_EQ(TraceBytes(*result), trace_bytes)
        << "trace bytes diverged at run_threads=" << run_threads;
  }
}

TEST(ObsExportTest, TraceFilterSelectsSubset) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto all = RunExperiment(config);
  ASSERT_TRUE(all.ok());

  config.obs.trace_caches = {1};
  config.obs.trace_start = 40.0;
  config.obs.trace_end = 120.0;
  const auto filtered = RunExperiment(config);
  ASSERT_TRUE(filtered.ok());
  ASSERT_NE(filtered->obs, nullptr);
  EXPECT_LT(filtered->obs->trace.size(), all->obs->trace.size());
  EXPECT_FALSE(filtered->obs->trace.empty());
  for (const TraceEvent& event : filtered->obs->trace) {
    if (event.cache >= 0) {
      EXPECT_EQ(event.cache, 1);
    }
    EXPECT_GE(event.t, 40.0);
    EXPECT_LE(event.t, 120.0);
  }
  // Filtering must not perturb the run itself.
  EXPECT_EQ(filtered->total_weighted_divergence, all->total_weighted_divergence);
}

// The exported documents of one small config, pinned across commits (the
// thread-count test above only compares a commit with itself). Recorded
// from the concatenate-then-stable-sort merge and the snprintf exporter
// that preceded the bounded merge and the to_chars writer: any drift in
// merge order or number spelling shows here.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(ObsExportTest, PinnedDocumentBytes) {
  struct Pin {
    int64_t max_trace_events;
    size_t trace_events;
    int64_t trace_dropped;
    size_t trace_length;
    uint64_t trace_fnv;
  };
  // The default cap keeps every event; 500 makes the merge truncate.
  for (const Pin& pin : {Pin{100000, 18686, 0, 4102172, 0xd53276808831cd16ULL},
                         Pin{500, 500, 18186, 215734, 0xc56e0d2550e84502ULL}}) {
    ExperimentConfig config = FaultTreeConfig();
    config.obs = FullObs();
    config.obs.max_trace_events = pin.max_trace_events;
    const auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->obs->trace.size(), pin.trace_events);
    EXPECT_EQ(result->obs->trace_dropped, pin.trace_dropped);
    const std::string series = TimeSeriesBytes(*result);
    EXPECT_EQ(series.size(), 17577u);
    EXPECT_EQ(Fnv1a(series), 0x38126c55629db4acULL);
    const std::string trace = TraceBytes(*result);
    EXPECT_EQ(trace.size(), pin.trace_length) << "cap " << pin.max_trace_events;
    EXPECT_EQ(Fnv1a(trace), pin.trace_fnv) << "cap " << pin.max_trace_events;
  }
}

/// The exporter's former number format: the shortest of %.15g..%.17g that
/// strtod reads back exactly.
std::string SnprintfNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string Number(double value) {
  std::string out;
  AppendJsonNumber(&out, value);
  return out;
}

TEST(JsonFormatTest, NumbersMatchSnprintfSpelling) {
  const std::pair<double, const char*> table[] = {
      {0.1, "0.1"},
      {1.0 / 3.0, "0.3333333333333333"},
      {1e-7, "1e-07"},
      {5e-324, "4.94065645841247e-324"},
      {1e300, "1e+300"},
      {-0.0, "-0"},
      {0.0, "0"},
      {2.0 / 3.0, "0.6666666666666666"},
      {std::numeric_limits<double>::infinity(), "null"},
      {-std::numeric_limits<double>::infinity(), "null"},
      {std::numeric_limits<double>::quiet_NaN(), "null"},
  };
  for (const auto& [value, spelled] : table) {
    EXPECT_EQ(Number(value), spelled);
    EXPECT_EQ(SnprintfNumber(value), spelled);
  }
  // Random bit patterns (every exponent, subnormals included) and
  // simulation-like magnitudes.
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    ASSERT_EQ(Number(value), SnprintfNumber(value)) << std::hexfloat << value;
    const double sim = rng.Uniform(0.0, 1000.0) * 1e6;
    ASSERT_EQ(Number(sim), SnprintfNumber(sim)) << std::hexfloat << sim;
  }
}

TEST(JsonFormatTest, StringsEscapeQuotesAndControls) {
  std::string out;
  AppendJsonString(&out, std::string("a\"b\\c\n\t\r\x01\x1f") + '\0' + "z");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f\\u0000z\"");
}

TEST(JsonFormatTest, WriterFlushesInChunksToTheSameBytes) {
  std::ostringstream os;
  std::string expected;
  {
    JsonWriter out(&os);
    for (int i = 0; i < 20000; ++i) {
      out << "[" << i << ", " << JsonNumber(i / 7.0) << ']';
      expected += "[" + std::to_string(i) + ", " + Number(i / 7.0) + "]";
    }
    // Chunks went out before the end; the rest goes on destruction.
    EXPECT_GT(os.str().size(), 0u);
  }
  EXPECT_EQ(os.str(), expected);
}

// ------------------------------------------------------- bounded merge

constexpr int kMergeSources = 3;
constexpr int kMergeCaches = 4;
constexpr int kMergeRelays = 2;

/// A collector whose buffers hold seeded events with heavy key ties, `t`
/// out of order within each buffer, and skewed buffer sizes (so small caps
/// overflow some buffers but not others). `aux` numbers the record calls,
/// which makes every event distinguishable when comparing orders.
std::unique_ptr<ObsCollector> FilledCollector(int64_t cap) {
  ObsConfig config = FullObs();
  config.max_trace_events = cap;
  auto collector = std::make_unique<ObsCollector>(
      config, kMergeSources, kMergeCaches, kMergeRelays, 1.0);
  std::vector<TraceBuffer*> buffers{collector->main_buffer()};
  for (int s = 0; s < kMergeSources; ++s) {
    buffers.push_back(collector->source_buffer(s));
  }
  for (int c = 0; c < kMergeCaches; ++c) {
    buffers.push_back(collector->cache_buffer(c));
  }
  for (int r = 0; r < kMergeRelays; ++r) {
    buffers.push_back(collector->relay_buffer(r));
  }
  Rng rng(2024);
  const int64_t last = static_cast<int64_t>(buffers.size()) - 1;
  for (int i = 0; i < 1500; ++i) {
    TraceEvent event;
    event.t = 0.5 * static_cast<double>(rng.UniformInt(0, 5));
    event.kind = static_cast<TraceEventKind>(rng.UniformInt(0, 2));
    event.cache = static_cast<int32_t>(rng.UniformInt(-1, 0));
    event.node = static_cast<int32_t>(rng.UniformInt(-1, 0));
    event.source = static_cast<int32_t>(rng.UniformInt(-1, 0));
    event.object = rng.UniformInt(0, 1);
    event.version = rng.UniformInt(0, 1);
    event.aux = i;
    event.value = rng.NextDouble();
    // min of two draws: low buffer ids fill several times faster.
    const int64_t b = std::min(rng.UniformInt(0, last), rng.UniformInt(0, last));
    buffers[static_cast<size_t>(b)]->Record(event);
  }
  return collector;
}

using EventKey = std::tuple<double, TraceEventKind, int32_t, int32_t, int32_t,
                            int64_t, int64_t>;

EventKey KeyOf(const TraceEvent& e) {
  return EventKey{e.t, e.kind, e.cache, e.node, e.source, e.object, e.version};
}

/// The reference merge: concatenate in buffer order, stable-sort on the
/// event keys, truncate to the cap. Read before Finish (which frees the
/// buffers). Returns the full sorted sequence; the caller truncates.
std::vector<TraceEvent> ReferenceSorted(ObsCollector* collector,
                                        int64_t* buffer_dropped) {
  std::vector<TraceBuffer*> buffers{collector->main_buffer()};
  for (int s = 0; s < kMergeSources; ++s) {
    buffers.push_back(collector->source_buffer(s));
  }
  for (int c = 0; c < kMergeCaches; ++c) {
    buffers.push_back(collector->cache_buffer(c));
  }
  for (int r = 0; r < kMergeRelays; ++r) {
    buffers.push_back(collector->relay_buffer(r));
  }
  std::vector<TraceEvent> all;
  *buffer_dropped = 0;
  for (const TraceBuffer* buffer : buffers) {
    all.insert(all.end(), buffer->events().begin(), buffer->events().end());
    *buffer_dropped += buffer->dropped();
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return KeyOf(a) < KeyOf(b);
                   });
  return all;
}

void ExpectMergeMatchesReference(int64_t cap) {
  SCOPED_TRACE("cap " + std::to_string(cap));
  std::unique_ptr<ObsCollector> collector = FilledCollector(cap);
  int64_t expected_dropped = 0;
  std::vector<TraceEvent> expected =
      ReferenceSorted(collector.get(), &expected_dropped);
  if (cap > 0 && static_cast<int64_t>(expected.size()) > cap) {
    expected_dropped += static_cast<int64_t>(expected.size()) - cap;
    expected.resize(static_cast<size_t>(cap));
  }
  const std::shared_ptr<ObsOutput> output = collector->Finish();
  EXPECT_EQ(output->trace_dropped, expected_dropped);
  ASSERT_EQ(output->trace.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const TraceEvent& got = output->trace[i];
    const TraceEvent& want = expected[i];
    ASSERT_EQ(KeyOf(got), KeyOf(want)) << "position " << i;
    ASSERT_EQ(got.aux, want.aux) << "tie order differs at position " << i;
    ASSERT_EQ(got.value, want.value);
    ASSERT_EQ(got.is_pull, want.is_pull);
  }
}

TEST(ObsMergeTest, BoundedMergeEqualsStableSortThenTruncate) {
  // Unbounded: every recorded event, fully ordered.
  int64_t dropped = 0;
  const int64_t total = static_cast<int64_t>(
      ReferenceSorted(FilledCollector(0).get(), &dropped).size());
  ASSERT_EQ(total, 1500);
  ASSERT_EQ(dropped, 0);
  ExpectMergeMatchesReference(0);
  ExpectMergeMatchesReference(1);
  ExpectMergeMatchesReference(total);
  ExpectMergeMatchesReference(total + 1);
  // Caps below the largest buffer's size: per-buffer drops plus merge
  // truncation.
  ExpectMergeMatchesReference(40);
  ExpectMergeMatchesReference(300);

  // A cap whose cut falls inside a run of equal keys, where only the
  // (buffer id, in-buffer sequence) tie-break decides what is kept.
  int64_t cut = -1;
  for (int64_t cap = total / 2; cap < total && cut < 0; ++cap) {
    std::vector<TraceEvent> sorted =
        ReferenceSorted(FilledCollector(cap).get(), &dropped);
    if (static_cast<int64_t>(sorted.size()) > cap &&
        KeyOf(sorted[static_cast<size_t>(cap) - 1]) ==
            KeyOf(sorted[static_cast<size_t>(cap)])) {
      cut = cap;
    }
  }
  ASSERT_GT(cut, 0) << "no cap cuts through a tie; the fixture lost its ties";
  ExpectMergeMatchesReference(cut);
}

// ------------------------------------------------------------ downsampler

TEST(ObsTimeSeriesTest, DecimationIsDeterministicAndKeepsNewest) {
  TimeSeries series;
  series.Configure({"a"}, 1.0, 64);
  double last_sampled = -1.0;
  for (int t = 0; t < 5000; ++t) {
    if (!series.Due(static_cast<double>(t))) continue;
    series.Append(static_cast<double>(t), {static_cast<double>(t) * 2.0});
    last_sampled = static_cast<double>(t);
  }
  ASSERT_FALSE(series.rows().empty());
  EXPECT_LE(series.rows().size(), 64u);
  // The newest retained row is the newest appended row (no tail truncation).
  EXPECT_EQ(series.rows().back().t, last_sampled);
  // The grid coarsened by doubling: effective interval is a power of two.
  const double ratio = series.effective_interval() / series.sample_interval();
  EXPECT_GE(ratio, 1.0);
  EXPECT_EQ(ratio, static_cast<double>(static_cast<int64_t>(ratio)));
  EXPECT_GT(series.samples_dropped(), 0);

  // A second identical feed retains bitwise-identical rows.
  TimeSeries replay;
  replay.Configure({"a"}, 1.0, 64);
  for (int t = 0; t < 5000; ++t) {
    if (!replay.Due(static_cast<double>(t))) continue;
    replay.Append(static_cast<double>(t), {static_cast<double>(t) * 2.0});
  }
  ASSERT_EQ(replay.rows().size(), series.rows().size());
  for (size_t i = 0; i < series.rows().size(); ++i) {
    EXPECT_EQ(replay.rows()[i].t, series.rows()[i].t);
    EXPECT_EQ(replay.rows()[i].values, series.rows()[i].values);
  }
}

TEST(ObsTimeSeriesTest, UnboundedBudgetRetainsEverySample) {
  TimeSeries series;
  series.Configure({"a"}, 1.0, 0);  // <= 1 disables the budget
  for (int t = 0; t < 1000; ++t) {
    if (series.Due(static_cast<double>(t))) {
      series.Append(static_cast<double>(t), {0.0});
    }
  }
  EXPECT_EQ(series.rows().size(), 1000u);
  EXPECT_EQ(series.samples_dropped(), 0);
}

// ------------------------------------------------- lifecycle completeness

using LifecycleKey = std::tuple<int32_t, int64_t, int64_t>;  // cache, obj, ver

TEST(ObsLifecycleTest, AppliedRefreshesHaveMonotoneLifecycles) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<TraceEvent>& trace = result->obs->trace;

  std::map<LifecycleKey, double> first_enqueue;
  std::map<LifecycleKey, double> first_send;
  for (const TraceEvent& event : trace) {
    if (event.object < 0 || event.is_pull) continue;
    const LifecycleKey key{event.cache, event.object, event.version};
    if (event.kind == TraceEventKind::kEnqueue) {
      auto it = first_enqueue.find(key);
      if (it == first_enqueue.end() || event.t < it->second) {
        first_enqueue[key] = event.t;
      }
    } else if (event.kind == TraceEventKind::kSend) {
      auto it = first_send.find(key);
      if (it == first_send.end() || event.t < it->second) {
        first_send[key] = event.t;
      }
    }
  }

  int64_t applies = 0;
  int64_t applies_with_send = 0;
  int64_t sends_with_enqueue = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind != TraceEventKind::kApply || event.is_pull) continue;
    ++applies;
    const LifecycleKey key{event.cache, event.object, event.version};
    const auto send = first_send.find(key);
    // The send may predate the trace window or a filter; when recorded it
    // must not postdate the apply.
    if (send == first_send.end()) continue;
    ++applies_with_send;
    EXPECT_LE(send->second, event.t) << "send after apply for object "
                                     << event.object << " v" << event.version;
    const auto enqueue = first_enqueue.find(key);
    if (enqueue != first_enqueue.end()) {
      ++sends_with_enqueue;
      EXPECT_LE(enqueue->second, send->second)
          << "enqueue after send for object " << event.object;
    }
  }
  // Non-vacuity: the run must actually exercise the chain at volume.
  EXPECT_GT(applies, 100);
  EXPECT_GT(applies_with_send, 100);
  EXPECT_GT(sends_with_enqueue, 100);

  // Relay hops: every forward names a store wait >= 0 (value is the wait).
  int64_t forwards = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind != TraceEventKind::kRelayForward) continue;
    ++forwards;
    EXPECT_GE(event.value, 0.0);
  }
  EXPECT_GT(forwards, 0);
}

TEST(ObsLifecycleTest, ResyncEpisodesOpenAndClose) {
  ExperimentConfig config = FaultTreeConfig();
  config.obs = FullObs();
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<const TraceEvent*> starts;
  std::vector<const TraceEvent*> dones;
  int64_t faults = 0;
  for (const TraceEvent& event : result->obs->trace) {
    if (event.kind == TraceEventKind::kFault) ++faults;
    if (event.kind == TraceEventKind::kResyncStart) starts.push_back(&event);
    if (event.kind == TraceEventKind::kResyncDone) dones.push_back(&event);
  }
  ASSERT_GT(faults, 0);  // crash + restart markers
  ASSERT_FALSE(starts.empty());
  ASSERT_EQ(starts.size(), dones.size());  // every episode completed
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i]->cache, dones[i]->cache);
    EXPECT_GE(dones[i]->t, starts[i]->t);
    // resync_done.value records the episode duration.
    EXPECT_EQ(dones[i]->value, dones[i]->t - starts[i]->t);
  }
}

}  // namespace
}  // namespace besync
