// One simulated run of one benchmark workload, timed from outside the
// library. run.py starts this binary once per run (one simulated run per
// process, so VmHWM is that run's peak) and derives every reported metric
// from the single JSON line it prints.
//
//   perfbench_engine --workload NAME --seed N [--size full|smoke]
//                    [--mode untraced|traced|reference|calibrate]
//                    [--out DIR]
//
// untraced   MakeWorkload -> MakeMetric -> MakeScheduler -> RunScheduler
//            through a forwarding Scheduler decorator that only stamps the
//            Initialize/Finalize boundaries, then the obs/export.h writers.
// traced     the same, with every scheduler callback timed, the library's
//            PhaseTimer attached, the update stream captured, and two
//            standalone replays of it (GroundTruth, Simulation) afterwards.
// reference  the library's own RunExperiment on the same config (digest
//            only) — the transparency check's ground truth.
// calibrate  a fixed integer loop, timed (host-speed stamp).
//
// All timestamps are steady_clock nanoseconds since the job started.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "divergence/ground_truth.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "sim/simulation.h"
#include "util/phase_timer.h"

namespace besync {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_engine: %s\n", message.c_str());
  std::exit(2);
}

// ------------------------------------------------------------- workloads

// Why each workload exists is documented in README.md; the shapes here are
// the contract (changing one changes every recorded digest).
ExperimentConfig MakeConfig(const std::string& workload, bool smoke,
                            uint64_t seed) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  WorkloadConfig& w = config.workload;
  w.seed = seed;
  w.rate_lo = 0.0;
  config.harness.seed = seed;
  if (workload == "wide_push") {
    w.num_sources = smoke ? 120 : 600;
    w.objects_per_source = 100;
    w.num_caches = w.num_sources;
    w.interest_pattern = InterestPattern::kPartitionedBySource;
    w.rate_hi = 0.1;
    config.cache_bandwidth_avg = 4.0;
    config.source_bandwidth_avg = 2.0;
    config.run_threads = 1;
    config.harness.warmup = 10.0;
    config.harness.measure = smoke ? 40.0 : 240.0;
  } else if (workload == "million") {
    w.num_sources = smoke ? 100 : 1000;
    w.objects_per_source = smoke ? 100 : 1000;
    w.num_caches = smoke ? 100 : 1000;
    w.interest_pattern = InterestPattern::kPartitionedBySource;
    w.rate_hi = 0.02;
    config.cache_bandwidth_avg = 4.0;
    config.source_bandwidth_avg = 2.0;
    config.run_threads = 4;
    config.harness.warmup = 10.0;
    config.harness.measure = smoke ? 30.0 : 60.0;
  } else if (workload == "tree_reads_faults") {
    w.num_sources = smoke ? 16 : 64;
    w.objects_per_source = smoke ? 100 : 250;
    w.num_caches = 16;
    w.interest_pattern = InterestPattern::kZipfOverlap;
    w.relay_tiers = 2;
    w.relay_fanout = 4;
    w.relay_bandwidth_factor = 0.8;
    w.rate_hi = 0.1;
    w.read.read_rate = 200.0;
    w.read.capacity = 400;
    w.read.eviction = EvictionPolicy::kLru;
    w.read.seed = seed;
    const double horizon = smoke ? 60.0 : 400.0;
    config.harness.warmup = 20.0;
    config.harness.measure = horizon - config.harness.warmup;
    FaultScheduleConfig& fault = w.fault;
    fault.cache_crashes = 3;
    fault.relay_failures = 2;
    fault.link_flaps = 3;
    fault.window_start = 0.2 * horizon;
    fault.window_end = 0.6 * horizon;
    // The fault drill keeps FaultScheduleConfig's own seed: every --seed
    // replays the same faults, so recovery work does not vary with it.
    config.protocol.kind = SyncProtocolKind::kInvalidation;
    config.recovery_policy = RecoveryPolicy::kRecoveryPriority;
    config.relay_store_policy = RelayStorePolicy::kDrain;
    config.cache_bandwidth_avg = 40.0;
    config.source_bandwidth_avg = 30.0;
    config.run_threads = 2;
    config.obs.enabled = true;
    config.obs.trace = true;
    // The trace window covers every fault and its longest recovery.
    config.obs.trace_start = fault.window_start;
    config.obs.trace_end = fault.window_end + fault.crash_duration +
                           fault.relay_fail_duration;
  } else {
    Die("unknown workload '" + workload + "'");
  }
  return config;
}

// ---------------------------------------------------------------- digest

/// Every SchedulerStats field, split by type: integer counters must repeat
/// exactly, floating-point ones within the gate's relative tolerance.
#define BESYNC_PERFBENCH_INT_STATS(X)                                        \
  X(refreshes_sent) X(refreshes_delivered) X(feedback_sent) X(polls_sent)    \
  X(max_cache_queue) X(relays_forwarded) X(max_relay_store)                  \
  X(relay_control_moved) X(reads_total) X(read_hits) X(read_misses)          \
  X(pull_requests_sent) X(pulls_delivered) X(cache_evictions)                \
  X(pull_units_delivered) X(push_units_delivered) X(invalidations_sent)      \
  X(invalidations_received) X(cache_crashes) X(cache_restarts)               \
  X(relay_failures) X(link_down_events) X(slowdown_events)                   \
  X(crash_dropped_pulls) X(resync_deliveries) X(resync_pending)
#define BESYNC_PERFBENCH_FLOAT_STATS(X)                                      \
  X(cache_utilization) X(avg_cache_queue) X(mean_threshold)                  \
  X(relay_queue_delay_mean) X(relay_transit_delay_mean)                      \
  X(read_staleness_mean) X(read_staleness_p50) X(read_staleness_p95)         \
  X(read_staleness_p99) X(read_miss_latency_mean) X(pull_bandwidth_share)    \
  X(time_to_resync_mean) X(time_to_resync_p95)

/// FNV-1a over the bit patterns of every RunResult field: equal hashes mean
/// bitwise-identical results (the transparency check).
class BitsHash {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Add(T value) { Add(&value, sizeof(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AppendDigestJson(const RunResult& result, std::string* out) {
  char buffer[256];
  BitsHash bits;
  bits.Add(result.total_weighted_divergence);
  for (double c : result.per_cache_weighted) bits.Add(c);
  bits.Add(result.per_object_weighted);
  bits.Add(result.per_object_unweighted);
  bits.Add(result.total_replicas);
  const SchedulerStats& s = result.scheduler;
  *out += "\"digest\": {\"ints\": {";
  std::snprintf(buffer, sizeof(buffer), "\"total_replicas\": %" PRId64,
                result.total_replicas);
  *out += buffer;
#define X(field)                                                         \
  bits.Add(s.field);                                                     \
  std::snprintf(buffer, sizeof(buffer), ", \"%s\": %" PRId64, #field,    \
                static_cast<int64_t>(s.field));                          \
  *out += buffer;
  BESYNC_PERFBENCH_INT_STATS(X)
#undef X
  *out += "}, \"floats\": {";
  std::snprintf(buffer, sizeof(buffer),
                "\"total_weighted_divergence\": %.17g, "
                "\"per_object_weighted\": %.17g, "
                "\"per_object_unweighted\": %.17g",
                result.total_weighted_divergence, result.per_object_weighted,
                result.per_object_unweighted);
  *out += buffer;
#define X(field)                                                         \
  bits.Add(s.field);                                                     \
  std::snprintf(buffer, sizeof(buffer), ", \"%s\": %.17g", #field,       \
                static_cast<double>(s.field));                           \
  *out += buffer;
  BESYNC_PERFBENCH_FLOAT_STATS(X)
#undef X
  std::snprintf(buffer, sizeof(buffer), "}, \"bits\": \"%016" PRIx64 "\"}",
                bits.value());
  *out += buffer;
}

// ------------------------------------------------------------- decorator

/// One source update as the scheduler saw it, for the standalone replays.
struct CapturedUpdate {
  ObjectIndex object;
  double t;
  double value;
  int64_t version;
};

/// Boundary stamps and per-callback totals of one run.
struct Spans {
  int64_t run_scheduler_entry = 0;
  int64_t initialize_entry = 0;
  int64_t initialize_return = 0;
  int64_t finalize_return = 0;
  int64_t update_events = 0;
  int64_t ticks = 0;
  // traced only
  int64_t on_object_update_ns = 0;
  int64_t tick_ns = 0;
  int64_t measurement_start_ns = 0;
  int64_t finalize_ns = 0;
  PhaseTimer::Snapshot phases_at_measurement_start;
};

/// Forwards every Scheduler virtual to the real scheduler. Untraced it only
/// stamps the Initialize/Finalize boundaries and counts callbacks; traced it
/// also times every callback and captures each update for the replays.
class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(Scheduler* inner, bool traced, int64_t t0, Spans* spans,
                 const PhaseTimer* phase_timer,
                 std::vector<CapturedUpdate>* captured)
      : inner_(inner),
        traced_(traced),
        t0_(t0),
        spans_(spans),
        phase_timer_(phase_timer),
        captured_(captured) {}

  std::string name() const override { return inner_->name(); }

  void Initialize(Harness* harness) override {
    spans_->initialize_entry = NowNs() - t0_;
    harness_ = harness;
    if (traced_) {
      // Expected update count plus slack, so capturing never reallocates
      // inside the timed steady state.
      double expected = 0.0;
      for (const ObjectSpec& spec : harness->workload().objects) expected += spec.lambda;
      captured_->reserve(static_cast<size_t>(expected * harness->end_time() * 1.1) + 1024);
    }
    inner_->Initialize(harness);
    spans_->initialize_return = NowNs() - t0_;
  }

  void OnObjectUpdate(ObjectIndex index, double t) override {
    ++spans_->update_events;
    if (!traced_) {
      inner_->OnObjectUpdate(index, t);
      return;
    }
    const ObjectState& state = harness_->object(index).state;
    captured_->push_back({index, t, state.value, state.version});
    const int64_t start = NowNs();
    inner_->OnObjectUpdate(index, t);
    spans_->on_object_update_ns += NowNs() - start;
  }

  void Tick(double t) override {
    ++spans_->ticks;
    if (!traced_) {
      inner_->Tick(t);
      return;
    }
    const int64_t start = NowNs();
    inner_->Tick(t);
    spans_->tick_ns += NowNs() - start;
  }

  void OnMeasurementStart(double t) override {
    if (!traced_) {
      inner_->OnMeasurementStart(t);
      return;
    }
    spans_->phases_at_measurement_start = phase_timer_->TakeSnapshot();
    const int64_t start = NowNs();
    inner_->OnMeasurementStart(t);
    spans_->measurement_start_ns += NowNs() - start;
  }

  void Finalize(double t) override {
    const int64_t start = NowNs();
    inner_->Finalize(t);
    const int64_t end = NowNs();
    spans_->finalize_ns = end - start;
    spans_->finalize_return = end - t0_;
  }

  SchedulerStats stats() const override { return inner_->stats(); }
  std::shared_ptr<ObsOutput> TakeObsOutput() override {
    return inner_->TakeObsOutput();
  }

 private:
  Scheduler* inner_;
  bool traced_;
  int64_t t0_;
  Spans* spans_;
  const PhaseTimer* phase_timer_;
  std::vector<CapturedUpdate>* captured_;
  Harness* harness_ = nullptr;
};

// --------------------------------------------------------------- replays

/// Feeds the captured updates, in order, into a fresh standalone
/// GroundTruth over the same workload; returns the loop's nanoseconds.
int64_t ReplayGroundTruth(const Workload& workload, const DivergenceMetric* metric,
                          const std::vector<CapturedUpdate>& updates) {
  GroundTruth ground_truth(&workload, metric);
  ground_truth.Initialize(0.0);
  const int64_t start = NowNs();
  for (const CapturedUpdate& u : updates) {
    ground_truth.OnSourceUpdate(u.object, u.t, u.value, u.version);
  }
  const int64_t elapsed = NowNs() - start;
  // Keep the replay observable so it cannot be elided.
  ground_truth.FinishMeasurement(updates.empty() ? 0.0 : updates.back().t);
  if (!std::isfinite(ground_truth.TotalWeightedAverage())) Die("replay diverged");
  return elapsed;
}

/// Drives the captured update times through a standalone Simulation the way
/// the harness does: one pending event per object (an object's next update
/// is scheduled when the previous one fires; objects past their last update
/// park an event beyond the horizon), RunUntil at every tick boundary. The
/// callbacks capture (pointer, index) like the harness's, so they fit
/// std::function's inline storage just as the harness's do.
class SimulationReplay {
 public:
  SimulationReplay(const std::vector<CapturedUpdate>* updates, size_t num_objects,
                   const HarnessConfig& harness)
      : updates_(updates),
        next_(updates->size(), -1),
        end_(harness.warmup + harness.measure),
        tick_(harness.tick_length) {
    std::vector<int64_t> first(num_objects, -1);
    for (int64_t k = static_cast<int64_t>(updates->size()) - 1; k >= 0; --k) {
      const size_t object = static_cast<size_t>((*updates)[k].object);
      next_[k] = first[object];
      first[object] = k;
    }
    for (int64_t k : first) Schedule(k);
  }

  /// Runs the tick loop; returns its nanoseconds.
  int64_t Run() {
    const int64_t start = NowNs();
    double t = 0.0;
    while (t < end_) {
      const double tick_end = std::min(t + tick_, end_);
      sim_.RunUntil(tick_end);
      t = tick_end;
    }
    return NowNs() - start;
  }

  int64_t fired() const { return fired_; }

 private:
  /// Schedules captured update `k`, or a parked event when k < 0.
  void Schedule(int64_t k) {
    if (k < 0) {
      sim_.ScheduleAt(end_ + 1.0, [](double) {});
    } else {
      sim_.ScheduleAt((*updates_)[k].t, [this, k](double) { Fire(k); });
    }
  }
  void Fire(int64_t k) {
    ++fired_;
    Schedule(next_[k]);
  }

  const std::vector<CapturedUpdate>* updates_;
  std::vector<int64_t> next_;
  double end_;
  double tick_;
  Simulation sim_;
  int64_t fired_ = 0;
};

// ------------------------------------------------------------------ main

int64_t PeakRssKib() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  long long kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(file);
  return static_cast<int64_t>(kib);
}

int64_t FileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return 0;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  return size;
}

void AppendInt(const char* key, int64_t value, std::string* out) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), ", \"%s\": %" PRId64, key, value);
  *out += buffer;
}

/// `, "key": {"begin_tick": ns, ...}` for one PhaseTimer snapshot.
void AppendPhases(const char* key, const PhaseTimer::Snapshot& phases,
                  std::string* out) {
  *out += std::string(", \"") + key + "\": {";
  for (int p = 0; p < PhaseTimer::kNumPhases; ++p) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": %" PRId64, p ? ", " : "",
                  PhaseTimer::Name(static_cast<PhaseTimer::Phase>(p)),
                  phases.nanos[p]);
    *out += buffer;
  }
  *out += "}";
}

int Calibrate() {
  // A dependent xorshift chain: fixed work, no memory traffic, no library.
  const int64_t start = NowNs();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 50000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t elapsed = NowNs() - start;
  std::printf("{\"calibration_ns\": %" PRId64 ", \"checksum\": %" PRIu64
              ", \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              elapsed, x & 0xffff, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  return 0;
}

int Main(int argc, char** argv) {
  std::string workload_name, mode = "untraced", size = "full", out_dir = ".";
  uint64_t seed = 1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--size") {
      size = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (mode == "calibrate") return Calibrate();
  if (workload_name.empty() || !have_seed) Die("--workload and --seed are required");
  if (size != "full" && size != "smoke") Die("--size must be full or smoke");
  const bool traced = mode == "traced";
  if (!traced && mode != "untraced" && mode != "reference") Die("unknown mode " + mode);

  const ExperimentConfig config = MakeConfig(workload_name, size == "smoke", seed);
  std::string out = "{\"workload\": \"" + workload_name + "\", \"mode\": \"" +
                    mode + "\", \"size\": \"" + size + "\"";
  AppendInt("seed", static_cast<int64_t>(seed), &out);

  if (mode == "reference") {
    const Result<RunResult> result = RunExperiment(config);
    if (!result.ok()) Die(result.status().ToString());
    out += ", ";
    AppendDigestJson(result.ValueOrDie(), &out);
    std::printf("%s}\n", out.c_str());
    return 0;
  }

  PhaseTimer phase_timer;
  ExperimentConfig run_config = config;
  if (traced) run_config.phase_timer = &phase_timer;
  Spans spans;
  std::vector<CapturedUpdate> captured;

  const int64_t t0 = NowNs();
  Result<Workload> workload = MakeWorkload(run_config.workload);
  if (!workload.ok()) Die(workload.status().ToString());
  const int64_t make_workload_return = NowNs() - t0;
  const std::unique_ptr<DivergenceMetric> metric = MakeMetric(run_config.metric);
  const std::unique_ptr<Scheduler> scheduler = MakeScheduler(run_config);
  TimedScheduler timed(scheduler.get(), traced, t0, &spans, &phase_timer, &captured);
  spans.run_scheduler_entry = NowNs() - t0;
  const Result<RunResult> result =
      RunScheduler(&workload.ValueOrDie(), metric.get(), run_config.harness, &timed);
  const int64_t run_scheduler_return = NowNs() - t0;
  if (!result.ok()) Die(result.status().ToString());
  const std::vector<ObsJob> jobs{ObsJob{workload_name, result.ValueOrDie().obs.get()}};
  const std::string series_path = out_dir + "/" + workload_name + ".timeseries.json";
  const std::string trace_path = out_dir + "/" + workload_name + ".trace.json";
  const Status series_status = WriteTimeSeriesFile(series_path, jobs);
  const Status trace_status = WriteTraceFile(trace_path, jobs);
  const int64_t export_return = NowNs() - t0;
  if (!series_status.ok()) Die(series_status.ToString());
  if (!trace_status.ok()) Die(trace_status.ToString());
  const int64_t peak_rss_kib = PeakRssKib();

  AppendInt("make_workload_return_ns", make_workload_return, &out);
  AppendInt("run_scheduler_entry_ns", spans.run_scheduler_entry, &out);
  AppendInt("initialize_entry_ns", spans.initialize_entry, &out);
  AppendInt("initialize_return_ns", spans.initialize_return, &out);
  AppendInt("finalize_return_ns", spans.finalize_return, &out);
  AppendInt("run_scheduler_return_ns", run_scheduler_return, &out);
  AppendInt("export_return_ns", export_return, &out);
  AppendInt("update_events", spans.update_events, &out);
  AppendInt("ticks", spans.ticks, &out);
  AppendInt("peak_rss_kib", peak_rss_kib, &out);
  AppendInt("obs_bytes", FileBytes(series_path) + FileBytes(trace_path), &out);
  if (traced) {
    AppendInt("on_object_update_ns", spans.on_object_update_ns, &out);
    AppendInt("tick_ns", spans.tick_ns, &out);
    AppendInt("measurement_start_ns", spans.measurement_start_ns, &out);
    AppendInt("finalize_ns", spans.finalize_ns, &out);
    const PhaseTimer::Snapshot total = phase_timer.TakeSnapshot();
    AppendPhases("phase_ns", total, &out);
    AppendPhases("phase_window_ns",
                 PhaseTimer::Delta(total, spans.phases_at_measurement_start), &out);
    AppendInt("gt_replay_ns",
              ReplayGroundTruth(workload.ValueOrDie(), metric.get(), captured), &out);
    AppendInt("gt_replay_calls", static_cast<int64_t>(captured.size()), &out);
    SimulationReplay replay(&captured, workload.ValueOrDie().objects.size(),
                            run_config.harness);
    AppendInt("sim_replay_ns", replay.Run(), &out);
    AppendInt("sim_replay_events", replay.fired(), &out);
  }
  out += ", ";
  AppendDigestJson(result.ValueOrDie(), &out);
  std::printf("%s}\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) { return besync::Main(argc, argv); }
