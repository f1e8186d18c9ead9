// Microbenchmarks (google-benchmark) for the hot paths of the library:
// priority computation, tracker updates, lazy-heap churn, the threshold
// controller, the CGM allocation solver, ground-truth accounting, per-object
// setup, and the end-to-end simulation tick rate.

#include <algorithm>
#include <memory>
#include <ostream>

#include <benchmark/benchmark.h>

#include "baseline/freq_allocation.h"
#include "core/system.h"
#include "core/threshold.h"
#include "divergence/ground_truth.h"
#include "divergence/metric.h"
#include "divergence/tracker.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "priority/priority.h"
#include "priority/priority_queue.h"
#include "sim/simulation.h"
#include "util/random.h"
#include "util/timer_wheel.h"

namespace besync {
namespace {

void BM_RngNextUint64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUint64());
  }
}
BENCHMARK(BM_RngNextUint64);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Exponential(0.5));
  }
}
BENCHMARK(BM_RngExponential);

void BM_TrackerUpdate(benchmark::State& state) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  double t = 0.0;
  double value = 0.0;
  int64_t version = 0;
  for (auto _ : state) {
    t += 0.5;
    value += 1.0;
    tracker.OnUpdate(t, value, ++version);
    if (version % 64 == 0) tracker.OnRefresh(t, value, version);
  }
}
BENCHMARK(BM_TrackerUpdate);

void BM_AreaPriority(benchmark::State& state) {
  ValueDeviationMetric metric;
  AreaPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 3.0, 1);
  PriorityContext context;
  context.tracker = &tracker;
  context.weight = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Priority(context, 10.0));
  }
}
BENCHMARK(BM_AreaPriority);

void BM_LazyHeapChurn(benchmark::State& state) {
  const int64_t n = state.range(0);
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(n, 0);
  const auto epoch_fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  Rng rng(2);
  // Steady-state: push (update), occasionally pop (refresh).
  for (auto _ : state) {
    const ObjectIndex i = rng.UniformInt(0, n - 1);
    ++epochs[i];
    heap.Push(rng.NextDouble(), i, epochs[i]);
    if (heap.size() > static_cast<size_t>(4 * n)) heap.Compact(epoch_fn);
    QueueEntry entry;
    if (heap.PopValid(epoch_fn, &entry)) {
      ++epochs[entry.index];
    }
  }
}
BENCHMARK(BM_LazyHeapChurn)->Arg(100)->Arg(10000);

void BM_ThresholdControllerCycle(benchmark::State& state) {
  ThresholdConfig config;
  ThresholdController controller(config, 10.0, 0.0);
  double t = 0.0;
  int i = 0;
  for (auto _ : state) {
    t += 1.0;
    controller.OnRefreshSent(t);
    if (++i % 24 == 0) controller.OnFeedback(t, false);
    benchmark::DoNotOptimize(controller.threshold());
  }
}
BENCHMARK(BM_ThresholdControllerCycle);

void BM_FreshnessAllocation(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  std::vector<double> lambdas(n);
  for (double& lambda : lambdas) lambda = rng.Uniform(0.01, 1.0);
  for (auto _ : state) {
    auto result = SolveFreshnessAllocation(lambdas, {}, 0.3 * n);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FreshnessAllocation)->Arg(100)->Arg(1000)->Arg(10000);

// One source update, plus an apply 30% of the time, per iteration over
// 1000 objects partitioned across range(0) caches. Each event touches one
// replica, so the time per event should not grow with the cache count.
void BM_GroundTruthEvents(benchmark::State& state) {
  const int caches = static_cast<int>(state.range(0));
  WorkloadConfig config;
  config.num_caches = caches;
  config.interest_pattern = InterestPattern::kPartitionedBySource;
  config.num_sources = std::max(10, caches);
  config.objects_per_source = 1000 / config.num_sources;
  config.seed = 4;
  Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  ValueDeviationMetric metric;
  GroundTruth ground_truth(&workload, &metric);
  ground_truth.Initialize(0.0);
  Rng rng(5);
  double t = 0.0;
  std::vector<int64_t> versions(workload.objects.size(), 0);
  std::vector<double> values(workload.objects.size(), 0.0);
  for (auto _ : state) {
    t += 0.001;
    const ObjectIndex i = rng.UniformInt(0, workload.total_objects() - 1);
    values[i] += rng.Bernoulli(0.5) ? 1.0 : -1.0;
    ground_truth.OnSourceUpdate(i, t, values[i], ++versions[i]);
    if (rng.Bernoulli(0.3)) {
      ground_truth.OnCacheApply(i, t, values[i], versions[i]);
    }
  }
}
BENCHMARK(BM_GroundTruthEvents)->Arg(1)->Arg(100)->Arg(1000);

void BM_SimulationEventChurn(benchmark::State& state) {
  Simulation sim;
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    sim.ScheduleAt(t, [](double) {});
    sim.RunUntil(t);
  }
}
BENCHMARK(BM_SimulationEventChurn);

// range(0) live timers; each iteration pops the earliest and, as the
// harness's update process does, its callback schedules one successor at an
// exponential delay (mean 20 s against the wheel's 1 s buckets). Time per
// iteration is the wheel's cost per update event at that many live timers.
class TimerWheelChurn {
 public:
  explicit TimerWheelChurn(int64_t live) : rng_(7) {
    for (int64_t i = 0; i < live; ++i) Schedule(i, 0.0);
  }

  void PopAndFire() {
    double time = 0.0;
    WheelCallback callback;
    wheel_.PopInto(&time, &callback);
    callback(time);
  }

 private:
  void Schedule(int64_t i, double now) {
    wheel_.Push(now + rng_.Exponential(0.05), [this, i](double t) { Fire(i, t); });
  }
  void Fire(int64_t i, double t) {
    benchmark::DoNotOptimize(i);
    Schedule(i, t);
  }

  TimerWheel wheel_;
  Rng rng_;
};

void BM_TimerWheelChurn(benchmark::State& state) {
  TimerWheelChurn churn(state.range(0));
  for (auto _ : state) churn.PopAndFire();
}
BENCHMARK(BM_TimerWheelChurn)->Arg(1000)->Arg(60000)->Arg(1000000);

// Per-object setup cost: building a 100k-object partitioned workload (200
// sources x 500 objects over 100 caches), the harness over it (runtimes,
// trackers, ground truth) and the cooperative scheduler's Initialize
// (network, source channels). Time per iteration is the setup a run pays
// before its first tick.
void BM_SetupPath(benchmark::State& state) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 200;
  config.workload.objects_per_source = 500;
  config.workload.num_caches = 100;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.rate_hi = 0.02;
  config.workload.seed = 8;
  config.cache_bandwidth_avg = 4.0;
  config.source_bandwidth_avg = 2.0;
  const std::unique_ptr<DivergenceMetric> metric = MakeMetric(config.metric);
  for (auto _ : state) {
    const Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
    Harness harness(&workload, metric.get(), config.harness);
    const std::unique_ptr<Scheduler> scheduler = MakeScheduler(config);
    scheduler->Initialize(&harness);
    benchmark::DoNotOptimize(scheduler.get());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SetupPath)->Unit(benchmark::kMillisecond);

// Obs finish + export at the scale of a long traced run: ~1M events
// recorded over 100 entity buffers, 100k kept. Finish selects and orders
// the kept events; WriteTraceJson formats them into a null stream. The
// collector is refilled outside the timed region each iteration.
void BM_ObsFinishAndExport(benchmark::State& state) {
  constexpr int kSources = 50;
  constexpr int kCaches = 40;
  constexpr int kRelays = 9;
  constexpr int kEvents = 1000000;
  ObsConfig config;
  config.enabled = true;
  config.trace = true;
  config.max_trace_events = 100000;
  std::ostream null_stream(nullptr);
  for (auto _ : state) {
    state.PauseTiming();
    ObsCollector collector(config, kSources, kCaches, kRelays, 1.0);
    std::vector<TraceBuffer*> buffers{collector.main_buffer()};
    for (int s = 0; s < kSources; ++s) buffers.push_back(collector.source_buffer(s));
    for (int c = 0; c < kCaches; ++c) buffers.push_back(collector.cache_buffer(c));
    for (int r = 0; r < kRelays; ++r) buffers.push_back(collector.relay_buffer(r));
    Rng rng(17);
    for (int i = 0; i < kEvents; ++i) {
      TraceEvent event;
      event.t = 1e-3 * i + rng.Uniform(0.0, 0.5);
      event.kind = static_cast<TraceEventKind>(rng.UniformInt(0, 13));
      event.source = static_cast<int32_t>(rng.UniformInt(0, kSources - 1));
      event.cache = static_cast<int32_t>(rng.UniformInt(0, kCaches - 1));
      event.object = rng.UniformInt(0, 9999);
      event.version = i;
      event.value = rng.NextDouble();
      buffers[static_cast<size_t>(i) % buffers.size()]->Record(event);
    }
    state.ResumeTiming();
    const std::shared_ptr<ObsOutput> output = collector.Finish();
    WriteTraceJson(null_stream, {ObsJob{"bench", output.get()}});
    benchmark::DoNotOptimize(output->trace.data());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ObsFinishAndExport)->Unit(benchmark::kMillisecond);

// End-to-end throughput: one full (small) cooperative run per iteration;
// the counter reports simulated object-seconds per wall second.
void BM_CooperativeEndToEnd(benchmark::State& state) {
  const int64_t m = state.range(0);
  for (auto _ : state) {
    ExperimentConfig config;
    config.scheduler = SchedulerKind::kCooperative;
    config.metric = MetricKind::kValueDeviation;
    config.workload.num_sources = static_cast<int>(m);
    config.workload.objects_per_source = 10;
    config.workload.seed = 6;
    config.harness.warmup = 10.0;
    config.harness.measure = 100.0;
    config.cache_bandwidth_avg = 0.3 * m * 10;
    auto result = RunExperiment(config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * m * 10 * 110);
}
BENCHMARK(BM_CooperativeEndToEnd)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace besync

BENCHMARK_MAIN();
