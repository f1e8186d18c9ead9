// Sensor-network monitoring (the paper's opening motivation): hundreds of
// battery-powered sensors report readings over a shared low-bandwidth
// wireless uplink; a monitoring cache wants the freshest possible picture.
//
// This example shows:
//  - heterogeneous update rates (slow temperature vs jittery vibration),
//  - fluctuating wireless bandwidth (mB > 0),
//  - sampling-based priority monitoring (cheap for battery-powered nodes:
//    no per-update triggers, Section 8.2.1),
//  - per-sensor-class importance weights.

#include <cstdio>
#include <memory>

#include "core/harness.h"
#include "core/system.h"
#include "data/workload.h"
#include "divergence/metric.h"

using namespace besync;

int main() {
  // --- Build the sensor fleet by hand to show the ObjectSpec API. -------
  constexpr int kStations = 100;   // sensor stations (sources)
  constexpr int kPerStation = 4;   // temperature, humidity, wind, vibration
  Workload fleet;
  fleet.num_sources = kStations;
  fleet.objects_per_source = kPerStation;

  Rng rng(2024);
  struct SensorClass {
    const char* name;
    double rate;        // updates/second
    double importance;  // refresh weight
  };
  const SensorClass classes[kPerStation] = {
      {"temperature", 0.02, 1.0},
      {"humidity", 0.05, 1.0},
      {"wind", 0.2, 2.0},       // wind drives alerts: weight it up
      {"vibration", 1.0, 5.0},  // safety-critical and jittery
  };

  for (int station = 0; station < kStations; ++station) {
    for (int c = 0; c < kPerStation; ++c) {
      ObjectSpec spec;
      spec.source_index = station;
      spec.lambda = classes[c].rate;  // a Poisson random walk at this rate
      spec.weight = classes[c].importance;
      spec.max_divergence_rate = classes[c].rate;
      spec.rng_seed = rng.NextUint64();
      fleet.AddObject(spec);
    }
  }

  // --- Protocol: cooperative thresholds, sampling monitors. -------------
  CooperativeConfig protocol;
  protocol.cache_bandwidth_avg = 40.0;    // shared wireless uplink, msgs/s
  protocol.source_bandwidth_avg = 1.0;    // per-station radio budget
  protocol.bandwidth_change_rate = 0.05;  // interference makes it fluctuate
  protocol.source.monitor = MonitorMode::kSampling;
  protocol.source.sampling_interval = 5.0;
  protocol.source.predictive_sampling = true;

  HarnessConfig harness_config;
  harness_config.warmup = 200.0;
  harness_config.measure = 2000.0;

  auto metric = MakeMetric(MetricKind::kValueDeviation);

  std::printf("monitoring %d stations (%d values) over a fluctuating %g msg/s uplink\n\n",
              kStations, kStations * kPerStation, protocol.cache_bandwidth_avg);

  CooperativeScheduler scheduler(protocol);
  auto result = RunScheduler(&fleet, metric.get(), harness_config, &scheduler);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("weighted divergence per value : %.4f\n", result->per_object_weighted);
  std::printf("refreshes delivered           : %lld\n",
              static_cast<long long>(result->scheduler.refreshes_delivered));
  std::printf("feedback messages             : %lld\n",
              static_cast<long long>(result->scheduler.feedback_sent));
  std::printf("uplink utilization            : %.1f%%\n",
              100.0 * result->scheduler.cache_utilization);
  std::printf("peak uplink queue             : %lld messages\n",
              static_cast<long long>(result->scheduler.max_cache_queue));
  std::printf("mean local threshold          : %.4f\n",
              result->scheduler.mean_threshold);
  std::printf(
      "\nNote: the stations never exchange state — coordination happens only\n"
      "through piggybacked thresholds and positive feedback (Section 5).\n");
  return 0;
}
