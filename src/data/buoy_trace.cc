#include "data/buoy_trace.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/logging.h"

namespace besync {

Result<std::vector<std::vector<TracePoint>>> GenerateBuoyTraces(
    const BuoyTraceConfig& config) {
  if (config.num_buoys < 1 || config.components_per_buoy < 1) {
    return Status::InvalidArgument("buoy trace needs >= 1 buoy and component");
  }
  if (config.measurement_interval <= 0.0 || config.duration <= 0.0) {
    return Status::InvalidArgument("invalid buoy trace timing");
  }
  if (config.reversion <= 0.0 || config.reversion > 1.0) {
    return Status::InvalidArgument("reversion must be in (0, 1]");
  }
  if (config.max_value <= config.min_value) {
    return Status::InvalidArgument("invalid value range");
  }

  Rng rng(config.seed);
  NormalSampler normal(&rng);
  const int64_t steps =
      static_cast<int64_t>(config.duration / config.measurement_interval);
  std::vector<std::vector<TracePoint>> traces;
  traces.reserve(static_cast<size_t>(config.num_buoys) * config.components_per_buoy);

  for (int b = 0; b < config.num_buoys; ++b) {
    // Per-buoy regime: the two wind components of one buoy share a mean
    // level but have independent volatilities.
    const double mean = rng.Uniform(config.mean_lo, config.mean_hi);
    for (int c = 0; c < config.components_per_buoy; ++c) {
      const double sigma = rng.Uniform(config.volatility_lo, config.volatility_hi);
      std::vector<TracePoint> trace;
      trace.reserve(steps);
      double value = std::clamp(normal.Next(mean, sigma * 2.0), config.min_value,
                                config.max_value);
      for (int64_t k = 1; k <= steps; ++k) {
        // Discretized Ornstein-Uhlenbeck step, clamped to the physical range.
        value += config.reversion * (mean - value) + normal.Next(0.0, sigma);
        value = std::clamp(value, config.min_value, config.max_value);
        trace.push_back(
            TracePoint{static_cast<double>(k) * config.measurement_interval, value});
      }
      traces.push_back(std::move(trace));
    }
  }
  return traces;
}

Result<Workload> MakeBuoyWorkload(const BuoyTraceConfig& config) {
  std::vector<std::vector<TracePoint>> traces;
  BESYNC_ASSIGN_OR_RETURN(traces, GenerateBuoyTraces(config));

  Rng rng(config.seed ^ 0x5eedb0a7ULL);
  Workload workload;
  workload.num_sources = config.num_buoys;
  workload.objects_per_source = config.components_per_buoy;
  workload.has_fluctuating_weights = false;
  workload.objects.reserve(traces.size());
  auto table = std::make_shared<TraceTable>();

  for (size_t i = 0; i < traces.size(); ++i) {
    ObjectSpec spec;
    spec.source_index = static_cast<int32_t>(i / config.components_per_buoy);
    // The first trace value doubles as the initial (synchronized) value.
    spec.initial_value = traces[i].empty() ? 0.0 : traces[i].front().value;
    spec.process = ProcessKind::kTrace;
    spec.process_param = table->Add(traces[i]);
    spec.lambda = table->rate(spec.process_param);
    // Wind values move at most (max - min) per measurement; a practical
    // bound rate for Section 9 style policies.
    spec.max_divergence_rate =
        (config.max_value - config.min_value) / config.measurement_interval;
    spec.rng_seed = rng.NextUint64();
    workload.AddObject(spec);
  }
  workload.traces = std::move(table);
  return workload;
}

}  // namespace besync
