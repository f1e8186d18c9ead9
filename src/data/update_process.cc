#include "data/update_process.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace besync {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();

double RandomStep(double current_value, double step, Rng* rng) {
  return current_value + (rng->Bernoulli(0.5) ? step : -step);
}
}  // namespace

double RegimeSwitch::RateAt(double t) const {
  const int64_t regime = static_cast<int64_t>(std::floor(t / regime_length));
  return regime % 2 == 0 ? rate_a : rate_b;
}

int32_t TraceTable::Add(const std::vector<TracePoint>& trace) {
  for (size_t i = 1; i < trace.size(); ++i) {
    BESYNC_CHECK_GT(trace[i].time, trace[i - 1].time) << "trace times must increase";
  }
  points.insert(points.end(), trace.begin(), trace.end());
  offsets.push_back(static_cast<uint32_t>(points.size()));
  return num_traces() - 1;
}

double TraceTable::rate(int32_t k) const {
  const uint32_t begin = offsets[k];
  const uint32_t end = offsets[k + 1];
  if (end - begin < 2) return 0.0;
  const double span = points[end - 1].time - points[begin].time;
  return span > 0.0 ? static_cast<double>(end - begin - 1) / span : 0.0;
}

UpdateProcess UpdateProcess::PoissonWalk(double lambda, double step) {
  BESYNC_CHECK_GE(lambda, 0.0);
  return UpdateProcess{ProcessKind::kPoissonWalk, lambda, step, {}, nullptr, 0};
}

UpdateProcess UpdateProcess::BernoulliWalk(double probability, double step) {
  BESYNC_CHECK_GE(probability, 0.0);
  BESYNC_CHECK_LE(probability, 1.0);
  return UpdateProcess{ProcessKind::kBernoulliWalk, probability, step, {}, nullptr, 0};
}

UpdateProcess UpdateProcess::Switching(const RegimeSwitch& regime, double step) {
  BESYNC_CHECK_GE(regime.rate_a, 0.0);
  BESYNC_CHECK_GE(regime.rate_b, 0.0);
  BESYNC_CHECK_GT(regime.regime_length, 0.0);
  return UpdateProcess{ProcessKind::kRegimeSwitching, 0.0, step, regime, nullptr, 0};
}

UpdateProcess UpdateProcess::Drift(double lambda, double step) {
  BESYNC_CHECK_GE(lambda, 0.0);
  return UpdateProcess{ProcessKind::kDrift, lambda, step, {}, nullptr, 0};
}

UpdateProcess UpdateProcess::Trace(const TraceTable& table, int32_t k) {
  BESYNC_DCHECK(k >= 0 && k < table.num_traces());
  return UpdateProcess{ProcessKind::kTrace, 0.0, 0.0, RegimeSwitch{},
                       table.points.data() + table.offsets[k],
                       table.offsets[k + 1] - table.offsets[k]};
}

double UpdateProcess::NextUpdateTime(double now, uint32_t* cursor, Rng* rng) const {
  switch (kind) {
    case ProcessKind::kPoissonWalk:
      if (rate <= 0.0) return kInfinity;
      return now + rng->Exponential(rate);
    case ProcessKind::kBernoulliWalk: {
      if (rate <= 0.0) return kInfinity;
      // Next opportunity is the first integer time strictly after `now`.
      const double slot = std::floor(now) + 1.0;
      if (rate >= 1.0) return slot;
      // Number of failures before the first success (geometric
      // distribution), sampled in closed form.
      const double u = rng->NextDouble();
      const double failures = std::floor(std::log1p(-u) / std::log1p(-rate));
      return slot + failures;
    }
    case ProcessKind::kRegimeSwitching: {
      // Piecewise-homogeneous Poisson process: draw within the current
      // regime; if the candidate falls past the regime boundary, restart
      // the draw from the boundary (memorylessness makes this exact).
      double t = now;
      for (int guard = 0; guard < 1000000; ++guard) {
        const double regime_rate = regime.RateAt(t);
        const double boundary =
            (std::floor(t / regime.regime_length) + 1.0) * regime.regime_length;
        if (regime_rate <= 0.0) {
          t = boundary;
          continue;
        }
        const double candidate = t + rng->Exponential(regime_rate);
        if (candidate <= boundary) return candidate;
        t = boundary;
      }
      return kInfinity;  // both rates zero forever
    }
    case ProcessKind::kDrift: {
      if (rate <= 0.0) return kInfinity;
      const double interval = 1.0 / rate;
      // Next multiple of the interval strictly after `now`.
      const double k = std::floor(now / interval + 1e-9) + 1.0;
      return k * interval;
    }
    case ProcessKind::kTrace:
      // Points at or before `now` can never fire anymore; skip them for good.
      while (*cursor < trace_size && trace[*cursor].time <= now) ++*cursor;
      return *cursor < trace_size ? trace[*cursor].time : kInfinity;
  }
  return kInfinity;
}

double UpdateProcess::ApplyUpdate(double current_value, uint32_t* cursor,
                                  Rng* rng) const {
  switch (kind) {
    case ProcessKind::kPoissonWalk:
    case ProcessKind::kBernoulliWalk:
    case ProcessKind::kRegimeSwitching:
      return RandomStep(current_value, step, rng);
    case ProcessKind::kDrift:
      return current_value + step;
    case ProcessKind::kTrace:
      if (*cursor >= trace_size) return current_value;
      return trace[(*cursor)++].value;
  }
  return current_value;
}

}  // namespace besync
