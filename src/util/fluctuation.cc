#include "util/fluctuation.h"

#include "util/logging.h"

namespace besync {

Fluctuation Fluctuation::Constant(double value) {
  BESYNC_CHECK_GE(value, 0.0);
  Fluctuation fluctuation;
  fluctuation.base = value;
  return fluctuation;
}

Fluctuation Fluctuation::Sine(double base, double amplitude, double period,
                              double phase) {
  BESYNC_CHECK_GE(base, 0.0);
  BESYNC_CHECK_GE(amplitude, 0.0);
  BESYNC_CHECK_LT(amplitude, 1.0);
  BESYNC_CHECK_GT(period, 0.0);
  return Fluctuation{base, amplitude, period, phase};
}

Fluctuation MakeBandwidthFluctuation(double average, double max_change_rate, Rng* rng) {
  BESYNC_CHECK_GE(average, 0.0);
  BESYNC_CHECK_GE(max_change_rate, 0.0);
  if (max_change_rate <= 0.0 || average <= 0.0) {
    return Fluctuation::Constant(average);
  }
  constexpr double kAmplitude = 0.5;
  const double period = 2.0 * M_PI * kAmplitude / max_change_rate;
  const double phase = rng != nullptr ? rng->Uniform(0.0, 2.0 * M_PI) : 0.0;
  return Fluctuation::Sine(average, kAmplitude, period, phase);
}

Fluctuation MakeWeightFluctuation(double base, double max_amplitude, double min_period,
                                  double max_period, Rng* rng) {
  BESYNC_CHECK_GE(base, 0.0);
  BESYNC_CHECK_GE(max_amplitude, 0.0);
  BESYNC_CHECK_LT(max_amplitude, 1.0);
  if (max_amplitude <= 0.0 || rng == nullptr) {
    return Fluctuation::Constant(base);
  }
  BESYNC_CHECK_GT(min_period, 0.0);
  BESYNC_CHECK_GE(max_period, min_period);
  const double amplitude = rng->Uniform(0.0, max_amplitude);
  const double period = rng->Uniform(min_period, max_period);
  const double phase = rng->Uniform(0.0, 2.0 * M_PI);
  return Fluctuation::Sine(base, amplitude, period, phase);
}

}  // namespace besync
