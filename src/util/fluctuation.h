#ifndef BESYNC_UTIL_FLUCTUATION_H_
#define BESYNC_UTIL_FLUCTUATION_H_

#include <cmath>
#include <type_traits>

#include "util/random.h"

namespace besync {

/// A nonnegative time-varying quantity, used for both bandwidth capacities
/// and object weights. The paper's simulations let "available cache-side and
/// source-side bandwidth fluctuate over time following a sine wave pattern"
/// and let "weights vary over time following sine-wave patterns with
/// randomly-assigned amplitudes and periods" (Section 6).
///
/// One plain value: base * (1 + amplitude * sin(2*pi*t/period + phase)),
/// with amplitude in [0, 1) so the signal stays positive. Amplitude 0 is the
/// constant signal `base` (the paper's mB = 0 case).
struct Fluctuation {
  double base = 0.0;
  double amplitude = 0.0;
  double period = 1.0;
  double phase = 0.0;

  static Fluctuation Constant(double value);
  static Fluctuation Sine(double base, double amplitude, double period, double phase);

  bool constant() const { return amplitude == 0.0; }

  /// Value at simulated time `t` (seconds). Always >= 0.
  double ValueAt(double t) const {
    if (constant()) return base;
    return base * (1.0 + amplitude * std::sin(2.0 * M_PI * t / period + phase));
  }

  /// Time average of the signal (the paper's B_S / B_C / base-weight knobs).
  double average() const { return base; }
};

static_assert(std::is_trivially_copyable_v<Fluctuation>);

/// Builds the paper's bandwidth model: average bandwidth `average` with
/// maximum relative rate of change `max_change_rate` (the parameter mB;
/// Section 6: "The maximum rate of bandwidth change is controlled by
/// simulation parameter mB. When mB = 0, the amount of available bandwidth
/// remains constant.").
///
/// For a sine B(t) = B*(1 + a*sin(2*pi*t/P + phi)), the maximum relative
/// change rate is max|B'(t)|/B = 2*pi*a/P. We fix a = 0.5 and solve for the
/// period P = 2*pi*a/mB, drawing a random phase so multiple links are not
/// synchronized.
Fluctuation MakeBandwidthFluctuation(double average, double max_change_rate, Rng* rng);

/// Builds a randomly-parameterized weight fluctuation: base weight `base`,
/// random relative amplitude in [0, max_amplitude] and random period in
/// [min_period, max_period] (Section 6: weights "fluctuate over time
/// following sine-wave patterns with randomly-assigned amplitudes and
/// periods"). With max_amplitude = 0 the weight is constant.
Fluctuation MakeWeightFluctuation(double base, double max_amplitude, double min_period,
                                  double max_period, Rng* rng);

}  // namespace besync

#endif  // BESYNC_UTIL_FLUCTUATION_H_
