#ifndef BESYNC_NET_BANDWIDTH_H_
#define BESYNC_NET_BANDWIDTH_H_

#include <cstdint>

#include "util/fluctuation.h"

namespace besync {

/// Converts a continuous bandwidth signal (messages/second) into an integer
/// per-tick message budget. Fractional capacity carries over between ticks
/// as credit, so e.g. 0.5 msg/s with 1-second ticks yields one message every
/// other tick rather than zero forever.
class BandwidthModel {
 public:
  explicit BandwidthModel(const Fluctuation& signal) : signal_(signal) {}

  /// Integer message budget for the tick [tick_start, tick_start + tick_len).
  /// Must be called with non-overlapping, forward-moving ticks.
  int64_t BudgetForTick(double tick_start, double tick_len);

  /// Instantaneous bandwidth at time t (messages/second).
  double RateAt(double t) const { return signal_.ValueAt(t); }

  /// Long-run average bandwidth (messages/second).
  double average() const { return signal_.average(); }

 private:
  Fluctuation signal_;
  double credit_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_NET_BANDWIDTH_H_
