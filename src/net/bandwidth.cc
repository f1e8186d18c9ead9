#include "net/bandwidth.h"

#include <cmath>

#include "util/logging.h"

namespace besync {

int64_t BandwidthModel::BudgetForTick(double tick_start, double tick_len) {
  BESYNC_CHECK_GT(tick_len, 0.0);
  // Midpoint evaluation of the rate over the tick.
  const double rate = signal_.ValueAt(tick_start + 0.5 * tick_len);
  credit_ += rate * tick_len;
  const double whole = std::floor(credit_);
  credit_ -= whole;
  return static_cast<int64_t>(whole);
}

}  // namespace besync
