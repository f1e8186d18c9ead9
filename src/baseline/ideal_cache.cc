#include "baseline/ideal_cache.h"

#include <cmath>
#include <limits>

#include "baseline/freq_allocation.h"
#include "util/logging.h"

namespace besync {

namespace {
uint64_t ZeroEpoch(ObjectIndex) { return 0; }
}  // namespace

IdealCacheBasedScheduler::IdealCacheBasedScheduler(const CacheDrivenConfig& config)
    : config_(config) {}

void IdealCacheBasedScheduler::Initialize(Harness* harness) {
  harness_ = harness;
  tick_length_ = harness->config().tick_length;
  const Workload& workload = harness->workload();
  Rng* rng = harness->scheduler_rng();

  bandwidth_ = std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
      config_.cache_bandwidth_avg, config_.bandwidth_change_rate, rng));

  std::vector<double> lambdas;
  std::vector<double> weights;
  lambdas.reserve(workload.objects.size());
  weights.reserve(workload.objects.size());
  for (const ObjectSpec& spec : workload.objects) {
    lambdas.push_back(spec.lambda);
    weights.push_back(spec.weight);
  }
  auto allocation =
      SolveFreshnessAllocation(lambdas, weights, config_.cache_bandwidth_avg);
  BESYNC_CHECK(allocation.ok()) << allocation.status().ToString();

  intervals_.assign(workload.objects.size(), std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    const double freq = allocation->frequencies[i];
    if (freq > 0.0) {
      intervals_[i] = 1.0 / freq;
      // Uniformly random phase so refreshes spread over time.
      schedule_.Push(rng->Uniform(0.0, intervals_[i]), static_cast<ObjectIndex>(i), 0);
    }
  }
}

void IdealCacheBasedScheduler::Tick(double t) {
  int64_t budget = bandwidth_->BudgetForTick(t, tick_length_);
  QueueEntry due;
  while (budget > 0 && schedule_.PopDue(t, ZeroEpoch, &due)) {
    --budget;
    harness_->RefreshInstant(due.index, t);
    ++refreshes_;
    // Steady-rate rescheduling: if the system fell behind, skip the missed
    // slots rather than bursting to catch up.
    schedule_.Push(t + intervals_[due.index], due.index, 0);
  }
}

SchedulerStats IdealCacheBasedScheduler::stats() const {
  SchedulerStats stats;
  stats.refreshes_sent = refreshes_;
  stats.refreshes_delivered = refreshes_;
  return stats;
}

}  // namespace besync
