// Stock-dashboard monitoring with divergence guarantees (Section 9): a
// trading dashboard caches quote values. Some instruments need *guaranteed*
// bounds on how wrong a displayed price can be (e.g. for circuit-breaker
// logic), which calls for the bound-minimizing priority
//   P = R_i (t - t_last)^2 / 2 * W
// driven by each instrument's maximum price-change rate R_i. Other
// consumers only care about average accuracy, where the paper's standard
// area priority is the right choice.
//
// The example runs both policies on the same quote feed and reports
// (a) average actual deviation and (b) the worst instantaneous refresh age
// scaled by R (the realized bound), showing the trade-off.

#include <cstdio>
#include <memory>

#include "core/harness.h"
#include "core/system.h"
#include "data/workload.h"
#include "divergence/metric.h"
#include "priority/bound.h"

using namespace besync;

namespace {

Workload BuildQuoteFeed(uint64_t seed) {
  constexpr int kVenues = 10;
  constexpr int kSymbolsPerVenue = 30;
  Workload feed;
  feed.num_sources = kVenues;
  feed.objects_per_source = kSymbolsPerVenue;
  Rng rng(seed);
  for (int venue = 0; venue < kVenues; ++venue) {
    for (int s = 0; s < kSymbolsPerVenue; ++s) {
      ObjectSpec spec;
      spec.source_index = venue;
      // Tick rates from sleepy small caps to hyperactive large caps, each a
      // Poisson random walk with its own tick size.
      spec.lambda = rng.Uniform(0.02, 2.0);
      spec.step = rng.Uniform(0.1, 1.0);
      // Known maximum drift rate: tick rate x tick size.
      spec.max_divergence_rate = spec.lambda;
      spec.rng_seed = rng.NextUint64();
      feed.AddObject(spec);
    }
  }
  return feed;
}

struct Outcome {
  double average_deviation;
  double worst_bound;  // max over objects of R_i * refresh age at run end
};

Outcome RunPolicy(PolicyKind policy) {
  Workload feed = BuildQuoteFeed(11);
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness_config;
  harness_config.warmup = 200.0;
  harness_config.measure = 1500.0;

  CooperativeConfig config;
  config.cache_bandwidth_avg = 60.0;
  config.policy = policy;
  CooperativeScheduler scheduler(config);

  Harness harness(&feed, metric.get(), harness_config);
  BESYNC_CHECK_OK(harness.Run(&scheduler));

  Outcome outcome;
  outcome.average_deviation = harness.ground_truth().PerObjectWeightedAverage();
  outcome.worst_bound = 0.0;
  const double end = harness.now();
  for (ObjectIndex i = 0; i < feed.total_objects(); ++i) {
    const double age = end - harness.tracker(i).last_refresh_time();
    const double bound = feed.objects[i].max_divergence_rate * age;
    if (bound > outcome.worst_bound) outcome.worst_bound = bound;
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf("quote feed: 300 symbols from 10 venues, 60 msgs/s budget\n\n");
  std::printf("%-16s %-22s %-20s\n", "policy", "avg |price error|",
              "worst realized bound");
  std::printf("-----------------------------------------------------------\n");
  for (PolicyKind policy : {PolicyKind::kArea, PolicyKind::kBound}) {
    const Outcome outcome = RunPolicy(policy);
    std::printf("%-16s %-22.4f %-20.4f\n", PolicyKindToString(policy).c_str(),
                outcome.average_deviation, outcome.worst_bound);
  }
  std::printf(
      "\nThe bound policy caps every instrument's worst-case error (it\n"
      "refreshes by deadline, not by observed drift) at some cost in\n"
      "average accuracy; the area policy optimizes the average instead.\n");
  return 0;
}
