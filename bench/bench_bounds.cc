// Section 9 (divergence bounding) ablation. The paper derives the priority
//   P = R_i (t - t_last)^2 / 2 * W
// for minimizing the average *upper bound* on divergence when objects have
// known maximum divergence rates R_i, and notes the threshold algorithm can
// drive it. The paper reports no numbers for this section, so this is an
// ablation of the design choice:
//
//  - On a deterministic-drift workload (divergence == bound exactly, since
//    the value grows at rate R_i between refreshes) the bound policy should
//    match the area policy — it *is* the area priority of the bound curve —
//    and both should beat the naive weighted-divergence policy.
//  - On a random-walk workload (actual divergence is noisy, bound is loose)
//    the update-aware area policy should win on actual divergence, because
//    the bound policy is update-oblivious by construction.

#include "bench_common.h"
#include "core/system.h"
#include "exp/experiment.h"

namespace besync {
namespace {

Workload MakeDriftWorkload(const WorkloadConfig& base) {
  // Start from the standard generator (rates, weights, seeds), then replace
  // every process with a deterministic drift of the same rate.
  Workload workload = std::move(MakeWorkload(base)).ValueOrDie();
  for (ObjectSpec& spec : workload.objects) {
    spec.process = ProcessKind::kDrift;
    spec.step = 1.0;
    spec.max_divergence_rate = spec.lambda;  // exact bound rate
  }
  return workload;
}

int Run(const BenchOptions& options) {
  std::cout << "== Section 9 ablation: divergence-bound scheduling ==\n"
            << "drift workload: divergence == bound, so the 'divergence' column\n"
            << "is the average bound. Expected: bound ~ area < naive there;\n"
            << "area < bound on the random-walk workload (actual divergence).\n\n";

  WorkloadConfig base;
  base.num_sources = options.full ? 20 : 10;
  base.objects_per_source = 20;
  base.rate_lo = 0.02;
  base.rate_hi = 1.0;
  base.seed = options.seed + 9;

  HarnessConfig harness;
  harness.warmup = 200.0;
  harness.measure = options.full ? 5000.0 : 1500.0;

  const double bandwidth = 0.15 * base.num_sources * base.objects_per_source;

  TablePrinter table({"workload", "policy", "avg_divergence", "refreshes"});
  for (const bool drift : {true, false}) {
    for (PolicyKind policy :
         {PolicyKind::kBound, PolicyKind::kArea, PolicyKind::kNaive}) {
      Workload workload = drift ? MakeDriftWorkload(base)
                                : std::move(MakeWorkload(base)).ValueOrDie();
      ExperimentConfig config;
      config.scheduler = SchedulerKind::kCooperative;
      config.metric = MetricKind::kValueDeviation;
      config.harness = harness;
      config.cache_bandwidth_avg = bandwidth;
      config.policy = policy;
      auto result = RunExperimentOnWorkload(config, &workload);
      BESYNC_CHECK_OK(result.status());
      table.AddRow({drift ? "drift(=bound)" : "random-walk",
                    PolicyKindToString(policy),
                    TablePrinter::Cell(result->per_object_weighted),
                    TablePrinter::Cell(result->scheduler.refreshes_delivered)});
    }
  }
  EmitTable(table, options);
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  return besync::Run(besync::BenchOptions::Parse(argc, argv));
}
