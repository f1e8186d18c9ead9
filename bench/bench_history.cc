// Section 10.1 ablation: priority functions with a longer history window.
// The paper's priority uses only the current refresh interval and suggests
// exploring longer histories "to trade adaptiveness and reduced state for
// possibly more reliable predictions of future behavior".
//
// We sweep the history blend share beta (0 = the paper's pure area policy,
// 1 = fully history-driven) on
//  (a) a stationary workload, where a moderate history share should be
//      roughly neutral, and
//  (b) a regime-switching workload whose objects alternate between hot and
//      cold phases, probing exactly the adaptiveness-vs-stability trade the
//      paper describes.

#include <memory>

#include "bench_common.h"
#include "core/system.h"
#include "data/update_process.h"
#include "exp/experiment.h"

namespace besync {
namespace {

Workload MakeSwitchingWorkload(const WorkloadConfig& base, double regime_length) {
  Workload workload = std::move(MakeWorkload(base)).ValueOrDie();
  Rng rng(base.seed ^ 0xabcdefULL);
  for (ObjectIndex i = 0; i < workload.total_objects(); ++i) {
    // Hot/cold rates straddle the original rate; desynchronized regimes.
    const double lambda = workload.objects[i].lambda;
    workload.SetRegimeSwitch(
        i, RegimeSwitch{lambda * 1.8, lambda * 0.2,
                        regime_length * rng.Uniform(0.7, 1.3)});
  }
  return workload;
}

int Run(const BenchOptions& options) {
  std::cout << "== Section 10.1 ablation: history-extended priority ==\n"
            << "beta = weight of the learned historical rate in the priority\n"
            << "(0 = the paper's area policy). Ideal scheduler, so the effect\n"
            << "of the policy is isolated from protocol noise.\n\n";

  WorkloadConfig base;
  base.num_sources = options.full ? 20 : 10;
  base.objects_per_source = 20;
  base.rate_lo = 0.02;
  base.rate_hi = 1.0;
  base.seed = options.seed + 17;

  HarnessConfig harness;
  harness.warmup = 200.0;
  harness.measure = options.full ? 4000.0 : 1500.0;

  const double bandwidth = 0.25 * base.num_sources * base.objects_per_source;
  const std::vector<double> betas =
      options.full ? std::vector<double>{0.0, 0.1, 0.25, 0.5, 0.75, 1.0}
                   : std::vector<double>{0.0, 0.25, 0.5, 1.0};

  auto metric = MakeMetric(MetricKind::kValueDeviation);
  TablePrinter table({"workload", "beta", "divergence"});
  for (const bool switching : {false, true}) {
    for (double beta : betas) {
      Workload workload = switching ? MakeSwitchingWorkload(base, 150.0)
                                    : std::move(MakeWorkload(base)).ValueOrDie();
      IdealConfig config;
      config.cache_bandwidth_avg = bandwidth;
      config.policy = beta == 0.0 ? PolicyKind::kArea : PolicyKind::kAreaHistory;
      config.history_beta = beta;
      IdealCooperativeScheduler scheduler(config);
      auto result = RunScheduler(&workload, metric.get(), harness, &scheduler);
      BESYNC_CHECK_OK(result.status());
      table.AddRow({switching ? "regime-switching" : "stationary",
                    TablePrinter::Cell(beta),
                    TablePrinter::Cell(result->per_object_weighted)});
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
