#ifndef BESYNC_DATA_UPDATE_PROCESS_H_
#define BESYNC_DATA_UPDATE_PROCESS_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/random.h"

namespace besync {

/// The shape of an object's update stream.
enum class ProcessKind : uint8_t {
  /// Poisson-timed random walk: updates arrive as a Poisson process with
  /// rate lambda; each update moves the value by +-step with equal
  /// probability (paper Sections 4.3, 6.2).
  kPoissonWalk,
  /// Per-second Bernoulli random walk: at each integer time the object is
  /// updated with probability p ("each simulated object O_i was updated with
  /// probability p_i each second", Section 4.3). p = 1 reproduces the
  /// paper's "updated consistently every second" objects.
  kBernoulliWalk,
  /// Poisson random walk whose rate toggles between two regime rates (see
  /// RegimeSwitch). Used by the history-priority ablation (Section 10.1
  /// discusses trading adaptiveness for longer-history predictions; regime
  /// switches are exactly where that trade bites).
  kRegimeSwitching,
  /// Deterministic one-sided drift: the value increases by `step` exactly
  /// every 1/lambda seconds. Under the value-deviation metric its divergence
  /// is (up to discretization) lambda*step*(t - t_last) — it *equals* the
  /// Section 9 divergence bound with rate R = lambda*step, so the
  /// divergence-bounding experiments can measure the bound directly.
  kDrift,
  /// Replays a fixed, time-ordered trace of (time, value) measurements (the
  /// wind-buoy experiment, Section 6.2.1).
  kTrace,
};

/// Parameters of a kRegimeSwitching process: the rate is `rate_a` during
/// even regimes [2k L, (2k+1) L) and `rate_b` during odd ones (L =
/// regime_length), starting in regime A.
struct RegimeSwitch {
  double rate_a = 0.0;
  double rate_b = 0.0;
  double regime_length = 1.0;

  /// Rate in force at time `t`.
  double RateAt(double t) const;
};

/// One timestamped point of a replayed measurement trace.
struct TracePoint {
  double time = 0.0;
  double value = 0.0;
};

/// Every trace-driven object's points in one immutable table: trace k is
/// points[offsets[k] .. offsets[k+1]). Workloads hold it through a
/// shared_ptr<const TraceTable>, so clones share it and a run only reads it.
struct TraceTable {
  std::vector<TracePoint> points;
  std::vector<uint32_t> offsets = {0};

  /// Appends one trace (times strictly increasing, checked); returns its id.
  int32_t Add(const std::vector<TracePoint>& trace);
  int32_t num_traces() const { return static_cast<int32_t>(offsets.size()) - 1; }
  /// Average update rate of trace `k`: (points - 1) / time span, 0 for
  /// fewer than two points.
  double rate(int32_t k) const;
};

/// Generates the update stream of one object: when updates occur and how
/// each update mutates the value. A tagged value dispatched by `switch`,
/// built per call by Workload::process() from the object's row and the
/// workload's side tables. It owns nothing and mutates nothing but its
/// arguments: the random draws come from the caller's per-object RNG (so
/// update streams are identical across schedulers run on the same seed),
/// and a trace replay's position lives in the caller's `cursor` (a run's
/// ObjectRuntime), so one workload can be run any number of times.
struct UpdateProcess {
  ProcessKind kind = ProcessKind::kPoissonWalk;
  /// Update rate lambda (kPoissonWalk, kDrift) or per-second update
  /// probability (kBernoulliWalk); unused by the other kinds.
  double rate = 0.0;
  /// Value change per update (all kinds but kTrace).
  double step = 1.0;
  /// kRegimeSwitching only.
  RegimeSwitch regime;
  /// kTrace only: the replayed points, in time order.
  const TracePoint* trace = nullptr;
  uint32_t trace_size = 0;

  static UpdateProcess PoissonWalk(double lambda, double step = 1.0);
  static UpdateProcess BernoulliWalk(double probability, double step = 1.0);
  static UpdateProcess Switching(const RegimeSwitch& regime, double step = 1.0);
  static UpdateProcess Drift(double lambda, double step = 1.0);
  /// Replays trace `k` of `table`, which must outlive the value.
  static UpdateProcess Trace(const TraceTable& table, int32_t k);

  /// Time of the next update strictly after `now`; +infinity if none. Trace
  /// replays skip (for good) points at or before `now`.
  double NextUpdateTime(double now, uint32_t* cursor, Rng* rng) const;

  /// Applies one update (at the time previously returned by NextUpdateTime)
  /// and returns the new value.
  double ApplyUpdate(double current_value, uint32_t* cursor, Rng* rng) const;
};

static_assert(std::is_trivially_copyable_v<UpdateProcess>);

}  // namespace besync

#endif  // BESYNC_DATA_UPDATE_PROCESS_H_
