#ifndef BESYNC_DIVERGENCE_GROUND_TRUTH_H_
#define BESYNC_DIVERGENCE_GROUND_TRUTH_H_

#include <cstdint>
#include <vector>

#include "data/workload.h"
#include "divergence/metric.h"
#include "util/arena.h"

namespace besync {

/// Ground-truth divergence accounting: tracks the *actual* contents of every
/// cache replica (which lag behind the sources whenever refresh messages
/// queue in the network) against the live source values, and integrates
/// weighted and unweighted divergence exactly over time.
///
/// One accounting entry exists per (object, cache) replica, as given by the
/// workload's interest map; the single-cache topology degenerates to one
/// entry per object. Sums and integrals are maintained per cache, and the
/// reported objective is the sum over caches — Σ_c Σ_{i at c} of the
/// time-averaged weighted divergence of replica (i, c).
///
/// Divergence is piecewise constant between events, so each cache's
/// integrals advance lazily: cache c keeps its own mark (the time up to
/// which its integrals are current) and integrates its running sums only
/// at events that touch one of its replicas. A source update therefore
/// costs O(replicas of the object) and a cache apply O(1), whatever the
/// number of caches, and applies at distinct caches touch disjoint state.
/// Every cache is brought up to date only at the global points —
/// RefreshWeights(), StartMeasurement() and FinishMeasurement() — so the
/// integrals (and every result below) are valid only after
/// FinishMeasurement(). A cache's integration step is split only at its
/// own events. When every event touches every cache — one cache, or full
/// replication with every cache applying on the same ticks — the steps,
/// and so the bits, equal those of advancing every cache at every event.
/// Otherwise only the low float bits differ from that eager walk.
///
/// Fluctuating weights are re-evaluated periodically via RefreshWeights()
/// (the paper's standing assumption is that weights change slowly relative
/// to refresh timescales, Section 3.3).
class GroundTruth {
 public:
  /// `workload` and `metric` must outlive this object. When
  /// `use_source_weights` is set, objects that define a source_weight are
  /// weighted by it instead of the cache weight (competitive experiments,
  /// Section 7). When `arena` is non-null the replica entry table lives in
  /// it (the harness passes its run arena so entries share the flat
  /// hot-path layout); `arena` must then outlive this object. Null keeps
  /// self-owned storage — standalone uses need no arena.
  GroundTruth(const Workload* workload, const DivergenceMetric* metric,
              bool use_source_weights = false, Arena* arena = nullptr);

  /// Initializes every replica = source state (synchronized) at time `t`.
  void Initialize(double t);

  /// Records that source object `index` now has (value, version); every
  /// replica of the object diverges accordingly.
  void OnSourceUpdate(ObjectIndex index, double t, double value, int64_t version);

  /// Records that cache `cache_id` applied a refresh for object `index`
  /// carrying (value, version) — the message content, which may itself be
  /// stale if the object changed again while the message was queued.
  void OnCacheApply(ObjectIndex index, int32_t cache_id, double t, double value,
                    int64_t version);

  /// Single-cache convenience: applies at the object's first replica.
  void OnCacheApply(ObjectIndex index, double t, double value, int64_t version);

  /// Re-evaluates all weights at time `t` (no-op work-wise for constant
  /// weights, but always rebuilds the running sums to bound float drift).
  void RefreshWeights(double t);

  /// Starts the measurement window (end of warm-up): zeroes accumulators.
  void StartMeasurement(double t);

  /// Closes integration at time `t` (call once at the end of the run).
  void FinishMeasurement(double t);

  // --- results (valid after FinishMeasurement) ---

  double measurement_duration() const { return last_time_ - measure_start_; }
  int num_caches() const { return static_cast<int>(weighted_integral_.size()); }
  int64_t total_replicas() const { return static_cast<int64_t>(num_entries_); }

  /// Σ over caches and replicas of the time-average of W(t)·D(t) — the
  /// paper's objective, generalized to the multi-cache topology.
  double TotalWeightedAverage() const;
  /// Contribution of one cache to TotalWeightedAverage().
  double PerCacheWeightedAverage(int32_t cache_id) const;
  /// TotalWeightedAverage() / number of replicas.
  double PerObjectWeightedAverage() const;
  /// Unweighted counterpart (Figure 6 reports unweighted staleness).
  double PerObjectUnweightedAverage() const;

  // --- live replica state (read by CGM estimators etc.) ---
  // The ObjectIndex-only forms read the object's first replica (exact for
  // single-cache topologies, where every object has one replica).

  double cached_value(ObjectIndex index) const {
    return entries_[workload_->replica_offsets[index]].cached_value;
  }
  int64_t cached_version(ObjectIndex index) const {
    return entries_[workload_->replica_offsets[index]].cached_version;
  }
  double cached_value(ObjectIndex index, int32_t cache_id) const {
    return entries_[ReplicaEntry(index, cache_id)].cached_value;
  }
  int64_t cached_version(ObjectIndex index, int32_t cache_id) const {
    return entries_[ReplicaEntry(index, cache_id)].cached_version;
  }
  double source_value(ObjectIndex index) const {
    return entries_[workload_->replica_offsets[index]].source_value;
  }
  int64_t source_version(ObjectIndex index) const {
    return entries_[workload_->replica_offsets[index]].source_version;
  }
  double current_divergence(ObjectIndex index) const {
    return entries_[workload_->replica_offsets[index]].divergence;
  }
  double current_divergence(ObjectIndex index, int32_t cache_id) const {
    return entries_[ReplicaEntry(index, cache_id)].divergence;
  }

  /// Instantaneous Σ W * D over cache `cache_id`'s replicas — the running
  /// sum the time integrals integrate. The sums are updated eagerly at
  /// every event (only the integrals are lazy), so this is exact at any
  /// time, and reading it never moves a cache's integration mark (the
  /// observability sampler depends on that).
  double CurrentWeightedSum(int32_t cache_id) const {
    return weighted_sum_[cache_id];
  }

 private:
  struct Entry {
    double source_value = 0.0;
    int64_t source_version = 0;
    double cached_value = 0.0;
    int64_t cached_version = 0;
    double divergence = 0.0;
    double weight = 1.0;
    int32_t cache_id = 0;
  };

  /// Flat entry index of object `index`'s replica at `cache_id` (checked).
  size_t ReplicaEntry(ObjectIndex index, int32_t cache_id) const;
  /// Integrates cache `cache_id`'s running sums from its mark up to `t`.
  void AdvanceCache(int32_t cache_id, double t);
  /// Integrates every cache up to `t`; called only at the global points
  /// (weight refresh, measurement start and finish).
  void AdvanceTo(double t);
  /// Replaces an entry's divergence, maintaining the running sums; the
  /// caller first advances the entry's cache to the event time.
  void SetDivergence(Entry* entry, double divergence);
  /// Rebuilds the running sums from scratch (bounds accumulation error).
  void RebuildSums();
  /// Weight of object `index` at `t` under this view's weighting scheme.
  double WeightAt(ObjectIndex index, double t) const;

  const Workload* workload_;
  const DivergenceMetric* metric_;
  bool use_source_weights_;
  /// One entry per (object, cache) replica, at the workload's replica
  /// index replica_offsets[i] + r. Points into the constructor's arena when
  /// one was given, else into owned_entries_.
  Entry* entries_ = nullptr;
  size_t num_entries_ = 0;
  std::vector<Entry> owned_entries_;
  // Running sums / integrals, one slot per cache.
  std::vector<double> weighted_sum_;    // Σ D * W at current time, per cache
  std::vector<double> unweighted_sum_;  // Σ D at current time, per cache
  std::vector<double> weighted_integral_;
  std::vector<double> unweighted_integral_;
  std::vector<double> mark_;  // integrals current up to this time, per cache
  double last_time_ = 0.0;    // last global AdvanceTo
  double measure_start_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_DIVERGENCE_GROUND_TRUTH_H_
