#include "divergence/ground_truth.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

GroundTruth::GroundTruth(const Workload* workload, const DivergenceMetric* metric,
                         bool use_source_weights, Arena* arena)
    : workload_(workload), metric_(metric), use_source_weights_(use_source_weights) {
  BESYNC_CHECK(workload != nullptr);
  BESYNC_CHECK(metric != nullptr);
  BESYNC_CHECK_EQ(workload->replica_offsets.size(), workload->objects.size() + 1)
      << "interest map out of step with the objects (use Workload::AddObject)";
  num_entries_ = workload->replica_caches.size();
  if (arena != nullptr) {
    entries_ = arena->AllocateArray<Entry>(num_entries_);
  } else {
    owned_entries_.resize(num_entries_);
    entries_ = owned_entries_.data();
  }
  for (size_t k = 0; k < num_entries_; ++k) {
    const int32_t cache_id = workload->replica_caches[k];
    BESYNC_CHECK_GE(cache_id, 0);
    BESYNC_CHECK_LT(cache_id, workload->num_caches);
    entries_[k].cache_id = cache_id;
  }
  const size_t caches = static_cast<size_t>(workload->num_caches);
  weighted_sum_.assign(caches, 0.0);
  unweighted_sum_.assign(caches, 0.0);
  weighted_integral_.assign(caches, 0.0);
  unweighted_integral_.assign(caches, 0.0);
  mark_.assign(caches, 0.0);
}

size_t GroundTruth::ReplicaEntry(ObjectIndex index, int32_t cache_id) const {
  const int slot = workload_->replica_slot(index, cache_id);
  BESYNC_CHECK_GE(slot, 0) << "object " << index << " has no replica at cache "
                           << cache_id;
  return static_cast<size_t>(workload_->replica_offsets[index] + slot);
}

double GroundTruth::WeightAt(ObjectIndex index, double t) const {
  return use_source_weights_ ? workload_->SourceWeightAt(index, t)
                             : workload_->WeightAt(index, t);
}

void GroundTruth::Initialize(double t) {
  const int64_t* offsets = workload_->replica_offsets.data();
  for (size_t i = 0; i < workload_->objects.size(); ++i) {
    const double initial = workload_->objects[i].initial_value;
    const double weight = WeightAt(static_cast<ObjectIndex>(i), t);
    for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      Entry& entry = entries_[k];
      entry.source_value = initial;
      entry.source_version = 0;
      entry.cached_value = initial;
      entry.cached_version = 0;
      entry.divergence = 0.0;
      entry.weight = weight;
    }
  }
  last_time_ = t;
  measure_start_ = t;
  std::fill(mark_.begin(), mark_.end(), t);
  std::fill(weighted_integral_.begin(), weighted_integral_.end(), 0.0);
  std::fill(unweighted_integral_.begin(), unweighted_integral_.end(), 0.0);
  RebuildSums();
}

void GroundTruth::AdvanceCache(int32_t cache_id, double t) {
  BESYNC_DCHECK(t >= mark_[cache_id]);
  const double dt = t - mark_[cache_id];
  if (dt > 0.0) {
    weighted_integral_[cache_id] += weighted_sum_[cache_id] * dt;
    unweighted_integral_[cache_id] += unweighted_sum_[cache_id] * dt;
    mark_[cache_id] = t;
  }
}

void GroundTruth::AdvanceTo(double t) {
  BESYNC_DCHECK(t >= last_time_);
  for (size_t c = 0; c < mark_.size(); ++c) {
    AdvanceCache(static_cast<int32_t>(c), t);
  }
  last_time_ = t;
}

void GroundTruth::SetDivergence(Entry* entry, double divergence) {
  weighted_sum_[entry->cache_id] += (divergence - entry->divergence) * entry->weight;
  unweighted_sum_[entry->cache_id] += divergence - entry->divergence;
  entry->divergence = divergence;
}

void GroundTruth::RebuildSums() {
  std::fill(weighted_sum_.begin(), weighted_sum_.end(), 0.0);
  std::fill(unweighted_sum_.begin(), unweighted_sum_.end(), 0.0);
  for (size_t i = 0; i < num_entries_; ++i) {
    const Entry& entry = entries_[i];
    weighted_sum_[entry.cache_id] += entry.divergence * entry.weight;
    unweighted_sum_[entry.cache_id] += entry.divergence;
  }
}

void GroundTruth::OnSourceUpdate(ObjectIndex index, double t, double value,
                                 int64_t version) {
  const int64_t end = workload_->replica_offsets[index + 1];
  for (int64_t k = workload_->replica_offsets[index]; k < end; ++k) {
    Entry& entry = entries_[k];
    entry.source_value = value;
    entry.source_version = version;
    AdvanceCache(entry.cache_id, t);
    SetDivergence(&entry, metric_->Divergence(value, version, entry.cached_value,
                                              entry.cached_version));
  }
}

void GroundTruth::OnCacheApply(ObjectIndex index, int32_t cache_id, double t,
                               double value, int64_t version) {
  Entry& entry = entries_[ReplicaEntry(index, cache_id)];
  // Every apply is an event at its cache, even an ignored one, so a
  // single cache splits its integration steps where an eager walk would.
  AdvanceCache(cache_id, t);
  // Refreshes may be delivered out of order relative to newer content only
  // in CGM-style protocols; never regress the cached version.
  if (version < entry.cached_version) return;
  entry.cached_value = value;
  entry.cached_version = version;
  SetDivergence(&entry, metric_->Divergence(entry.source_value, entry.source_version,
                                            value, version));
}

void GroundTruth::OnCacheApply(ObjectIndex index, double t, double value,
                               int64_t version) {
  OnCacheApply(index, workload_->caches(index).front(), t, value, version);
}

void GroundTruth::RefreshWeights(double t) {
  AdvanceTo(t);
  const int64_t* offsets = workload_->replica_offsets.data();
  for (size_t i = 0; i < workload_->objects.size(); ++i) {
    const double weight = WeightAt(static_cast<ObjectIndex>(i), t);
    for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) entries_[k].weight = weight;
  }
  RebuildSums();
}

void GroundTruth::StartMeasurement(double t) {
  AdvanceTo(t);
  std::fill(weighted_integral_.begin(), weighted_integral_.end(), 0.0);
  std::fill(unweighted_integral_.begin(), unweighted_integral_.end(), 0.0);
  measure_start_ = t;
  RebuildSums();
}

void GroundTruth::FinishMeasurement(double t) { AdvanceTo(t); }

double GroundTruth::TotalWeightedAverage() const {
  const double duration = measurement_duration();
  if (duration <= 0.0) return 0.0;
  double total = 0.0;
  for (double integral : weighted_integral_) total += integral;
  // Guard against tiny negative values from float cancellation when the
  // true integral is ~0.
  return std::max(0.0, total / duration);
}

double GroundTruth::PerCacheWeightedAverage(int32_t cache_id) const {
  const double duration = measurement_duration();
  if (duration <= 0.0) return 0.0;
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return std::max(0.0, weighted_integral_[cache_id] / duration);
}

double GroundTruth::PerObjectWeightedAverage() const {
  return num_entries_ == 0
             ? 0.0
             : TotalWeightedAverage() / static_cast<double>(num_entries_);
}

double GroundTruth::PerObjectUnweightedAverage() const {
  const double duration = measurement_duration();
  if (duration <= 0.0 || num_entries_ == 0) return 0.0;
  double total = 0.0;
  for (double integral : unweighted_integral_) total += integral;
  return std::max(0.0, total / duration / static_cast<double>(num_entries_));
}

}  // namespace besync
