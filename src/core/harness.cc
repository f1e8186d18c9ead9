#include "core/harness.h"

#include <cmath>

#include "util/logging.h"

namespace besync {

double NextWeightRefreshDeadline(double t, double interval) {
  BESYNC_CHECK_GT(interval, 0.0);
  return (std::floor(t / interval) + 1.0) * interval;
}

Harness::Harness(const Workload* workload, const DivergenceMetric* metric,
                 const HarnessConfig& config)
    : workload_(workload),
      metric_(metric),
      config_(config),
      scheduler_rng_(config.seed) {
  BESYNC_CHECK(workload != nullptr);
  BESYNC_CHECK(metric != nullptr);
  BESYNC_CHECK_GT(config.tick_length, 0.0);
  BESYNC_CHECK_GE(config.warmup, 0.0);
  BESYNC_CHECK_GT(config.measure, 0.0);
  owned_ground_truth_ =
      std::make_unique<GroundTruth>(workload, metric, /*use_source_weights=*/false,
                                    &arena_);
  primary_ground_truth_ = owned_ground_truth_.get();
  ground_truths_.push_back(primary_ground_truth_);
  objects_.reserve(workload->objects.size());
  for (const ObjectSpec& spec : workload->objects) objects_.emplace_back(spec.rng_seed);
  trackers_ = arena_.AllocateArray<DivergenceTracker>(
      static_cast<size_t>(workload->total_replicas()), metric);
  if (workload->traces != nullptr) trace_cursors_.assign(objects_.size(), 0);
}

void Harness::AddGroundTruth(GroundTruth* ground_truth) {
  BESYNC_CHECK(!ran_) << "AddGroundTruth must precede Run";
  BESYNC_CHECK(ground_truth != nullptr);
  ground_truths_.push_back(ground_truth);
}

Message Harness::MakeRefreshMessage(ObjectIndex index, int32_t cache_id, double t) {
  const ObjectRuntime& object = objects_[index];
  const ObjectSpec& spec = workload_->objects[index];
  const int slot = workload_->replica_slot(index, cache_id);
  BESYNC_CHECK_GE(slot, 0) << "object " << index << " has no replica at cache "
                           << cache_id;
  Message message;
  message.kind = MessageKind::kRefresh;
  message.source_index = spec.source_index;
  message.cache_id = cache_id;
  message.object_index = index;
  message.value = object.state.value;
  message.version = object.state.version;
  message.send_time = t;
  message.last_update_time = object.state.last_update_time;
  message.cost = spec.refresh_cost;
  tracker(index, slot).OnRefresh(t, object.state.value, object.state.version);
  return message;
}

Message Harness::MakeRefreshMessage(ObjectIndex index, double t) {
  return MakeRefreshMessage(index, workload_->caches(index).front(), t);
}

void Harness::DeliverRefresh(const Message& message, double t) {
  BESYNC_DCHECK(message.object_index >= 0);
  for (GroundTruth* ground_truth : ground_truths_) {
    ground_truth->OnCacheApply(message.object_index, message.cache_id, t,
                               message.value, message.version);
    for (const RefreshPayload& payload : message.extra_refreshes) {
      ground_truth->OnCacheApply(payload.object_index, message.cache_id, t,
                                 payload.value, payload.version);
    }
  }
}

void Harness::RefreshInstant(ObjectIndex index, double t) {
  for (int32_t cache_id : workload_->caches(index)) {
    const Message message = MakeRefreshMessage(index, cache_id, t);
    DeliverRefresh(message, t);
  }
}

void Harness::OnUpdateEvent(ObjectIndex index, double t) {
  ObjectRuntime& object = objects_[index];
  object.state.value = workload_->process(index).ApplyUpdate(
      object.state.value, TraceCursor(index), &object.rng);
  ++object.state.version;
  object.state.last_update_time = t;
  const int64_t end = workload_->replica_offsets[index + 1];
  for (int64_t k = workload_->replica_offsets[index]; k < end; ++k) {
    trackers_[k].OnUpdate(t, object.state.value, object.state.version);
  }
  for (GroundTruth* ground_truth : ground_truths_) {
    ground_truth->OnSourceUpdate(index, t, object.state.value, object.state.version);
  }
  scheduler_->OnObjectUpdate(index, t);
  ScheduleNextUpdate(index, t);
}

void Harness::ScheduleNextUpdate(ObjectIndex index, double now) {
  ObjectRuntime& object = objects_[index];
  const double next =
      workload_->process(index).NextUpdateTime(now, TraceCursor(index), &object.rng);
  if (!std::isfinite(next)) return;
  sim_.ScheduleAt(next, [this, index](double t) { OnUpdateEvent(index, t); });
}

Status Harness::Run(Scheduler* scheduler) {
  if (ran_) return Status::FailedPrecondition("Harness::Run called twice");
  ran_ = true;
  BESYNC_CHECK(scheduler != nullptr);
  scheduler_ = scheduler;

  // Initialize object state and synchronized cache contents at t = 0.
  const int64_t* offsets = workload_->replica_offsets.data();
  for (size_t i = 0; i < objects_.size(); ++i) {
    ObjectState& state = objects_[i].state;
    state.value = workload_->objects[i].initial_value;
    state.version = 0;
    state.last_update_time = -1.0;
    for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      trackers_[k].OnRefresh(0.0, state.value, 0);
    }
  }
  for (GroundTruth* ground_truth : ground_truths_) ground_truth->Initialize(0.0);
  for (size_t i = 0; i < objects_.size(); ++i) {
    ScheduleNextUpdate(static_cast<ObjectIndex>(i), 0.0);
  }
  scheduler->Initialize(this);

  const double end = end_time();
  const double tick = config_.tick_length;
  bool measuring = config_.warmup <= 0.0;
  double next_weight_refresh = config_.weight_refresh_interval;

  double t = 0.0;
  while (t < end) {
    const double next = std::min(t + tick, end);
    sim_.RunUntil(next);
    scheduler->Tick(next);
    if (workload_->has_fluctuating_weights && next >= next_weight_refresh) {
      for (GroundTruth* ground_truth : ground_truths_) {
        ground_truth->RefreshWeights(next);
      }
      // Catch up past every interval boundary the tick crossed: a fixed
      // `+= interval` falls unboundedly behind `t` when
      // tick_length > weight_refresh_interval.
      next_weight_refresh =
          NextWeightRefreshDeadline(next, config_.weight_refresh_interval);
    }
    if (!measuring && next >= config_.warmup) {
      for (GroundTruth* ground_truth : ground_truths_) {
        ground_truth->StartMeasurement(next);
      }
      scheduler->OnMeasurementStart(next);
      measuring = true;
    }
    t = next;
  }
  for (GroundTruth* ground_truth : ground_truths_) ground_truth->FinishMeasurement(end);
  scheduler->Finalize(end);
  return Status::OK();
}

}  // namespace besync
