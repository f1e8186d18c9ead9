#include "sim/simulation.h"

#include "util/logging.h"

namespace besync {

void Simulation::ScheduleAt(double time, EventCallback callback) {
  BESYNC_CHECK_GE(time, now_);
  queue_.Push(time, callback);
}

void Simulation::ScheduleAfter(double delay, EventCallback callback) {
  BESYNC_CHECK_GE(delay, 0.0);
  queue_.Push(now_ + delay, callback);
}

void Simulation::RunUntil(double time) {
  BESYNC_CHECK_GE(time, now_);
  while (!queue_.empty() && queue_.NextTime() <= time) {
    double event_time;
    EventCallback callback;
    queue_.PopInto(&event_time, &callback);
    now_ = event_time;
    ++events_fired_;
    callback(event_time);
  }
  now_ = time;
}

bool Simulation::Step() {
  if (queue_.empty()) return false;
  double event_time;
  EventCallback callback;
  queue_.PopInto(&event_time, &callback);
  BESYNC_CHECK_GE(event_time, now_);
  now_ = event_time;
  ++events_fired_;
  callback(event_time);
  return true;
}

}  // namespace besync
