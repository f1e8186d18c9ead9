#ifndef BESYNC_SIM_EVENT_QUEUE_H_
#define BESYNC_SIM_EVENT_QUEUE_H_

#include <cstdint>

#include "util/timer_wheel.h"

namespace besync {

/// Callback invoked when an event fires; receives the event's timestamp.
/// An inline trivially copyable callable of at most
/// WheelCallback::kStorageBytes (see util/timer_wheel.h): capture `this`
/// plus an index, or a reference, never an owning object.
using EventCallback = WheelCallback;

/// Timestamped event queue with stable FIFO ordering among events scheduled
/// for the same instant (ties broken by insertion sequence).
///
/// Backed by a hierarchical timer wheel (util/timer_wheel.h) instead of a
/// monolithic binary heap: with ~1M scheduled object updates in flight the
/// heap paid O(log n) cache-hostile sifts per push/pop, while the wheel
/// pushes in O(1) and only heap-orders the handful of events in the current
/// bucket. The pop order is *exactly* the old heap's (time, seq) order —
/// see the exactness argument in util/timer_wheel.h — so golden results are
/// bit-for-bit unchanged.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void Push(double time, EventCallback callback) {
    wheel_.Push(time, callback);
  }

  bool empty() const { return wheel_.empty(); }
  size_t size() const { return wheel_.size(); }

  /// Timestamp of the earliest event; queue must be non-empty. Non-const:
  /// the wheel may rotate buckets into its near heap to find the minimum.
  double NextTime() { return wheel_.NextTime(); }

  /// Pops the earliest event into (time, callback); queue must be non-empty.
  /// This is deliberately the only pop: a callback-only overload invited
  /// firing events with a caller-supplied timestamp that silently
  /// disagreed with the event's own (peek NextTime() first if only the
  /// time is needed).
  void PopInto(double* time, EventCallback* callback) {
    wheel_.PopInto(time, callback);
  }

 private:
  TimerWheel wheel_;
};

}  // namespace besync

#endif  // BESYNC_SIM_EVENT_QUEUE_H_
