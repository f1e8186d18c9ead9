#ifndef BESYNC_UTIL_TIMER_WHEEL_H_
#define BESYNC_UTIL_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace besync {

/// Callback fired when a timer is popped; receives the timer's timestamp.
///
/// A trivially copyable inline callable: one function pointer plus
/// kStorageBytes of storage holding the callable itself. Any trivially
/// copyable callable that fits (a lambda capturing `this` and an index, or
/// a reference or two) converts implicitly; anything larger or with a
/// non-trivial copy (a type-erased function object, a capture of a vector)
/// is rejected at compile time. Timers therefore carry their callback by
/// value through every bucket, sort and heap sift with no allocation, no
/// indirection and no destructor.
class WheelCallback {
 public:
  static constexpr size_t kStorageBytes = 16;

  WheelCallback() = default;

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, WheelCallback>>>
  WheelCallback(F callable) : invoke_(&Invoke<F>) {  // NOLINT: implicit by design
    static_assert(std::is_trivially_copyable_v<F>,
                  "timer callbacks must be trivially copyable: capture indices "
                  "and pointers, not owning objects");
    static_assert(sizeof(F) <= kStorageBytes,
                  "timer callback captures more than WheelCallback::kStorageBytes");
    static_assert(alignof(F) <= alignof(Storage), "timer callback over-aligned");
    static_assert(std::is_invocable_v<F&, double>,
                  "timer callback must be callable as void(double)");
    ::new (static_cast<void*>(&storage_)) F(callable);
  }

  void operator()(double time) { invoke_(&storage_, time); }

 private:
  struct alignas(8) Storage {
    unsigned char bytes[kStorageBytes];
  };

  template <typename F>
  static void Invoke(Storage* storage, double time) {
    (*std::launder(reinterpret_cast<F*>(storage)))(time);
  }

  Storage storage_{};
  void (*invoke_)(Storage*, double) = nullptr;
};

static_assert(std::is_trivially_copyable_v<WheelCallback>,
              "WheelCallback must stay a POD-like value");

/// Hierarchical timer wheel with an *exact* global pop order: timers pop in
/// strictly increasing (time, insertion-sequence) order — bit-for-bit the
/// order a binary min-heap with a FIFO tie-break produces — while Push costs
/// O(1) instead of O(log n). With ~1M scheduled object updates in flight,
/// the heap's log-factor (and its cache-hostile sift paths) is a measurable
/// slice of every simulated tick; the wheel replaces it with an append to a
/// bucket.
///
/// Structure (continuous double timestamps, bucketed at `resolution` r with
/// N = `level_slots` slots per level):
///   - near region: every timer whose level-0 bucket index floor(t/r) is at
///     or before the current bucket. This is the only region ordered by
///     (time, seq). It is a run sorted latest-first when its bucket was
///     drained (popped from the back), plus a binary heap of the timers
///     pushed into the current bucket after that; a pop takes the earlier
///     of the two tops.
///   - level 0: the next N buckets of width r, unsorted vectors.
///   - level 1: the next N buckets of width N*r, unsorted.
///   - far list: everything beyond the level-1 window, with a cached
///     minimum time; re-bucketed wholesale as soon as that minimum enters
///     the window (checked at each level-1 boundary), or jumped to when the
///     wheels run dry. Every far timer is thus later than every wheel timer.
///
/// Exactness argument: floor-bucketing partitions the time axis, so every
/// timer outside the near region has time >= (current bucket + 1) * r,
/// which is strictly greater than every near timer's time. Emptying the
/// near region before advancing the wheel therefore always pops the global
/// (time, seq) minimum, and timers with equal times share a bucket by
/// construction, so the (time, seq) order inside the region settles them
/// exactly as a monolithic heap would. Timers pushed at-or-before the
/// current bucket (including past times) go straight to the near region's
/// heap, preserving the invariant.
///
/// Each timer is one 40-byte trivially copyable item, (time, seq) plus its
/// inline callback, so buckets, the sort and the heap move plain bytes. A
/// bucket that enters the near region hands all its items over at once and
/// they are ordered by one sort, which costs less than a heap pop per item
/// (make_heap plus pop_heap measured slower end to end). The drained bucket
/// then gives its storage back, so memory follows the live timers, not the
/// busiest interval each slot has ever seen.
///
/// Not thread-safe; one wheel per simulation.
class TimerWheel {
 public:
  struct Options {
    /// Level-0 bucket width in simulated seconds. Any positive value is
    /// correct (ordering never depends on it); it tunes only how much work
    /// advancing does. The default matches the 1s harness tick.
    double resolution = 1.0;
    /// Slots per level (two levels: horizon = slots^2 * resolution). A power
    /// of two, so slot and level arithmetic are shifts and masks.
    int level_slots = 256;
  };

  TimerWheel() : TimerWheel(Options{}) {}
  explicit TimerWheel(Options options);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  void Push(double time, WheelCallback callback);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Item slots allocated across the near region, both levels and the far
  /// list; O(level_slots). Stays within a small multiple of the peak live
  /// count, however the timers move across buckets over time.
  size_t capacity() const;

  /// Timestamp of the earliest timer; wheel must be non-empty. Non-const:
  /// may advance buckets into the near region.
  double NextTime();

  /// Pops the earliest timer into (time, callback); wheel must be non-empty.
  void PopInto(double* time, WheelCallback* callback);

 private:
  /// Routed through buckets and the near region; trivially copyable.
  struct Item {
    double time;
    uint64_t seq;
    WheelCallback callback;
  };

  // Near-region ordering: true when `a` pops after `b` (later time; FIFO
  // for equal times). A struct (not a free function) so std::sort and the
  // heap algorithms inline the comparison.
  struct LaterCmp {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  int64_t BucketOf(double time) const;

  /// Ensures the near region holds the global minimum (fills it from the
  /// wheels/far list when empty). Requires size_ > 0.
  void Prepare();

  /// After Prepare: whether the earliest timer is late_'s top rather than
  /// near_'s back.
  bool LateFirst() const;

  /// Moves every timer of level-1 bucket `b1` into level 0 / the near region.
  void Cascade(int64_t b1);

  /// Routes every item of `items` to the near region (unordered; Prepare
  /// sorts it) or into the wheel. Callers move a bucket or the far list in,
  /// which leaves it empty and frees its storage on return.
  void Redistribute(std::vector<Item> items);

  /// Routes one item already known not to belong to the near region.
  void PlaceInWheel(const Item& item, int64_t bucket);

  const double resolution_;
  const int64_t slots_;
  const int shift_;                         // log2(slots_)
  const int64_t mask_;                      // slots_ - 1
  std::vector<Item> near_;                  // sorted by LaterCmp: pop back
  std::vector<Item> late_;                  // binary heap under LaterCmp
  std::vector<std::vector<Item>> level0_;   // bucket b at slot b & mask_
  std::vector<std::vector<Item>> level1_;
  std::vector<Item> far_;
  double far_min_time_ = 0.0;
  int64_t cur_bucket_;                      // near/wheel boundary (absolute)
  size_t level0_count_ = 0;
  size_t level1_count_ = 0;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_TIMER_WHEEL_H_
