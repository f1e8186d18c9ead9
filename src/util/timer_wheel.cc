#include "util/timer_wheel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace besync {
namespace {

// Saturation bound for bucket indices: far enough out that no simulation
// reaches it, small enough that bucket arithmetic (+slots_) cannot
// overflow. Bucketing stays monotone under saturation, which is all the
// exactness argument needs (ties inside one bucket are settled by the
// near region on actual (time, seq)).
constexpr double kMaxBucket = 9.0e15;

int Log2(int64_t power_of_two) {
  int shift = 0;
  while ((int64_t{1} << shift) < power_of_two) ++shift;
  return shift;
}

}  // namespace

TimerWheel::TimerWheel(Options options)
    : resolution_(options.resolution),
      slots_(options.level_slots),
      shift_(Log2(options.level_slots)),
      mask_(slots_ - 1),
      level0_(options.level_slots),
      level1_(options.level_slots),
      cur_bucket_(-1) {
  BESYNC_CHECK(resolution_ > 0.0) << "wheel resolution must be positive";
  BESYNC_CHECK(slots_ >= 2 && (slots_ & mask_) == 0)
      << "wheel slots per level must be a power of two >= 2";
}

int64_t TimerWheel::BucketOf(double time) const {
  const double bucket = std::floor(time / resolution_);
  if (bucket >= kMaxBucket) return static_cast<int64_t>(kMaxBucket);
  if (bucket <= -kMaxBucket) return -static_cast<int64_t>(kMaxBucket);
  return static_cast<int64_t>(bucket);
}

void TimerWheel::Push(double time, WheelCallback callback) {
  const Item item{time, next_seq_++, callback};
  ++size_;
  const int64_t bucket = BucketOf(time);
  if (bucket <= cur_bucket_) {
    late_.push_back(item);
    std::push_heap(late_.begin(), late_.end(), LaterCmp{});
    return;
  }
  PlaceInWheel(item, bucket);
}

void TimerWheel::PlaceInWheel(const Item& item, int64_t bucket) {
  if (bucket - cur_bucket_ <= slots_) {
    level0_[bucket & mask_].push_back(item);
    ++level0_count_;
    return;
  }
  const int64_t b1 = bucket >> shift_;
  if (b1 - (cur_bucket_ >> shift_) <= slots_) {
    level1_[b1 & mask_].push_back(item);
    ++level1_count_;
    return;
  }
  if (far_.empty() || item.time < far_min_time_) far_min_time_ = item.time;
  far_.push_back(item);
}

void TimerWheel::Redistribute(std::vector<Item> items) {
  for (const Item& item : items) {
    const int64_t b0 = BucketOf(item.time);
    if (b0 <= cur_bucket_) {
      near_.push_back(item);
    } else {
      PlaceInWheel(item, b0);
    }
  }
}

void TimerWheel::Cascade(int64_t b1) {
  std::vector<Item>& bucket = level1_[b1 & mask_];
  level1_count_ -= bucket.size();
  Redistribute(std::move(bucket));
  // The level-1 window just advanced by one bucket. Far timers now inside
  // it must join level 1 before anything pushed from here on lands there,
  // or a later push in the same level-1 bucket would pop first.
  if (!far_.empty() && (BucketOf(far_min_time_) >> shift_) - b1 <= slots_) {
    Redistribute(std::move(far_));
  }
}

void TimerWheel::Prepare() {
  while (near_.empty() && late_.empty()) {
    if (level0_count_ > 0) {
      // Step one bucket: cascade on level-1 boundary crossings, then drain
      // the bucket that just entered the near region. Shifts of the
      // bucket index are floor divisions (arithmetic shift; cur_bucket_
      // starts at -1).
      ++cur_bucket_;
      if ((cur_bucket_ & mask_) == 0) Cascade(cur_bucket_ >> shift_);
      std::vector<Item>& bucket = level0_[cur_bucket_ & mask_];
      level0_count_ -= bucket.size();
      if (near_.empty()) {
        near_.swap(bucket);  // adopt the bucket's storage as the near region
      } else {
        // The cascade just put timers of this bucket in the near region.
        near_.insert(near_.end(), bucket.begin(), bucket.end());
      }
      std::vector<Item>().swap(bucket);
    } else if (level1_count_ > 0) {
      // Level 0 is dry: jump straight to the next level-1 boundary.
      cur_bucket_ = ((cur_bucket_ >> shift_) + 1) * slots_;
      Cascade(cur_bucket_ >> shift_);
    } else {
      // Wheels are dry: jump to the far list's minimum and re-bucket it.
      BESYNC_CHECK(!far_.empty()) << "TimerWheel::Prepare on an empty wheel";
      cur_bucket_ = BucketOf(far_min_time_) - 1;
      Redistribute(std::move(far_));
    }
    std::sort(near_.begin(), near_.end(), LaterCmp{});
  }
}

size_t TimerWheel::capacity() const {
  size_t slots = near_.capacity() + late_.capacity() + far_.capacity();
  for (const std::vector<Item>& bucket : level0_) slots += bucket.capacity();
  for (const std::vector<Item>& bucket : level1_) slots += bucket.capacity();
  return slots;
}

bool TimerWheel::LateFirst() const {
  return !late_.empty() && (near_.empty() || LaterCmp{}(near_.back(), late_.front()));
}

double TimerWheel::NextTime() {
  BESYNC_CHECK(size_ > 0) << "TimerWheel::NextTime on an empty wheel";
  Prepare();
  return LateFirst() ? late_.front().time : near_.back().time;
}

void TimerWheel::PopInto(double* time, WheelCallback* callback) {
  BESYNC_CHECK(size_ > 0) << "TimerWheel::PopInto on an empty wheel";
  Prepare();
  std::vector<Item>* from = &near_;
  if (LateFirst()) {
    std::pop_heap(late_.begin(), late_.end(), LaterCmp{});
    from = &late_;
  }
  *time = from->back().time;
  *callback = from->back().callback;
  from->pop_back();
  --size_;
}

}  // namespace besync
