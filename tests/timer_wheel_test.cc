#include "util/timer_wheel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace besync {
namespace {

/// Reference implementation: the (time, insertion-seq) order the wheel must
/// reproduce exactly — a stable sort of the push stream by time.
struct Ref {
  double time;
  int id;
};

std::vector<int> StableOrder(std::vector<Ref> refs) {
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.time < b.time; });
  std::vector<int> ids;
  for (const Ref& ref : refs) ids.push_back(ref.id);
  return ids;
}

/// Pushes every (time, id) pair, then pops the whole wheel and returns the
/// ids in pop order, checking popped timestamps are what was pushed.
std::vector<int> DrainOrder(TimerWheel* wheel, const std::vector<Ref>& refs) {
  std::vector<double> times(refs.size());
  std::vector<int> order;
  for (const Ref& ref : refs) {
    times[static_cast<size_t>(ref.id)] = ref.time;
    wheel->Push(ref.time, [&order, id = ref.id](double) { order.push_back(id); });
  }
  while (!wheel->empty()) {
    const double next = wheel->NextTime();
    double time = 0.0;
    WheelCallback callback;
    wheel->PopInto(&time, &callback);
    EXPECT_EQ(time, next);
    callback(time);
    EXPECT_EQ(time, times[static_cast<size_t>(order.back())]);
  }
  return order;
}

/// Interleaved push/pop driver checked against the same reference: the
/// timers pending at each pop, kept ordered by (time, push index), which is
/// the stable sort by time of what is left.
class InterleavedChecker {
 public:
  explicit InterleavedChecker(TimerWheel* wheel) : wheel_(wheel) {}

  void Push(double time) {
    const int id = next_id_++;
    pending_.insert({time, id});
    wheel_->Push(time, [this, id](double) { fired_ = id; });
  }

  /// Pops one timer and checks it is the earliest pending one.
  void Pop() {
    ASSERT_FALSE(pending_.empty());
    const std::pair<double, int> expected = *pending_.begin();
    pending_.erase(pending_.begin());
    EXPECT_EQ(wheel_->NextTime(), expected.first);
    double time = 0.0;
    WheelCallback callback;
    wheel_->PopInto(&time, &callback);
    callback(time);
    ASSERT_EQ(fired_, expected.second);
    ASSERT_EQ(time, expected.first);
    ASSERT_EQ(wheel_->size(), pending_.size());
  }

  size_t pending() const { return pending_.size(); }

 private:
  TimerWheel* wheel_;
  std::set<std::pair<double, int>> pending_;
  int next_id_ = 0;
  int fired_ = -1;
};

TEST(TimerWheelTest, PopsInTimeOrderWithFifoTies) {
  TimerWheel wheel;
  const std::vector<Ref> refs = {
      {5.0, 0}, {1.0, 1}, {5.0, 2}, {0.25, 3}, {1.0, 4}, {5.0, 5}, {0.25, 6},
  };
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, CascadesAcrossLevelsExactly) {
  TimerWheel::Options options;
  options.resolution = 1.0;
  options.level_slots = 4;  // level-0 horizon 4s, level-1 horizon 16s
  TimerWheel wheel(options);
  std::vector<Ref> refs;
  int id = 0;
  // Spread timers across near, level 0, level 1, and the far list, with
  // deliberate duplicates straddling the level-1 bucket boundaries.
  for (double t : {0.5, 3.9, 4.0, 4.0, 7.5, 15.0, 16.0, 16.0, 63.0, 64.0,
                   200.0, 200.0, 17.25, 3.9}) {
    refs.push_back({t, id++});
  }
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, InterleavedPushAndPopKeepsGlobalOrder) {
  TimerWheel::Options options;
  options.level_slots = 8;
  TimerWheel wheel(options);
  std::vector<int> order;
  std::vector<Ref> refs;

  auto push = [&](double t) {
    const int id = static_cast<int>(refs.size());
    refs.push_back({t, id});
    wheel.Push(t, [&order, id](double) { order.push_back(id); });
  };
  auto pop = [&] {
    double time = 0.0;
    WheelCallback callback;
    wheel.PopInto(&time, &callback);
    callback(time);
  };

  push(10.0);
  push(2.0);
  pop();  // 2.0 fires; wheel has advanced near bucket 2
  // Pushes at-or-before the current bucket must still pop before later ones.
  push(2.5);
  push(1.0);
  push(300.0);
  while (!wheel.empty()) pop();

  // Expected: 2.0 popped first, then a stable sort of what remained at each
  // pop. 1.0 was pushed after 2.0 fired, so it pops second (past-time
  // pushes are served immediately, not dropped).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0, 4}));
}

TEST(TimerWheelTest, RandomizedAgainstStableSort) {
  Rng rng(20260807);
  for (int round = 0; round < 20; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 2 == 0 ? 1.0 : 0.125;
    options.level_slots = round % 3 == 0 ? 4 : 32;
    TimerWheel wheel(options);
    std::vector<Ref> refs;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      // Mix of near, mid, far, and repeated times to force tie-breaks.
      double t = 0.0;
      switch (rng.UniformInt(0, 3)) {
        case 0: t = static_cast<double>(rng.UniformInt(0, 9)); break;
        case 1: t = rng.Uniform(0.0, 50.0); break;
        case 2: t = rng.Uniform(0.0, 5000.0); break;
        default: t = rng.Uniform(0.0, 2.0e6); break;
      }
      refs.push_back({t, i});
    }
    EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs)) << "round " << round;
  }
}

TEST(TimerWheelTest, FarFutureTimersSurviveSaturation) {
  TimerWheel wheel;
  const std::vector<Ref> refs = {
      {1.0e18, 0}, {3.0, 1}, {1.0e18, 2}, {5.0e17, 3},
  };
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, SizeTracksAcrossRegions) {
  TimerWheel::Options options;
  options.level_slots = 4;
  TimerWheel wheel(options);
  EXPECT_TRUE(wheel.empty());
  wheel.Push(0.5, [](double) {});
  wheel.Push(10.0, [](double) {});
  wheel.Push(1.0e6, [](double) {});
  EXPECT_EQ(wheel.size(), 3u);
  double time = 0.0;
  WheelCallback callback;
  wheel.PopInto(&time, &callback);
  EXPECT_EQ(time, 0.5);
  EXPECT_EQ(wheel.size(), 2u);
  wheel.PopInto(&time, &callback);
  wheel.PopInto(&time, &callback);
  EXPECT_EQ(time, 1.0e6);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CascadeIntoNearThenLevelZeroDrainKeepsBoth) {
  // One Prepare() crosses a level-1 boundary whose cascade puts timers
  // straight into the near region, then drains the level-0 bucket of that
  // same boundary into it. Neither set may be dropped.
  TimerWheel::Options options;
  options.level_slots = 4;
  TimerWheel wheel(options);
  InterleavedChecker checker(&wheel);
  checker.Push(0.5);
  checker.Push(4.5);   // bucket 4 is beyond level 0 here: parked in level 1
  checker.Push(4.75);
  checker.Push(6.0);
  checker.Pop();       // 0.5: the wheel now stands at bucket 0
  checker.Push(4.25);  // bucket 4 is now within level 0
  checker.Push(4.5);
  checker.Push(7.0);
  while (checker.pending() > 0) checker.Pop();
}

TEST(TimerWheelTest, RandomizedInterleavedStress) {
  // Small resolution and few slots so cascades, far-list re-bucketing and
  // pushes into the current bucket all happen often.
  Rng rng(20261017);
  for (int round = 0; round < 12; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 3 == 0 ? 0.25 : (round % 3 == 1 ? 1.0 : 0.0625);
    options.level_slots = round % 2 == 0 ? 2 : 8;
    TimerWheel wheel(options);
    InterleavedChecker checker(&wheel);
    double now = 0.0;
    for (int op = 0; op < 20000; ++op) {
      if (checker.pending() > 0 && rng.Bernoulli(0.5)) {
        now = wheel.NextTime();
        checker.Pop();
        continue;
      }
      double delay = 0.0;
      switch (rng.UniformInt(0, 5)) {
        case 0: delay = 0.0; break;  // ties with the time just popped
        case 1: delay = rng.Uniform(0.0, options.resolution); break;
        case 2: delay = rng.Exponential(1.0); break;
        case 3: delay = rng.Uniform(0.0, 40.0); break;
        case 4: delay = rng.Uniform(0.0, 2000.0); break;
        default: delay = std::floor(rng.Uniform(0.0, 8.0)); break;
      }
      checker.Push(now + delay);
    }
    while (checker.pending() > 0) checker.Pop();
    EXPECT_TRUE(wheel.empty()) << "round " << round;
  }
}

TEST(TimerWheelTest, CallbackCarriesPointerAndInt64Payload) {
  TimerWheel::Options options;
  options.level_slots = 4;
  TimerWheel wheel(options);
  std::vector<int64_t> got;
  const std::vector<int64_t> payloads = {
      0, -1, 0x0123456789abcdefLL, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), 42};
  for (size_t i = 0; i < payloads.size(); ++i) {
    std::vector<int64_t>* out = &got;
    const int64_t payload = payloads[i];
    // Spread over near, level 0, level 1 and the far list.
    const double time = static_cast<double>(i * i * i * 7);
    wheel.Push(time, [out, payload](double) { out->push_back(payload); });
  }
  while (!wheel.empty()) {
    double time = 0.0;
    WheelCallback callback;
    wheel.PopInto(&time, &callback);
    WheelCallback copy = callback;
    copy(time);
  }
  EXPECT_EQ(got, payloads);
}

TEST(TimerWheelTest, CapacityFollowsLiveTimers) {
  // 1M timers churn through the wheel with exactly 1k live at any time, the
  // harness pattern: each pop schedules one successor at an exponential
  // delay. Drained buckets must give their storage back, so the slots held
  // stay a small multiple of the live count rather than accumulating every
  // slot's busiest interval.
  constexpr int kLive = 1000;
  constexpr int kEvents = 1000000;
  TimerWheel wheel;
  Rng rng(7);
  for (int i = 0; i < kLive; ++i) wheel.Push(rng.Exponential(1.0 / 30.0), [](double) {});
  size_t peak_capacity = 0;
  for (int i = 0; i < kEvents; ++i) {
    double time = 0.0;
    WheelCallback callback;
    wheel.PopInto(&time, &callback);
    wheel.Push(time + rng.Exponential(1.0 / 30.0), [](double) {});
    if (i % 64 == 0) peak_capacity = std::max(peak_capacity, wheel.capacity());
  }
  EXPECT_EQ(wheel.size(), static_cast<size_t>(kLive));
  EXPECT_LE(peak_capacity, 4u * kLive);
}

}  // namespace
}  // namespace besync
