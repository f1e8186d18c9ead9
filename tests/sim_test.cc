#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace besync {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Push(3.0, [&fired](double) { fired.push_back(3); });
  queue.Push(1.0, [&fired](double) { fired.push_back(1); });
  queue.Push(2.0, [&fired](double) { fired.push_back(2); });
  std::vector<double> times;
  while (!queue.empty()) {
    double time = 0.0;
    EventCallback callback;
    queue.PopInto(&time, &callback);
    times.push_back(time);
    callback(time);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueueTest, FifoForEqualTimes) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5.0, [&fired, i](double) { fired.push_back(i); });
  }
  while (!queue.empty()) {
    double time = 0.0;
    EventCallback callback;
    queue.PopInto(&time, &callback);
    callback(time);
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.Push(7.5, [](double) {});
  queue.Push(2.5, [](double) {});
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.5);
}

TEST(EventQueueTest, PopIntoReturnsTimeAndCallback) {
  EventQueue queue;
  queue.Push(4.0, [](double) {});
  double time = 0.0;
  EventCallback callback;
  queue.PopInto(&time, &callback);
  EXPECT_DOUBLE_EQ(time, 4.0);
  EXPECT_TRUE(queue.empty());
}

TEST(SimulationTest, RunUntilAdvancesClockExactly) {
  Simulation sim;
  sim.RunUntil(12.5);
  EXPECT_DOUBLE_EQ(sim.now(), 12.5);
}

TEST(SimulationTest, EventsFireAtTheirTimestamps) {
  Simulation sim;
  std::vector<double> times;
  sim.ScheduleAt(1.5, [&](double t) { times.push_back(t); });
  sim.ScheduleAt(0.5, [&](double t) { times.push_back(t); });
  sim.RunUntil(2.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(SimulationTest, EventsBeyondHorizonStayPending) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(10.0, [&](double) { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(10.0);  // inclusive boundary
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, EventsScheduledDuringRunFireInSameRun) {
  Simulation sim;
  std::vector<double> fired;
  sim.ScheduleAt(1.0, [&](double t) {
    fired.push_back(t);
    sim.ScheduleAt(1.5, [&](double t2) { fired.push_back(t2); });
  });
  sim.RunUntil(2.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[1], 1.5);
}

TEST(SimulationTest, SelfReschedulingEventChain) {
  // Mimics the update-process pattern: each event schedules the next.
  Simulation sim;
  int count = 0;
  // Events hold trivially copyable callables, so the chain schedules a
  // reference to the rescheduling function rather than a copy of it.
  std::function<void(double)> reschedule = [&](double t) {
    ++count;
    if (t + 1.0 <= 100.0) {
      sim.ScheduleAt(t + 1.0, [&reschedule](double t2) { reschedule(t2); });
    }
  };
  sim.ScheduleAt(1.0, [&reschedule](double t) { reschedule(t); });
  sim.RunUntil(100.0);
  EXPECT_EQ(count, 100);
}

TEST(SimulationTest, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  sim.RunUntil(3.0);
  double fired_at = -1.0;
  sim.ScheduleAfter(2.0, [&](double t) { fired_at = t; });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulationTest, StepFiresSingleEvent) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&](double) { ++fired; });
  sim.ScheduleAt(2.0, [&](double) { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

}  // namespace
}  // namespace besync
