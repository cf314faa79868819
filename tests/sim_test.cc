// Unit tests for the discrete-event simulator: ordering, FIFO tie-breaks,
// cancellation, run_until semantics, nested scheduling, determinism, and
// the split between the sorted run and the heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace gfaas::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 150);
}

TEST(SimulatorTest, NestedSchedulingChains) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(10, chain);
  };
  sim.schedule_after(10, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelUnknownOrTwiceFails) {
  Simulator sim;
  const auto id = sim.schedule_at(10, [] {});
  EXPECT_FALSE(sim.cancel(9999));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
}

TEST(SimulatorTest, CancelAfterExecutionFails) {
  Simulator sim;
  const auto id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_at(10, [&] { fired.push_back(10); });
  sim.schedule_at(20, [&] { fired.push_back(20); });
  sim.schedule_at(30, [&] { fired.push_back(30); });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, StepRunsSingleEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, PendingCountExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(1, [] {});
  const auto id = sim.schedule_at(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
}

TEST(SimulatorTest, CancelFromInsideSameTimestampEvent) {
  // An event may cancel a later event scheduled at the SAME timestamp;
  // the victim is already in the heap, so this exercises the lazy
  // tombstone path inside the currently-running time step.
  Simulator sim;
  bool victim_ran = false;
  std::uint64_t victim = 0;
  sim.schedule_at(10, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  victim = sim.schedule_at(10, [&] { victim_ran = true; });
  sim.schedule_at(10, [&] {});  // a live event after the victim still runs
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelOwnFollowupFromEarlierTime) {
  // Cancelling from strictly earlier simulated time: the victim never
  // reaches the head of the queue alive.
  Simulator sim;
  int fired = 0;
  const auto victim = sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(10, [&] {
    EXPECT_TRUE(sim.cancel(victim));
    EXPECT_FALSE(sim.cancel(victim));  // double cancel still fails
  });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, RunUntilDoesNotRunPastDeadlineOverCancelledHead) {
  // Regression: a cancelled tombstone inside the deadline must not pull a
  // live event from beyond the deadline into run_until().
  Simulator sim;
  bool late_ran = false;
  const auto head = sim.schedule_at(5, [] {});
  sim.schedule_at(50, [&] { late_ran = true; });
  EXPECT_TRUE(sim.cancel(head));
  EXPECT_EQ(sim.run_until(10), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, PendingEventsAccurateThroughMixedCancelAndRun) {
  Simulator sim;
  std::vector<std::uint64_t> ids;
  for (int i = 1; i <= 6; ++i) {
    ids.push_back(sim.schedule_at(i * 10, [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 6u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[4]));
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_TRUE(sim.step());  // runs t=10
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.step());  // skips cancelled t=20, runs t=30
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_FALSE(sim.cancel(ids[0]));  // already ran
  EXPECT_EQ(sim.run_until(40), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);  // t=50 cancelled, t=60 live
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at((i * 7) % 13, [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatorTest, ExecutorInterfaceWorksPolymorphically) {
  Simulator sim;
  Executor& exec = sim;
  bool ran = false;
  exec.schedule_after(5, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(static_cast<const Clock&>(sim).now(), 5);
}

TEST(SimulatorTest, StaleIdCannotCancelReusedSlot) {
  // A cancelled or executed event frees its slot for the next schedule;
  // the old id must not reach the new occupant.
  Simulator sim;
  const auto cancelled = sim.schedule_at(10, [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  bool reused_ran = false;
  const auto reused = sim.schedule_at(20, [&] { reused_ran = true; });
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending_events(), 1u);

  // The same after the first occupant ran rather than being cancelled.
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(reused_ran);
  bool next_ran = false;
  const auto next = sim.schedule_at(30, [&] { next_ran = true; });
  EXPECT_NE(next, reused);
  EXPECT_FALSE(sim.cancel(reused));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(next_ran);
}

TEST(SimulatorTest, PendingEventsExactUnderRandomScheduleCancelRun) {
  // Model check against a plain map of live events: pending_events(),
  // cancel() results and the execution order must match through slot
  // reuse, stale cancels and interleaved runs.
  Rng rng(0x51075);
  Simulator sim;
  std::map<std::uint64_t, int> live;  // event id -> tag
  std::vector<std::uint64_t> dead;    // ids that ran or were cancelled
  std::vector<int> ran;
  int next_tag = 0;
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 5) {
      const int tag = next_tag++;
      const SimTime when = sim.now() + static_cast<SimTime>(rng.next_below(50));
      live[sim.schedule_at(when, [&ran, tag] { ran.push_back(tag); })] = tag;
    } else if (dice < 7 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      ASSERT_TRUE(sim.cancel(it->first)) << "op " << op;
      dead.push_back(it->first);
      live.erase(it);
    } else if (dice < 8 && !dead.empty()) {
      ASSERT_FALSE(sim.cancel(dead[rng.next_below(dead.size())])) << "op " << op;
    } else {
      const std::size_t before = ran.size();
      if (sim.step()) {
        ASSERT_EQ(ran.size(), before + 1);
        const int tag = ran.back();
        auto it = std::find_if(live.begin(), live.end(),
                               [tag](const auto& e) { return e.second == tag; });
        ASSERT_NE(it, live.end()) << "a cancelled event ran, op " << op;
        dead.push_back(it->first);
        live.erase(it);
      }
    }
    ASSERT_EQ(sim.pending_events(), live.size()) << "op " << op;
    sim.audit();
  }
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.audit();
}

TEST(SimulatorTest, ArrivalLaneWinsSameTimeTies) {
  // Among events at one instant the arrival lane runs first, FIFO among
  // itself, whatever the insertion order; later instants still wait.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(0); });
  sim.schedule_arrival_at(10, [&] { order.push_back(2); });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.schedule_arrival_at(10, [&] { order.push_back(4); });
  sim.schedule_arrival_at(20, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5}));
}

TEST(SimulatorTest, SameTimeTieBetweenRunAndHeapFollowsSequence) {
  // A and C tie at 10 with A on the run, scheduled first; G and H tie at
  // 20 with G on the heap, scheduled first. Sequence decides both ties,
  // whichever container holds the earlier entry.
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(10, [&] { order.push_back('A'); });                 // run
  const auto f = sim.schedule_at(30, [&] { order.push_back('F'); });  // run tail
  sim.schedule_at(20, [&] { order.push_back('G'); });  // behind the tail: heap
  sim.schedule_at(10, [&] { order.push_back('C'); });  // heap, ties with A
  ASSERT_TRUE(sim.cancel(f));
  sim.audit();
  EXPECT_EQ(sim.run_until(10), 2u);
  EXPECT_EQ(order, (std::vector<char>{'A', 'C'}));
  // The cancelled tail was dropped and the run drained, so H starts a
  // new run while G still waits on the heap.
  sim.schedule_at(20, [&] { order.push_back('H'); });
  sim.audit();
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'G', 'H'}));
  sim.audit();
}

TEST(SimulatorTest, ArrivalBehindDefaultLaneTailRunsFirst) {
  // An arrival-lane event at the run tail's time sorts before that
  // default-lane tail, so it goes to the heap and still runs first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(2); });          // run tail
  sim.schedule_arrival_at(10, [&] { order.push_back(0); });  // heap
  sim.schedule_arrival_at(10, [&] { order.push_back(1); });  // heap, FIFO
  sim.schedule_arrival_at(20, [&] { order.push_back(3); });  // run
  sim.schedule_at(20, [&] { order.push_back(4); });          // run
  sim.audit();
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ExecutionOrderMatchesSortedReferenceUnderRandomOps) {
  // Reference model: the live events keyed by (time, lane, seq), the seq
  // counted here in schedule order. Every callback checks that it is the
  // model's minimum when it runs. The ops mix in-order and out-of-order
  // schedules on both lanes, cancels of the earliest event, the newest
  // in-order event and random events, run_until deadlines between the
  // two earliest times, and callbacks that post() at now.
  using Key = std::tuple<SimTime, int, std::uint64_t>;  // arrival lane = 0
  Rng rng(0x0e0e);
  Simulator sim;
  std::map<Key, std::uint64_t> live;  // key -> event id
  std::uint64_t seq = 0;
  std::size_t ran = 0;
  SimTime newest = 0;  // latest time scheduled in order
  std::uint64_t newest_id = 0;
  auto add = [&](SimTime when, bool arrival, bool posts) {
    const Key key{when, arrival ? 0 : 1, seq++};
    auto fn = [&, key, posts] {
      ASSERT_FALSE(live.empty());
      EXPECT_EQ(live.begin()->first, key) << "ran out of order";
      EXPECT_EQ(sim.now(), std::get<0>(key));
      live.erase(key);
      ++ran;
      if (posts) {
        const Key next{sim.now(), 1, seq++};
        live[next] = sim.post([&, next] {
          EXPECT_EQ(live.begin()->first, next) << "posted event out of order";
          live.erase(next);
          ++ran;
        });
      }
    };
    const std::uint64_t id =
        arrival ? sim.schedule_arrival_at(when, fn) : sim.schedule_at(when, fn);
    live[key] = id;
    return id;
  };
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t dice = rng.next_below(20);
    const bool posts = rng.next_below(4) == 0;
    if (dice < 6) {  // in order: no earlier than anything scheduled so far
      newest = std::max(newest, sim.now()) + static_cast<SimTime>(rng.next_below(3));
      newest_id = add(newest, rng.next_below(4) == 0, posts);
    } else if (dice < 10) {  // out of order: anywhere from now on
      add(sim.now() + static_cast<SimTime>(rng.next_below(20)),
          rng.next_below(3) == 0, posts);
    } else if (dice < 11 && !live.empty()) {  // the earliest event
      ASSERT_TRUE(sim.cancel(live.begin()->second)) << "op " << op;
      live.erase(live.begin());
    } else if (dice < 12) {  // the newest in-order event, if still live
      auto it = std::find_if(live.begin(), live.end(),
                             [&](const auto& e) { return e.second == newest_id; });
      EXPECT_EQ(sim.cancel(newest_id), it != live.end()) << "op " << op;
      if (it != live.end()) live.erase(it);
    } else if (dice < 13 && !live.empty()) {  // any event
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      ASSERT_TRUE(sim.cancel(it->second)) << "op " << op;
      live.erase(it);
    } else if (dice < 17) {
      // A deadline between the two earliest distinct times (or a little
      // past the only one), so one head runs and the other waits.
      SimTime deadline = sim.now() + static_cast<SimTime>(rng.next_below(5));
      if (!live.empty()) {
        const SimTime first = std::get<0>(live.begin()->first);
        auto later = std::find_if(live.begin(), live.end(), [first](const auto& e) {
          return std::get<0>(e.first) > first;
        });
        const SimTime gap = later == live.end() ? 3 : std::get<0>(later->first) - first;
        deadline = first + static_cast<SimTime>(rng.next_below(
                               static_cast<std::uint64_t>(gap)));
      }
      const SimTime before = sim.now();
      sim.run_until(deadline);
      EXPECT_EQ(sim.now(), std::max(before, deadline));
      if (!live.empty()) {
        EXPECT_GT(std::get<0>(live.begin()->first), deadline) << "op " << op;
      }
    } else {
      sim.step();
    }
    ASSERT_FALSE(HasFailure()) << "op " << op;
    ASSERT_EQ(sim.pending_events(), live.size()) << "op " << op;
    sim.audit();
  }
  sim.run();
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(ran, sim.events_executed());
  sim.audit();
}

}  // namespace
}  // namespace gfaas::sim
