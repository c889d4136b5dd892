// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace doxlab::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.schedule(10, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(100, [] {});
  sim.run();
  bool fired = false;
  sim.schedule(-50, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  Timer t = sim.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  Timer t = sim.schedule(10, [&] { ++count; });
  sim.run();
  EXPECT_FALSE(t.armed());
  t.cancel();
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, ReentrantSchedulingFromCallback) {
  Simulator sim;
  std::vector<SimTime> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 3) sim.schedule(5, tick);
  };
  sim.schedule(0, tick);
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 5, 10}));
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(1234);
  EXPECT_EQ(sim.now(), 1234);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  Timer t = sim.schedule(99, [] {});
  t.cancel();
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, AbsoluteScheduling) {
  Simulator sim;
  SimTime seen = -1;
  sim.at(777, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 777);
}

TEST(Simulator, CancelInsideCallback) {
  // An ACK handler disarming a retransmission timer: the cancel happens
  // while another event is mid-flight.
  Simulator sim;
  bool retransmitted = false;
  Timer retransmit = sim.schedule(20, [&] { retransmitted = true; });
  sim.schedule(10, [&] { retransmit.cancel(); });
  sim.run();
  EXPECT_FALSE(retransmitted);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelOwnTimerInsideCallbackIsNoop) {
  Simulator sim;
  Timer self;
  int fired = 0;
  self = sim.schedule(10, [&] {
    ++fired;
    self.cancel();  // already popped; must not corrupt the slab
    EXPECT_FALSE(self.armed());
  });
  sim.schedule(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ReentrantScheduleAtCurrentInstantPreservesOrder) {
  // An event that schedules more work "now" runs it after events that were
  // already queued for the same instant (seq order), not before.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(3); });
  });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunUntilAllCancelledAdvancesClock) {
  // A queue holding only cancelled entries is logically empty: run_until
  // must drain it and still advance the clock to the deadline.
  Simulator sim;
  std::vector<Timer> timers;
  for (int i = 0; i < 8; ++i) {
    timers.push_back(sim.schedule(10 + i, [] {}));
  }
  for (Timer& t : timers) t.cancel();
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.queued_entries(), 0u);
}

TEST(Simulator, TimerOutlivesSimulator) {
  // Handles share ownership of the slab (like the seed's shared state
  // block), so poking one after the Simulator dies is safe. A never-fired
  // event still reports armed — matching the original semantics where the
  // shared `fired` flag stays false.
  Timer t;
  {
    Simulator sim;
    t = sim.schedule(10, [] {});
  }
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  t.cancel();  // double-cancel after death is also a no-op

  Timer fired_timer;
  {
    Simulator sim;
    fired_timer = sim.schedule(1, [] {});
    sim.run();
  }
  EXPECT_FALSE(fired_timer.armed());
  fired_timer.cancel();
}

TEST(Simulator, CompactionReclaimsCancelledEntries) {
  // When more than half the queue is dead, a sweep drops the cancelled
  // entries instead of leaving pop() to skip them one at a time.
  Simulator sim;
  std::vector<Timer> timers;
  constexpr int kEvents = 128;
  for (int i = 0; i < kEvents; ++i) {
    timers.push_back(sim.schedule(i, [] {}));
  }
  EXPECT_EQ(sim.queued_entries(), static_cast<std::size_t>(kEvents));
  // Cancel 3/4 of them; compaction triggers once dead*2 > queued.
  for (int i = 0; i < kEvents; ++i) {
    if (i % 4 != 0) timers[i].cancel();
  }
  EXPECT_GE(sim.compactions(), 1u);
  // The sweep dropped dead entries; later cancels may re-accumulate below
  // the trigger threshold, so the queue is smaller but not minimal.
  EXPECT_LT(sim.queued_entries(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kEvents / 4));
  // The survivors still fire.
  sim.run();
  EXPECT_EQ(sim.events_executed(), static_cast<std::uint64_t>(kEvents / 4));
}

TEST(Simulator, SmallQueueSkipsCompaction) {
  // Below the size floor, cancelled entries are reclaimed lazily on pop.
  Simulator sim;
  std::vector<Timer> timers;
  for (int i = 0; i < 16; ++i) timers.push_back(sim.schedule(i, [] {}));
  for (Timer& t : timers) t.cancel();
  EXPECT_EQ(sim.compactions(), 0u);
  EXPECT_EQ(sim.queued_entries(), 16u);  // still queued, lazily dead
  sim.run();
  EXPECT_EQ(sim.queued_entries(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, SlotReuseDoesNotConfuseStaleTimers) {
  // After an event fires, its slot is recycled; a stale handle onto the old
  // generation must not cancel the new occupant.
  Simulator sim;
  Timer old = sim.schedule(1, [] {});
  sim.run();
  bool fired = false;
  Timer fresh = sim.schedule(1, [&] { fired = true; });  // reuses the slot
  old.cancel();  // stale generation: must be a no-op
  EXPECT_TRUE(fresh.armed());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, SmallCallbacksNeverHitEventFnHeap) {
  // The slab plus 96-byte inline EventFn storage means typical protocol
  // callbacks (a few pointers of capture) never fall back to the heap.
  const std::uint64_t before = EventFn::heap_allocations();
  Simulator sim;
  long counter = 0;
  void* a = &counter;
  void* b = &sim;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(i, [&counter, a, b] {
      counter += (a != b);
    });
  }
  sim.run();
  EXPECT_EQ(counter, 1000);
  EXPECT_EQ(EventFn::heap_allocations(), before);

  // An oversized capture (> inline buffer) must still work via the heap
  // fallback, and be counted.
  struct Big {
    char bytes[200] = {};
  } big;
  bool ran = false;
  sim.schedule(1, [big, &ran] { ran = big.bytes[0] == 0; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(EventFn::heap_allocations(), before + 1);
}

// ---------------------------------------------------------------------------
// Monotone lanes.

/// One randomized schedule, run either through two lanes plus the heap or
/// through at() only. Lane 1 is filled up front in time order (arrivals,
/// with equal-time runs); lane 0 takes fixed-delay pushes from inside
/// handlers (timeouts); heap events use delays that collide with both.
/// Handlers spawn events, cancel random earlier events (queued, fired or
/// already cancelled) and cancel twice. Everything observable goes into
/// `trace`, so two runs agree iff the lanes are indistinguishable from
/// at().
class LaneScript {
 public:
  static constexpr std::size_t kMaxEvents = 4000;
  static constexpr SimTime kLane0Delay = 3;

  LaneScript(std::uint64_t seed, bool use_lanes)
      : seed_(seed), use_lanes_(use_lanes) {
    if (use_lanes_) {
      lane0_ = sim_.add_lane(&LaneScript::fire_lane, this);
      lane1_ = sim_.add_lane(&LaneScript::fire_lane, this);
    }
    SimTime arrival = 0;
    for (int i = 0; i < 300; ++i) {
      arrival += static_cast<SimTime>(draw() % 3);  // 0: a tie
      arrive(arrival);
      if (draw() % 3 == 0) spawn_heap(static_cast<SimTime>(draw() % 40));
    }
  }

  void run() {
    while (sim_.pending() > 0) {
      sim_.run_until(sim_.now() + static_cast<SimTime>(draw() % 20));
      observe();
    }
    sim_.run();
    observe();
  }

  const std::vector<std::int64_t>& trace() const { return trace_; }
  std::size_t lane_fires() const { return lane_fires_; }

 private:
  enum class Kind { kHeap, kLane0, kLane1 };

  std::uint64_t draw() { return splitmix64(seed_, draws_++); }

  std::size_t new_tag(Kind kind) {
    kinds_.push_back(kind);
    timers_.emplace_back();
    tickets_.emplace_back();
    return kinds_.size() - 1;
  }

  void spawn_heap(SimTime delay) {
    const std::size_t tag = new_tag(Kind::kHeap);
    timers_[tag] = sim_.schedule(delay, [this, tag] { on_fire(tag); });
  }

  void spawn_lane0() {
    const std::size_t tag = new_tag(Kind::kLane0);
    if (use_lanes_) {
      tickets_[tag] = sim_.lane_push(lane0_, sim_.now() + kLane0Delay, tag);
    } else {
      timers_[tag] = sim_.schedule(kLane0Delay, [this, tag] { on_fire(tag); });
    }
  }

  void arrive(SimTime at) {
    const std::size_t tag = new_tag(Kind::kLane1);
    if (use_lanes_) {
      tickets_[tag] = sim_.lane_push(lane1_, at, tag);
    } else {
      timers_[tag] = sim_.at(at, [this, tag] { on_fire(tag); });
    }
  }

  bool cancel(std::size_t tag) {
    if (use_lanes_ && kinds_[tag] != Kind::kHeap) {
      return sim_.lane_cancel(tickets_[tag]);
    }
    const bool armed = timers_[tag].armed();
    timers_[tag].cancel();
    return armed;
  }

  static void fire_lane(void* self, std::uint64_t tag) {
    auto& script = *static_cast<LaneScript*>(self);
    ++script.lane_fires_;
    script.on_fire(static_cast<std::size_t>(tag));
  }

  void on_fire(std::size_t tag) {
    trace_.push_back(static_cast<std::int64_t>(tag));
    trace_.push_back(sim_.now());
    if (kinds_.size() >= kMaxEvents) return;
    const std::uint64_t spawns = draw() % 3;
    for (std::uint64_t i = 0; i < spawns; ++i) {
      static constexpr SimTime kHeapDelays[] = {0, 1, kLane0Delay, 7};
      if (draw() % 2 == 0) {
        spawn_heap(kHeapDelays[draw() % 4]);
      } else {
        spawn_lane0();
      }
    }
    if (draw() % 2 == 0) {
      const std::size_t victim = draw() % kinds_.size();
      trace_.push_back(cancel(victim) ? 1 : 0);
      if (draw() % 4 == 0) trace_.push_back(cancel(victim) ? 1 : 0);
    }
    if (draw() % 8 == 0) trace_.push_back(cancel(tag) ? 1 : 0);
  }

  void observe() {
    trace_.push_back(sim_.now());
    trace_.push_back(static_cast<std::int64_t>(sim_.pending()));
    trace_.push_back(static_cast<std::int64_t>(sim_.events_executed()));
    trace_.push_back(static_cast<std::int64_t>(sim_.event_stream_digest()));
  }

  std::uint64_t seed_;
  bool use_lanes_;
  std::uint64_t draws_ = 0;
  Simulator sim_;
  std::uint32_t lane0_ = 0;
  std::uint32_t lane1_ = 0;
  std::vector<Kind> kinds_;
  std::vector<Timer> timers_;
  std::vector<LaneTicket> tickets_;
  std::vector<std::int64_t> trace_;
  std::size_t lane_fires_ = 0;
};

TEST(SimulatorLane, MatchesHeapOnlyScheduleExactly) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    LaneScript lanes(seed, /*use_lanes=*/true);
    LaneScript heap(seed, /*use_lanes=*/false);
    lanes.run();
    heap.run();
    ASSERT_EQ(lanes.trace(), heap.trace()) << "seed " << seed;
    EXPECT_GT(lanes.lane_fires(), 100u) << "seed " << seed;
  }
}

TEST(SimulatorLane, CancelIsOneShotAndSilent) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  const std::uint32_t lane = sim.add_lane(
      [](void* out, std::uint64_t payload) {
        static_cast<std::vector<std::uint64_t>*>(out)->push_back(payload);
      },
      &fired);
  const LaneTicket first = sim.lane_push(lane, 10, 1);
  const LaneTicket second = sim.lane_push(lane, 20, 2);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.lane_cancel(second));
  EXPECT_FALSE(sim.lane_cancel(second));  // twice
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(15);
  EXPECT_FALSE(sim.lane_cancel(first));  // after fire
  EXPECT_FALSE(sim.lane_cancel(LaneTicket{}));
  sim.run();
  EXPECT_EQ(fired, std::vector<std::uint64_t>{1});
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), 15);  // the cancelled record never moved the clock
}

TEST(SimulatorLane, StorageBoundedByInFlightWindow) {
  // Each fire re-arms one record a fixed delay ahead and pushes a second
  // that is cancelled at once (a timeout whose answer came back), so the
  // in-flight window stays at 2 * kWindow positions for a million cycles.
  constexpr std::uint64_t kWindow = 1000;
  constexpr std::uint64_t kCycles = 1'000'000;
  struct Ctx {
    Simulator sim;
    std::uint32_t lane = 0;
    std::uint64_t fired = 0;
    std::size_t max_pending = 0;
  } ctx;
  ctx.lane = ctx.sim.add_lane(
      [](void* raw, std::uint64_t) {
        Ctx& c = *static_cast<Ctx*>(raw);
        ++c.fired;
        c.max_pending = std::max(c.max_pending, c.sim.pending());
        if (c.fired + kWindow > kCycles) return;
        const SimTime due = c.sim.now() + static_cast<SimTime>(kWindow);
        c.sim.lane_push(c.lane, due, 0);
        ASSERT_TRUE(c.sim.lane_cancel(c.sim.lane_push(c.lane, due, 0)));
      },
      &ctx);
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    ctx.sim.lane_push(ctx.lane, static_cast<SimTime>(i), 0);
  }
  ctx.sim.run();
  EXPECT_EQ(ctx.fired, kCycles);
  EXPECT_EQ(ctx.sim.events_executed(), kCycles);
  EXPECT_EQ(ctx.sim.pending(), 0u);
  EXPECT_LE(ctx.max_pending, kWindow);
  EXPECT_LE(ctx.sim.lane_capacity(ctx.lane), std::bit_ceil(2 * kWindow));
}

TEST(SimulatorLane, PushEarlierThanTailIsRefused) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  const std::uint32_t lane = sim.add_lane(
      [](void* out, std::uint64_t payload) {
        static_cast<std::vector<std::uint64_t>*>(out)->push_back(payload);
      },
      &fired);
  sim.lane_push(lane, 100, 1);
  EXPECT_THROW(sim.lane_push(lane, 50, 2), std::invalid_argument);
  EXPECT_EQ(sim.pending(), 1u);
  sim.lane_push(lane, 100, 3);  // equal time is fine: FIFO among ties
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 3}));
  // A push behind the clock clamps to now() like at(), which is never
  // earlier than anything the lane already fired.
  sim.lane_push(lane, 5, 4);
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorLane, ReserveAvoidsRegrowth) {
  Simulator sim;
  const std::uint32_t lane =
      sim.add_lane([](void*, std::uint64_t) {}, nullptr, 1000);
  EXPECT_EQ(sim.lane_capacity(lane), 1024u);
  for (int i = 0; i < 1024; ++i) sim.lane_push(lane, i, 0);
  EXPECT_EQ(sim.lane_capacity(lane), 1024u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1024u);
}

}  // namespace
}  // namespace doxlab::sim
