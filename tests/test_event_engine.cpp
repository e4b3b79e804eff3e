// Tests for the deterministic discrete-event simulation core: canonical
// event ordering, monotone virtual clock, engine counters, and the
// SharedPipe fair-share WAN contention model (DESIGN.md §18).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_engine.h"
#include "sim/network.h"
#include "util/check.h"

namespace fgp::sim {
namespace {

// ------------------------------------------------------------ EventEngine

TEST(EventOrder, TotalOrderKeyIsTimeSeqNodeKind) {
  Event a{1.0, 0, 0, EventKind::Barrier, 0};
  Event b{2.0, 0, 0, EventKind::Barrier, 0};
  EXPECT_TRUE(event_order_less(a, b));
  EXPECT_FALSE(event_order_less(b, a));

  // Same time: sequence breaks the tie.
  a = {1.0, 3, 9, EventKind::WanRelease, 0};
  b = {1.0, 4, 0, EventKind::Barrier, 0};
  EXPECT_TRUE(event_order_less(a, b));

  // seq is unique per engine, so distinct events never compare equal.
  a = {1.0, 5, 0, EventKind::Barrier, 0};
  b = {1.0, 5, 1, EventKind::Barrier, 0};
  EXPECT_TRUE(event_order_less(a, b) || event_order_less(b, a));
}

TEST(EventEngine, PopsInCanonicalOrderRegardlessOfInsertion) {
  EventEngine engine;
  // Deliberately scrambled insertion times, with duplicates.
  const double times[] = {5.0, 1.0, 3.0, 1.0, 4.0, 3.0, 2.0, 1.0};
  std::vector<Event> inserted;
  for (int i = 0; i < 8; ++i) {
    engine.schedule(times[i], i, EventKind::ComputeBlockDone,
                    static_cast<std::uint64_t>(i));
    inserted.push_back(
        {times[i], static_cast<std::uint64_t>(i), i,
         EventKind::ComputeBlockDone, static_cast<std::uint64_t>(i)});
  }
  std::sort(inserted.begin(), inserted.end(), EventBefore{});

  std::vector<Event> popped;
  while (!engine.empty()) popped.push_back(engine.pop());

  ASSERT_EQ(popped.size(), inserted.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].seq, inserted[i].seq) << "position " << i;
    EXPECT_EQ(popped[i].payload, inserted[i].payload);
    if (i > 0) {
      EXPECT_TRUE(event_order_less(popped[i - 1], popped[i]))
          << "dispatch not strictly increasing at " << i;
    }
  }
}

TEST(EventEngine, SameTimeEventsDispatchInScheduleOrder) {
  EventEngine engine;
  for (int i = 0; i < 5; ++i)
    engine.schedule(7.0, 4 - i, EventKind::Barrier,
                    static_cast<std::uint64_t>(i));
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Event e = engine.pop();
    EXPECT_EQ(e.payload, i);  // seq order, not node order
  }
}

TEST(EventEngine, ClockAdvancesToDispatchedEventTime) {
  EventEngine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  engine.schedule(2.5, 0, EventKind::Barrier);
  engine.schedule(1.5, 0, EventKind::Barrier);
  EXPECT_DOUBLE_EQ(engine.pop().time, 1.5);
  EXPECT_DOUBLE_EQ(engine.now(), 1.5);
  EXPECT_DOUBLE_EQ(engine.pop().time, 2.5);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
}

TEST(EventEngine, RejectsTimeTravelAndNonFiniteTimes) {
  EventEngine engine;
  engine.schedule(3.0, 0, EventKind::Barrier);
  (void)engine.pop();  // now = 3.0
  EXPECT_THROW(engine.schedule(2.0, 0, EventKind::Barrier), util::Error);
  EXPECT_THROW(
      engine.schedule(std::numeric_limits<double>::quiet_NaN(), 0,
                      EventKind::Barrier),
      util::Error);
  EXPECT_THROW(
      engine.schedule(std::numeric_limits<double>::infinity(), 0,
                      EventKind::Barrier),
      util::Error);
  EXPECT_THROW(engine.schedule_after(-1.0, 0, EventKind::Barrier),
               util::Error);
  EXPECT_NO_THROW(engine.schedule(3.0, 0, EventKind::Barrier));  // == now ok
}

TEST(EventEngine, PeekAndPopOnEmptyThrow) {
  EventEngine engine;
  EXPECT_THROW(engine.peek(), util::Error);
  EXPECT_THROW(engine.pop(), util::Error);
}

TEST(EventEngine, ResetRequiresDrainedQueue) {
  EventEngine engine;
  engine.schedule(1.0, 0, EventKind::Barrier);
  EXPECT_THROW(engine.reset(), util::Error);
  (void)engine.pop();
  EXPECT_NO_THROW(engine.reset(0.5));
  EXPECT_DOUBLE_EQ(engine.now(), 0.5);
  // Sequence numbers keep counting across reset.
  const std::uint64_t seq = engine.schedule(1.0, 0, EventKind::Barrier);
  EXPECT_GT(seq, 0u);
  (void)engine.pop();
}

TEST(EventEngine, CountersTrackScheduleDispatchAndHeapPeak) {
  EventEngine engine;
  for (int i = 0; i < 10; ++i)
    engine.schedule(static_cast<double>(i), i, EventKind::DiskSegmentDone);
  EXPECT_EQ(engine.events_scheduled(), 10u);
  EXPECT_EQ(engine.heap_peak(), 10u);
  while (!engine.empty()) (void)engine.pop();
  EXPECT_EQ(engine.events_dispatched(), 10u);

  obs::Registry reg;
  engine.flush_counters(&reg);
  EXPECT_DOUBLE_EQ(reg.host_value("engine.events_scheduled"), 10.0);
  EXPECT_DOUBLE_EQ(reg.host_value("engine.events_dispatched"), 10.0);
  EXPECT_DOUBLE_EQ(reg.host_value("engine.heap_peak"), 10.0);
  // Host domain only: the deterministic export must not change when an
  // engine is attached (the engine-swap byte-identity contract).
  EXPECT_EQ(reg.to_json(false).find("engine."), std::string::npos);
  engine.flush_counters(nullptr);  // null-safe
}

// ------------------------------------------------------------- SharedPipe

WanSpec test_wan() {
  WanSpec w;
  w.per_link_Bps = 1e6;
  w.aggregate_cap_Bps = 1.5e6;
  w.latency_s = 0.25;
  w.protocol_overhead = 0.0;
  return w;
}

/// Drains the engine through the pipe, returning completions in dispatch
/// order.
std::vector<SharedPipe::Completion> drain(EventEngine& engine,
                                          SharedPipe& pipe) {
  std::vector<SharedPipe::Completion> done;
  while (!engine.empty()) {
    const Event ev = engine.pop();
    if (auto c = pipe.on_event(engine, ev)) done.push_back(*c);
  }
  return done;
}

TEST(SharedPipe, SingleTransferMatchesClosedForm) {
  EventEngine engine;
  const WanSpec w = test_wan();
  SharedPipe pipe(w, "wan");
  pipe.begin_transfer(engine, 0.0, 0, 4e6, 3, 2e6);
  const auto done = drain(engine, pipe);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].end_time - done[0].start_time,
                   w.transfer_time(4e6, 3, 1, 2e6));
  EXPECT_EQ(pipe.active_transfers(), 0);
  EXPECT_EQ(pipe.total_transfers(), 1u);
}

TEST(SharedPipe, SimultaneousEqualSendersMatchClosedForm) {
  // Every sender acquires at t=0 with the same byte count: no churn
  // happens before the first completion, so the dynamic model must
  // reproduce the phase-structured closed form at senders=k exactly.
  for (const int k : {2, 3, 5}) {
    EventEngine engine;
    const WanSpec w = test_wan();
    SharedPipe pipe(w, "wan");
    for (int i = 0; i < k; ++i)
      pipe.begin_transfer(engine, 0.0, i, 2e6, 2, 2e6);
    const auto done = drain(engine, pipe);
    ASSERT_EQ(done.size(), static_cast<std::size_t>(k));
    const double expected = w.transfer_time(2e6, 2, k, 2e6);
    for (const auto& c : done)
      EXPECT_DOUBLE_EQ(c.end_time, expected) << "senders=" << k;
  }
}

TEST(SharedPipe, ZeroByteTransferTakesOnlyLatency) {
  EventEngine engine;
  const WanSpec w = test_wan();
  SharedPipe pipe(w, "wan");
  pipe.begin_transfer(engine, 1.0, 0, 0.0, 4, 2e6);
  const auto done = drain(engine, pipe);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].end_time, 1.0 + 4 * w.latency_s);
}

TEST(SharedPipe, LateJoinerSlowsTheFirstTransfer) {
  const WanSpec w = test_wan();
  // Solo baseline.
  const double solo = w.transfer_time(6e6, 1, 1, 2e6);
  // B joins while A is mid-flight: A must finish later than solo but
  // earlier than the both-from-start fair split.
  EventEngine engine;
  SharedPipe pipe(w, "wan");
  pipe.begin_transfer(engine, 0.0, 0, 6e6, 1, 2e6);
  pipe.begin_transfer(engine, 2.0, 1, 6e6, 1, 2e6);
  const auto done = drain(engine, pipe);
  ASSERT_EQ(done.size(), 2u);
  const double a_end = done[0].node == 0 ? done[0].end_time : done[1].end_time;
  EXPECT_GT(a_end, solo);
  EXPECT_LT(a_end, w.transfer_time(6e6, 1, 2, 2e6));
  EXPECT_GT(pipe.fair_share_recomputes(), 0u);
}

TEST(SharedPipe, ContendedScheduleIsDeterministic) {
  // Same staggered scenario twice: completions must agree bitwise.
  const auto run = [] {
    EventEngine engine;
    SharedPipe pipe(test_wan(), "wan");
    for (int i = 0; i < 16; ++i)
      pipe.begin_transfer(engine, 0.1 * static_cast<double>(i % 5), i,
                          1e6 + 1e5 * i, 1 + i % 3, 2e6);
    return drain(engine, pipe);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].end_time, b[i].end_time);  // bitwise, not approximate
  }
}

TEST(SharedPipe, EveryTransferCompletesExactlyOnceUnderChurn) {
  // Heavy churn: every acquire/release re-epochs in-flight completions;
  // stale events must be dropped, and each transfer must still complete
  // exactly once.
  EventEngine engine;
  SharedPipe pipe(test_wan(), "wan");
  constexpr int kTransfers = 64;
  for (int i = 0; i < kTransfers; ++i)
    pipe.begin_transfer(engine, 0.05 * static_cast<double>(i), i,
                        5e5 + 1e4 * static_cast<double>(i), 1, 2e6);
  const auto done = drain(engine, pipe);
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kTransfers));
  std::vector<bool> seen(kTransfers, false);
  for (const auto& c : done) {
    ASSERT_LT(c.transfer, static_cast<std::uint64_t>(kTransfers));
    EXPECT_FALSE(seen[static_cast<std::size_t>(c.transfer)])
        << "transfer " << c.transfer << " completed twice";
    seen[static_cast<std::size_t>(c.transfer)] = true;
    EXPECT_GT(c.end_time, c.start_time);
  }
  EXPECT_GT(pipe.fair_share_recomputes(), static_cast<std::uint64_t>(1));
  EXPECT_EQ(pipe.active_transfers(), 0);
}

TEST(SharedPipe, TwoPipesShareOneEngineWithoutCrosstalk) {
  EventEngine engine;
  const WanSpec w = test_wan();
  SharedPipe fast(w, "fast");
  WanSpec slow_spec = w;
  slow_spec.per_link_Bps = 1e5;
  SharedPipe slow(slow_spec, "slow");
  fast.begin_transfer(engine, 0.0, 0, 1e6, 1, 2e6);
  slow.begin_transfer(engine, 0.0, 1, 1e6, 1, 2e6);
  std::vector<SharedPipe::Completion> done_fast, done_slow;
  while (!engine.empty()) {
    const Event ev = engine.pop();
    if (auto c = fast.on_event(engine, ev)) done_fast.push_back(*c);
    if (auto c = slow.on_event(engine, ev)) done_slow.push_back(*c);
  }
  ASSERT_EQ(done_fast.size(), 1u);
  ASSERT_EQ(done_slow.size(), 1u);
  EXPECT_DOUBLE_EQ(done_fast[0].end_time, w.transfer_time(1e6, 1, 1, 2e6));
  EXPECT_DOUBLE_EQ(done_slow[0].end_time,
                   slow_spec.transfer_time(1e6, 1, 1, 2e6));
}

TEST(SharedPipe, RejectsInvalidSpecAndInputs) {
  WanSpec bad = test_wan();
  bad.per_link_Bps = 0.0;
  EXPECT_THROW((SharedPipe(bad, "wan")), util::ConfigError);

  EventEngine engine;
  SharedPipe pipe(test_wan(), "wan");
  EXPECT_THROW(pipe.begin_transfer(engine, 0.0, 0, -1.0, 1, 2e6),
               util::Error);
  EXPECT_THROW(pipe.begin_transfer(engine, 0.0, 0, 1e6, 1, 0.0),
               util::Error);
  EXPECT_THROW(
      pipe.begin_transfer(engine, 0.0, 0,
                          std::numeric_limits<double>::quiet_NaN(), 1, 2e6),
      util::Error);
}

}  // namespace
}  // namespace fgp::sim
