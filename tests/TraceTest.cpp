//===- tests/TraceTest.cpp - Spans, ring buffer, Chrome export ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "trace/HwCounters.h"

#include "telemetry/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace gmdiv;
using namespace gmdiv::trace;

namespace {

/// Every test runs with a clean, enabled trace and leaves it disabled;
/// the suite shares one process-global ring registry.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    clear();
    setEnabled(true);
  }
  void TearDown() override {
    setEnabled(false);
    clear();
  }
};

/// All surviving events across threads, oldest first per thread.
std::vector<TraceEvent> allEvents() {
  std::vector<TraceEvent> Out;
  for (const ThreadSnapshot &T : snapshot())
    Out.insert(Out.end(), T.Events.begin(), T.Events.end());
  return Out;
}

// Library-behavior tests drive Span directly; the GMDIV_TRACE_SPAN
// macro's own contract is pinned in MacroMatchesBuildConfiguration.

TEST_F(TraceTest, SpanRecordsOneEventWithTiming) {
  { Span S("test", "unit-span", 42); }
  const std::vector<TraceEvent> Events = allEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Category, "test");
  EXPECT_STREQ(Events[0].Name, "unit-span");
  EXPECT_EQ(Events[0].Arg, 42u);
  EXPECT_EQ(Events[0].Depth, 0u);
}

TEST_F(TraceTest, DropCountsTrackPerThreadWraparound) {
  // Fewer spans than the ring holds: nothing dropped.
  for (int I = 0; I < 10; ++I) {
    Span S("test", "underfill");
  }
  std::vector<ThreadDropCounts> Counts = dropCounts();
  uint64_t Recorded = 0, Dropped = 0;
  for (const ThreadDropCounts &C : Counts) {
    Recorded += C.Recorded;
    Dropped += C.Dropped;
  }
  EXPECT_EQ(Recorded, 10u);
  EXPECT_EQ(Dropped, 0u);

  // Overfill the ring: the per-thread row must show the loss, and the
  // totals must agree with droppedEvents() (the metrics plane exposes
  // these rows as gmdiv_trace_{recorded,dropped}_spans_total{thread=}).
  const uint64_t Total = RingCapacity + 100;
  for (uint64_t I = 10; I < Total; ++I) {
    Span S("test", "overfill");
  }
  Counts = dropCounts();
  Recorded = Dropped = 0;
  for (const ThreadDropCounts &C : Counts) {
    Recorded += C.Recorded;
    Dropped += C.Dropped;
  }
  EXPECT_EQ(Recorded, Total);
  EXPECT_GT(Dropped, 0u);
  EXPECT_EQ(Dropped, droppedEvents());
  // What survived plus what dropped is everything recorded.
  uint64_t Survived = 0;
  for (const ThreadSnapshot &T : snapshot())
    Survived += T.Events.size();
  EXPECT_EQ(Survived + Dropped, Recorded);
}

TEST_F(TraceTest, NestedSpansRecordDepthAndContainment) {
  {
    Span Outer("test", "outer");
    {
      Span Middle("test", "middle");
      { Span Inner("test", "inner"); }
    }
  }
  std::vector<TraceEvent> Events = allEvents();
  ASSERT_EQ(Events.size(), 3u);
  // Spans close innermost-first.
  EXPECT_STREQ(Events[0].Name, "inner");
  EXPECT_STREQ(Events[1].Name, "middle");
  EXPECT_STREQ(Events[2].Name, "outer");
  EXPECT_EQ(Events[0].Depth, 2u);
  EXPECT_EQ(Events[1].Depth, 1u);
  EXPECT_EQ(Events[2].Depth, 0u);
  // Containment: each parent starts no later and ends no earlier.
  for (int I = 0; I < 2; ++I) {
    EXPECT_LE(Events[I + 1].StartNs, Events[I].StartNs);
    EXPECT_GE(Events[I + 1].StartNs + Events[I + 1].DurNs,
              Events[I].StartNs + Events[I].DurNs);
  }
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  setEnabled(false);
  { Span S("test", "while-disabled"); }
  EXPECT_TRUE(allEvents().empty());
}

TEST_F(TraceTest, SpanOpenAcrossEnableStaysInert) {
  setEnabled(false);
  {
    Span S("test", "straddles-enable");
    setEnabled(true);
  }
  // A span constructed while disabled never sampled a start time, so it
  // must not fabricate an event on close.
  EXPECT_TRUE(allEvents().empty());
}

TEST_F(TraceTest, MacroMatchesBuildConfiguration) {
  { GMDIV_TRACE_SPAN("test", "via-macro", 1); }
  const std::vector<TraceEvent> Events = allEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "via-macro");
}

TEST_F(TraceTest, RingWraparoundKeepsNewestAndCountsDrops) {
  const size_t Total = RingCapacity + 100;
  for (size_t I = 0; I < Total; ++I) {
    Span S("test", "wrap", I);
  }
  const std::vector<ThreadSnapshot> Threads = snapshot();
  // Only this test's thread recorded since clear().
  uint64_t Recorded = 0, Dropped = 0;
  std::vector<TraceEvent> Events;
  for (const ThreadSnapshot &T : Threads) {
    if (T.Events.empty())
      continue;
    Recorded += T.Recorded;
    Dropped += T.Dropped;
    Events.insert(Events.end(), T.Events.begin(), T.Events.end());
  }
  EXPECT_EQ(Recorded, Total);
  // The drop count includes the one slot sacrificed as a safety margin
  // against the write frontier: Recorded - survivors.
  EXPECT_EQ(Dropped, Total - (RingCapacity - 1));
  EXPECT_EQ(droppedEvents(), Total - (RingCapacity - 1));
  // The survivors are the newest events, oldest first, with one extra
  // slot sacrificed to stay clear of the write frontier.
  ASSERT_EQ(Events.size(), RingCapacity - 1);
  EXPECT_EQ(Events.front().Arg, Total - (RingCapacity - 1));
  EXPECT_EQ(Events.back().Arg, Total - 1);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Arg, Events[I - 1].Arg + 1);
}

TEST_F(TraceTest, ThreadsGetDistinctLanes) {
  { Span S("test", "main-thread"); }
  std::thread Worker([] { Span S("test", "worker-thread"); });
  Worker.join();
  const std::vector<ThreadSnapshot> Threads = snapshot();
  uint32_t MainLane = 0, WorkerLane = 0;
  bool SawMain = false, SawWorker = false;
  for (const ThreadSnapshot &T : Threads)
    for (const TraceEvent &E : T.Events) {
      if (std::string(E.Name) == "main-thread") {
        MainLane = T.ThreadId;
        SawMain = true;
      }
      if (std::string(E.Name) == "worker-thread") {
        WorkerLane = T.ThreadId;
        SawWorker = true;
      }
    }
  ASSERT_TRUE(SawMain);
  ASSERT_TRUE(SawWorker); // The exited thread's ring must survive it.
  EXPECT_NE(MainLane, WorkerLane);
}

TEST_F(TraceTest, ChromeTraceJsonIsValidAndComplete) {
  {
    Span Outer("verify", "outer", 8);
    Span Inner("verify", "inner");
  }
  const std::string Doc = chromeTraceJson();
  ASSERT_TRUE(telemetry::json::isValid(Doc)) << Doc;
  telemetry::json::Value Root;
  ASSERT_TRUE(telemetry::json::parse(Doc, Root));
  const telemetry::json::Value *Events = Root.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->array().size(), 2u);
  for (const telemetry::json::Value &E : Events->array()) {
    EXPECT_EQ(E.find("ph")->asString(), "X");
    EXPECT_EQ(E.find("cat")->asString(), "verify");
    EXPECT_GE(E.find("dur")->asNumber(), 0.0);
    ASSERT_NE(E.find("args"), nullptr);
    EXPECT_NE(E.find("args")->find("depth"), nullptr);
  }
  const telemetry::json::Value *Other = Root.find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Other->numberOr("events_recorded", -1), 2.0);
  EXPECT_EQ(Other->numberOr("events_dropped", -1), 0.0);
}

TEST_F(TraceTest, WriteChromeTraceReportsUnwritablePath) {
  std::string Error;
  EXPECT_FALSE(writeChromeTrace("/nonexistent-dir/trace.json", &Error));
  EXPECT_FALSE(Error.empty());
}

TEST_F(TraceTest, ClearResetsCountsAndEvents) {
  { GMDIV_TRACE_SPAN("test", "before-clear"); }
  clear();
  EXPECT_TRUE(allEvents().empty());
  EXPECT_EQ(droppedEvents(), 0u);
}

TEST(HwCountersTest, UnavailableFacadeIsSafeToDrive) {
  // In containers and on non-Linux hosts perf_event_open is denied; the
  // facade must degrade to a no-op with a reason, not crash or lie.
  HwCounters Hw;
  if (!Hw.available()) {
    EXPECT_FALSE(Hw.unavailableReason().empty());
    Hw.start(); // Must be harmless.
    const CounterSample Sample = Hw.read();
    EXPECT_FALSE(Sample.Valid);
    EXPECT_EQ(Sample.Cycles, 0u);
    EXPECT_EQ(Sample.ipc(), 0.0);
    Hw.stop();
    return;
  }
  // With perf access, cycles accumulate across start/stop.
  Hw.start();
  volatile uint64_t Sink = 1;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink * 3 + 1;
  Hw.stop();
  const CounterSample Sample = Hw.read();
  EXPECT_TRUE(Sample.Valid);
  EXPECT_TRUE(Sample.HasCycles);
  EXPECT_GT(Sample.Cycles, 0u);
}

TEST(HwCountersTest, SampleSubtractionIsComponentWise) {
  CounterSample A, B;
  A.Valid = B.Valid = true;
  A.HasCycles = B.HasCycles = true;
  A.HasInstructions = B.HasInstructions = true;
  A.Cycles = 100;
  B.Cycles = 250;
  A.Instructions = 500;
  B.Instructions = 900;
  const CounterSample Delta = B - A;
  EXPECT_EQ(Delta.Cycles, 150u);
  EXPECT_EQ(Delta.Instructions, 400u);
  EXPECT_DOUBLE_EQ(Delta.ipc(), 400.0 / 150.0);
}

} // namespace
