//===- trace/Trace.cpp - Scoped spans and Chrome trace export -------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "telemetry/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

using namespace gmdiv;
using namespace gmdiv::trace;

namespace {

std::atomic<bool> TraceEnabled{false};

/// steady_clock origin for exported timestamps; fixed on first enable so
/// every trace starts near ts = 0.
std::atomic<int64_t> EpochNs{0};

int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's ring. Allocated on the thread's first record and handed
/// to the registry, which owns it from then on — the events of a thread
/// that has exited stay exportable.
struct ThreadRing {
  TraceEvent Events[RingCapacity];
  /// Total events ever recorded; Events[Next % RingCapacity] is the next
  /// slot. Written by the owner thread only (release), read by export.
  std::atomic<uint64_t> Next{0};
  uint32_t ThreadId = 0;
  uint32_t Depth = 0; ///< Owner-thread-only nesting counter.
};

struct Registry {
  std::mutex Mutex;
  std::vector<ThreadRing *> Rings; ///< Owned, leaked at process exit.
  uint32_t NextThreadId = 0;
};

Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

ThreadRing &threadRing() {
  thread_local ThreadRing *Ring = [] {
    ThreadRing *R = new ThreadRing;
    Registry &Reg = registry();
    std::lock_guard<std::mutex> Lock(Reg.Mutex);
    R->ThreadId = Reg.NextThreadId++;
    Reg.Rings.push_back(R);
    return R;
  }();
  return *Ring;
}

/// Process-wide flow id allocator; 0 is reserved for "no flow".
std::atomic<uint64_t> NextFlow{1};

/// The calling thread's open flow (set by FlowScope, read by Span).
thread_local uint64_t CurrentFlow = 0;

} // namespace

bool trace::enabled() {
  return TraceEnabled.load(std::memory_order_relaxed);
}

void trace::setEnabled(bool On) {
  if (On) {
    int64_t Expected = 0;
    EpochNs.compare_exchange_strong(Expected, steadyNowNs(),
                                    std::memory_order_relaxed);
  }
  TraceEnabled.store(On, std::memory_order_relaxed);
}

uint64_t trace::nowNs() {
  const int64_t Epoch = EpochNs.load(std::memory_order_relaxed);
  const int64_t Now = steadyNowNs();
  return Now > Epoch ? static_cast<uint64_t>(Now - Epoch) : 0;
}

uint64_t trace::nextFlowId() {
  return NextFlow.fetch_add(1, std::memory_order_relaxed);
}

FlowScope::FlowScope(uint64_t Flow) : Prev(CurrentFlow), Active(Flow != 0) {
  if (Active)
    CurrentFlow = Flow;
}

FlowScope::~FlowScope() {
  if (Active)
    CurrentFlow = Prev;
}

void trace::recordSpan(const char *Category, const char *Name,
                       uint64_t StartNs, uint64_t DurNs, uint64_t Arg,
                       uint64_t Flow) {
  if (!enabled())
    return;
  ThreadRing &Ring = threadRing();
  const uint64_t Slot = Ring.Next.load(std::memory_order_relaxed);
  TraceEvent &E = Ring.Events[Slot % RingCapacity];
  E.Category = Category;
  E.Name = Name;
  E.Arg = Arg;
  E.Flow = Flow;
  E.StartNs = StartNs;
  E.DurNs = DurNs;
  E.StartTsc = 0;
  E.DurTsc = 0;
  E.ThreadId = Ring.ThreadId;
  E.Depth = Ring.Depth;
  Ring.Next.store(Slot + 1, std::memory_order_release);
}

uint64_t trace::readTsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t Value;
  asm volatile("mrs %0, cntvct_el0" : "=r"(Value));
  return Value;
#else
  return 0;
#endif
}

Span::Span(const char *Category, const char *Name, uint64_t Arg)
    : Category(Category), Name(Name), Arg(Arg), Flow(CurrentFlow), StartNs(0),
      StartTsc(0), Active(enabled()) {
  if (!Active)
    return;
  ThreadRing &Ring = threadRing();
  ++Ring.Depth;
  StartNs = static_cast<uint64_t>(
      steadyNowNs() - EpochNs.load(std::memory_order_relaxed));
  StartTsc = readTsc();
}

Span::~Span() {
  if (!Active)
    return;
  const uint64_t EndTsc = readTsc();
  const uint64_t EndNs = static_cast<uint64_t>(
      steadyNowNs() - EpochNs.load(std::memory_order_relaxed));
  ThreadRing &Ring = threadRing();
  const uint64_t Slot = Ring.Next.load(std::memory_order_relaxed);
  TraceEvent &E = Ring.Events[Slot % RingCapacity];
  E.Category = Category;
  E.Name = Name;
  E.Arg = Arg;
  E.Flow = Flow;
  E.StartNs = StartNs;
  E.DurNs = EndNs >= StartNs ? EndNs - StartNs : 0;
  E.StartTsc = StartTsc;
  E.DurTsc = EndTsc >= StartTsc ? EndTsc - StartTsc : 0;
  E.ThreadId = Ring.ThreadId;
  E.Depth = Ring.Depth > 0 ? Ring.Depth - 1 : 0;
  Ring.Next.store(Slot + 1, std::memory_order_release);
  if (Ring.Depth > 0)
    --Ring.Depth;
}

std::vector<ThreadSnapshot> trace::snapshot() {
  std::vector<ThreadRing *> Rings;
  {
    Registry &Reg = registry();
    std::lock_guard<std::mutex> Lock(Reg.Mutex);
    Rings = Reg.Rings;
  }
  std::vector<ThreadSnapshot> Out;
  Out.reserve(Rings.size());
  for (const ThreadRing *Ring : Rings) {
    ThreadSnapshot S;
    S.ThreadId = Ring->ThreadId;
    S.Recorded = Ring->Next.load(std::memory_order_acquire);
    // Once wrapped, skip one extra slot past the logical oldest event:
    // that slot is the writer's next target and could tear mid-copy.
    uint64_t Keep = S.Recorded;
    if (Keep > RingCapacity)
      Keep = RingCapacity - 1;
    S.Dropped = S.Recorded - Keep;
    S.Events.reserve(Keep);
    for (uint64_t I = S.Recorded - Keep; I < S.Recorded; ++I)
      S.Events.push_back(Ring->Events[I % RingCapacity]);
    Out.push_back(std::move(S));
  }
  return Out;
}

uint64_t trace::droppedEvents() {
  uint64_t Total = 0;
  for (const ThreadSnapshot &S : snapshot())
    Total += S.Dropped;
  return Total;
}

std::vector<ThreadDropCounts> trace::dropCounts() {
  std::vector<ThreadRing *> Rings;
  {
    Registry &Reg = registry();
    std::lock_guard<std::mutex> Lock(Reg.Mutex);
    Rings = Reg.Rings;
  }
  std::vector<ThreadDropCounts> Out;
  Out.reserve(Rings.size());
  for (const ThreadRing *Ring : Rings) {
    ThreadDropCounts C;
    C.ThreadId = Ring->ThreadId;
    C.Recorded = Ring->Next.load(std::memory_order_acquire);
    // Same accounting as snapshot(): once wrapped, one extra slot past
    // the logical oldest event is conceded to the write frontier.
    uint64_t Keep = C.Recorded;
    if (Keep > RingCapacity)
      Keep = RingCapacity - 1;
    C.Dropped = C.Recorded - Keep;
    Out.push_back(C);
  }
  return Out;
}

void trace::clear() {
  Registry &Reg = registry();
  std::lock_guard<std::mutex> Lock(Reg.Mutex);
  for (ThreadRing *Ring : Reg.Rings) {
    Ring->Next.store(0, std::memory_order_release);
    Ring->Depth = 0;
  }
}

std::string trace::chromeTraceJson() {
  using telemetry::json::Writer;
  const std::vector<ThreadSnapshot> Threads = snapshot();
  Writer W;
  W.beginObject().key("traceEvents").beginArray();
  for (const ThreadSnapshot &S : Threads) {
    for (const TraceEvent &E : S.Events) {
      W.beginObject()
          .key("name")
          .value(E.Name)
          .key("cat")
          .value(E.Category)
          .key("ph")
          .value("X")
          .key("ts")
          .value(static_cast<double>(E.StartNs) / 1000.0)
          .key("dur")
          .value(static_cast<double>(E.DurNs) / 1000.0)
          .key("pid")
          .value(int64_t{1})
          .key("tid")
          .value(static_cast<uint64_t>(E.ThreadId))
          .key("args")
          .beginObject()
          .key("arg")
          .value(E.Arg)
          .key("flow")
          .value(E.Flow)
          .key("depth")
          .value(static_cast<uint64_t>(E.Depth))
          .key("tsc_start")
          .value(E.StartTsc)
          .key("tsc_dur")
          .value(E.DurTsc)
          .endObject()
          .endObject();
    }
  }
  // Flow arrows: for every flow id that tags more than one span, emit a
  // "s" (start) / "t" (step) / "f" (finish) chain so Perfetto draws
  // submit -> queue-wait -> execute as one linked request across
  // threads. Each link's ts sits at the midpoint of its span so the
  // viewer binds it to the enclosing slice.
  struct FlowRef {
    uint64_t Flow;
    uint64_t MidNs;
    uint32_t ThreadId;
  };
  std::vector<FlowRef> Refs;
  for (const ThreadSnapshot &S : Threads)
    for (const TraceEvent &E : S.Events)
      if (E.Flow != 0)
        Refs.push_back({E.Flow, E.StartNs + E.DurNs / 2, E.ThreadId});
  std::sort(Refs.begin(), Refs.end(), [](const FlowRef &A, const FlowRef &B) {
    return A.Flow != B.Flow ? A.Flow < B.Flow : A.MidNs < B.MidNs;
  });
  for (size_t I = 0; I < Refs.size();) {
    size_t End = I;
    while (End < Refs.size() && Refs[End].Flow == Refs[I].Flow)
      ++End;
    if (End - I >= 2) {
      for (size_t J = I; J < End; ++J) {
        const bool First = J == I;
        const bool Last = J + 1 == End;
        W.beginObject()
            .key("name")
            .value("flow")
            .key("cat")
            .value("flow")
            .key("ph")
            .value(First ? "s" : (Last ? "f" : "t"));
        if (Last)
          W.key("bp").value("e");
        W.key("id")
            .value(Refs[J].Flow)
            .key("ts")
            .value(static_cast<double>(Refs[J].MidNs) / 1000.0)
            .key("pid")
            .value(int64_t{1})
            .key("tid")
            .value(static_cast<uint64_t>(Refs[J].ThreadId))
            .endObject();
      }
    }
    I = End;
  }
  W.endArray();
  W.key("displayTimeUnit").value("ms");
  W.key("otherData").beginObject();
  W.key("tool").value("gmdiv");
  W.key("clock").value("steady_clock ns since trace enable");
  uint64_t Dropped = 0, Recorded = 0;
  for (const ThreadSnapshot &S : Threads) {
    Dropped += S.Dropped;
    Recorded += S.Recorded;
  }
  W.key("events_recorded").value(Recorded);
  W.key("events_dropped").value(Dropped);
  W.endObject().endObject();
  return W.str();
}

bool trace::writeChromeTrace(const std::string &Path, std::string *Error) {
  const std::string Doc = chromeTraceJson();
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  const size_t Written = std::fwrite(Doc.data(), 1, Doc.size(), Out);
  const bool Ok = Written == Doc.size() && std::fclose(Out) == 0;
  if (!Ok && Error)
    *Error = "short write to " + Path;
  return Ok;
}
