//===- trace/Trace.h - Scoped spans and Chrome trace export -----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead tracing spans for the performance-observability layer.
/// A span measures one scoped region with both steady_clock (wall ns)
/// and the raw timestamp counter, and records a completed event into a
/// fixed-capacity per-thread ring buffer. The record path is lock-free:
/// one relaxed atomic load (the enable flag), a thread-local pointer
/// chase, an array store and a release increment — no allocation, no
/// mutex. When the ring wraps, the oldest events are overwritten and a
/// drop count keeps the loss visible.
///
///   trace::setEnabled(true);
///   {
///     GMDIV_TRACE_SPAN("verify", "verifyWidth", WordBits);
///     ...
///   }
///   trace::writeChromeTrace("campaign.trace.json");
///
/// The export is Chrome trace-event JSON ("X" complete events), directly
/// loadable in Perfetto / chrome://tracing: every span becomes one event
/// with microsecond ts/dur, its thread lane, and the TSC interval plus
/// nesting depth in args. Tracing is off by default; with no spans the
/// cost of an instrumented region is the one atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_TRACE_TRACE_H
#define GMDIV_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace gmdiv {
namespace trace {

/// One completed span. Name/Category must be string literals (or
/// otherwise outlive the trace): the ring buffer stores the pointers.
struct TraceEvent {
  const char *Category = "";
  const char *Name = "";
  uint64_t StartNs = 0; ///< steady_clock ns since the trace epoch.
  uint64_t DurNs = 0;
  uint64_t StartTsc = 0; ///< Raw TSC at span entry (0 if unavailable).
  uint64_t DurTsc = 0;
  uint64_t Arg = 0;      ///< Free-form detail (width, divisor, round).
  uint64_t Flow = 0;     ///< Request-flow id linking spans (0 = none).
  uint32_t ThreadId = 0; ///< Small dense id assigned at first record.
  uint32_t Depth = 0;    ///< Nesting depth at span entry (0 = top).
};

/// Events kept per thread; older events are overwritten once a thread
/// records more than this many (power of two, see ringMask in Trace.cpp).
inline constexpr size_t RingCapacity = 4096;

/// Whether spans record. Off by default; reading it is one relaxed load.
bool enabled();

/// Turns recording on or off. The first enable fixes the trace epoch
/// (ts = 0 in the exported trace).
void setEnabled(bool On);

/// Raw timestamp counter (rdtsc / cntvct); 0 on targets without one.
uint64_t readTsc();

/// steady_clock ns since the trace epoch (the exported ts = 0 origin).
/// Callers that record spans with explicit start times (the
/// BatchService queue-wait span) must stamp with this clock so the
/// synthetic span lands at the right ts in the exported trace.
uint64_t nowNs();

//===----------------------------------------------------------------------===//
// Request-flow attribution
//===----------------------------------------------------------------------===//
//
// A flow is a request identity that survives thread hops: the submitter
// allocates an id, every span recorded while a FlowScope is open carries
// it, and the Chrome export links same-flow spans with flow arrows
// ("s"/"t"/"f" events), so submit -> queue-wait -> execute reads as one
// request even though the three spans live on two threads.

/// Allocates a fresh nonzero flow id (process-wide, wait-free).
uint64_t nextFlowId();

/// RAII: spans recorded by this thread inside the scope carry \p Flow.
/// Scopes nest; the previous flow is restored on exit. Passing 0 makes
/// the scope inert (spans keep whatever flow was already current), so
/// call sites can propagate "no flow" without branching.
class FlowScope {
public:
  explicit FlowScope(uint64_t Flow);
  ~FlowScope();
  FlowScope(const FlowScope &) = delete;
  FlowScope &operator=(const FlowScope &) = delete;

private:
  uint64_t Prev;
  bool Active;
};

/// Records one already-completed span into the calling thread's ring:
/// the cross-thread attribution primitive (a worker back-dating the
/// queue-wait interval it just observed). \p StartNs is trace-epoch
/// relative (see nowNs()). No-op while tracing is disabled.
void recordSpan(const char *Category, const char *Name, uint64_t StartNs,
                uint64_t DurNs, uint64_t Arg = 0, uint64_t Flow = 0);

/// RAII span. Construction samples the clocks when tracing is enabled;
/// destruction records one TraceEvent into the calling thread's ring.
/// A span constructed while tracing is disabled stays inert even if
/// tracing is enabled before it closes (no half-sampled events).
class Span {
public:
  Span(const char *Category, const char *Name, uint64_t Arg = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Category;
  const char *Name;
  uint64_t Arg;
  uint64_t Flow; ///< The thread's FlowScope id at construction.
  uint64_t StartNs;
  uint64_t StartTsc;
  bool Active;
};

/// Per-thread view of the ring at snapshot time.
struct ThreadSnapshot {
  uint32_t ThreadId = 0;
  uint64_t Recorded = 0; ///< Total events ever recorded by the thread.
  uint64_t Dropped = 0;  ///< Events lost to ring wraparound.
  /// Surviving events, oldest first.
  std::vector<TraceEvent> Events;
};

/// Copies every thread's surviving events. Safe to call while other
/// threads keep recording (a racing writer can at worst tear the
/// oldest, about-to-be-overwritten slot; the snapshot drops one extra
/// event per ring lap to stay clear of the write frontier).
std::vector<ThreadSnapshot> snapshot();

/// Total events dropped to wraparound across all threads.
uint64_t droppedEvents();

/// Per-thread recorded/dropped tallies without copying any events —
/// the cheap form the metrics plane polls on every snapshot.
struct ThreadDropCounts {
  uint32_t ThreadId = 0;
  uint64_t Recorded = 0;
  uint64_t Dropped = 0;
};
std::vector<ThreadDropCounts> dropCounts();

/// Resets every ring (counts and events). For tests and multi-phase
/// tools; concurrent recorders may keep a stale index for one event.
void clear();

/// The whole trace as one Chrome trace-event JSON document
/// ({"traceEvents":[...],...}), loadable in Perfetto / about:tracing.
std::string chromeTraceJson();

/// Writes chromeTraceJson() to \p Path. Returns false (and fills
/// \p Error when given) if the file cannot be written.
bool writeChromeTrace(const std::string &Path, std::string *Error = nullptr);

} // namespace trace
} // namespace gmdiv

#define GMDIV_TRACE_SPAN_CONCAT2(A, B) A##B
#define GMDIV_TRACE_SPAN_CONCAT(A, B) GMDIV_TRACE_SPAN_CONCAT2(A, B)
/// Scoped span: GMDIV_TRACE_SPAN("category", "name"[, arg]). Category
/// and name must be string literals; arg is an optional uint64 detail.
#define GMDIV_TRACE_SPAN(...)                                              \
  ::gmdiv::trace::Span GMDIV_TRACE_SPAN_CONCAT(GmdivTraceSpan,             \
                                               __LINE__)(__VA_ARGS__)

#endif // GMDIV_TRACE_TRACE_H
