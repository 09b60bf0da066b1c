//===- metrics/FlightRecorder.h - Crash-time state dump ---------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-time flight recorder: on SIGSEGV/SIGABRT (or an explicit
/// dump() call) it writes one JSON crash report combining the last-N
/// trace spans from the per-thread rings with a full metrics snapshot —
/// the "what was the process doing" record the service layer needs when
/// a batch kernel or a registry entry goes down in production.
///
/// Report schema v2 (docs/OBSERVABILITY.md):
///   {"gmdiv_flight_record":2,"reason":"sigsegv|sigabrt|explicit|...",
///    "unix_ms":...,"spans_kept":N,"spans_recorded":...,
///    "spans_dropped":...,
///    "spans":[{"thread":...,"cat":...,"name":...,"start_ns":...,
///              "dur_ns":...,"arg":...,"flow":...,"depth":...},...],
///    "profile":{...profiler samples, or null when never armed...},
///    "metrics":{...snapshotJson() document...}}
/// v1 -> v2: spans gained "flow" (request-flow id, 0 = none) and the
/// report gained the "profile" section; readers keying on
/// gmdiv_flight_record get a clean version bump.
///
/// The signal path is best effort by design: report construction
/// allocates, which is not async-signal-safe, so a crash inside the
/// allocator itself may lose the report — acceptable for a diagnostic
/// artifact, and the common crashes (bad pointers, logic errors)
/// happen outside the allocator. A re-entry guard prevents handler
/// recursion, and handlers are installed with SA_RESETHAND so the
/// original crash semantics (core dump, abort) are preserved by
/// re-raising after the dump.
///
/// Environment wiring: GMDIV_FLIGHT_RECORDER=<path> makes
/// configureFromEnv() arm the recorder and install the handlers.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_METRICS_FLIGHTRECORDER_H
#define GMDIV_METRICS_FLIGHTRECORDER_H

#include <cstddef>
#include <string>

namespace gmdiv {
namespace metrics {

class FlightRecorder {
public:
  struct Options {
    std::string Path = "gmdiv-flight.json";
    /// Most recent spans kept in the report, across all threads.
    size_t MaxSpans = 256;
  };

  /// The process-wide recorder (leaked singleton).
  static FlightRecorder &global();

  void configure(const Options &O);

  /// Reads GMDIV_FLIGHT_RECORDER; when set, configures the path and
  /// installs the signal handlers. Returns true iff armed.
  bool configureFromEnv();

  /// Installs SIGSEGV/SIGABRT handlers (idempotent) that dump and
  /// re-raise. configure() first to control the output path.
  void installSignalHandlers();

  /// Writes the crash report to the configured path now. \p Reason
  /// lands in the report ("explicit" for manual dumps).
  bool dump(const char *Reason = "explicit", std::string *Error = nullptr);

  /// The report document without writing it (tests, remote shipping).
  std::string reportJson(const char *Reason) const;

  /// Supplier of the report's "profile" section: a complete JSON object
  /// document (prof::Profiler::profileJson()). Registered by the
  /// profiler on start so gmdiv_metrics never depends on gmdiv_prof;
  /// while unset the report carries "profile":null. Pass nullptr to
  /// unregister (tests).
  static void setProfileProvider(std::string (*Provider)());

  Options options() const;

private:
  FlightRecorder() = default;
};

} // namespace metrics
} // namespace gmdiv

#endif // GMDIV_METRICS_FLIGHTRECORDER_H
