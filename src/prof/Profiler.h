//===- prof/Profiler.h - Signal-based sampling profiler --------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process sampling profiler: SIGPROF fires on process CPU time
/// (setitimer(ITIMER_PROF)) at a configurable rate; the handler captures
/// a raw stack into a lock-free per-thread ring (same overwrite +
/// drop-accounting discipline as trace's span rings); symbolization and
/// aggregation happen only at dump time, never in the signal path.
///
/// Output formats:
///   - collapsed(): one "frame;frame;leaf count" line per unique stack,
///     directly consumable by flamegraph.pl and speedscope.
///   - profileJson(): the same aggregation as a JSON object, embedded
///     into the FlightRecorder crash report (schema v2).
///
/// Arming:
///   - Profiler::global().start(Hz) / stop() programmatically.
///   - startFromEnv(): GMDIV_PROF=<hz> (or any non-numeric truthy value
///     for the 97 Hz default).
///   - gmdiv_tool / soak / fuzz accept --profile=<file>, which arms the
///     profiler through startFromEnv(true), and write the collapsed form
///     at exit.
///
/// Metrics: gmdiv_prof_samples_total, gmdiv_prof_dropped_total and
/// gmdiv_prof_rate_hz are registered with the global metrics registry
/// the first time the profiler starts.
///
/// Async-signal-safety notes (the load-bearing part):
///   - backtrace(3) is pre-warmed in start(); after the first call it
///     performs no allocation, so calling it from the handler is safe
///     (the same approach production profilers take).
///   - The handler touches only plain arrays, initial-exec TLS and
///     relaxed/release atomics. No locks, no allocation, no I/O.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_PROF_PROFILER_H
#define GMDIV_PROF_PROFILER_H

#include <cstdint>
#include <string>

namespace gmdiv {
namespace prof {

class Profiler {
public:
  /// Default sampling rate; 97 Hz is prime so the sampler cannot phase-
  /// lock with 10/100/1000 Hz periodic work.
  static constexpr int DefaultHz = 97;

  static Profiler &global();

  /// Install the SIGPROF handler and arm the interval timer at \p Hz
  /// samples per second of process CPU time. Idempotent while running
  /// (returns false without changing the rate). Returns false if the
  /// timer could not be armed.
  bool start(int Hz = DefaultHz);

  /// Disarm the timer and restore the previous SIGPROF disposition.
  /// Captured samples are retained for collapsed()/profileJson().
  void stop();

  /// Arm from GMDIV_PROF: its number is the rate, and 1 or a non-number
  /// means DefaultHz. \p Force (a --profile flag) arms the profiler even
  /// when GMDIV_PROF is unset or 0, at DefaultHz unless GMDIV_PROF names
  /// a rate. Returns true if the profiler was started (or was already
  /// running).
  bool startFromEnv(bool Force = false);

  bool running() const;
  int rateHz() const;

  /// Samples successfully written into rings since the last reset.
  uint64_t sampleCount() const;
  /// Samples lost: ring overwrites plus handler hits on threads beyond
  /// the slot pool. Honest accounting, mirrored as a metric.
  uint64_t droppedCount() const;

  /// Drop all captured samples and zero the counters.
  void reset();

  /// Fold the rings and symbolize: "frame;frame;leaf count\n" lines in
  /// root-first order (flamegraph.pl / speedscope collapsed format).
  /// Static symbols resolve via dladdr when the binary exports them
  /// (ENABLE_EXPORTS); otherwise frames degrade to "module+0xoffset",
  /// never to an empty string.
  std::string collapsed() const;

  /// Write collapsed() to \p Path (plain overwrite; profiles are not
  /// consumed concurrently the way metrics snapshots are). Returns
  /// false and fills \p Error on I/O failure.
  bool writeCollapsed(const std::string &Path, std::string *Error = nullptr) const;

  /// JSON object for the FlightRecorder report: rate, sample/drop
  /// counters and the folded stacks.
  std::string profileJson() const;

private:
  Profiler() = default;
};

} // namespace prof
} // namespace gmdiv

#endif // GMDIV_PROF_PROFILER_H
