//===- metrics/Exporter.h - Background metrics snapshot writer --*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Periodic snapshot export: a background thread that serializes the
/// global Registry to a file every interval and on demand. Writes are
/// atomic (temp file + rename) so a scraper never reads a torn
/// snapshot. The output format follows the file extension: ".json"
/// gets the JSON document, anything else the Prometheus text format.
///
/// Environment wiring (the tools call startFromEnv() at startup):
///   GMDIV_METRICS_OUT          target path; unset = exporter stays off
///   GMDIV_METRICS_INTERVAL_MS  write period, default 10000
///
/// SIGUSR1 requests an immediate out-of-cycle dump: the handler only
/// sets a flag (async-signal-safe); the exporter thread polls it and
/// performs the write.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_METRICS_EXPORTER_H
#define GMDIV_METRICS_EXPORTER_H

#include <cstdint>
#include <string>

namespace gmdiv {
namespace metrics {

class Exporter {
public:
  struct Options {
    std::string Path;
    int64_t IntervalMs = 10000;
  };

  /// The process-wide exporter (leaked singleton).
  static Exporter &global();

  /// Starts the background thread (no-op if already running). Returns
  /// false when \p O.Path is empty.
  bool start(const Options &O);

  /// Reads GMDIV_METRICS_OUT / GMDIV_METRICS_INTERVAL_MS; starts the
  /// thread and installs the SIGUSR1 dump handler when the path is set.
  /// Returns true iff the exporter is running afterwards.
  bool startFromEnv();

  /// Stops the thread after one final write. Safe when never started.
  void stop();

  bool running() const;
  const std::string &path() const;

  /// Serializes the global registry to \p Path (format by extension)
  /// via temp file + rename. Usable without any Exporter instance —
  /// the --metrics=<file> flag of the tools is this call at exit.
  static bool writeSnapshotFile(const std::string &Path,
                                std::string *Error = nullptr);

  /// Installs the SIGUSR1 flag-setting handler (idempotent).
  static void installSigusr1();

private:
  Exporter() = default;
  ~Exporter();
  struct Impl;
  Impl *impl();
};

} // namespace metrics
} // namespace gmdiv

#endif // GMDIV_METRICS_EXPORTER_H
