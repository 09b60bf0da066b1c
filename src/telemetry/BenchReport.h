//===- telemetry/BenchReport.h - Statistical bench reports ------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gmdiv-bench-v2 report: what a bench binary measured (per-rep
/// times, iterations and hardware-counter deltas), how it was measured
/// (repetitions, warmup, min-time), on what machine (CPU model,
/// governor, compiler, flags, git sha), and the robust summary
/// (median / MAD / robust CV after outlier rejection) that bench-diff
/// compares. The paper's evaluation is cycle-count tables; this is the
/// repo's machinery for producing and regressing such numbers honestly:
/// a single-number bench report with no noise model cannot distinguish
/// a regression from scheduler jitter.
///
/// The JSON layer round-trips through telemetry/Json so CI can archive
/// reports, and `gmdiv_tool bench-diff old.json new.json` flags changes
/// beyond a noise-aware threshold with a nonzero exit code. Baselines
/// live in bench/baselines/ (see docs/BENCHMARKING.md for the refresh
/// procedure).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_TELEMETRY_BENCHREPORT_H
#define GMDIV_TELEMETRY_BENCHREPORT_H

#include "telemetry/SampleStats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gmdiv {
namespace telemetry {
namespace bench {

/// One hardware-counter delta, bracketing one full run of a benchmark
/// instance (calibration + measurement — see docs/BENCHMARKING.md;
/// ratios like IPC are robust to the bracket, absolute per-iteration
/// counts are upper bounds). A counter the PMU lacks reads 0.
struct CounterRep {
  uint64_t Iterations = 0; ///< Measured iterations of the bracketed run.
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t BranchMisses = 0;
  uint64_t CacheMisses = 0;
  double Ipc = 0;
};

/// One benchmark instance (e.g. "BM_Divider32/7") across K repetitions.
struct BenchmarkResult {
  std::string Name;
  /// Per-repetition measurement: iterations and per-iteration times.
  std::vector<uint64_t> Iterations;
  std::vector<double> RealTimeNs;
  std::vector<double> CpuTimeNs;
  /// Robust summary of RealTimeNs after MAD outlier rejection.
  SampleStats RealStats;
  size_t OutliersRejected = 0;
  /// Per-rep counter deltas; empty when perf is unavailable.
  std::vector<CounterRep> Counters;
};

/// Environment metadata embedded in every report.
struct MachineInfo {
  std::string Timestamp; ///< UTC, ISO 8601.
  std::string Hostname;
  std::string CpuModel;
  int Cpus = 0;
  std::string Governor; ///< cpufreq governor, "unknown" off-Linux.
  std::string Compiler;
  std::string BuildType;
  std::string Flags;
  std::string GitSha;
};

struct BenchReport {
  std::string Suite; ///< Bench binary name, e.g. "bench_unsigned_div".
  MachineInfo Machine;
  int Repetitions = 0;
  double MinTime = 0;
  double WarmupTime = 0;
  bool PerfCounters = false;
  std::vector<BenchmarkResult> Benchmarks;
};

/// Samples the current machine (reads /proc and /sys where available).
MachineInfo collectMachineInfo();

/// computeSampleStats after rejecting samples farther than 5 robust
/// sigma (5 * 1.4826 * MAD) from the median. With MAD = 0 nothing is
/// rejected. \p OutliersRejected (optional) receives the count.
SampleStats robustStats(const std::vector<double> &Samples,
                        size_t *OutliersRejected = nullptr);

/// Serialization (schema "gmdiv-bench-v2", one line, valid JSON).
std::string toJson(const BenchReport &Report);
bool fromJson(const std::string &Text, BenchReport &Out,
              std::string *Error = nullptr);
bool writeFile(const std::string &Path, const BenchReport &Report,
               std::string *Error = nullptr);
bool readFile(const std::string &Path, BenchReport &Out,
              std::string *Error = nullptr);

//===----------------------------------------------------------------------===//
// bench-diff
//===----------------------------------------------------------------------===//

struct DiffEntry {
  enum class Verdict { Ok, Regression, Improvement, OnlyOld, OnlyNew };
  std::string Name;
  double OldMedianNs = 0;
  double NewMedianNs = 0;
  double Ratio = 0;    ///< new / old median (0 when unpaired).
  double NoiseRel = 0; ///< Relative noise band: 3 * hypot(cv_old, cv_new).
  Verdict V = Verdict::Ok;
};

struct DiffReport {
  double Threshold = 0.15;
  /// Machine context of the two compared reports, so the diff can say
  /// whether its numbers are even comparable.
  MachineInfo OldMachine;
  MachineInfo NewMachine;
  std::vector<DiffEntry> Entries;
  int regressions() const;
  int improvements() const;
  /// True when the two reports visibly came from different hardware or
  /// tuning: CPU model, core count, or cpufreq governor differ (fields
  /// one side did not record are not compared). Cross-machine medians
  /// say nothing about a code change, so diffText leads with a loud
  /// warning when this is set.
  bool machineMismatch() const;
};

/// Pairs benchmarks by name and flags medians that moved more than
/// threshold + noise, where noise is three combined robust sigmas —
/// a 15% threshold means "15% beyond what the rep scatter explains".
DiffReport compareReports(const BenchReport &Old, const BenchReport &New,
                          double Threshold = 0.15);

/// Human-readable comparison table.
std::string diffText(const DiffReport &Diff);

/// One-line JSON summary of the comparison.
std::string diffJson(const DiffReport &Diff);

} // namespace bench
} // namespace telemetry
} // namespace gmdiv

#endif // GMDIV_TELEMETRY_BENCHREPORT_H
