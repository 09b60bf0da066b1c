//===- bench/bench_report.h - Statistical bench entry point -----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench binary's GMDIV_BENCH_MAIN funnels through runReported(),
/// which wraps Google Benchmark in the repo's measurement methodology
/// (docs/BENCHMARKING.md):
///
///   * warmup + K timing repetitions per benchmark (calibrated once),
///   * robust per-benchmark summary — median / MAD / robust CV over the
///     per-iteration real time, with 5-sigma MAD outlier rejection,
///   * per-rep hardware-counter deltas (cycles, instructions, branch
///     and cache misses) through trace/HwCounters when perf is usable,
///   * machine/env metadata (CPU model, governor, compiler, flags, git
///     sha) embedded in every report.
///
/// The stdout table stays Google Benchmark's human-readable console
/// output; the machine-readable result is a gmdiv-bench-v2 JSON report
/// written to BENCH_<name>.json for CI to archive and feed to
/// `gmdiv_tool bench-diff`. A user-supplied --benchmark_out still
/// produces Google's own JSON alongside.
///
/// Knobs (env wins over defaults; explicit --benchmark_* flags win
/// over both): GMDIV_BENCH_SMOKE=1 (3 reps, 10 ms min time — the CI
/// bench-smoke setting), GMDIV_BENCH_REPS, GMDIV_BENCH_MIN_TIME,
/// GMDIV_BENCH_WARMUP, GMDIV_BENCH_NO_COUNTERS=1. GMDIV_PROF=<hz>
/// additionally arms the sampling profiler for the whole run and
/// writes BENCH_<name>.prof.folded — the hook used to measure the
/// profiler's own overhead (docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BENCH_REPORT_H
#define GMDIV_BENCH_REPORT_H

#include "prof/Profiler.h"
#include "telemetry/BenchReport.h"
#include "trace/HwCounters.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace gmdiv_bench {

struct RunnerConfig {
  int Reps = 5;
  double MinTime = 0.05;   ///< Seconds per timing repetition.
  double Warmup = 0.05;    ///< Warmup seconds before the reps.
  int CounterReps = 2;     ///< Extra counter-bracketed passes.
  double CounterMinTime = 0.01;
  bool UseCounters = true;

  static RunnerConfig fromEnv() {
    RunnerConfig C;
    if (const char *Smoke = std::getenv("GMDIV_BENCH_SMOKE");
        Smoke && Smoke[0] == '1') {
      C.Reps = 3;
      C.MinTime = 0.01;
      C.Warmup = 0.01;
      C.CounterReps = 1;
    }
    if (const char *Reps = std::getenv("GMDIV_BENCH_REPS"))
      C.Reps = std::atoi(Reps) > 0 ? std::atoi(Reps) : C.Reps;
    if (const char *MinTime = std::getenv("GMDIV_BENCH_MIN_TIME"))
      C.MinTime = std::atof(MinTime) > 0 ? std::atof(MinTime) : C.MinTime;
    if (const char *Warmup = std::getenv("GMDIV_BENCH_WARMUP"))
      C.Warmup = std::atof(Warmup) >= 0 ? std::atof(Warmup) : C.Warmup;
    if (const char *Off = std::getenv("GMDIV_BENCH_NO_COUNTERS");
        Off && Off[0] == '1')
      C.UseCounters = false;
    return C;
  }
};

/// Keeps results in first-seen order so the report matches the console.
class ResultSet {
public:
  gmdiv::telemetry::bench::BenchmarkResult &named(const std::string &Name) {
    auto Found = Index.find(Name);
    if (Found != Index.end())
      return Results[Found->second];
    Index.emplace(Name, Results.size());
    Results.emplace_back();
    Results.back().Name = Name;
    return Results.back();
  }
  bool empty() const { return Results.empty(); }
  std::vector<gmdiv::telemetry::bench::BenchmarkResult> take() {
    return std::move(Results);
  }

private:
  std::vector<gmdiv::telemetry::bench::BenchmarkResult> Results;
  std::map<std::string, size_t> Index;
};

/// Phase-1 reporter: prints the familiar console table and collects
/// every per-repetition (non-aggregate) run.
class CollectingConsoleReporter : public benchmark::ConsoleReporter {
public:
  explicit CollectingConsoleReporter(ResultSet &Results)
      : Results(Results) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    benchmark::ConsoleReporter::ReportRuns(Runs);
    for (const Run &R : Runs) {
      if (R.run_type != Run::RT_Iteration || R.error_occurred ||
          R.iterations == 0)
        continue;
      auto &Result = Results.named(R.benchmark_name());
      Result.Iterations.push_back(static_cast<uint64_t>(R.iterations));
      const double Iters = static_cast<double>(R.iterations);
      Result.RealTimeNs.push_back(R.real_accumulated_time * 1e9 / Iters);
      Result.CpuTimeNs.push_back(R.cpu_accumulated_time * 1e9 / Iters);
    }
  }

private:
  ResultSet &Results;
};

/// Phase-2 reporter: silent; brackets each benchmark instance's run
/// with cumulative hardware-counter reads and records the delta.
class CounterReporter : public benchmark::BenchmarkReporter {
public:
  CounterReporter(ResultSet &Results, gmdiv::trace::HwCounters &Hw)
      : Results(Results), Hw(Hw) {
    Last = Hw.read();
  }

  bool ReportContext(const Context &) override { return true; }

  void ReportRuns(const std::vector<Run> &Runs) override {
    const gmdiv::trace::CounterSample Now = Hw.read();
    const gmdiv::trace::CounterSample Delta = Now - Last;
    for (const Run &R : Runs) {
      if (R.run_type != Run::RT_Iteration || R.error_occurred ||
          R.iterations == 0)
        continue;
      gmdiv::telemetry::bench::CounterRep Rep;
      Rep.Iterations = static_cast<uint64_t>(R.iterations);
      Rep.Cycles = Delta.Cycles;
      Rep.Instructions = Delta.Instructions;
      Rep.BranchMisses = Delta.BranchMisses;
      Rep.CacheMisses = Delta.CacheMisses;
      Rep.Ipc = Delta.ipc();
      Results.named(R.benchmark_name()).Counters.push_back(Rep);
    }
    Last = Hw.read();
  }

private:
  ResultSet &Results;
  gmdiv::trace::HwCounters &Hw;
  gmdiv::trace::CounterSample Last;
};

inline bool hasFlag(const std::vector<std::string> &Args,
                    const char *Prefix) {
  for (const std::string &Arg : Args)
    if (Arg.rfind(Prefix, 0) == 0)
      return true;
  return false;
}

inline int runBenchmarkArgs(std::vector<std::string> Args,
                            benchmark::BenchmarkReporter *Reporter) {
  std::vector<char *> Argv;
  Argv.reserve(Args.size());
  for (std::string &Arg : Args)
    Argv.push_back(Arg.data());
  int Argc = static_cast<int>(Argv.size());
  benchmark::Initialize(&Argc, Argv.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks(Reporter);
  return 0;
}

inline int runReported(const char *Name, int argc, char **argv) {
  namespace tb = gmdiv::telemetry::bench;
  const RunnerConfig Config = RunnerConfig::fromEnv();
  std::vector<std::string> UserArgs(argv, argv + argc);

  // GMDIV_PROF=<hz> profiles the whole run (warmup, reps and counter
  // passes alike); stacks land next to the JSON report.
  const bool Profiling = gmdiv::prof::Profiler::global().startFromEnv();

  // Pure query modes: defer to Google Benchmark, no report.
  if (hasFlag(UserArgs, "--benchmark_list_tests") ||
      hasFlag(UserArgs, "--help") || hasFlag(UserArgs, "--version"))
    return runBenchmarkArgs(std::move(UserArgs), nullptr);

  // Phase 1: warmup + K timing repetitions, console table preserved.
  // Explicit --benchmark_* flags on the command line win.
  std::vector<std::string> Phase1 = UserArgs;
  if (!hasFlag(UserArgs, "--benchmark_repetitions="))
    Phase1.push_back("--benchmark_repetitions=" +
                     std::to_string(Config.Reps));
  if (!hasFlag(UserArgs, "--benchmark_min_time="))
    Phase1.push_back("--benchmark_min_time=" +
                     std::to_string(Config.MinTime));
  if (!hasFlag(UserArgs, "--benchmark_min_warmup_time="))
    Phase1.push_back("--benchmark_min_warmup_time=" +
                     std::to_string(Config.Warmup));
  if (!hasFlag(UserArgs, "--benchmark_report_aggregates_only="))
    Phase1.push_back("--benchmark_report_aggregates_only=false");

  ResultSet Results;
  CollectingConsoleReporter Console(Results);
  if (const int Failed = runBenchmarkArgs(std::move(Phase1), &Console))
    return Failed;

  // Phase 2: counter passes. Each pass re-runs the suite briefly with
  // the counter group enabled; the delta brackets one instance's full
  // run (calibration included — see docs/BENCHMARKING.md).
  gmdiv::trace::HwCounters Hw;
  const bool Counters = Config.UseCounters && Hw.available() &&
                        Config.CounterReps > 0;
  if (Counters) {
    Hw.start();
    for (int Rep = 0; Rep < Config.CounterReps; ++Rep) {
      std::vector<std::string> Phase2;
      Phase2.push_back(UserArgs.empty() ? std::string("bench")
                                        : UserArgs.front());
      for (size_t I = 1; I < UserArgs.size(); ++I) {
        // Keep user filters; drop output flags so phase 2 stays silent.
        if (UserArgs[I].rfind("--benchmark_out", 0) == 0)
          continue;
        Phase2.push_back(UserArgs[I]);
      }
      if (!hasFlag(UserArgs, "--benchmark_repetitions="))
        Phase2.push_back("--benchmark_repetitions=1");
      if (!hasFlag(UserArgs, "--benchmark_min_time="))
        Phase2.push_back("--benchmark_min_time=" +
                         std::to_string(Config.CounterMinTime));
      CounterReporter Bracket(Results, Hw);
      if (const int Failed =
              runBenchmarkArgs(std::move(Phase2), &Bracket))
        return Failed;
    }
    Hw.stop();
  } else if (Config.UseCounters && !Hw.available()) {
    std::fprintf(stderr, "gmdiv-bench: hardware counters unavailable "
                         "(%s); timing only\n",
                 Hw.unavailableReason().c_str());
  }
  benchmark::Shutdown();

  // An empty run (e.g. a filter that matched nothing) must not clobber
  // a previously written report.
  if (Results.empty())
    return 0;

  // Assemble and write the gmdiv-bench-v2 report.
  tb::BenchReport Report;
  Report.Suite = Name;
  Report.Machine = tb::collectMachineInfo();
  Report.Repetitions = Config.Reps;
  Report.MinTime = Config.MinTime;
  Report.WarmupTime = Config.Warmup;
  Report.PerfCounters = Counters;
  Report.Benchmarks = Results.take();
  for (tb::BenchmarkResult &B : Report.Benchmarks)
    B.RealStats = tb::robustStats(B.RealTimeNs, &B.OutliersRejected);

  const std::string Path = std::string("BENCH_") + Name + ".json";
  std::string Error;
  if (!tb::writeFile(Path, Report, &Error)) {
    std::fprintf(stderr, "gmdiv-bench: %s\n", Error.c_str());
    return 1;
  }
  if (Profiling) {
    gmdiv::prof::Profiler &P = gmdiv::prof::Profiler::global();
    P.stop();
    const std::string ProfPath =
        std::string("BENCH_") + Name + ".prof.folded";
    if (!P.writeCollapsed(ProfPath, &Error))
      std::fprintf(stderr, "gmdiv-bench: profile: %s\n", Error.c_str());
    else
      std::fprintf(stderr,
                   "gmdiv-bench: %llu profile samples (%d Hz) in %s\n",
                   static_cast<unsigned long long>(P.sampleCount()),
                   P.rateHz(), ProfPath.c_str());
  }
  std::fprintf(stderr,
               "gmdiv-bench: wrote %s (%zu benchmarks, %d reps, "
               "counters: %s)\n",
               Path.c_str(), Report.Benchmarks.size(), Report.Repetitions,
               Counters ? "yes" : "no");
  return 0;
}

} // namespace gmdiv_bench

/// The main() of every bench binary, in place of BENCHMARK_MAIN():
/// GMDIV_BENCH_MAIN(NAME[, PRINT]) calls PRINT(), a function printing
/// the table the bench reproduces, when given, then runReported(). NAME
/// becomes the BENCH_<NAME>.json report filename.
#define GMDIV_BENCH_MAIN(NAME, ...)                                          \
  int main(int argc, char **argv) {                                          \
    __VA_OPT__(__VA_ARGS__();)                                               \
    return ::gmdiv_bench::runReported(#NAME, argc, argv);                    \
  }

#endif // GMDIV_BENCH_REPORT_H
