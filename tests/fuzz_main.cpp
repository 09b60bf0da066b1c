//===- tests/fuzz_main.cpp - Differential fuzzing entry point -------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Not a gtest: the soak-style entry for the differential fuzzer in
// src/verify. Runs the boundary-biased campaign at N = 16/32/64 for the
// requested time budget, streams one verify.mismatch remark per
// discovered failure to stderr (JSON lines), and prints the campaign
// summary as one JSON document on stdout. Exit code 0 means every
// comparison agreed; 1 means mismatches (the minimized repro strings
// are in the summary and can be replayed here). Usage:
//
//   fuzz [--trace=FILE] [--metrics=FILE] [--profile=FILE] [seconds] [seed]
//                                (defaults: 10 seconds, random seed)
//   fuzz --replay <repro-string>
//
// CTest runs a 2-second smoke under the `fuzz` label; CI's sanitizer
// leg runs 60 seconds; a release manager can run hours. --trace=FILE
// records campaign/round spans and writes a Chrome trace-event JSON
// file on exit. --metrics=FILE writes a metrics snapshot on exit
// (.json = JSON document, anything else the Prometheus text format)
// with the campaign's properties-checked / mismatch / round counters.
// --profile=FILE arms the sampling profiler (rate from GMDIV_PROF=<hz>,
// default 97 Hz) and writes collapsed stacks (flamegraph.pl format) on exit.
//
//===----------------------------------------------------------------------===//

#include "verify/Fuzzer.h"

#include "metrics/Exporter.h"
#include "prof/Profiler.h"
#include "telemetry/Remarks.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::verify;

int main(int ArgcIn, char **ArgvIn) {
  const char *TraceFile = nullptr;
  const char *MetricsFile = nullptr;
  const char *ProfileFile = nullptr;
  std::vector<char *> Args;
  for (int I = 0; I < ArgcIn; ++I) {
    if (std::strncmp(ArgvIn[I], "--trace=", 8) == 0)
      TraceFile = ArgvIn[I] + 8;
    else if (std::strncmp(ArgvIn[I], "--metrics=", 10) == 0)
      MetricsFile = ArgvIn[I] + 10;
    else if (std::strncmp(ArgvIn[I], "--profile=", 10) == 0)
      ProfileFile = ArgvIn[I] + 10;
    else
      Args.push_back(ArgvIn[I]);
  }
  const int Argc = static_cast<int>(Args.size());
  char **Argv = Args.data();
  if (TraceFile)
    trace::setEnabled(true);
  prof::Profiler::global().startFromEnv(ProfileFile != nullptr);

  if (Argc >= 2 && std::strcmp(Argv[1], "--replay") == 0) {
    if (Argc < 3) {
      std::fprintf(stderr, "usage: fuzz --replay <repro-string>\n");
      return 2;
    }
    std::string Detail;
    const bool Passed = replayRepro(Argv[2], &Detail);
    std::printf("%s\n", Detail.c_str());
    return Passed ? 0 : 1;
  }

  const double Seconds = Argc > 1 ? std::atof(Argv[1]) : 10.0;
  FuzzOptions Options;
  Options.Seconds = Seconds;
  Options.Seed = Argc > 2 ? std::strtoull(Argv[2], nullptr, 0)
                          : std::random_device{}();
  std::fprintf(stderr, "fuzz: %.1f seconds, seed %llu\n", Seconds,
               static_cast<unsigned long long>(Options.Seed));

  // Failures stream out as they are found (JSON lines on stderr), in
  // addition to the minimized repro strings in the final summary.
  telemetry::JsonRemarkSink Sink(stderr);
  FuzzReport Report;
  {
    telemetry::ScopedRemarkSink Guard(&Sink);
    Report = runFuzzer(Options);
  }

  std::printf("%s\n", fuzzJson(Report).c_str());
  int Result = 0;
  if (!Report.clean()) {
    std::fprintf(stderr, "fuzz: %llu mismatches; replay with:\n",
                 static_cast<unsigned long long>(Report.mismatches()));
    for (const std::string &Text : Report.Failures)
      std::fprintf(stderr, "  fuzz --replay '%s'\n", Text.c_str());
    Result = 1;
  } else {
    std::fprintf(stderr, "fuzz: %llu rounds clean (%llu checks)\n",
                 static_cast<unsigned long long>(Report.Rounds),
                 static_cast<unsigned long long>(Report.checks()));
  }
  if (TraceFile) {
    std::string Error;
    if (!trace::writeChromeTrace(TraceFile, &Error)) {
      std::fprintf(stderr, "fuzz: --trace: %s\n", Error.c_str());
      return Result ? Result : 1;
    }
    std::fprintf(stderr, "fuzz: trace written to %s\n", TraceFile);
  }
  if (MetricsFile) {
    std::string Error;
    if (!metrics::Exporter::writeSnapshotFile(MetricsFile, &Error)) {
      std::fprintf(stderr, "fuzz: --metrics: %s\n", Error.c_str());
      return Result ? Result : 1;
    }
    std::fprintf(stderr, "fuzz: metrics written to %s\n", MetricsFile);
  }
  if (ProfileFile) {
    prof::Profiler::global().stop();
    std::string Error;
    if (!prof::Profiler::global().writeCollapsed(ProfileFile, &Error)) {
      std::fprintf(stderr, "fuzz: --profile: %s\n", Error.c_str());
      return Result ? Result : 1;
    }
    std::fprintf(stderr, "fuzz: %llu profile samples written to %s\n",
                 static_cast<unsigned long long>(
                     prof::Profiler::global().sampleCount()),
                 ProfileFile);
  }
  return Result;
}
