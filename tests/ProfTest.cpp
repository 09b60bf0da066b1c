//===- tests/ProfTest.cpp - Sampling profiler -----------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiler tests arm SIGPROF for real, burn CPU, and require
/// non-empty collapsed stacks plus a valid embedded JSON profile.
///
//===----------------------------------------------------------------------===//

#include "prof/Profiler.h"

#include "telemetry/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::prof;

namespace json = gmdiv::telemetry::json;

namespace {

// Burn process CPU until the profiler has banked at least \p Want
// samples or \p DeadlineSec of wall time passes. ITIMER_PROF counts CPU
// time, so a busy spin converges at the sampling rate.
uint64_t burnUntilSamples(uint64_t Want, double DeadlineSec) {
  const auto Start = std::chrono::steady_clock::now();
  volatile uint64_t Sink = 0;
  while (Profiler::global().sampleCount() < Want &&
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
                 .count() < DeadlineSec) {
    for (int I = 0; I < 100000; ++I)
      Sink = Sink * 2654435761u + static_cast<uint64_t>(I) / 7u;
  }
  return Profiler::global().sampleCount();
}

TEST(Profiler, CapturesStacksAndEmitsCollapsedAndJson) {
  Profiler &P = Profiler::global();
  P.reset();
  if (!P.start(500))
    GTEST_SKIP() << "SIGPROF profiling unavailable on this platform";
  EXPECT_TRUE(P.running());
  EXPECT_EQ(P.rateHz(), 500);

  const uint64_t Samples = burnUntilSamples(10, 10.0);
  P.stop();
  EXPECT_FALSE(P.running());
  ASSERT_GE(Samples, 10u) << "profiler banked too few samples";

  // Collapsed form: "frame;frame count" lines, counts summing to the
  // kept samples, no empty frames.
  const std::string Folded = P.collapsed();
  ASSERT_FALSE(Folded.empty());
  std::istringstream Lines(Folded);
  std::string Line;
  uint64_t FoldedTotal = 0;
  while (std::getline(Lines, Line)) {
    const size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    ASSERT_GT(Space, 0u) << Line;
    FoldedTotal += std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
  }
  EXPECT_GT(FoldedTotal, 0u);
  EXPECT_LE(FoldedTotal, P.sampleCount());

  // The JSON form embeds into the flight recorder, so it must parse
  // with the project parser and carry the counters.
  const std::string Doc = P.profileJson();
  ASSERT_TRUE(json::isValid(Doc)) << Doc;
  json::Value Root;
  ASSERT_TRUE(json::parse(Doc, Root));
  EXPECT_EQ(Root.numberOr("gmdiv_profile", 0), 1.0);
  EXPECT_EQ(Root.numberOr("rate_hz", 0), 500.0);
  EXPECT_GE(Root.numberOr("samples_recorded", 0), 10.0);
  ASSERT_NE(Root.find("stacks"), nullptr);
  EXPECT_GE(Root.find("stacks")->array().size(), 1u);
}

TEST(Profiler, WriteCollapsedProducesTheFile) {
  Profiler &P = Profiler::global();
  P.reset();
  if (!P.start(500))
    GTEST_SKIP() << "SIGPROF profiling unavailable on this platform";
  burnUntilSamples(5, 10.0);
  P.stop();

  const std::string Path = testing::TempDir() + "gmdiv_prof_test.folded";
  std::string Error;
  ASSERT_TRUE(P.writeCollapsed(Path, &Error)) << Error;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  char Buf[8] = {};
  const size_t Got = std::fread(Buf, 1, sizeof(Buf), F);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_GT(Got, 0u);

  // Unwritable destination reports an error instead of crashing.
  EXPECT_FALSE(
      P.writeCollapsed("/nonexistent-dir/prof.folded", &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Profiler, StartFromEnvHonorsProfKnobs) {
  Profiler &P = Profiler::global();
  ASSERT_FALSE(P.running());

  unsetenv("GMDIV_PROF");
  EXPECT_FALSE(P.startFromEnv());
  setenv("GMDIV_PROF", "0", 1);
  EXPECT_FALSE(P.startFromEnv());

  setenv("GMDIV_PROF", "251", 1);
  if (!P.startFromEnv())
    GTEST_SKIP() << "SIGPROF profiling unavailable on this platform";
  EXPECT_TRUE(P.running());
  EXPECT_EQ(P.rateHz(), 251);
  // A second arm while running is a no-op that reports success.
  EXPECT_TRUE(P.startFromEnv());
  P.stop();

  // GMDIV_PROF=1 means "on at the default".
  setenv("GMDIV_PROF", "1", 1);
  ASSERT_TRUE(P.startFromEnv());
  EXPECT_EQ(P.rateHz(), Profiler::DefaultHz);
  P.stop();

  // A --profile flag forces the profiler on; GMDIV_PROF still names the
  // rate, and unset or 0 means the default.
  ASSERT_TRUE(P.startFromEnv(/*Force=*/true));
  EXPECT_EQ(P.rateHz(), Profiler::DefaultHz);
  P.stop();
  setenv("GMDIV_PROF", "0", 1);
  ASSERT_TRUE(P.startFromEnv(/*Force=*/true));
  EXPECT_EQ(P.rateHz(), Profiler::DefaultHz);
  P.stop();
  setenv("GMDIV_PROF", "103", 1);
  ASSERT_TRUE(P.startFromEnv(/*Force=*/true));
  EXPECT_EQ(P.rateHz(), 103);
  P.stop();
  unsetenv("GMDIV_PROF");
}

TEST(Profiler, ResetClearsSamples) {
  Profiler &P = Profiler::global();
  P.reset();
  EXPECT_EQ(P.sampleCount(), 0u);
  EXPECT_EQ(P.droppedCount(), 0u);
  EXPECT_TRUE(P.collapsed().empty());
}

} // namespace
