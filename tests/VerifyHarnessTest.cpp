//===- tests/VerifyHarnessTest.cpp - Differential harness self-tests ------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification harness verified: exhaustive sweeps at the small
/// widths (the larger ones live in VerifyExhaustiveTest.cpp), the repro
/// string round-trip, replay, fuzzer determinism, and — via the
/// injected-mismatch hook — the harness's own failure path: a mismatch
/// must surface as a repro string, a verify.mismatch remark, and a
/// dirty report. A checker that cannot fail proves nothing.
///
//===----------------------------------------------------------------------===//

#include "verify/Fuzzer.h"
#include "verify/Verify.h"

#include "metrics/Metrics.h"
#include "telemetry/Remarks.h"

#include <gtest/gtest.h>

#include <map>

using namespace gmdiv;
using namespace gmdiv::verify;

namespace {

//===----------------------------------------------------------------------===//
// Exhaustive sweeps, small widths
//===----------------------------------------------------------------------===//

void expectWidthClean(int WordBits) {
  const VerifyReport Report = verifyWidth(WordBits);
  EXPECT_EQ(Report.WordBits, WordBits);
  EXPECT_GT(Report.checks(), 0u);
  EXPECT_TRUE(Report.clean()) << reportJson(Report);
  EXPECT_TRUE(Report.Failures.empty());
}

TEST(VerifyExhaustiveSmall, Width4) { expectWidthClean(4); }
TEST(VerifyExhaustiveSmall, Width5) { expectWidthClean(5); }
TEST(VerifyExhaustiveSmall, Width6) { expectWidthClean(6); }
TEST(VerifyExhaustiveSmall, Width7) { expectWidthClean(7); }
TEST(VerifyExhaustiveSmall, Width8) { expectWidthClean(8); }

TEST(VerifyHarness, EveryPropertyRunsAtNativeWidth) {
  // N = 8 is a native width: the scalar dividers, the generated
  // sequences, the doubleword path AND the batch backends all run, so
  // every property family must report checks.
  const VerifyReport Report = verifyWidth(8);
  for (const PropertyCount &P : Report.Properties)
    EXPECT_GT(P.Checks, 0u) << "property never exercised: " << P.Name;
}

TEST(VerifyHarness, NonNativeWidthSkipsNativeOnlyProperties) {
  // N = 9 runs on the SmallWord family: batch kernels and the float
  // divider require machine types, so those properties stay at zero
  // checks — and everything else still runs.
  const VerifyReport Report = verifyWidth(9);
  uint64_t BatchChecks = 0, FloatChecks = 0, ScalarChecks = 0;
  for (const PropertyCount &P : Report.Properties) {
    if (P.Name == "batch-unsigned" || P.Name == "batch-signed")
      BatchChecks += P.Checks;
    else if (P.Name == "float-unsigned" || P.Name == "float-signed")
      FloatChecks += P.Checks;
    else
      ScalarChecks += P.Checks;
  }
  EXPECT_EQ(BatchChecks, 0u);
  EXPECT_EQ(FloatChecks, 0u);
  EXPECT_GT(ScalarChecks, 0u);
}

TEST(VerifyHarness, PropertyCheckCountsPinnedAtWidth6) {
  // Every comparison the exhaustive N = 6 sweep makes, per property, so
  // a table edit that drops or duplicates one shows up as a count
  // change (EveryPropertyRunsAtNativeWidth only asks for more than
  // zero). N = 6 runs on SmallUWord: the batch backends, the float
  // dividers and the wide sequences (native widths only) stay at zero
  // whatever the host compiles in. roundup-unsigned, narrow32-* and
  // fastmod-signed compare divRem besides divide and remainder.
  const std::map<std::string, uint64_t> Pinned = {
      {"choose-multiplier-unsigned", 189},
      {"oracle-unsigned", 8064},
      {"unsigned-divider", 20160},
      {"alverson-divider", 8064},
      {"exact-unsigned", 12304},
      {"float-unsigned", 0},
      {"dword-divider", 3936},
      {"codegen-unsigned", 8064},
      {"codegen-alverson", 4032},
      {"codegen-exact-unsigned", 336},
      {"codegen-divisibility-unsigned", 4032},
      {"codegen-remtest-unsigned", 8000},
      {"codegen-dword", 3936},
      {"codegen-wide-unsigned", 0},
      {"batch-unsigned", 0},
      {"fastmod-unsigned", 16128},
      {"fastmod-divisible", 4032},
      {"roundup-unsigned", 16128},
      {"roundup-bounds", 206},
      {"narrow32-unsigned", 16128},
      {"choose-multiplier-signed", 126},
      {"oracle-signed", 8064},
      {"signed-divider", 24192},
      {"floor-divider", 8064},
      {"general-floor-divider", 8064},
      {"ceil-divider", 4032},
      {"convention-divider", 24192},
      {"exact-signed", 11214},
      {"float-signed", 0},
      {"codegen-signed", 8064},
      {"codegen-floor", 3968},
      {"codegen-exact-signed", 526},
      {"codegen-divisibility-signed", 4032},
      {"codegen-remtest-signed", 3328},
      {"codegen-floor-runtime", 8062},
      {"codegen-wide-signed", 0},
      {"batch-signed", 0},
      {"fastmod-signed", 20160},
      {"narrow32-signed", 16128},
      {"roundup-signed", 16128},
  };
  const VerifyReport Report = verifyWidth(6);
  ASSERT_EQ(Report.Properties.size(), Pinned.size());
  for (const PropertyCount &P : Report.Properties) {
    const auto It = Pinned.find(P.Name);
    ASSERT_NE(It, Pinned.end()) << "no pinned count for " << P.Name;
    EXPECT_EQ(P.Checks, It->second) << P.Name;
  }
}

TEST(VerifyHarness, ReportJsonShape) {
  const VerifyReport Report = verifyWidth(4);
  const std::string Json = reportJson(Report);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
  EXPECT_NE(Json.find("\"word_bits\":4"), std::string::npos);
  EXPECT_NE(Json.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(Json.find("\"properties\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Repro strings
//===----------------------------------------------------------------------===//

TEST(VerifyRepro, RoundTripUnsigned) {
  Repro R;
  R.Property = "unsigned-divider";
  R.WordBits = 32;
  R.DBits = 7;
  R.NBits = 0xFFFFFFFFull;
  const std::string Text = reproString(R);
  EXPECT_EQ(Text, "gmdiv:v1:unsigned-divider:N=32:d=7:n=4294967295");
  Repro Back;
  ASSERT_TRUE(parseRepro(Text, Back));
  EXPECT_EQ(Back.Property, R.Property);
  EXPECT_EQ(Back.WordBits, R.WordBits);
  EXPECT_EQ(Back.DBits, R.DBits);
  EXPECT_EQ(Back.NBits, R.NBits);
  EXPECT_FALSE(Back.HasN2);
}

TEST(VerifyRepro, RoundTripSignedPrintsDecimals) {
  Repro R;
  R.Property = "signed-divider";
  R.WordBits = 16;
  R.DBits = 0xFFF9; // -7 in 16 bits.
  R.NBits = 0x8000; // INT16_MIN.
  const std::string Text = reproString(R);
  EXPECT_EQ(Text, "gmdiv:v1:signed-divider:N=16:d=-7:n=-32768");
  Repro Back;
  ASSERT_TRUE(parseRepro(Text, Back));
  EXPECT_EQ(Back.DBits, 0xFFF9u);
  EXPECT_EQ(Back.NBits, 0x8000u);
}

TEST(VerifyRepro, RoundTripDword) {
  Repro R;
  R.Property = "dword-divider";
  R.WordBits = 64;
  R.DBits = 1000003;
  R.NBits = 42;
  R.N2Bits = 999999; // High part, must stay < d.
  R.HasN2 = true;
  const std::string Text = reproString(R);
  Repro Back;
  ASSERT_TRUE(parseRepro(Text, Back));
  EXPECT_TRUE(Back.HasN2);
  EXPECT_EQ(Back.N2Bits, 999999u);
  EXPECT_EQ(Back.NBits, 42u);
}

TEST(VerifyRepro, RoundTripFamilyTag) {
  // Successor-family properties tag their repros with :f=<family>; the
  // paper's own "gm" family stays implicit, so pre-existing repro
  // strings are byte-identical.
  Repro R;
  R.Property = "fastmod-unsigned";
  R.WordBits = 16;
  R.DBits = 7;
  R.NBits = 65535;
  R.Family = "fastmod";
  const std::string Text = reproString(R);
  EXPECT_EQ(Text, "gmdiv:v1:fastmod-unsigned:N=16:d=7:n=65535:f=fastmod");
  Repro Back;
  ASSERT_TRUE(parseRepro(Text, Back));
  EXPECT_EQ(Back.Property, "fastmod-unsigned");
  EXPECT_EQ(Back.Family, "fastmod");

  // An untagged family repro gains the property's registered tag when
  // re-serialized (reproString consults the property table).
  Back.Family.clear();
  EXPECT_EQ(reproString(Back), Text);
}

TEST(VerifyRepro, CheckOnePassesOnSuccessorFamilies) {
  for (const char *Text : {
           "gmdiv:v1:fastmod-unsigned:N=16:d=7:n=65535:f=fastmod",
           "gmdiv:v1:fastmod-divisible:N=16:d=7:n=49:f=fastmod",
           "gmdiv:v1:fastmod-signed:N=16:d=-7:n=-32768:f=fastmod",
           "gmdiv:v1:roundup-unsigned:N=16:d=641:n=65535:f=roundup",
           "gmdiv:v1:roundup-bounds:N=16:d=641:n=0:f=roundup",
           "gmdiv:v1:roundup-signed:N=16:d=-641:n=-32768:f=roundup",
           "gmdiv:v1:narrow32-unsigned:N=16:d=10:n=65535:f=narrow32",
           "gmdiv:v1:narrow32-signed:N=16:d=-10:n=-32768:f=narrow32",
       }) {
    Repro R;
    ASSERT_TRUE(parseRepro(Text, R)) << Text;
    std::string Detail;
    EXPECT_TRUE(checkOne(R, &Detail)) << Text << ": " << Detail;
    EXPECT_NE(Detail.find("PASS"), std::string::npos) << Detail;
  }
}

TEST(VerifyRepro, CheckOneRejectsFamilyMismatch) {
  // A tag naming a different family than the property's registered one
  // is a corrupt repro, not a request to cross-check: reject it.
  Repro R;
  ASSERT_TRUE(parseRepro(
      "gmdiv:v1:fastmod-unsigned:N=16:d=7:n=65535:f=narrow32", R));
  EXPECT_EQ(R.Family, "narrow32");
  std::string Detail;
  EXPECT_FALSE(checkOne(R, &Detail));
  EXPECT_NE(Detail.find("family"), std::string::npos) << Detail;
}

TEST(VerifyRepro, ParseRejectsMalformed) {
  Repro Out;
  EXPECT_FALSE(parseRepro("", Out));
  EXPECT_FALSE(parseRepro("gmdiv:v1", Out));
  EXPECT_FALSE(parseRepro("notgmdiv:v1:unsigned-divider:N=8:d=3:n=5", Out));
  EXPECT_FALSE(parseRepro("gmdiv:v2:unsigned-divider:N=8:d=3:n=5", Out));
  EXPECT_FALSE(parseRepro("gmdiv:v1:unsigned-divider:N=xx:d=3:n=5", Out));
  EXPECT_FALSE(parseRepro("gmdiv:v1:unsigned-divider:N=8:d=:n=5", Out));
  EXPECT_FALSE(parseRepro("gmdiv:v1:unsigned-divider:N=99:d=3:n=5", Out));
}

TEST(VerifyRepro, CheckOnePassesOnCorrectCode) {
  for (const char *Text : {
           "gmdiv:v1:unsigned-divider:N=16:d=7:n=65535",
           "gmdiv:v1:signed-divider:N=16:d=-7:n=-32768",
           "gmdiv:v1:codegen-floor:N=32:d=10:n=-2147483648",
           "gmdiv:v1:dword-divider:N=32:d=1000003:n=12345:n2=999999",
           "gmdiv:v1:batch-unsigned:N=8:d=3:n=200",
       }) {
    Repro R;
    ASSERT_TRUE(parseRepro(Text, R)) << Text;
    std::string Detail;
    EXPECT_TRUE(checkOne(R, &Detail)) << Text << ": " << Detail;
    EXPECT_NE(Detail.find("PASS"), std::string::npos) << Detail;
  }
}

TEST(VerifyRepro, CheckOneRejectsUnknownProperty) {
  Repro R;
  R.Property = "no-such-property";
  R.WordBits = 8;
  R.DBits = 3;
  std::string Detail;
  EXPECT_FALSE(checkOne(R, &Detail));
  EXPECT_FALSE(Detail.empty());
}

TEST(VerifyRepro, ReplayReproHandlesMalformedText) {
  std::string Detail;
  EXPECT_FALSE(replayRepro("complete garbage", &Detail));
  EXPECT_NE(Detail.find("malformed"), std::string::npos);
  EXPECT_TRUE(replayRepro("gmdiv:v1:unsigned-divider:N=16:d=7:n=123"));
}

TEST(VerifyRepro, MinimizeKeepsPassingReproIntact) {
  // On correct code nothing fails, so minimization must return the
  // input repro unchanged rather than "shrink" a passing case.
  Repro R;
  R.Property = "unsigned-divider";
  R.WordBits = 16;
  R.DBits = 7;
  R.NBits = 65535;
  EXPECT_EQ(minimizeRepro(R), reproString(R));
}

//===----------------------------------------------------------------------===//
// The failure path, driven by the injection hook
//===----------------------------------------------------------------------===//

TEST(VerifyInjection, MismatchesSurfaceInReportAndRemarks) {
  telemetry::CollectingRemarkSink Sink;
  VerifyReport Report;
  {
    telemetry::ScopedRemarkSink Guard(&Sink);
    setInjectedMismatchPeriod(1000);
    std::vector<uint64_t> Ns;
    for (uint64_t N = 0; N < 256; ++N)
      Ns.push_back(N);
    Report = checkDivisor(8, 7, Ns, {{3, 200}});
    setInjectedMismatchPeriod(0);
  }

  EXPECT_GT(Report.mismatches(), 0u);
  ASSERT_FALSE(Report.Failures.empty());
  for (const std::string &Text : Report.Failures)
    EXPECT_EQ(Text.rfind("gmdiv:v1:", 0), 0u) << Text;

#ifndef GMDIV_NO_TELEMETRY
  // One verify.mismatch remark per recorded failure — replay and
  // minimization must not add more (they run remark-suppressed). The
  // sink also hears the codegen lowering remarks emitted while the
  // checker builds its programs, so filter by kind.
  std::vector<telemetry::Remark> Mismatches;
  for (const telemetry::Remark &R : Sink.remarks())
    if (R.Kind == "verify.mismatch")
      Mismatches.push_back(R);
  ASSERT_EQ(Mismatches.size(), Report.Failures.size());
  for (const telemetry::Remark &R : Mismatches) {
    EXPECT_EQ(R.Pass, "verify");
    EXPECT_EQ(R.WordBits, 8);
    bool HasRepro = false;
    for (const auto &[Key, Value] : R.Details)
      if (Key == "repro")
        HasRepro = Value.rfind("gmdiv:v1:", 0) == 0;
    EXPECT_TRUE(HasRepro) << R.message();
  }
#endif

  // With injection off, every recorded failure replays clean — and the
  // replay emits no remarks even with a sink installed.
  telemetry::CollectingRemarkSink ReplaySink;
  telemetry::ScopedRemarkSink ReplayGuard(&ReplaySink);
  for (const std::string &Text : Report.Failures)
    EXPECT_TRUE(replayRepro(Text)) << Text;
  for (const telemetry::Remark &R : ReplaySink.remarks())
    EXPECT_NE(R.Kind, "verify.mismatch");
}

TEST(VerifyInjection, ReportJsonCarriesFailures) {
  setInjectedMismatchPeriod(500);
  std::vector<uint64_t> Ns;
  for (uint64_t N = 0; N < 256; ++N)
    Ns.push_back(N);
  const VerifyReport Report = checkDivisor(8, 10, Ns, {});
  setInjectedMismatchPeriod(0);
  ASSERT_FALSE(Report.clean());
  const std::string Json = reportJson(Report);
  EXPECT_NE(Json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(Json.find("gmdiv:v1:"), std::string::npos);
}

TEST(VerifyInjection, SuccessorFamilyPropertiesOwnTheirMismatches) {
  // Period 1 corrupts every comparison, so each successor-family
  // property must tally mismatches under its own name — proving the new
  // checkers route failures to their property row rather than a
  // neighbour's — and every recorded failure must replay clean once the
  // injection is off.
  setInjectedMismatchPeriod(1);
  std::vector<uint64_t> Ns;
  for (uint64_t N = 0; N < 256; ++N)
    Ns.push_back(N);
  const VerifyReport Report = checkDivisor(8, 7, Ns, {});
  setInjectedMismatchPeriod(0);

  for (const char *Property :
       {"fastmod-unsigned", "fastmod-divisible", "fastmod-signed",
        "roundup-unsigned", "roundup-bounds", "roundup-signed",
        "narrow32-unsigned", "narrow32-signed"}) {
    EXPECT_GT(Report.mismatches(Property), 0u) << Property;
  }

  for (const std::string &Text : Report.Failures)
    EXPECT_TRUE(replayRepro(Text)) << Text;
}

TEST(VerifyTelemetry, ChecksFlowIntoStatsRegistry) {
  // The counter --stats and the exposition read; registered directly,
  // so it counts under GMDIV_NO_TELEMETRY too.
  const auto Checks = [] {
    return metrics::Registry::global().snapshot().valueOr(
        "gmdiv_verify_checks_total", {}, 0);
  };
  const double Before = Checks();
  const VerifyReport Report = verifyWidth(4);
  EXPECT_GE(Checks() - Before, static_cast<double>(Report.checks()));
}

//===----------------------------------------------------------------------===//
// Fuzzer
//===----------------------------------------------------------------------===//

TEST(VerifyFuzzer, SmokeRunsClean) {
  FuzzOptions Options;
  Options.MaxRounds = 5;
  Options.Seconds = 300; // MaxRounds decides; the budget is a backstop.
  Options.Seed = 42;
  const FuzzReport Report = runFuzzer(Options);
  EXPECT_EQ(Report.Rounds, 5u);
  EXPECT_GT(Report.checks(), 0u);
  EXPECT_TRUE(Report.clean()) << fuzzJson(Report);
  ASSERT_EQ(Report.PerWidth.size(), 3u);
  EXPECT_EQ(Report.PerWidth[0].WordBits, 16);
  EXPECT_EQ(Report.PerWidth[1].WordBits, 32);
  EXPECT_EQ(Report.PerWidth[2].WordBits, 64);
  for (const VerifyReport &PerWidth : Report.PerWidth)
    EXPECT_GT(PerWidth.checks(), 0u);
}

TEST(VerifyFuzzer, DeterministicGivenSeed) {
  FuzzOptions Options;
  Options.MaxRounds = 3;
  Options.Seconds = 300;
  Options.Seed = 1234;
  const FuzzReport A = runFuzzer(Options);
  const FuzzReport B = runFuzzer(Options);
  EXPECT_EQ(A.checks(), B.checks());
  ASSERT_EQ(A.PerWidth.size(), B.PerWidth.size());
  for (size_t I = 0; I < A.PerWidth.size(); ++I)
    EXPECT_EQ(A.PerWidth[I].checks(), B.PerWidth[I].checks());
}

TEST(VerifyFuzzer, DifferentSeedsDiverge) {
  FuzzOptions Options;
  Options.MaxRounds = 3;
  Options.Seconds = 300;
  Options.Seed = 1;
  const FuzzReport A = runFuzzer(Options);
  Options.Seed = 2;
  const FuzzReport B = runFuzzer(Options);
  // Same shape, different inputs: exact check counts differ because the
  // data-dependent checks (divisible, doubleword filters) differ.
  EXPECT_NE(A.checks(), B.checks());
}

TEST(VerifyFuzzer, JsonSummaryShape) {
  FuzzOptions Options;
  Options.MaxRounds = 1;
  Options.Seconds = 300;
  const FuzzReport Report = runFuzzer(Options);
  const std::string Json = fuzzJson(Report);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
  EXPECT_NE(Json.find("\"seed\""), std::string::npos);
  EXPECT_NE(Json.find("\"rounds\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(Json.find("\"widths\":["), std::string::npos);
  EXPECT_NE(Json.find("\"failures\":[]"), std::string::npos);
}

TEST(VerifyFuzzer, NarrowWidthOption) {
  // The fuzzer accepts the exhaustive widths too (useful to stress one
  // width from the command line).
  FuzzOptions Options;
  Options.MaxRounds = 2;
  Options.Seconds = 300;
  Options.Widths = {8};
  const FuzzReport Report = runFuzzer(Options);
  EXPECT_TRUE(Report.clean()) << fuzzJson(Report);
  ASSERT_EQ(Report.PerWidth.size(), 1u);
  EXPECT_EQ(Report.PerWidth[0].WordBits, 8);
}

} // namespace
