//===- verify/Fuzzer.cpp - Boundary-biased differential fuzzer ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "verify/Fuzzer.h"

#include "metrics/Metrics.h"
#include "ops/Bits.h"
#include "telemetry/Json.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace gmdiv;
using namespace gmdiv::verify;

namespace json = gmdiv::telemetry::json;

namespace {

/// SplitMix64: tiny, deterministic, full-period — the campaign replays
/// exactly from (Seed, Widths).
struct SplitMix64 {
  uint64_t State;
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
};

/// Divisors biased towards the paper's structure: tiny d, 2^k and its
/// neighbors (the pre-shift / pow2 special cases), 2^(N-1) (the largest
/// signed magnitude), all-ones (signed -1), INT_MAX, random odd.
uint64_t pickDivisor(SplitMix64 &Rng, int WordBits) {
  const uint64_t Mask = maskFor(WordBits);
  uint64_t D;
  switch (Rng.next() % 8) {
  case 0:
    D = 1 + Rng.next() % 16;
    break;
  case 1: {
    const int K = static_cast<int>(Rng.next() % WordBits);
    D = (uint64_t{1} << K) + (Rng.next() % 3) - 1;
    break;
  }
  case 2:
    D = Mask; // Signed -1.
    break;
  case 3:
    D = uint64_t{1} << (WordBits - 1); // Signed INT_MIN; unsigned 2^(N-1).
    break;
  case 4:
    D = (uint64_t{1} << (WordBits - 1)) - 1; // Signed INT_MAX.
    break;
  case 5:
    D = Rng.next() | 1; // Random odd (exercises §9 inverses).
    break;
  case 6:
    D = Mask - Rng.next() % 16; // Small negative magnitudes.
    break;
  default:
    D = Rng.next();
    break;
  }
  D &= Mask;
  return D == 0 ? 3 : D;
}

/// Dividends biased at the theorems' case boundaries: 2^k +/- 1 (where
/// the quotient estimate is tightest), multiples of d and of d-1 off by
/// one, INT_MIN and its neighborhood, all-ones, tiny values, and sparse
/// random patterns.
uint64_t pickDividend(SplitMix64 &Rng, int WordBits, uint64_t DBits) {
  const uint64_t Mask = maskFor(WordBits);
  switch (Rng.next() % 8) {
  case 0: {
    const int K = static_cast<int>(Rng.next() % WordBits);
    return ((uint64_t{1} << K) + (Rng.next() % 3) - 1) & Mask;
  }
  case 1: { // k*d +/- 1: straddles every quotient step.
    const uint64_t MaxQ = Mask / DBits; // MaxQ + 1 wraps to 0 when d = 1.
    const uint64_t Quotient =
        MaxQ == ~uint64_t{0} ? Rng.next() : Rng.next() % (MaxQ + 1);
    return (Quotient * DBits + (Rng.next() % 3) - 1) & Mask;
  }
  case 2: { // k*(d-1) +/- 1.
    const uint64_t Step = DBits > 1 ? DBits - 1 : 1;
    const uint64_t MaxQ = Mask / Step;
    const uint64_t Quotient =
        MaxQ == ~uint64_t{0} ? Rng.next() : Rng.next() % (MaxQ + 1);
    return (Quotient * Step + (Rng.next() % 3) - 1) & Mask;
  }
  case 3: // INT_MIN neighborhood.
    return ((uint64_t{1} << (WordBits - 1)) + (Rng.next() % 5) - 2) & Mask;
  case 4: // All-ones neighborhood (unsigned max, signed -1).
    return (Mask - Rng.next() % 3) & Mask;
  case 5:
    return Rng.next() % 17;
  case 6:
    return (Rng.next() & Rng.next()) & Mask; // Sparse bits.
  default:
    return Rng.next() & Mask;
  }
}

} // namespace

uint64_t FuzzReport::checks() const {
  uint64_t Total = 0;
  for (const VerifyReport &R : PerWidth)
    Total += R.checks();
  return Total;
}

uint64_t FuzzReport::mismatches() const {
  uint64_t Total = 0;
  for (const VerifyReport &R : PerWidth)
    Total += R.mismatches();
  return Total;
}

FuzzReport verify::runFuzzer(const FuzzOptions &Options) {
  GMDIV_TRACE_SPAN("verify", "fuzzCampaign", Options.Seed);
  FuzzReport Report;
  Report.Seed = Options.Seed;
  Report.RequestedSeconds = Options.Seconds;
  Report.PerWidth.reserve(Options.Widths.size());
  for (const int W : Options.Widths) {
    assert(((W >= 4 && W <= 12) || W == 16 || W == 32 || W == 64) &&
           "unsupported fuzz width");
    VerifyReport Empty;
    Empty.WordBits = W;
    Report.PerWidth.push_back(Empty);
  }

  SplitMix64 Rng(Options.Seed ^ 0x6a09e667f3bcc909ull);
  const auto Start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  std::vector<uint64_t> Ns;
  std::vector<std::pair<uint64_t, uint64_t>> DwordPairs;
  constexpr size_t DividendsPerRound = 48;
  constexpr size_t DwordPairsPerRound = 4;

  while (Options.MaxRounds != 0 ? Report.Rounds < Options.MaxRounds
                                : elapsed() < Options.Seconds) {
    GMDIV_TRACE_SPAN("verify", "fuzzRound", Report.Rounds);
    for (size_t WidthIndex = 0; WidthIndex < Options.Widths.size();
         ++WidthIndex) {
      const int W = Options.Widths[WidthIndex];
      const uint64_t DBits = pickDivisor(Rng, W);
      Ns.clear();
      for (size_t I = 0; I < DividendsPerRound; ++I)
        Ns.push_back(pickDividend(Rng, W, DBits));
      DwordPairs.clear();
      for (size_t I = 0; I < DwordPairsPerRound; ++I)
        DwordPairs.emplace_back(Rng.next() % DBits,
                                pickDividend(Rng, W, DBits));
      Report.PerWidth[WidthIndex].merge(checkDivisor(W, DBits, Ns,
                                                     DwordPairs));
    }
    ++Report.Rounds;
    static metrics::Counter &RoundsMetric =
        metrics::Registry::global().counter("gmdiv_verify_fuzz_rounds_total",
                                            "Fuzz campaign rounds completed");
    RoundsMetric.inc();
  }
  Report.ElapsedSeconds = elapsed();

  // Minimize every recorded failure (replays are remark-silent, so this
  // cannot inflate the one-remark-per-failure accounting).
  for (const VerifyReport &PerWidth : Report.PerWidth) {
    for (const std::string &Text : PerWidth.Failures) {
      Repro R;
      if (!parseRepro(Text, R))
        continue;
      const std::string Minimized = minimizeRepro(R);
      if (Report.Failures.size() >= FailureCap)
        break;
      if (std::find(Report.Failures.begin(), Report.Failures.end(),
                    Minimized) == Report.Failures.end())
        Report.Failures.push_back(Minimized);
    }
  }
  return Report;
}

std::string verify::minimizeRepro(const Repro &Original) {
  Repro R = Original;
  const uint64_t Mask = maskFor(R.WordBits);
  R.DBits &= Mask;
  R.NBits &= Mask;
  R.N2Bits &= Mask;
  if (checkOne(R))
    return reproString(Original); // Not failing (flaky or fixed): keep as-is.

  const auto stillFails = [](const Repro &Candidate) {
    return !checkOne(Candidate);
  };
  // Greedy descent, bounded: each accepted step strictly shrinks one
  // field, so the loop terminates; the cap guards against pathological
  // replay costs.
  int Budget = 512;
  bool Progress = true;
  while (Progress && Budget > 0) {
    Progress = false;
    const auto tryField = [&](uint64_t Repro::*Field, uint64_t Value,
                              bool Valid) {
      if (!Valid || Progress || Budget <= 0 || R.*Field == Value)
        return;
      Repro Candidate = R;
      Candidate.*Field = Value;
      --Budget;
      if (stillFails(Candidate)) {
        R = Candidate;
        Progress = true;
      }
    };
    // Shrink the dividend: halve, decrement, drop the top set bit.
    tryField(&Repro::NBits, R.NBits / 2, true);
    tryField(&Repro::NBits, R.NBits - 1, R.NBits != 0);
    for (int Bit = 63; Bit >= 0 && !Progress; --Bit)
      if ((R.NBits >> Bit) & 1)
        tryField(&Repro::NBits, R.NBits & ~(uint64_t{1} << Bit), true);
    // Shrink the doubleword high part (must stay below d).
    if (R.HasN2) {
      tryField(&Repro::N2Bits, R.N2Bits / 2, true);
      tryField(&Repro::N2Bits, R.N2Bits - 1, R.N2Bits != 0);
    }
    // Shrink the divisor (nonzero; must stay above the high part).
    const uint64_t FloorD = R.HasN2 ? R.N2Bits + 1 : 1;
    tryField(&Repro::DBits, R.DBits / 2, R.DBits / 2 >= FloorD);
    tryField(&Repro::DBits, R.DBits - 1, R.DBits - 1 >= FloorD);
  }
  return reproString(R);
}

bool verify::replayRepro(const std::string &Text, std::string *DetailOut) {
  Repro R;
  if (!parseRepro(Text, R)) {
    if (DetailOut)
      *DetailOut = "malformed repro string: " + Text;
    return false;
  }
  return checkOne(R, DetailOut);
}

void verify::fuzzJsonInto(telemetry::json::Writer &Wr,
                          const FuzzReport &Report) {
  Wr.beginObject()
      .key("seed")
      .value(Report.Seed)
      .key("requested_seconds")
      .value(Report.RequestedSeconds)
      .key("elapsed_seconds")
      .value(Report.ElapsedSeconds)
      .key("rounds")
      .value(Report.Rounds)
      .key("checks")
      .value(Report.checks())
      .key("mismatches")
      .value(Report.mismatches())
      .key("clean")
      .value(Report.clean())
      .key("widths")
      .beginArray();
  for (const VerifyReport &PerWidth : Report.PerWidth)
    reportJsonInto(Wr, PerWidth);
  Wr.endArray().key("failures").beginArray();
  for (const std::string &F : Report.Failures)
    Wr.value(F);
  Wr.endArray().endObject();
}

std::string verify::fuzzJson(const FuzzReport &Report) {
  json::Writer Wr;
  fuzzJsonInto(Wr, Report);
  return Wr.str();
}
