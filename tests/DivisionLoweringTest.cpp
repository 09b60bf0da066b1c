//===- tests/DivisionLoweringTest.cpp - §10 compiler pass tests -----------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowering pass must (a) remove every constant-divisor Div/Rem,
/// (b) keep run-time divisors untouched, (c) preserve program semantics
/// exactly — verified exhaustively at 8 bits and differentially on
/// random division-heavy programs — and (d) strictly lower the cost
/// estimate on every Table 1.1 machine.
///
//===----------------------------------------------------------------------===//

#include "codegen/DivisionLowering.h"

#include "arch/CostModel.h"
#include "ir/Builder.h"
#include "ir/Interp.h"
#include "telemetry/Remarks.h"

#include <gtest/gtest.h>

#include <random>

using namespace gmdiv;
using namespace gmdiv::codegen;
using namespace gmdiv::ir;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x64b1f5d6a7c8e9fbull);
  return Generator;
}

bool hasDivision(const Program &P) {
  for (const Instr &I : P.instrs())
    if (I.Op == Opcode::DivU || I.Op == Opcode::DivS ||
        I.Op == Opcode::RemU || I.Op == Opcode::RemS)
      return true;
  return false;
}

TEST(DivisionLowering, DivideByOneFoldsBeforeThePass) {
  // x/1 and x%1 are folded by the builder itself; the pass never sees
  // them.
  Builder B(8, 1);
  const int N = B.arg(0);
  const int One = B.constant(1);
  B.markResult(B.divU(N, One), "q");
  B.markResult(B.remU(N, One), "r");
  const Program Original = B.take();
  EXPECT_FALSE(hasDivision(Original));
  LoweringStats Stats;
  const Program Lowered = lowerDivisions(Original, GenOptions(), &Stats);
  EXPECT_EQ(Stats.total(), 0);
  EXPECT_EQ(run(Lowered, {200})[0], 200u);
  EXPECT_EQ(run(Lowered, {200})[1], 0u);
}

TEST(DivisionLowering, LowersAllFourKindsExhaustive8) {
  for (int D = 2; D < 256; ++D) {
    Builder B(8, 1);
    const int N = B.arg(0);
    const int C = B.constant(static_cast<uint64_t>(D));
    B.markResult(B.divU(N, C), "qu");
    B.markResult(B.remU(N, C), "ru");
    B.markResult(B.divS(N, C), "qs");
    B.markResult(B.remS(N, C), "rs");
    const Program Original = B.take();
    LoweringStats Stats;
    const Program Lowered = lowerDivisions(Original, GenOptions(), &Stats);
    ASSERT_FALSE(hasDivision(Lowered)) << "d=" << D;
    ASSERT_EQ(Stats.total(), 4) << "d=" << D;
    for (uint64_t N0 = 0; N0 < 256; ++N0) {
      ASSERT_EQ(run(Original, {N0}), run(Lowered, {N0}))
          << "n=" << N0 << " d=" << D;
    }
  }
}

TEST(DivisionLowering, NegativeDivisorsExhaustive8) {
  for (int D = -128; D < 0; ++D) {
    Builder B(8, 1);
    const int N = B.arg(0);
    const int C = B.constant(static_cast<uint64_t>(D) & 0xff);
    B.markResult(B.divS(N, C), "q");
    B.markResult(B.remS(N, C), "r");
    const Program Original = B.take();
    const Program Lowered = lowerDivisions(Original);
    ASSERT_FALSE(hasDivision(Lowered)) << "d=" << D;
    for (uint64_t N0 = 0; N0 < 256; ++N0)
      ASSERT_EQ(run(Original, {N0}), run(Lowered, {N0}))
          << "n=" << N0 << " d=" << D;
  }
}

TEST(DivisionLowering, IntMinOverMinusOneMatchesInterpreter) {
  // Both sides define INT_MIN / -1 as INT_MIN (wrap) with remainder 0.
  Builder B(32, 1);
  const int N = B.arg(0);
  const int C = B.constant(0xffffffffull);
  B.markResult(B.divS(N, C), "q");
  B.markResult(B.remS(N, C), "r");
  const Program Original = B.take();
  const Program Lowered = lowerDivisions(Original);
  const std::vector<uint64_t> Before = run(Original, {0x80000000ull});
  const std::vector<uint64_t> After = run(Lowered, {0x80000000ull});
  EXPECT_EQ(Before, After);
  EXPECT_EQ(After[0], 0x80000000ull);
  EXPECT_EQ(After[1], 0u);
}

TEST(DivisionLowering, RuntimeDivisorsSurvive) {
  // §10: "We have not implemented any algorithm for run-time invariant
  // divisors" — non-constant divisors pass through unchanged.
  Builder B(32, 2);
  const int N = B.arg(0);
  const int D = B.arg(1);
  B.markResult(B.divU(N, D), "q");
  B.markResult(B.divU(N, B.constant(10)), "q10");
  const Program Original = B.take();
  LoweringStats Stats;
  const Program Lowered = lowerDivisions(Original, GenOptions(), &Stats);
  EXPECT_EQ(Stats.RuntimeDivisorsKept, 1);
  EXPECT_EQ(Stats.UnsignedDivsLowered, 1);
  EXPECT_TRUE(hasDivision(Lowered)); // The runtime one.
  for (int I = 0; I < 1000; ++I) {
    const uint64_t N0 = rng()() & 0xffffffffull;
    uint64_t D0 = rng()() & 0xffffffffull;
    if (D0 == 0)
      D0 = 1;
    ASSERT_EQ(run(Original, {N0, D0}), run(Lowered, {N0, D0}));
  }
}

TEST(DivisionLowering, PowerOfTwoRemainderBecomesCheap) {
  // x % 2^k lowers to shifts; the unsigned case in particular must not
  // contain any multiply.
  Builder B(32, 1);
  const int N = B.arg(0);
  B.markResult(B.remU(N, B.constant(64)), "r");
  const Program Lowered = lowerDivisions(B.take());
  for (const Instr &I : Lowered.instrs()) {
    EXPECT_NE(I.Op, Opcode::MulL);
    EXPECT_NE(I.Op, Opcode::MulUH);
  }
  for (int I = 0; I < 1000; ++I) {
    const uint64_t N0 = rng()() & 0xffffffffull;
    ASSERT_EQ(run(Lowered, {N0})[0], N0 % 64);
  }
}

TEST(DivisionLowering, SharedQuotientViaCse) {
  // n/10 and n%10 in one program share the quotient computation, the
  // Table 11.1 CSE point.
  Builder B(32, 1);
  const int N = B.arg(0);
  const int Ten = B.constant(10);
  B.markResult(B.divU(N, Ten), "q");
  B.markResult(B.remU(N, Ten), "r");
  const Program Lowered = lowerDivisions(B.take());
  int MulUHs = 0;
  for (const Instr &I : Lowered.instrs())
    MulUHs += I.Op == Opcode::MulUH;
  EXPECT_EQ(MulUHs, 1) << "quotient must be computed once";
}

TEST(DivisionLowering, DifferentialOnRandomPrograms) {
  // Random programs mixing arithmetic with constant-divisor divisions.
  for (int WordBits : {8, 16, 32, 64}) {
    const uint64_t Mask =
        WordBits == 64 ? ~uint64_t{0} : (uint64_t{1} << WordBits) - 1;
    for (int Round = 0; Round < 200; ++Round) {
      Builder B(WordBits, 2);
      std::vector<int> Values = {B.arg(0), B.arg(1)};
      for (int Step = 0; Step < 12; ++Step) {
        const int X = Values[rng()() % Values.size()];
        uint64_t D = rng()() & Mask & 0xffff;
        if (D == 0)
          D = 3;
        const int C = B.constant(D);
        switch (rng()() % 6) {
        case 0:
          Values.push_back(B.divU(X, C));
          break;
        case 1:
          Values.push_back(B.divS(X, C));
          break;
        case 2:
          Values.push_back(B.remU(X, C));
          break;
        case 3:
          Values.push_back(B.remS(X, C));
          break;
        case 4:
          Values.push_back(B.add(X, Values[rng()() % Values.size()]));
          break;
        default:
          Values.push_back(B.eor(X, Values[rng()() % Values.size()]));
          break;
        }
      }
      B.markResult(Values.back(), "out");
      B.markResult(Values[Values.size() / 2], "mid");
      const Program Original = B.take();
      LoweringStats Stats;
      const Program Lowered =
          lowerDivisions(Original, GenOptions(), &Stats);
      ASSERT_FALSE(hasDivision(Lowered));
      for (int Input = 0; Input < 30; ++Input) {
        const std::vector<uint64_t> Args = {rng()() & Mask,
                                            rng()() & Mask};
        ASSERT_EQ(run(Original, Args), run(Lowered, Args))
            << "bits=" << WordBits << " round=" << Round;
      }
    }
  }
}

TEST(DivisionLowering, CostDropsOnEveryTableMachine) {
  Builder B(32, 1);
  const int N = B.arg(0);
  const int Ten = B.constant(10);
  B.markResult(B.divU(N, Ten), "q");
  B.markResult(B.remU(N, Ten), "r");
  const Program Original = B.take();
  const Program Lowered = lowerDivisions(Original);
  for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
    const double Before = arch::estimateCost(Original, Profile).Cycles;
    const double After = arch::estimateCost(Lowered, Profile).Cycles;
    EXPECT_LT(After, Before) << Profile.Name;
  }
}

TEST(DivisionLowering, HonorsCapabilityOption) {
  Builder B(32, 1);
  const int N = B.arg(0);
  B.markResult(B.divU(N, B.constant(10)), "q");
  const Program Original = B.take();
  GenOptions Power;
  Power.MulHigh = MulHighCapability::SignedOnly;
  const Program Lowered = lowerDivisions(Original, Power);
  for (const Instr &I : Lowered.instrs())
    EXPECT_NE(I.Op, Opcode::MulUH);
  for (int I = 0; I < 1000; ++I) {
    const uint64_t N0 = rng()() & 0xffffffffull;
    ASSERT_EQ(run(Lowered, {N0})[0], N0 / 10);
  }
}


TEST(DivisionLowering, EmitsPerSiteAndSummaryRemarks) {
  Builder B(32, 2);
  const int N = B.arg(0);
  const int M = B.arg(1);
  B.markResult(B.divU(N, B.constant(12)), "q");
  B.markResult(B.remU(N, B.constant(8)), "r");
  B.markResult(B.divU(N, M), "qrt"); // Runtime divisor: kept.
  const Program Original = B.take();

  telemetry::CollectingRemarkSink Sink;
  {
    telemetry::ScopedRemarkSink Guard(&Sink);
    lowerDivisions(Original, GenOptions());
  }

  // One codegen remark for the d=12 divide, one pass remark for the
  // d=8 remainder (pure AND, no generator involved), one pass summary.
  ASSERT_EQ(Sink.remarks().size(), 3u);
  EXPECT_EQ(Sink.remarks()[0].Pass, "codegen");
  EXPECT_EQ(Sink.remarks()[0].Kind, "unsigned-short");
  EXPECT_EQ(Sink.remarks()[0].DivisorBits, 12u);
  EXPECT_EQ(Sink.remarks()[1].Pass, "lowering");
  EXPECT_EQ(Sink.remarks()[1].Kind, "unsigned-rem-pow2-mask");
  EXPECT_EQ(Sink.remarks()[1].DivisorBits, 8u);
  const telemetry::Remark &Summary = Sink.remarks()[2];
  EXPECT_EQ(Summary.Pass, "lowering");
  EXPECT_EQ(Summary.Kind, "summary");
  EXPECT_FALSE(Summary.HasDivisor);
  bool SawRuntimeKept = false;
  for (const auto &[Key, Value] : Summary.Details) {
    if (Key == "unsigned_divs") {
      EXPECT_EQ(Value, "1");
    }
    if (Key == "unsigned_rems") {
      EXPECT_EQ(Value, "1");
    }
    if (Key == "runtime_kept") {
      EXPECT_EQ(Value, "1");
      SawRuntimeKept = true;
    }
  }
  EXPECT_TRUE(SawRuntimeKept);
}

} // namespace
