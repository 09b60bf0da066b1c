//===- tests/DivCodeGenTest.cpp - Figures 4.2/5.2/6.1 + §9 codegen tests --===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proves every generated sequence equals reference division by running
/// it through the exact N-bit interpreter: exhaustively at 8 bits (all
/// divisors x all dividends), densely at 16 bits, randomized at 32/64.
/// Also checks the structural claims: powers of two become single
/// shifts, d = 10 at N = 32 produces the paper's exact constants, d = 7
/// takes the long path, d = 14 pre-shifts.
///
//===----------------------------------------------------------------------===//

#include "codegen/DivCodeGen.h"

#include "ir/Interp.h"
#include "telemetry/Remarks.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

using namespace gmdiv;
using namespace gmdiv::codegen;
using namespace gmdiv::ir;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x2ffd72dbd01adfb7ull);
  return Generator;
}

uint64_t maskFor(int Bits) {
  return Bits == 64 ? ~uint64_t{0} : (uint64_t{1} << Bits) - 1;
}

int64_t signExtend(uint64_t Value, int Bits) {
  const uint64_t SignBit = uint64_t{1} << (Bits - 1);
  return static_cast<int64_t>(((Value & maskFor(Bits)) ^ SignBit) - SignBit);
}

//===----------------------------------------------------------------------===//
// Unsigned — Figure 4.2.
//===----------------------------------------------------------------------===//

TEST(DivCodeGen, UnsignedExhaustive8) {
  for (uint32_t D = 1; D < 256; ++D) {
    const Program P = genUnsignedDiv(8, D);
    for (uint32_t N = 0; N < 256; ++N)
      ASSERT_EQ(run(P, {N})[0], N / D) << "n=" << N << " d=" << D;
  }
}

TEST(DivCodeGen, UnsignedDivRemExhaustive8) {
  for (uint32_t D = 1; D < 256; ++D) {
    const Program P = genUnsignedDivRem(8, D);
    for (uint32_t N = 0; N < 256; ++N) {
      const std::vector<uint64_t> Results = run(P, {N});
      ASSERT_EQ(Results[0], N / D) << "n=" << N << " d=" << D;
      ASSERT_EQ(Results[1], N % D) << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, UnsignedAllDivisors16) {
  for (uint32_t D = 1; D <= 0xffff; ++D) {
    const Program P = genUnsignedDiv(16, D);
    const uint32_t Probe[] = {0,      1,      D - 1,  D,      D + 1,
                              0x7fff, 0x8000, 0xfffe, 0xffff, 3 * D,
                              5 * D + 1};
    for (uint32_t N : Probe) {
      if (N > 0xffff)
        continue;
      ASSERT_EQ(run(P, {N})[0], N / D) << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, UnsignedAllDividends16ForGallery) {
  for (uint32_t D : {3u, 7u, 10u, 14u, 25u, 60u, 100u, 125u, 641u, 1000u,
                     32768u, 65535u}) {
    const Program P = genUnsignedDiv(16, D);
    for (uint32_t N = 0; N <= 0xffff; ++N)
      ASSERT_EQ(run(P, {N})[0], N / D) << "n=" << N << " d=" << D;
  }
}

TEST(DivCodeGen, UnsignedRandom32And64) {
  for (int Bits : {32, 64}) {
    const uint64_t Mask = maskFor(Bits);
    for (int I = 0; I < 500; ++I) {
      uint64_t D = (rng()() >> (rng()() % Bits)) & Mask;
      if (D == 0)
        D = 1;
      const Program P = genUnsignedDiv(Bits, D);
      for (int J = 0; J < 100; ++J) {
        const uint64_t N = rng()() & Mask;
        ASSERT_EQ(run(P, {N})[0], N / D)
            << "bits=" << Bits << " n=" << N << " d=" << D;
      }
      ASSERT_EQ(run(P, {Mask})[0], Mask / D);
      ASSERT_EQ(run(P, {D})[0], 1u);
      ASSERT_EQ(run(P, {D - 1})[0], 0u);
    }
  }
}

TEST(DivCodeGen, UnsignedPowerOfTwoIsSingleShift) {
  for (int Bit = 0; Bit < 32; ++Bit) {
    const Program P = genUnsignedDiv(32, uint64_t{1} << Bit);
    // arg plus at most one srl.
    EXPECT_LE(P.operationCount(), 1) << "bit=" << Bit;
  }
}

TEST(DivCodeGen, UnsignedDivideBy10MatchesPaperConstants) {
  // §4 example: q = SRL(MULUH((2^34+1)/5, n), 3) — one multiply, one
  // shift, no pre-shift.
  const Program P = genUnsignedDiv(32, 10);
  bool SawMagic = false, SawShift3 = false;
  int Multiplies = 0;
  for (const Instr &I : P.instrs()) {
    if (I.Op == Opcode::Const && I.Imm == 3435973837u)
      SawMagic = true;
    if (I.Op == Opcode::Srl && I.Imm == 3)
      SawShift3 = true;
    if (I.Op == Opcode::MulUH || I.Op == Opcode::MulSH ||
        I.Op == Opcode::MulL)
      ++Multiplies;
  }
  EXPECT_TRUE(SawMagic);
  EXPECT_TRUE(SawShift3);
  EXPECT_EQ(Multiplies, 1);
  EXPECT_EQ(P.operationCount(), 3); // const + muluh + srl.
}

TEST(DivCodeGen, UnsignedDivideBy7UsesLongSequence) {
  // §4 example: m >= 2^32 forces t1 = MULUH(m - 2^N, n);
  // q = SRL(t1 + SRL(n - t1, 1), sh - 1).
  const Program P = genUnsignedDiv(32, 7);
  int Subs = 0, Adds = 0, Shifts = 0;
  for (const Instr &I : P.instrs()) {
    Subs += I.Op == Opcode::Sub;
    Adds += I.Op == Opcode::Add;
    Shifts += I.Op == Opcode::Srl;
  }
  EXPECT_EQ(Subs, 1);
  EXPECT_EQ(Adds, 1);
  EXPECT_EQ(Shifts, 2);
  // Cost claim of Figure 4.1: 1 multiply, 2 adds/subtracts, 2 shifts.
  EXPECT_EQ(P.operationCount(), 6); // + const.
}

TEST(DivCodeGen, UnsignedDivideBy14UsesPreShift) {
  // §4 example: q = SRL(MULUH((2^34+5)/7, SRL(n, 1)), 2).
  const Program P = genUnsignedDiv(32, 14);
  bool SawPreShift = false, SawMagic = false, SawPost2 = false;
  for (const Instr &I : P.instrs()) {
    if (I.Op == Opcode::Srl && I.Imm == 1)
      SawPreShift = true;
    if (I.Op == Opcode::Const &&
        I.Imm == ((uint64_t{1} << 34) + 5) / 7)
      SawMagic = true;
    if (I.Op == Opcode::Srl && I.Imm == 2)
      SawPost2 = true;
  }
  EXPECT_TRUE(SawPreShift);
  EXPECT_TRUE(SawMagic);
  EXPECT_TRUE(SawPost2);
}

//===----------------------------------------------------------------------===//
// Signed — Figure 5.2.
//===----------------------------------------------------------------------===//

TEST(DivCodeGen, SignedExhaustive8) {
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    const Program P = genSignedDiv(8, D);
    for (int N = -128; N < 128; ++N) {
      if (N == -128 && D == -1)
        continue;
      const uint64_t Raw = run(P, {static_cast<uint64_t>(N) & 0xff})[0];
      ASSERT_EQ(signExtend(Raw, 8), N / D) << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, SignedDivRemExhaustive8) {
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    const Program P = genSignedDivRem(8, D);
    for (int N = -128; N < 128; ++N) {
      if (N == -128 && D == -1)
        continue;
      const std::vector<uint64_t> Results =
          run(P, {static_cast<uint64_t>(N) & 0xff});
      ASSERT_EQ(signExtend(Results[0], 8), N / D)
          << "n=" << N << " d=" << D;
      ASSERT_EQ(signExtend(Results[1], 8), N % D)
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, SignedAllDividends16ForGallery) {
  for (int D : {3, -3, 5, 7, -7, 10, -10, 25, 125, 4096, -4096, 32767,
                -32768}) {
    const Program P = genSignedDiv(16, D);
    for (int N = -32768; N <= 32767; ++N) {
      if (N == -32768 && D == -1)
        continue;
      const uint64_t Raw = run(P, {static_cast<uint64_t>(N) & 0xffff})[0];
      ASSERT_EQ(signExtend(Raw, 16), N / D) << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, SignedRandom32And64) {
  for (int Bits : {32, 64}) {
    const uint64_t Mask = maskFor(Bits);
    for (int I = 0; I < 500; ++I) {
      int64_t D = signExtend(rng()() & Mask, Bits) >> (rng()() % (Bits - 1));
      if (D == 0)
        D = -5;
      const Program P = genSignedDiv(Bits, D);
      for (int J = 0; J < 100; ++J) {
        const int64_t N = signExtend(rng()() & Mask, Bits);
        if (N == signExtend(uint64_t{1} << (Bits - 1), Bits) && D == -1)
          continue;
        const uint64_t Raw =
            run(P, {static_cast<uint64_t>(N) & Mask})[0];
        ASSERT_EQ(signExtend(Raw, Bits), N / D)
            << "bits=" << Bits << " n=" << N << " d=" << D;
      }
    }
  }
}

TEST(DivCodeGen, SignedDivideBy3MatchesPaperCost) {
  // §5 example: one multiply, one shift, one subtract (plus constant).
  const Program P = genSignedDiv(32, 3);
  int Multiplies = 0, Shifts = 0, Subs = 0;
  for (const Instr &I : P.instrs()) {
    Multiplies += I.Op == Opcode::MulSH;
    Shifts += I.Op == Opcode::Sra || I.Op == Opcode::Srl;
    Subs += I.Op == Opcode::Sub;
  }
  EXPECT_EQ(Multiplies, 1);
  EXPECT_EQ(Subs, 1);
  // sh_post = 0 means no SRA beyond the XSIGN.
  bool SawMagic = false;
  for (const Instr &I : P.instrs())
    if (I.Op == Opcode::Const && I.Imm == 1431655766u)
      SawMagic = true;
  EXPECT_TRUE(SawMagic);
}

TEST(DivCodeGen, SignedPowerOfTwoSequence) {
  // Figure 5.2 power-of-two path: SRA(n + SRL(SRA(n, l-1), N-l), l).
  const Program P = genSignedDiv(32, 8);
  int Sras = 0, Srls = 0, Adds = 0;
  for (const Instr &I : P.instrs()) {
    Sras += I.Op == Opcode::Sra;
    Srls += I.Op == Opcode::Srl;
    Adds += I.Op == Opcode::Add;
  }
  EXPECT_EQ(Sras, 2);
  EXPECT_EQ(Srls, 1);
  EXPECT_EQ(Adds, 1);
  EXPECT_EQ(P.operationCount(), 4);
}

TEST(DivCodeGen, SignedByMinusOneIsNegate) {
  const Program P = genSignedDiv(32, -1);
  EXPECT_EQ(P.operationCount(), 1);
  EXPECT_EQ(P.instrs().back().Op, Opcode::Neg);
}

//===----------------------------------------------------------------------===//
// Floor — Figure 6.1.
//===----------------------------------------------------------------------===//

int64_t refFloorDiv(int64_t N, int64_t D) {
  const int64_t Quotient = N / D;
  if (N % D != 0 && ((N % D < 0) != (D < 0)))
    return Quotient - 1;
  return Quotient;
}

TEST(DivCodeGen, FloorExhaustive8) {
  for (int D = 1; D < 128; ++D) {
    const Program P = genFloorDiv(8, D);
    for (int N = -128; N < 128; ++N) {
      const uint64_t Raw = run(P, {static_cast<uint64_t>(N) & 0xff})[0];
      ASSERT_EQ(signExtend(Raw, 8), refFloorDiv(N, D))
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, FloorModExhaustive8) {
  for (int D = 1; D < 128; ++D) {
    const Program P = genFloorDivMod(8, D);
    for (int N = -128; N < 128; ++N) {
      const std::vector<uint64_t> Results =
          run(P, {static_cast<uint64_t>(N) & 0xff});
      const int64_t Mod = N - D * refFloorDiv(N, D);
      ASSERT_EQ(signExtend(Results[1], 8), Mod) << "n=" << N << " d=" << D;
      ASSERT_GE(signExtend(Results[1], 8), 0); // d > 0 => mod >= 0.
    }
  }
}

TEST(DivCodeGen, FloorAllDividends16) {
  for (int D : {3, 7, 10, 100, 641, 32767}) {
    const Program P = genFloorDiv(16, D);
    for (int N = -32768; N <= 32767; ++N) {
      const uint64_t Raw = run(P, {static_cast<uint64_t>(N) & 0xffff})[0];
      ASSERT_EQ(signExtend(Raw, 16), refFloorDiv(N, D))
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, FloorRandom32And64) {
  for (int Bits : {32, 64}) {
    const uint64_t Mask = maskFor(Bits);
    for (int I = 0; I < 500; ++I) {
      int64_t D =
          signExtend(rng()() & Mask, Bits) >> (rng()() % (Bits - 1));
      if (D <= 0)
        D = -D + 1;
      const Program P = genFloorDiv(Bits, D);
      for (int J = 0; J < 100; ++J) {
        const int64_t N = signExtend(rng()() & Mask, Bits);
        const uint64_t Raw = run(P, {static_cast<uint64_t>(N) & Mask})[0];
        ASSERT_EQ(signExtend(Raw, Bits), refFloorDiv(N, D))
            << "bits=" << Bits << " n=" << N << " d=" << D;
      }
    }
  }
}

TEST(DivCodeGen, FloorMod10MatchesPaperSequence) {
  // §6 example: nsign = XSIGN(n); q0 = MULUH((2^33+3)/5, EOR(nsign, n));
  // q = EOR(nsign, SRL(q0, 2)); r = n - q*10 (here via MULL).
  const Program P = genFloorDivMod(32, 10);
  bool SawMagic = false;
  int Eors = 0, Xsigns = 0, MulUHs = 0;
  for (const Instr &I : P.instrs()) {
    if (I.Op == Opcode::Const && I.Imm == ((uint64_t{1} << 33) + 3) / 5)
      SawMagic = true;
    Eors += I.Op == Opcode::Eor;
    Xsigns += I.Op == Opcode::Xsign;
    MulUHs += I.Op == Opcode::MulUH;
  }
  EXPECT_TRUE(SawMagic);
  EXPECT_EQ(Eors, 2);
  EXPECT_EQ(Xsigns, 1);
  EXPECT_EQ(MulUHs, 1);
}

//===----------------------------------------------------------------------===//
// §9 — exact division and divisibility.
//===----------------------------------------------------------------------===//

TEST(DivCodeGen, ExactUnsignedExhaustive8) {
  for (uint32_t D = 1; D < 256; ++D) {
    const Program P = genExactUnsignedDiv(8, D);
    for (uint32_t Q = 0; Q * D < 256; ++Q)
      ASSERT_EQ(run(P, {Q * D})[0], Q) << "q=" << Q << " d=" << D;
  }
}

TEST(DivCodeGen, ExactSignedExhaustive8) {
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    const Program P = genExactSignedDiv(8, D);
    for (int N = -128; N < 128; ++N) {
      if (N % D != 0 || (N == -128 && D == -1))
        continue;
      const uint64_t Raw = run(P, {static_cast<uint64_t>(N) & 0xff})[0];
      ASSERT_EQ(signExtend(Raw, 8), N / D) << "n=" << N << " d=" << D;
    }
  }
}

TEST(DivCodeGen, ExactDivisionHasNoHighMultiply) {
  // §9's point: exact division needs only MULL, usable on machines
  // without a high-half multiply.
  for (uint64_t D : {3ull, 12ull, 100ull, 56ull}) {
    const Program P = genExactUnsignedDiv(32, D);
    for (const Instr &I : P.instrs()) {
      EXPECT_NE(I.Op, Opcode::MulUH);
      EXPECT_NE(I.Op, Opcode::MulSH);
    }
  }
}

TEST(DivCodeGen, DivisibilityTestExhaustive8) {
  for (uint32_t D = 1; D < 256; ++D) {
    const Program P = genDivisibilityTestUnsigned(8, D);
    for (uint32_t N = 0; N < 256; ++N)
      ASSERT_EQ(run(P, {N})[0], N % D == 0 ? 1u : 0u)
          << "n=" << N << " d=" << D;
  }
}

TEST(DivCodeGen, DivisibilityTestAllDividends16) {
  for (uint32_t D : {3u, 6u, 100u, 256u, 769u}) {
    const Program P = genDivisibilityTestUnsigned(16, D);
    for (uint32_t N = 0; N <= 0xffff; ++N)
      ASSERT_EQ(run(P, {N})[0], N % D == 0 ? 1u : 0u)
          << "n=" << N << " d=" << D;
  }
}

TEST(DivCodeGen, DivisibilityTestRandom64) {
  for (int I = 0; I < 300; ++I) {
    uint64_t D = rng()() >> (rng()() % 64);
    if (D == 0)
      D = 1;
    const Program P = genDivisibilityTestUnsigned(64, D);
    for (int J = 0; J < 100; ++J) {
      const uint64_t N = rng()();
      ASSERT_EQ(run(P, {N})[0], N % D == 0 ? 1u : 0u)
          << "n=" << N << " d=" << D;
    }
    const uint64_t Multiple = (rng()() % (~uint64_t{0} / D)) * D;
    ASSERT_EQ(run(P, {Multiple})[0], 1u);
  }
}

//===----------------------------------------------------------------------===//
// Telemetry remarks: each generator names the paper case it selected.
//===----------------------------------------------------------------------===//

template <typename Fn>
std::vector<telemetry::Remark> collectRemarks(Fn &&Generate) {
  telemetry::CollectingRemarkSink Sink;
  telemetry::ScopedRemarkSink Guard(&Sink);
  Generate();
  return Sink.remarks();
}

TEST(DivCodeGen, UnsignedRemarkKindMatchesDivisorClass) {
  const struct {
    uint64_t D;
    const char *Kind;
  } Cases[] = {
      {8, "unsigned-pow2"},
      {7, "unsigned-long-form"},    // m >= 2^32 and d odd.
      {14, "unsigned-pre-shift"},   // even divisor rescued by SRL first.
      {641, "unsigned-short"},      // 641 * 6700417 = 2^32 + 1: m fits.
  };
  for (const auto &TestCase : Cases) {
    const auto Remarks =
        collectRemarks([&] { genUnsignedDiv(32, TestCase.D); });
    ASSERT_EQ(Remarks.size(), 1u) << "d=" << TestCase.D;
    EXPECT_EQ(Remarks[0].Kind, TestCase.Kind) << "d=" << TestCase.D;
    EXPECT_EQ(Remarks[0].Figure, "Figure 4.2");
    EXPECT_EQ(Remarks[0].DivisorBits, TestCase.D);
    EXPECT_FALSE(Remarks[0].IsSigned);
    EXPECT_EQ(Remarks[0].WordBits, 32);
  }
}

TEST(DivCodeGen, SignedFloorExactRemarkKinds) {
  const auto Check = [](std::vector<telemetry::Remark> Remarks,
                        const char *Kind) {
    ASSERT_EQ(Remarks.size(), 1u) << Kind;
    EXPECT_EQ(Remarks[0].Kind, Kind);
  };
  Check(collectRemarks([] { genSignedDiv(32, 1); }), "signed-unit");
  Check(collectRemarks([] { genSignedDiv(32, -8); }), "signed-pow2");
  Check(collectRemarks([] { genSignedDiv(32, 3); }), "signed-short");
  Check(collectRemarks([] { genSignedDiv(32, 7); }), "signed-add");
  Check(collectRemarks([] { genFloorDiv(32, 8); }), "floor-pow2");
  Check(collectRemarks([] { genFloorDiv(32, 10); }), "floor-short");
  Check(collectRemarks([] { genExactUnsignedDiv(32, 8); }), "exact-pow2");
  Check(collectRemarks([] { genExactUnsignedDiv(32, 12); }),
        "exact-inverse");
  Check(collectRemarks([] { genDivisibilityTestUnsigned(32, 1); }),
        "divtest-trivial");
  Check(collectRemarks([] { genDivisibilityTestUnsigned(32, 8); }),
        "divtest-pow2");
  Check(collectRemarks([] { genDivisibilityTestUnsigned(32, 12); }),
        "divtest-inverse");
}

TEST(DivCodeGen, EveryEntryPointEmitsExactlyOneRemark) {
  // The exactly-one invariant: one generated sequence, one remark, for
  // every divisor class reachable from the public entry points.
  for (uint64_t D : {1ull, 2ull, 3ull, 7ull, 10ull, 14ull, 25ull, 641ull,
                     0x80000000ull}) {
    EXPECT_EQ(collectRemarks([&] { genUnsignedDivRem(32, D); }).size(), 1u)
        << "unsigned d=" << D;
    EXPECT_EQ(collectRemarks([&] { genFloorDivMod(
                                 32, static_cast<int64_t>(D)); })
                  .size(),
              1u)
        << "floor d=" << D;
    if (D > 1) {
      EXPECT_EQ(
          collectRemarks([&] { genSignedDivRem(
                             32, -static_cast<int64_t>(D)); })
              .size(),
          1u)
          << "signed d=-" << D;
    }
  }
}

} // namespace
