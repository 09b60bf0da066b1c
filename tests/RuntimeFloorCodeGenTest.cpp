//===- tests/RuntimeFloorCodeGenTest.cpp - §6 runtime identity codegen ----===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "codegen/DivCodeGen.h"
#include "codegen/DivisionLowering.h"

#include "arch/CostModel.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

#include <random>

using namespace gmdiv;
using namespace gmdiv::codegen;
using namespace gmdiv::ir;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0xf0e9d8c7b6a59483ull);
  return Generator;
}

int64_t refFloorDiv(int64_t N, int64_t D) {
  const int64_t Quotient = N / D;
  if (N % D != 0 && ((N % D < 0) != (D < 0)))
    return Quotient - 1;
  return Quotient;
}

/// n - d*floor(n/d), the (6.2) modulo, computed in uint64_t: the
/// product d*floor(n/d) can leave int64_t even though the difference
/// cannot.
int64_t refFloorMod(int64_t N, int64_t D) {
  return static_cast<int64_t>(static_cast<uint64_t>(N) -
                              static_cast<uint64_t>(D) *
                                  static_cast<uint64_t>(refFloorDiv(N, D)));
}

int64_t signExtend(uint64_t Value, int Bits) {
  const uint64_t SignBit = uint64_t{1} << (Bits - 1);
  const uint64_t Mask =
      Bits == 64 ? ~uint64_t{0} : (uint64_t{1} << Bits) - 1;
  return static_cast<int64_t>(((Value & Mask) ^ SignBit) - SignBit);
}

TEST(RuntimeFloorCodeGen, Exhaustive8BothArguments) {
  const Program P = genFloorDivModRuntime(8);
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    for (int N = -128; N < 128; ++N) {
      if (N == -128 && D == -1)
        continue;
      const std::vector<uint64_t> QR =
          run(P, {static_cast<uint64_t>(N) & 0xff,
                  static_cast<uint64_t>(D) & 0xff});
      const int64_t WantQ = refFloorDiv(N, D);
      ASSERT_EQ(signExtend(QR[0], 8), WantQ)
          << "n=" << N << " d=" << D;
      ASSERT_EQ(signExtend(QR[1], 8), N - D * WantQ)
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(RuntimeFloorCodeGen, Random32And64) {
  for (int Bits : {16, 32, 64}) {
    const Program P = genFloorDivModRuntime(Bits);
    const uint64_t Mask =
        Bits == 64 ? ~uint64_t{0} : (uint64_t{1} << Bits) - 1;
    for (int I = 0; I < 20000; ++I) {
      int64_t D = signExtend(rng()() & Mask, Bits) >> (rng()() % (Bits - 1));
      if (D == 0)
        D = -3;
      const int64_t N = signExtend(rng()() & Mask, Bits);
      if (N == signExtend(uint64_t{1} << (Bits - 1), Bits) && D == -1)
        continue;
      const std::vector<uint64_t> QR =
          run(P, {static_cast<uint64_t>(N) & Mask,
                  static_cast<uint64_t>(D) & Mask});
      ASSERT_EQ(signExtend(QR[0], Bits), refFloorDiv(N, D))
          << "bits=" << Bits << " n=" << N << " d=" << D;
      ASSERT_EQ(signExtend(QR[1], Bits), refFloorMod(N, D))
          << "bits=" << Bits << " n=" << N << " d=" << D;
    }
  }
}

TEST(RuntimeFloorCodeGen, MatchesPaperCostAccounting) {
  // "The cost is 2 shifts, 3 adds/subtracts, and 2 bit-ops, plus the
  // divide" for the quotient; our SLT form trades one shift+bitop mix.
  // One DivS must remain (the actual divide), exactly one multiply for
  // the (6.2) remainder, and single digits of simple operations.
  const Program P = genFloorDivModRuntime(32);
  int Divides = 0, Multiplies = 0, Simple = 0;
  for (const Instr &I : P.instrs()) {
    switch (I.Op) {
    case Opcode::Arg:
    case Opcode::Const:
      break;
    case Opcode::DivS:
      ++Divides;
      break;
    case Opcode::MulL:
      ++Multiplies;
      break;
    default:
      ++Simple;
      break;
    }
  }
  EXPECT_EQ(Divides, 1);
  EXPECT_EQ(Multiplies, 1);
  EXPECT_LE(Simple, 14); // ~7 for the quotient, ~7 for the (6.2) modulo.
  // And the lowering pass leaves the runtime divide alone.
  LoweringStats Stats;
  const Program Lowered = lowerDivisions(P, GenOptions(), &Stats);
  EXPECT_EQ(Stats.RuntimeDivisorsKept, 1);
  EXPECT_EQ(Stats.total(), 0);
  for (int I = 0; I < 1000; ++I) {
    const uint64_t N = rng()();
    uint64_t D = rng()();
    if ((D & 0xffffffff) == 0)
      D = 5;
    ASSERT_EQ(run(P, {N & 0xffffffff, D & 0xffffffff}),
              run(Lowered, {N & 0xffffffff, D & 0xffffffff}));
  }
}

} // namespace
