//===- tests/SchedulerTest.cpp - List scheduler tests ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/Scheduler.h"

#include "arch/CostModel.h"
#include "codegen/DivCodeGen.h"
#include "codegen/DivisionLowering.h"
#include "ir/Builder.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

#include <random>

using namespace gmdiv;
using namespace gmdiv::ir;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x7b1466d3a0e5c917ull);
  return Generator;
}

double unitLatency(const Instr &I) {
  return opcodeIsLeaf(I.Op) ? 0 : 1;
}

TEST(Scheduler, PreservesSemanticsOnGeneratedPrograms) {
  const arch::ArchProfile &R3000 = arch::profileByName("MIPS R3000");
  for (int Bits : {8, 16, 32, 64}) {
    const uint64_t Mask =
        Bits == 64 ? ~uint64_t{0} : (uint64_t{1} << Bits) - 1;
    for (uint64_t D : {3ull, 7ull, 10ull, 641ull}) {
      const Program P = codegen::genUnsignedDivRem(Bits, D);
      const Program Scheduled = arch::scheduleForProfile(P, R3000);
      EXPECT_EQ(Scheduled.size(), P.size());
      for (int J = 0; J < 300; ++J) {
        const uint64_t N = rng()() & Mask;
        ASSERT_EQ(run(P, {N}), run(Scheduled, {N}))
            << "bits=" << Bits << " d=" << D;
      }
    }
  }
}

TEST(Scheduler, HoistsLongLatencyOps) {
  // Two independent chains: a multiply chain and an add chain, joined
  // at the end. Source order puts the adds first; the scheduler must
  // start the multiply as early as possible, reducing in-order cycles.
  Builder B(32, 2);
  const int X = B.arg(0);
  const int Y = B.arg(1);
  int Adds = Y;
  for (int I = 0; I < 6; ++I)
    Adds = B.add(Adds, B.constant(static_cast<uint64_t>(I + 1)));
  const int Product = B.mulUH(X, B.constant(0xcccccccd));
  B.markResult(B.eor(Adds, Product), "out");
  const Program P = B.take();

  const arch::ArchProfile &R3000 = arch::profileByName("MIPS R3000");
  const Program Scheduled = arch::scheduleForProfile(P, R3000);
  const double Before = arch::estimateInOrderCycles(P, R3000);
  const double After = arch::estimateInOrderCycles(Scheduled, R3000);
  EXPECT_LT(After, Before);
  // The multiply overlapped all six adds: completion ~= mul latency + 2.
  EXPECT_LE(After, R3000.mulCycles() + 3);
  for (int J = 0; J < 300; ++J) {
    const std::vector<uint64_t> Args = {rng()() & 0xffffffff,
                                        rng()() & 0xffffffff};
    ASSERT_EQ(run(P, Args), run(Scheduled, Args));
  }
}

TEST(Scheduler, InOrderCostBetweenPathAndSerial) {
  const arch::ArchProfile &R3000 = arch::profileByName("MIPS R3000");
  for (uint64_t D : {7ull, 10ull, 100ull}) {
    const Program P = codegen::genUnsignedDivRem(32, D);
    const double Path = arch::estimateCriticalPathCycles(P, R3000);
    const double InOrder = arch::estimateInOrderCycles(P, R3000);
    const double Serial = arch::estimateCost(P, R3000).Cycles;
    EXPECT_LE(Path, InOrder + 1e-9) << "d=" << D;
    EXPECT_LE(InOrder, Serial + P.operationCount()) << "d=" << D;
  }
}

TEST(Scheduler, DeterministicOutput) {
  const Program P = codegen::genUnsignedDivRem(32, 10);
  const Program A = scheduleProgram(P, unitLatency);
  const Program B2 = scheduleProgram(P, unitLatency);
  ASSERT_EQ(A.size(), B2.size());
  for (int Index = 0; Index < A.size(); ++Index) {
    EXPECT_EQ(A.instr(Index).Op, B2.instr(Index).Op);
    EXPECT_EQ(A.instr(Index).Imm, B2.instr(Index).Imm);
  }
}

TEST(Scheduler, RandomProgramsDifferential) {
  const arch::ArchProfile &Alpha = arch::profileByName("DEC Alpha 21064");
  for (int Round = 0; Round < 300; ++Round) {
    // Random DAG of arithmetic.
    Builder B(32, 2);
    std::vector<int> Values = {B.arg(0), B.arg(1), B.constant(rng()())};
    for (int Step = 0; Step < 15; ++Step) {
      const int A = Values[rng()() % Values.size()];
      const int C = Values[rng()() % Values.size()];
      switch (rng()() % 5) {
      case 0:
        Values.push_back(B.add(A, C));
        break;
      case 1:
        Values.push_back(B.mulL(A, C));
        break;
      case 2:
        Values.push_back(B.mulUH(A, C));
        break;
      case 3:
        Values.push_back(B.eor(A, C));
        break;
      default:
        Values.push_back(B.srl(A, static_cast<int>(rng()() % 32)));
        break;
      }
    }
    B.markResult(Values.back(), "out");
    B.markResult(Values[Values.size() / 2], "mid");
    const Program P = B.take();
    const Program Scheduled = arch::scheduleForProfile(P, Alpha);
    // Greedy critical-path list scheduling is not optimal on arbitrary
    // DAGs: the height heuristic can delay a shorter chain by a few
    // issue slots. Allow small slack; large regressions would still
    // signal a broken scheduler.
    EXPECT_LE(arch::estimateInOrderCycles(Scheduled, Alpha),
              arch::estimateInOrderCycles(P, Alpha) + 5)
        << "scheduler regressed the in-order estimate badly";
    for (int J = 0; J < 20; ++J) {
      const std::vector<uint64_t> Args = {rng()(), rng()()};
      ASSERT_EQ(run(P, Args), run(Scheduled, Args)) << Round;
    }
  }
}

TEST(Scheduler, ComposesWithLowering) {
  // The full §10-style pipeline: lower divisions, then schedule; all
  // stages preserve semantics.
  Builder B(32, 1);
  const int N = B.arg(0);
  const int Q = B.divU(N, B.constant(10));
  const int R = B.remU(N, B.constant(10));
  B.markResult(B.add(B.mulL(Q, B.constant(3)), R), "mix");
  const Program Frontend = B.take();
  const Program Lowered = codegen::lowerDivisions(Frontend);
  const Program Scheduled = arch::scheduleForProfile(
      Lowered, arch::profileByName("MIPS R4000 (32-bit ops)"));
  for (int J = 0; J < 2000; ++J) {
    const uint64_t N0 = rng()() & 0xffffffffull;
    ASSERT_EQ(run(Frontend, {N0}), run(Scheduled, {N0}));
  }
}

} // namespace
