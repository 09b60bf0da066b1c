//===- tests/PeepholeTest.cpp - Standalone optimizer tests ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pattern-rewrite unit tests plus a differential property test: random
/// programs, once optimized, must compute identical results on shared
/// inputs (the only acceptable notion of "optimization").
///
//===----------------------------------------------------------------------===//

#include "ir/Peephole.h"

#include "codegen/DivCodeGen.h"
#include "ir/Builder.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

#include <random>

using namespace gmdiv;
using namespace gmdiv::ir;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x3c7516dffd616b15ull);
  return Generator;
}

/// Builds a Program directly (no Builder folding) so the optimizer has
/// something to do.
Program rawProgram(int WordBits, int NumArgs,
                   const std::vector<Instr> &Instrs,
                   const std::vector<int> &Results) {
  Program P(WordBits, NumArgs);
  for (const Instr &I : Instrs)
    P.append(I);
  for (int R : Results)
    P.markResult(R);
  return P;
}

Instr makeInstr(Opcode Op, int Lhs = -1, int Rhs = -1, uint64_t Imm = 0) {
  Instr I;
  I.Op = Op;
  I.Lhs = Lhs;
  I.Rhs = Rhs;
  I.Imm = Imm;
  return I;
}

TEST(Peephole, CombinesShifts) {
  // SRL(SRL(x, 3), 4) => SRL(x, 7).
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Srl, 0, -1, 3),
       makeInstr(Opcode::Srl, 1, -1, 4)},
      {2});
  const Program Optimized = optimize(P);
  EXPECT_EQ(Optimized.operationCount(), 1);
  EXPECT_EQ(Optimized.instrs().back().Op, Opcode::Srl);
  EXPECT_EQ(Optimized.instrs().back().Imm, 7u);
  for (uint64_t N : {0ull, 1ull, 0xdeadbeefull, 0xffffffffull})
    EXPECT_EQ(run(P, {N})[0], run(Optimized, {N})[0]);
}

TEST(Peephole, OverlongShiftBecomesZero) {
  const Program P = rawProgram(
      16, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Srl, 0, -1, 9),
       makeInstr(Opcode::Srl, 1, -1, 8)},
      {2});
  const Program Optimized = optimize(P);
  // Result collapses to the constant zero.
  const Instr &Result =
      Optimized.instr(Optimized.results()[0]);
  EXPECT_EQ(Result.Op, Opcode::Const);
  EXPECT_EQ(Result.Imm, 0u);
}

TEST(Peephole, SraSaturatesAtWordWidth) {
  // SRA(SRA(x, 20), 20) => SRA(x, 31) at 32 bits.
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Sra, 0, -1, 20),
       makeInstr(Opcode::Sra, 1, -1, 20)},
      {2});
  const Program Optimized = optimize(P);
  EXPECT_EQ(Optimized.instrs().back().Imm, 31u);
  for (uint64_t N : {0x80000000ull, 0x7fffffffull, 0xffffffffull})
    EXPECT_EQ(run(P, {N})[0], run(Optimized, {N})[0]);
}

TEST(Peephole, EorSignMaskRoundTrip) {
  // EOR(s, EOR(s, x)) => x — the §6 floor pattern.
  const Program P = rawProgram(
      32, 2,
      {makeInstr(Opcode::Arg, -1, -1, 0), makeInstr(Opcode::Arg, -1, -1, 1),
       makeInstr(Opcode::Eor, 0, 1), makeInstr(Opcode::Eor, 0, 2)},
      {3});
  const Program Optimized = optimize(P);
  // Result must be argument 1 itself.
  const Instr &Result = Optimized.instr(Optimized.results()[0]);
  EXPECT_EQ(Result.Op, Opcode::Arg);
  EXPECT_EQ(Result.Imm, 1u);
}

TEST(Peephole, DoubleNotAndDoubleNeg) {
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Not, 0),
       makeInstr(Opcode::Not, 1), makeInstr(Opcode::Neg, 2),
       makeInstr(Opcode::Neg, 3)},
      {4});
  const Program Optimized = optimize(P);
  EXPECT_EQ(Optimized.operationCount(), 0);
  EXPECT_EQ(Optimized.instr(Optimized.results()[0]).Op, Opcode::Arg);
}

TEST(Peephole, XsignIdempotent) {
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Xsign, 0),
       makeInstr(Opcode::Xsign, 1)},
      {2});
  const Program Optimized = optimize(P);
  EXPECT_EQ(Optimized.operationCount(), 1);
}

TEST(Peephole, ClearedLowBitsRoundTripBecomesAnd) {
  // SUB(x, SLL(SRL(x, k), k)) => AND(x, 2^k - 1).
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Srl, 0, -1, 8),
       makeInstr(Opcode::Sll, 1, -1, 8), makeInstr(Opcode::Sub, 0, 2)},
      {3});
  const Program Optimized = optimize(P);
  const Instr &Result = Optimized.instr(Optimized.results()[0]);
  EXPECT_EQ(Result.Op, Opcode::And);
  for (uint64_t N : {0ull, 0x1234ull, 0xdeadbeefull, 0xffffffffull})
    EXPECT_EQ(run(P, {N})[0], run(Optimized, {N})[0]);
  // Mismatched shift counts must NOT rewrite.
  const Program Mismatch = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Srl, 0, -1, 8),
       makeInstr(Opcode::Sll, 1, -1, 9), makeInstr(Opcode::Sub, 0, 2)},
      {3});
  const Program Kept = optimize(Mismatch);
  for (uint64_t N : {0x1234ull, 0xdeadbeefull})
    EXPECT_EQ(run(Mismatch, {N})[0], run(Kept, {N})[0]);
}

TEST(Peephole, ShiftByZeroIsIdentity) {
  // SRL/SLL/SRA/ROR by zero all collapse to the operand — the shape a
  // sh_post of 0 leaves behind (e.g. signed division by 3 at 32 bits).
  for (Opcode Op :
       {Opcode::Srl, Opcode::Sll, Opcode::Sra, Opcode::Ror}) {
    const Program P = rawProgram(
        32, 1,
        {makeInstr(Opcode::Arg), makeInstr(Op, 0, -1, 0),
         makeInstr(Opcode::Add, 1, 1)},
        {2});
    PeepholeStats Stats;
    const Program Optimized = optimize(P, &Stats);
    for (const Instr &I : Optimized.instrs())
      EXPECT_NE(I.Op, Op) << "shift-by-zero survived";
    EXPECT_GT(Stats.total(), 0);
    for (uint64_t N : {0ull, 1ull, 0xdeadbeefull, 0xffffffffull})
      EXPECT_EQ(run(P, {N})[0], run(Optimized, {N})[0]);
  }
}

TEST(Peephole, MultiplyByOneIsIdentity) {
  // MULL(x, 1) => x, both operand orders.
  for (bool ConstOnLhs : {false, true}) {
    const Program P = rawProgram(
        32, 1,
        {makeInstr(Opcode::Arg), makeInstr(Opcode::Const, -1, -1, 1),
         ConstOnLhs ? makeInstr(Opcode::MulL, 1, 0)
                    : makeInstr(Opcode::MulL, 0, 1),
         makeInstr(Opcode::Add, 2, 2)},
        {3});
    const Program Optimized = optimize(P);
    for (const Instr &I : Optimized.instrs())
      EXPECT_NE(I.Op, Opcode::MulL) << "multiply-by-one survived";
    for (uint64_t N : {0ull, 7ull, 0xdeadbeefull, 0xffffffffull})
      EXPECT_EQ(run(P, {N})[0], run(Optimized, {N})[0]);
  }
}

TEST(Peephole, MulSHByOneBecomesSignMask) {
  // MULSH(x, 1) is the high word of sign-extended x: its sign mask.
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Const, -1, -1, 1),
       makeInstr(Opcode::MulSH, 0, 1)},
      {2});
  const Program Optimized = optimize(P);
  for (const Instr &I : Optimized.instrs())
    EXPECT_NE(I.Op, Opcode::MulSH);
  for (uint64_t N : {0ull, 7ull, 0x7fffffffull, 0x80000000ull,
                     0xffffffffull})
    EXPECT_EQ(run(P, {N})[0], run(Optimized, {N})[0]);
}

TEST(Peephole, MulSHByZeroBecomesZero) {
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Const, -1, -1, 0),
       makeInstr(Opcode::MulSH, 0, 1)},
      {2});
  const Program Optimized = optimize(P);
  const Instr &Result = Optimized.instr(Optimized.results()[0]);
  EXPECT_EQ(Result.Op, Opcode::Const);
  EXPECT_EQ(Result.Imm, 0u);
}

TEST(Peephole, SignedDivBy3CarriesNoDeadShift) {
  // d = 3 at 32 bits has sh_post == 0: the generated sequence must not
  // carry an SRA-by-zero, and re-optimizing must find nothing left.
  const Program P = codegen::genSignedDiv(32, 3);
  for (const Instr &I : P.instrs()) {
    if (I.Op == Opcode::Srl || I.Op == Opcode::Sra ||
        I.Op == Opcode::Sll) {
      EXPECT_NE(I.Imm, 0u) << "dead shift in generated code";
    }
  }
  PeepholeStats Stats;
  const Program Optimized = optimize(P, &Stats);
  EXPECT_EQ(Optimized.operationCount(), P.operationCount());
}

TEST(Peephole, DeadCodeElimination) {
  // Two expensive dead computations plus one live add.
  Program P(32, 1);
  P.append(makeInstr(Opcode::Arg));
  const int C = P.append(makeInstr(Opcode::Const, -1, -1, 77));
  P.append(makeInstr(Opcode::MulUH, 0, C)); // dead
  P.append(makeInstr(Opcode::MulSH, 0, C)); // dead
  const int Live = P.append(makeInstr(Opcode::Add, 0, C));
  P.markResult(Live);
  int Removed = 0;
  const Program Cleaned = eliminateDeadCode(P, &Removed);
  EXPECT_EQ(Removed, 2);
  EXPECT_EQ(Cleaned.operationCount(), 2); // const + add.
  EXPECT_EQ(run(Cleaned, {5})[0], 82u);
}

TEST(Peephole, StatsAreReported) {
  const Program P = rawProgram(
      32, 1,
      {makeInstr(Opcode::Arg), makeInstr(Opcode::Srl, 0, -1, 0),
       makeInstr(Opcode::Const, -1, -1, 4),
       makeInstr(Opcode::Const, -1, -1, 5), makeInstr(Opcode::Add, 2, 3),
       makeInstr(Opcode::Add, 1, 4)},
      {5});
  PeepholeStats Stats;
  const Program Optimized = optimize(P, &Stats);
  EXPECT_GT(Stats.total(), 0);
  EXPECT_EQ(run(Optimized, {100})[0], 109u);
}

//===----------------------------------------------------------------------===//
// Differential property test over random programs.
//===----------------------------------------------------------------------===//

Program randomProgram(int WordBits, int Length) {
  Program P(WordBits, 2);
  P.append(makeInstr(Opcode::Arg, -1, -1, 0));
  P.append(makeInstr(Opcode::Arg, -1, -1, 1));
  static const Opcode Pool[] = {
      Opcode::Add,  Opcode::Sub,  Opcode::Neg,   Opcode::MulL,
      Opcode::MulUH, Opcode::MulSH, Opcode::And,  Opcode::Or,
      Opcode::Eor,  Opcode::Not,  Opcode::Sll,   Opcode::Srl,
      Opcode::Sra,  Opcode::Ror,  Opcode::Xsign, Opcode::SltS,
      Opcode::SltU, Opcode::Const};
  for (int I = 0; I < Length; ++I) {
    const Opcode Op = Pool[rng()() % std::size(Pool)];
    Instr Next;
    Next.Op = Op;
    if (Op == Opcode::Const) {
      Next.Imm = rng()();
    } else {
      Next.Lhs = static_cast<int>(rng()() % P.size());
      if (!opcodeIsUnary(Op))
        Next.Rhs = static_cast<int>(rng()() % P.size());
      if (opcodeHasImmOperand(Op))
        Next.Imm = rng()() % WordBits;
    }
    P.append(std::move(Next));
  }
  // Mark a few random results, always including the last value.
  P.markResult(P.size() - 1);
  P.markResult(static_cast<int>(rng()() % P.size()));
  P.markResult(static_cast<int>(rng()() % P.size()));
  return P;
}

TEST(Peephole, DifferentialOnRandomPrograms) {
  for (int WordBits : {8, 16, 32, 64}) {
    for (int Round = 0; Round < 300; ++Round) {
      const Program P = randomProgram(WordBits, 20);
      PeepholeStats Stats;
      const Program Optimized = optimize(P, &Stats);
      EXPECT_LE(Optimized.size(), P.size());
      for (int Input = 0; Input < 20; ++Input) {
        const std::vector<uint64_t> Args = {rng()(), rng()()};
        const std::vector<uint64_t> Before = run(P, Args);
        const std::vector<uint64_t> After = run(Optimized, Args);
        ASSERT_EQ(Before, After)
            << "bits=" << WordBits << " round=" << Round;
      }
    }
  }
}

TEST(Peephole, GeneratedDividerCodeIsAlreadyOptimal) {
  // The Builder applies folding/CSE at emission, so optimizing generated
  // division sequences must find nothing (no regression in emission
  // quality).
  for (int WordBits : {8, 16, 32, 64}) {
    for (uint64_t D : {3ull, 7ull, 10ull, 14ull, 100ull}) {
      // Use headers only reachable through Builder-built programs: here
      // we rebuild the muluh-shift pattern by hand via Builder.
      Builder B(WordBits, 1);
      const int N = B.arg(0);
      const int M = B.constant(0x123457ull);
      B.markResult(B.srl(B.mulUH(M, N), 2));
      const Program P = B.take();
      PeepholeStats Stats;
      const Program Optimized = optimize(P, &Stats);
      EXPECT_EQ(Optimized.operationCount(), P.operationCount())
          << "bits=" << WordBits << " d=" << D;
    }
  }
}

} // namespace
