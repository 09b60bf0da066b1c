//===- examples/compiler_pass.cpp - The §10 lowering pass in action -------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// §10 describes integrating the algorithms into GCC's machine-
// independent code generation. This example plays the compiler: a
// "frontend" builds IR for an Adler-32-style checksum step — two
// remainders by the prime 65521 plus a byte extraction by 256 — using
// generic rem opcodes; the lowering pass then rewrites them into
// multiply sequences. We print before/after listings, verify the two
// programs agree over a sweep, and price both on the 1994 machines.
//
//===----------------------------------------------------------------------===//

#include "arch/CostModel.h"
#include "codegen/DivisionLowering.h"
#include "core/Divider.h"
#include "ir/AsmPrinter.h"
#include "ir/Builder.h"
#include "ir/Interp.h"

#include <chrono>
#include <cstdio>
#include <random>

using namespace gmdiv;

int main() {
  // Frontend output: one checksum step
  //   a' = (a + byte) % 65521,  b' = (b + a') % 65521
  // with byte = n % 256 extracted from the third input.
  ir::Builder B(32, 3);
  const int A = B.arg(0, "running sum a");
  const int Bb = B.arg(1, "running sum b");
  const int N = B.arg(2, "input word");
  const int Prime = B.constant(65521, "largest prime below 2^16");
  const int Byte = B.remU(N, B.constant(256), "low byte of the input");
  const int A2 = B.remU(B.add(A, Byte), Prime, "a' = (a + byte) mod p");
  const int B2 = B.remU(B.add(Bb, A2), Prime, "b' = (b + a') mod p");
  B.markResult(A2, "a'");
  B.markResult(B2, "b'");
  const ir::Program Frontend = B.take();

  std::printf("=== frontend IR (generic remainders) ===\n%s\n",
              ir::formatProgram(Frontend).c_str());

  codegen::LoweringStats Stats;
  const ir::Program Lowered =
      codegen::lowerDivisions(Frontend, codegen::GenOptions(), &Stats);
  std::printf("=== after the §10 lowering pass (%d divisions "
              "eliminated) ===\n%s\n",
              Stats.total(), ir::formatProgram(Lowered).c_str());

  // Equivalence sweep.
  std::mt19937_64 Rng(7);
  for (int I = 0; I < 1000000; ++I) {
    const std::vector<uint64_t> Args = {Rng() & 0xffffffff,
                                        Rng() & 0xffffffff,
                                        Rng() & 0xffffffff};
    if (ir::run(Frontend, Args) != ir::run(Lowered, Args)) {
      std::printf("MISMATCH!\n");
      return 1;
    }
  }
  std::printf("1,000,000 random checksum steps agree\n\n");

  std::printf("%-24s %12s %12s %9s\n", "architecture", "before cyc",
              "after cyc", "speedup");
  for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
    if (Profile.WordBits != 32)
      continue;
    const double Before = arch::estimateCost(Frontend, Profile).Cycles;
    const double After = arch::estimateCost(Lowered, Profile).Cycles;
    std::printf("%-24s %12.1f %12.1f %8.1fx\n", Profile.Name.c_str(),
                Before, After, Before / After);
  }

  // The run-time version of the same integration: when the divisor is
  // invariant but only known at run time, precompute the Figure 4.1
  // state once per site and run the same multiply–shift natively.
  const UnsignedDivider<uint32_t> ByPrime(65521);
  const UnsignedDivider<uint32_t> By256(256);
  std::printf("\n=== the same sites through the Figure 4.1 divider ===\n");
  std::printf("  %s\n  %s\n", ByPrime.describe().c_str(),
              By256.describe().c_str());

  const auto StepCore = [&](uint32_t &A0, uint32_t &B0, uint32_t In) {
    const uint32_t Byte = By256.remainder(In);
    A0 = ByPrime.remainder(A0 + Byte);
    B0 = ByPrime.remainder(B0 + A0);
  };

  // Agreement first, timing second.
  {
    std::vector<uint64_t> Args(3), Scratch, Results;
    uint32_t A0 = 1, B0 = 0;
    std::mt19937_64 Check(11);
    for (int I = 0; I < 100000; ++I) {
      const uint32_t In = static_cast<uint32_t>(Check());
      Args[0] = A0;
      Args[1] = B0;
      Args[2] = In;
      ir::runScratch(Frontend, Args, Scratch, Results);
      StepCore(A0, B0, In);
      if (Results[0] != A0 || Results[1] != B0) {
        std::printf("DIVIDER/IR MISMATCH!\n");
        return 1;
      }
    }
    std::printf("100,000 checksum steps agree with the frontend IR\n");
  }

  using Clock = std::chrono::steady_clock;
  constexpr int Steps = 1000000;
  const auto TimeSteps = [&](auto &&Step) {
    uint32_t A0 = 1, B0 = 0;
    uint64_t State = 0x9E3779B97F4A7C15ull;
    const auto Start = Clock::now();
    for (int I = 0; I < Steps; ++I) {
      State ^= State << 13;
      State ^= State >> 7;
      State ^= State << 17;
      Step(A0, B0, static_cast<uint32_t>(State));
    }
    const double Ns = std::chrono::duration<double, std::nano>(
                          Clock::now() - Start)
                          .count() /
                      Steps;
    // Fold the state in so the loop cannot be discarded.
    volatile uint32_t Sink = A0 ^ B0;
    (void)Sink;
    return Ns;
  };

  std::vector<uint64_t> Args(3), Scratch, Results;
  const double InterpNs = TimeSteps(
      [&](uint32_t &A0, uint32_t &B0, uint32_t In) {
        Args[0] = A0;
        Args[1] = B0;
        Args[2] = In;
        ir::runScratch(Frontend, Args, Scratch, Results);
        A0 = static_cast<uint32_t>(Results[0]);
        B0 = static_cast<uint32_t>(Results[1]);
      });
  // Volatile divisors so the C++ compiler cannot run its own version
  // of this pass: this is the div-instruction code a compiler emits
  // when the divisor is not a visible constant.
  volatile uint32_t RtPrime = 65521, Rt256 = 256;
  const double HwNs = TimeSteps(
      [&](uint32_t &A0, uint32_t &B0, uint32_t In) {
        const uint32_t Byte = In % Rt256;
        A0 = (A0 + Byte) % RtPrime;
        B0 = (B0 + A0) % RtPrime;
      });
  const double CoreNs = TimeSteps(StepCore);

  std::printf("per checksum step over %d dependent steps:\n", Steps);
  std::printf("  %-28s %8.1f ns/step\n", "frontend IR on ir::Interp",
              InterpNs);
  std::printf("  %-28s %8.1f ns/step\n", "hardware div instructions",
              HwNs);
  std::printf("  %-28s %8.1f ns/step  (%.1fx vs interpreter, %.2fx vs "
              "hardware)\n",
              "UnsignedDivider (Fig. 4.1)", CoreNs, InterpNs / CoreNs,
              HwNs / CoreNs);
  return 0;
}
