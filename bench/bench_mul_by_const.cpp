//===- bench/bench_mul_by_const.cpp - §11 Alpha-expansion ablation --------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for the design choice behind Table 11.1's Alpha column: when
// should the magic-number multiply be strength-reduced to shifts and
// adds? Prints the synthesized cost of each divisor's multiplier next to
// every Table 1.1 machine's multiply latency (the decision threshold),
// and measures both forms on the host.
//
//===----------------------------------------------------------------------===//

#include "arch/Arch.h"
#include "codegen/MulByConst.h"
#include "core/ChooseMultiplier.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace gmdiv;

namespace {

void printDecisionTable() {
  std::printf("\n=== multiply-expansion decision table ===\n");
  std::printf("magic multipliers for 32-bit unsigned division, their "
              "shift/add cost,\nand which Table 1.1 machines would "
              "expand (cost < multiply latency):\n\n");
  std::printf("%8s %12s %9s   %s\n", "divisor", "multiplier",
              "synth ops", "machines that expand");
  for (uint32_t D : {3u, 5u, 7u, 9u, 10u, 25u, 125u, 641u, 1000u}) {
    const MultiplierInfo<uint32_t> Info = chooseMultiplier<uint32_t>(D, 32);
    const uint64_t M = static_cast<uint64_t>(Info.Multiplier);
    const int Cost = codegen::mulByConstCost(M, 64);
    std::string Expanders;
    for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
      if (Cost < Profile.mulCycles()) {
        if (!Expanders.empty())
          Expanders += ", ";
        Expanders += Profile.Name;
      }
    }
    std::printf("%8u %#12llx %9d   %s\n", D,
                static_cast<unsigned long long>(M), Cost,
                Expanders.empty() ? "(none)" : Expanders.c_str());
  }
  std::printf("\n=== host measurements below ===\n\n");
}

// Host: multiply by 0xcccccccd via imul vs via the synthesized
// shift/add chain (compiled statically here to mirror emitted code).

void BM_MulByMagic_HardwareMul(benchmark::State &State) {
  volatile uint64_t MVolatile = 0xcccccccdull;
  const uint64_t M = MVolatile;
  uint64_t X = 0x123456789ull;
  for (auto _ : State) {
    X = X * M + 1;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_MulByMagic_HardwareMul);

/// x * 0xcccccccd in six shifts/adds:
/// 0xcccccccd = 4 * 0x33333333 + 1,  0x33333333 = 3 * 0x11111111,
/// 0x11111111 = 17 * 0x01010101,     0x01010101 = (2^16+1)(2^8+1).
uint64_t mulMagicChain(uint64_t X) {
  uint64_t T = (X << 8) + X;   // * 0x101
  T = (T << 16) + T;           // * 0x01010101
  T = (T << 4) + T;            // * 0x11111111
  T = (T << 1) + T;            // * 0x33333333
  return (T << 2) + X;         // * 0xcccccccd
}

void BM_MulByMagic_ShiftAdd(benchmark::State &State) {
  if (mulMagicChain(12345) != 12345ull * 0xcccccccdull)
    State.SkipWithError("shift/add chain is wrong");
  uint64_t X = 0x123456789ull;
  for (auto _ : State) {
    X = mulMagicChain(X) + 1;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_MulByMagic_ShiftAdd);

void BM_MulBy10_HardwareMul(benchmark::State &State) {
  volatile uint64_t MVolatile = 10;
  const uint64_t M = MVolatile;
  uint64_t X = 0x123456789ull;
  for (auto _ : State) {
    X = X * M + 1;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_MulBy10_HardwareMul);

void BM_MulBy10_ShiftAdd(benchmark::State &State) {
  uint64_t X = 0x123456789ull;
  for (auto _ : State) {
    const uint64_t T = (X + (X << 2)) << 1; // (x + 4x) * 2 = 10x.
    benchmark::DoNotOptimize(T);
    X = T + 1;
  }
}
BENCHMARK(BM_MulBy10_ShiftAdd);

} // namespace

GMDIV_BENCH_MAIN(mul_by_const, printDecisionTable)
