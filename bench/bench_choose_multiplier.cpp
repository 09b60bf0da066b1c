//===- bench/bench_choose_multiplier.cpp - Figure 6.2 ablation ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablations for the two improvements inside the multiplier-selection
// machinery:
//   1. the lowest-terms reduction loop in Figure 6.2 (how often it fires
//      and how much shift it saves), and
//   2. the even-divisor pre-shift of Figure 4.2 (how many divisors that
//      rescues from the long three-add sequence).
// Plus the raw setup cost of chooseMultiplier per width — the "loop
// header cost" §10 warns about for run-time invariant divisors.
//
//===----------------------------------------------------------------------===//

#include "core/ChooseMultiplier.h"
#include "ops/Bits.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace gmdiv;

namespace {

void printAblationCensus() {
  // Census over all 16-bit divisors: how many need the long sequence
  // with vs without the even-divisor improvement, and the distribution
  // of post-shift reductions.
  int LongWithout = 0, LongWith = 0, OddLong = 0;
  int ReductionFired = 0;
  long TotalReduction = 0;
  for (uint32_t D = 2; D <= 0xffff; ++D) {
    const uint16_t DWord = static_cast<uint16_t>(D);
    if (isPowerOf2(DWord))
      continue;
    const MultiplierInfo<uint16_t> Info = chooseMultiplier<uint16_t>(
        DWord, 16);
    const bool Long = !Info.fitsInWord();
    LongWithout += Long;
    if (Long && (D & 1) == 0) {
      const int E = countTrailingZeros(DWord);
      const MultiplierInfo<uint16_t> Retry = chooseMultiplier<uint16_t>(
          static_cast<uint16_t>(D >> E), 16 - E);
      LongWith += !Retry.fitsInWord(); // Should never happen.
    } else {
      LongWith += Long;
      OddLong += Long && (D & 1);
    }
    if (Info.ShiftPost < Info.Log2Ceil) {
      ++ReductionFired;
      TotalReduction += Info.Log2Ceil - Info.ShiftPost;
    }
  }
  std::printf("\n=== Figure 6.2 / 4.2 ablation census (all 16-bit "
              "divisors) ===\n");
  std::printf("divisors needing the long sequence without the even-"
              "divisor improvement: %d\n",
              LongWithout);
  std::printf("divisors still needing it with the improvement:           "
              "          %d (all odd: %s)\n",
              LongWith, LongWith == OddLong ? "yes" : "NO");
  std::printf("lowest-terms reduction fired for %d divisors, saving %.2f "
              "shift bits on average\n",
              ReductionFired,
              ReductionFired ? static_cast<double>(TotalReduction) /
                                   ReductionFired
                             : 0.0);
  std::printf("=== host setup-cost measurements below ===\n\n");
}

void BM_ChooseMultiplier16(benchmark::State &State) {
  uint16_t D = 3;
  for (auto _ : State) {
    benchmark::DoNotOptimize(chooseMultiplier<uint16_t>(D, 16));
    D = static_cast<uint16_t>(D * 2 + 1);
    if (D == 0)
      D = 3;
  }
}
BENCHMARK(BM_ChooseMultiplier16);

void BM_ChooseMultiplier32(benchmark::State &State) {
  uint32_t D = 3;
  for (auto _ : State) {
    benchmark::DoNotOptimize(chooseMultiplier<uint32_t>(D, 32));
    D = D * 2 + 1;
    if (D == 0)
      D = 3;
  }
}
BENCHMARK(BM_ChooseMultiplier32);

void BM_ChooseMultiplier64(benchmark::State &State) {
  // The expensive one: needs the from-scratch 128-bit divide.
  uint64_t D = 3;
  for (auto _ : State) {
    benchmark::DoNotOptimize(chooseMultiplier<uint64_t>(D, 64));
    D = D * 2 + 1;
    if (D == 0)
      D = 3;
  }
}
BENCHMARK(BM_ChooseMultiplier64);

void BM_ChooseMultiplierSigned32(benchmark::State &State) {
  uint32_t D = 3;
  for (auto _ : State) {
    benchmark::DoNotOptimize(chooseMultiplier<uint32_t>(D, 31));
    D = D * 2 + 1;
    if (D == 0)
      D = 3;
  }
}
BENCHMARK(BM_ChooseMultiplierSigned32);

} // namespace

GMDIV_BENCH_MAIN(choose_multiplier, printAblationCensus)
