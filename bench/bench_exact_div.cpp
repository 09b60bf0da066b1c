//===- bench/bench_exact_div.cpp - §9 ablation ----------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for §9: exact division (pointer subtraction) and the
// divisibility tests, against their hardware-divide equivalents, plus
// the strength-reduced (i % 100 == 0) loop the paper closes with.
//
//===----------------------------------------------------------------------===//

#include "core/ExactDiv.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

// Pointer-subtraction style exact division by a 48-byte object size.

void BM_ExactDivHardware(benchmark::State &State) {
  volatile int64_t SizeVolatile = 48;
  const int64_t Size = SizeVolatile;
  int64_t Diff = 48 * 1000000;
  for (auto _ : State) {
    Diff = (Diff / Size) * 48 + 48 * 999983;
    benchmark::DoNotOptimize(Diff);
  }
}
BENCHMARK(BM_ExactDivHardware);

void BM_ExactDivInverse(benchmark::State &State) {
  volatile int64_t SizeVolatile = 48;
  const ExactSignedDivider<int64_t> BySize(SizeVolatile);
  int64_t Diff = 48 * 1000000;
  for (auto _ : State) {
    Diff = BySize.divideExact(Diff) * 48 + 48 * 999983;
    benchmark::DoNotOptimize(Diff);
  }
}
BENCHMARK(BM_ExactDivInverse);

// Divisibility testing: n % d == 0 via hardware remainder vs the §9
// MULL-and-compare.

void BM_DivisibleHardware(benchmark::State &State) {
  volatile uint32_t DVolatile = 100;
  const uint32_t D = DVolatile;
  uint32_t X = 0;
  uint32_t Count = 0;
  for (auto _ : State) {
    Count += (X % D) == 0;
    X += 0x9e3779b9u;
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_DivisibleHardware);

void BM_DivisibleInverse(benchmark::State &State) {
  volatile uint32_t DVolatile = 100;
  const ExactUnsignedDivider<uint32_t> By100(DVolatile);
  uint32_t X = 0;
  uint32_t Count = 0;
  for (auto _ : State) {
    Count += By100.isDivisible(X);
    X += 0x9e3779b9u;
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_DivisibleInverse);

// The paper's closing loop: scan i in [0, N) counting multiples of 100.
// Three variants: %, the isDivisible test, and the fully strength-
// reduced running-test form with only an add and compare per iteration.

void BM_Loop100_Modulo(benchmark::State &State) {
  volatile int32_t DVolatile = 100;
  const int32_t D = DVolatile;
  for (auto _ : State) {
    int Count = 0;
    for (int32_t I = 0; I < 100000; ++I)
      Count += (I % D) == 0;
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_Loop100_Modulo);

void BM_Loop100_IsDivisible(benchmark::State &State) {
  volatile int32_t DVolatile = 100;
  const ExactSignedDivider<int32_t> By100(DVolatile);
  for (auto _ : State) {
    int Count = 0;
    for (int32_t I = 0; I < 100000; ++I)
      Count += By100.isDivisible(I);
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_Loop100_IsDivisible);

void BM_Loop100_StrengthReduced(benchmark::State &State) {
  // §9's emitted form: test += dinv each iteration; compare + mask.
  const uint32_t DInv =
      static_cast<uint32_t>((19ull * (1ull << 32) + 1) / 25);
  const uint32_t QMax = static_cast<uint32_t>(((1ull << 31) - 48) / 25);
  for (auto _ : State) {
    int Count = 0;
    uint32_t Test = QMax;
    for (int32_t I = 0; I < 100000; ++I, Test += DInv)
      Count += Test <= 2 * QMax && (Test & 3) == 0;
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_Loop100_StrengthReduced);

} // namespace

GMDIV_BENCH_MAIN(exact_div)
