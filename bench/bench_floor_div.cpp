//===- bench/bench_floor_div.cpp - §6 ablation ----------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for §6: floor division (round toward -infinity). The paper's
// branch-free Figure 6.1 sequence for d > 0 versus (a) the naive
// idiv-plus-branch fixup and (b) the paper's §6 worked example, the
// nonnegative n mod 10.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

/// Reference floor via hardware divide and a branchy fixup.
int32_t floorHardware(int32_t N, int32_t D) {
  int32_t Quotient = N / D;
  if (N % D != 0 && ((N % D < 0) != (D < 0)))
    --Quotient;
  return Quotient;
}

void BM_FloorHardware32(benchmark::State &State) {
  volatile int32_t DVolatile = static_cast<int32_t>(State.range(0));
  const int32_t D = DVolatile;
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = floorHardware(X, D) - 0x333333; // Mix of signs over iterations.
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_FloorHardware32)->Arg(7)->Arg(10)->Arg(100);

void BM_FloorDivider32(benchmark::State &State) {
  volatile int32_t DVolatile = static_cast<int32_t>(State.range(0));
  const FloorDivider<int32_t> Divider(DVolatile);
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = Divider.divide(X) - 0x333333;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_FloorDivider32)->Arg(7)->Arg(10)->Arg(100);

// §6's example: nonnegative remainder n mod 10 for signed n.
void BM_Mod10Hardware(benchmark::State &State) {
  volatile int32_t Ten = 10;
  const int32_t D = Ten;
  int32_t X = -123456789;
  for (auto _ : State) {
    int32_t R = X % D;
    if (R < 0)
      R += D;
    X = X + R + 7919;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Mod10Hardware);

void BM_Mod10Divider(benchmark::State &State) {
  volatile int32_t Ten = 10;
  const FloorDivider<int32_t> Divider(Ten);
  int32_t X = -123456789;
  for (auto _ : State) {
    X = X + Divider.modulo(X) + 7919;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Mod10Divider);

void BM_CeilDivider32(benchmark::State &State) {
  volatile int32_t DVolatile = 10;
  const CeilDivider<int32_t> Divider(DVolatile);
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = Divider.divide(X) - 0x333333;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_CeilDivider32);

} // namespace

GMDIV_BENCH_MAIN(floor_div)
