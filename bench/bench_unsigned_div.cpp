//===- bench/bench_unsigned_div.cpp - §4 ablation -------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for §4 / Figure 4.1: hardware divide vs the invariant divider
// across the divisor gallery (small odd, even with pre-shift, power of
// two, the rare 641, and large divisors), at 32 and 64 bits. The shape
// to reproduce: the divider wins for every divisor on machines where
// divide latency exceeds multiply latency (all of Table 1.1 and every
// modern x86), with powers of two essentially free.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

// Dependent chains again: quotient feeds the next dividend, exposing
// latency rather than throughput.

void BM_Hardware32(benchmark::State &State) {
  volatile uint32_t DVolatile = static_cast<uint32_t>(State.range(0));
  const uint32_t D = DVolatile;
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = X / D + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Hardware32)
    ->Arg(3)
    ->Arg(7)
    ->Arg(10)
    ->Arg(14)
    ->Arg(128)
    ->Arg(641)
    ->Arg(1000000007);

void BM_Divider32(benchmark::State &State) {
  volatile uint32_t DVolatile = static_cast<uint32_t>(State.range(0));
  const UnsignedDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Divider32)
    ->Arg(3)
    ->Arg(7)
    ->Arg(10)
    ->Arg(14)
    ->Arg(128)
    ->Arg(641)
    ->Arg(1000000007);

void BM_Hardware64(benchmark::State &State) {
  volatile uint64_t DVolatile = static_cast<uint64_t>(State.range(0));
  const uint64_t D = DVolatile;
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = X / D + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Hardware64)->Arg(3)->Arg(10)->Arg(274177)->Arg(1000000007);

void BM_Divider64(benchmark::State &State) {
  volatile uint64_t DVolatile = static_cast<uint64_t>(State.range(0));
  const UnsignedDivider<uint64_t> Divider(DVolatile);
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Divider64)->Arg(3)->Arg(10)->Arg(274177)->Arg(1000000007);

// Throughput variant: independent divisions over a buffer (how the
// radix/hashing workloads actually use it).
void BM_HardwareThroughput64(benchmark::State &State) {
  volatile uint64_t DVolatile = 1000000007ull;
  const uint64_t D = DVolatile;
  uint64_t Values[256];
  for (int I = 0; I < 256; ++I)
    Values[I] = 0x9e3779b97f4a7c15ull * (I + 1);
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (uint64_t V : Values)
      Sum += V / D;
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_HardwareThroughput64);

void BM_DividerThroughput64(benchmark::State &State) {
  volatile uint64_t DVolatile = 1000000007ull;
  const UnsignedDivider<uint64_t> Divider(DVolatile);
  uint64_t Values[256];
  for (int I = 0; I < 256; ++I)
    Values[I] = 0x9e3779b97f4a7c15ull * (I + 1);
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (uint64_t V : Values)
      Sum += Divider.divide(V);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_DividerThroughput64);

// Initialization cost: the paper (§10) warns a loop "might need to be
// executed many times before the faster loop body outweighs the cost of
// the multiplier computation in the loop header".
void BM_DividerSetup32(benchmark::State &State) {
  uint32_t D = 3;
  for (auto _ : State) {
    const UnsignedDivider<uint32_t> Divider(D);
    benchmark::DoNotOptimize(Divider.divide(123456789u));
    D = D * 2 + 1;
    if (D == 0)
      D = 3;
  }
}
BENCHMARK(BM_DividerSetup32);

} // namespace

GMDIV_BENCH_MAIN(unsigned_div)
