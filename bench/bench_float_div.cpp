//===- bench/bench_float_div.cpp - §7 ablation ----------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for §7: exact integer quotients through floating point —
// the alternative for machines whose FP divider beats their integer
// divider (the HP PA 7000 pattern in Table 1.1). Compares integer
// hardware divide, FP divide, FP reciprocal-multiply (with the exactness
// fixup), and the §4 multiply-high divider.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "core/FloatDiv.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

void BM_IntegerHardware(benchmark::State &State) {
  volatile uint32_t DVolatile = 1000003;
  const uint32_t D = DVolatile;
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = X / D + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_IntegerHardware);

void BM_FloatDivide(benchmark::State &State) {
  volatile uint32_t DVolatile = 1000003;
  const FloatDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_FloatDivide);

void BM_FloatReciprocalWithFixup(benchmark::State &State) {
  volatile uint32_t DVolatile = 1000003;
  const FloatDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = Divider.divideViaReciprocal(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_FloatReciprocalWithFixup);

void BM_MultiplyHighDivider(benchmark::State &State) {
  volatile uint32_t DVolatile = 1000003;
  const UnsignedDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_MultiplyHighDivider);

// Signed variants.
void BM_SignedFloatDivide(benchmark::State &State) {
  volatile int32_t DVolatile = -1000003;
  const FloatDivider<int32_t> Divider(DVolatile);
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = Divider.divide(X) ^ 0x5555555;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedFloatDivide);

void BM_SignedIntegerHardware(benchmark::State &State) {
  volatile int32_t DVolatile = -1000003;
  const int32_t D = DVolatile;
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = (X / D) ^ 0x5555555;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedIntegerHardware);

} // namespace

GMDIV_BENCH_MAIN(float_div)
