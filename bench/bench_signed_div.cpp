//===- bench/bench_signed_div.cpp - §5 ablation ---------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for §5 / Figure 5.1: signed trunc division via hardware idiv
// vs the invariant divider, including negative divisors and the
// paper's d = 3 showcase ("one multiply, one shift, one subtract").
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

void BM_SignedHardware32(benchmark::State &State) {
  volatile int32_t DVolatile = static_cast<int32_t>(State.range(0));
  const int32_t D = DVolatile;
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = X / D + 0x7ffffff0;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedHardware32)->Arg(3)->Arg(-3)->Arg(7)->Arg(10)->Arg(125);

void BM_SignedDivider32(benchmark::State &State) {
  volatile int32_t DVolatile = static_cast<int32_t>(State.range(0));
  const SignedDivider<int32_t> Divider(DVolatile);
  int32_t X = 0x7ffffff3;
  for (auto _ : State) {
    X = Divider.divide(X) + 0x7ffffff0;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedDivider32)->Arg(3)->Arg(-3)->Arg(7)->Arg(10)->Arg(125);

void BM_SignedHardware64(benchmark::State &State) {
  volatile int64_t DVolatile = static_cast<int64_t>(State.range(0));
  const int64_t D = DVolatile;
  int64_t X = 0x7ffffffffffffff3ll;
  for (auto _ : State) {
    X = X / D + 0x7ffffffffffffff0ll;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedHardware64)->Arg(3)->Arg(-10)->Arg(1000003);

void BM_SignedDivider64(benchmark::State &State) {
  volatile int64_t DVolatile = static_cast<int64_t>(State.range(0));
  const SignedDivider<int64_t> Divider(DVolatile);
  int64_t X = 0x7ffffffffffffff3ll;
  for (auto _ : State) {
    X = Divider.divide(X) + 0x7ffffffffffffff0ll;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedDivider64)->Arg(3)->Arg(-10)->Arg(1000003);

// The IBM XL anecdote from §1: signed divisions by 3, 5, 7, 9, 25, 125
// were the only ones that compiler expanded. Sweep exactly that set.
void BM_SignedDividerXlSet(benchmark::State &State) {
  volatile int32_t DVolatile = static_cast<int32_t>(State.range(0));
  const SignedDivider<int32_t> Divider(DVolatile);
  int32_t X = 123456789;
  for (auto _ : State) {
    X = Divider.divide(X) + 123456789;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SignedDividerXlSet)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Arg(25)
    ->Arg(125);

} // namespace

GMDIV_BENCH_MAIN(signed_div)
