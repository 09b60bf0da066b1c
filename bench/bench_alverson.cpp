//===- bench/bench_alverson.cpp - Baseline comparison ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The paper's prior art: Alverson's reciprocal scheme [1] always uses an
// N+1-bit reciprocal and the long correction sequence; CHOOSE_MULTIPLIER
// (Figure 6.2) shrinks the multiplier into a machine word for most
// divisors. This bench quantifies the difference the way a compiler
// would care about it: generated-sequence operation counts over all
// 16-bit divisors, per-1994-machine cycle estimates, and host timings of
// both library forms.
//
//===----------------------------------------------------------------------===//

#include "arch/CostModel.h"
#include "codegen/DivCodeGen.h"
#include "core/AlversonDivider.h"
#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace gmdiv;

namespace {

void printComparison() {
  long GmOps = 0, AlversonOps = 0;
  int GmShorter = 0;
  for (uint32_t D = 2; D <= 0xffff; ++D) {
    const int Gm = codegen::genUnsignedDiv(16, D).operationCount();
    const int Al = codegen::genUnsignedDivAlverson(16, D).operationCount();
    GmOps += Gm;
    AlversonOps += Al;
    GmShorter += Gm < Al;
  }
  std::printf("\n=== Alverson [1] baseline vs Figure 4.2, all 16-bit "
              "divisors ===\n");
  std::printf("mean ops per division: %.2f (G&M) vs %.2f (Alverson); "
              "G&M strictly shorter for %d of 65534 divisors\n",
              static_cast<double>(GmOps) / 65534,
              static_cast<double>(AlversonOps) / 65534, GmShorter);

  std::printf("\nper-machine cycles for q = n/10 at N = 32:\n");
  std::printf("%-24s %10s %10s\n", "architecture", "G&M", "Alverson");
  const ir::Program Gm = codegen::genUnsignedDiv(32, 10);
  const ir::Program Al = codegen::genUnsignedDivAlverson(32, 10);
  for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
    if (Profile.WordBits != 32)
      continue;
    std::printf("%-24s %10.1f %10.1f\n", Profile.Name.c_str(),
                arch::estimateCost(Gm, Profile).Cycles,
                arch::estimateCost(Al, Profile).Cycles);
  }
  std::printf("\n=== host measurements below ===\n\n");
}

void BM_GmDivider32(benchmark::State &State) {
  volatile uint32_t DVolatile = 10;
  const UnsignedDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_GmDivider32);

void BM_AlversonDivider32(benchmark::State &State) {
  volatile uint32_t DVolatile = 10;
  const AlversonDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_AlversonDivider32);

void BM_GmDivider64(benchmark::State &State) {
  volatile uint64_t DVolatile = 1000000007ull;
  const UnsignedDivider<uint64_t> Divider(DVolatile);
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_GmDivider64);

void BM_AlversonDivider64(benchmark::State &State) {
  volatile uint64_t DVolatile = 1000000007ull;
  const AlversonDivider<uint64_t> Divider(DVolatile);
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_AlversonDivider64);

} // namespace

GMDIV_BENCH_MAIN(alverson, printComparison)
