//===- bench/bench_table_1_1.cpp - Table 1.1 reproduction -----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Table 1.1 compares multiplication and division times on 1985-1993
// CPUs. This binary (a) prints the encoded table — the paper's published
// numbers, which our cost model uses verbatim — and (b) measures the
// same quantity on the host CPU with dependent-chain microbenchmarks,
// demonstrating that the premise (divide is several times a multiply)
// still holds three decades later.
//
//===----------------------------------------------------------------------===//

#include "arch/Arch.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace gmdiv;

namespace {

void printPaperTable() {
  std::printf("\n=== Table 1.1 (paper values, encoded in src/arch) ===\n");
  std::printf("%-24s %5s %6s %12s %12s %7s\n", "Architecture", "bits",
              "year", "HIGH(NxN)", "N/N divide", "div:mul");
  for (const arch::ArchProfile &P : arch::table11Profiles()) {
    std::printf("%-24s %5d %6d %12s %12s %6.1fx\n", P.Name.c_str(),
                P.WordBits, P.Year, P.MulHigh.toString().c_str(),
                P.Divide.toString().c_str(),
                P.divCycles() / P.mulCycles());
  }
  std::printf("s = software, F = via FP registers, P = pipelined\n");
  std::printf("=== host measurements below (dependent chains) ===\n\n");
}

// Dependent chains: each result feeds the next operation, so the
// measured time per iteration is the instruction latency, matching how
// Table 1.1 reports cycles.

void BM_HostMul32(benchmark::State &State) {
  uint32_t X = 0x12345679u;
  for (auto _ : State) {
    X = X * 0x9e3779b9u + 1;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_HostMul32);

void BM_HostMulHigh32(benchmark::State &State) {
  uint32_t X = 0x12345679u;
  for (auto _ : State) {
    X = static_cast<uint32_t>(
            (static_cast<uint64_t>(X) * 0x9e3779b9u) >> 32) |
        1;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_HostMulHigh32);

void BM_HostDiv32(benchmark::State &State) {
  uint32_t X = 0xfffffffeu;
  volatile uint32_t D = 10; // Volatile: keep a real divide instruction.
  for (auto _ : State) {
    X = X / D + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_HostDiv32);

void BM_HostMul64(benchmark::State &State) {
  uint64_t X = 0x123456789abcdef1ull;
  for (auto _ : State) {
    X = X * 0x9e3779b97f4a7c15ull + 1;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_HostMul64);

void BM_HostDiv64(benchmark::State &State) {
  uint64_t X = ~uint64_t{1};
  volatile uint64_t D = 10;
  for (auto _ : State) {
    X = X / D + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_HostDiv64);

} // namespace

GMDIV_BENCH_MAIN(table_1_1, printPaperTable)
