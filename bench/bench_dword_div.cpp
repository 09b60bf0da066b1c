//===- bench/bench_dword_div.cpp - §8 ablation ----------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation for §8 / Figure 8.1: udword / uword division with invariant
// divisor. Compared against generic 128/128 long division (UInt128) and,
// when available, the compiler's __int128 divide — the exact
// multi-precision primitive the paper targets ("after initializations
// depending only on d, two multiplications and 20-25 simple ops").
//
//===----------------------------------------------------------------------===//

#include "core/DWordDivider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

constexpr uint64_t Divisor = 0x9e3779b97f4a7c15ull;

void BM_DWordFigure81(benchmark::State &State) {
  volatile uint64_t DVolatile = Divisor;
  const DWordDivider<uint64_t> Divider(DVolatile);
  uint64_t High = 0x123456789abcdefull % Divisor;
  uint64_t Low = 0xfedcba9876543210ull;
  for (auto _ : State) {
    auto [Q, R] = Divider.divRem(UInt128::fromHalves(High, Low));
    High = R;        // Chain: remainder becomes the next high word.
    Low = Low * 3 + Q;
    benchmark::DoNotOptimize(Low);
  }
}
BENCHMARK(BM_DWordFigure81);

void BM_DWordUInt128LongDivision(benchmark::State &State) {
  volatile uint64_t DVolatile = Divisor;
  const UInt128 D(DVolatile);
  uint64_t High = 0x123456789abcdefull % Divisor;
  uint64_t Low = 0xfedcba9876543210ull;
  for (auto _ : State) {
    auto [Q, R] = UInt128::divMod(UInt128::fromHalves(High, Low), D);
    High = R.low64();
    Low = Low * 3 + Q.low64();
    benchmark::DoNotOptimize(Low);
  }
}
BENCHMARK(BM_DWordUInt128LongDivision);

#ifdef __SIZEOF_INT128__
void BM_DWordCompilerInt128(benchmark::State &State) {
  volatile uint64_t DVolatile = Divisor;
  const unsigned __int128 D = DVolatile;
  uint64_t High = 0x123456789abcdefull % Divisor;
  uint64_t Low = 0xfedcba9876543210ull;
  for (auto _ : State) {
    const unsigned __int128 N =
        (static_cast<unsigned __int128>(High) << 64) | Low;
    const uint64_t Q = static_cast<uint64_t>(N / D);
    High = static_cast<uint64_t>(N % D);
    Low = Low * 3 + Q;
    benchmark::DoNotOptimize(Low);
  }
}
BENCHMARK(BM_DWordCompilerInt128);
#endif

// Multi-precision radix conversion: print a 256-bit number in decimal —
// the Knuth-style workload §8 exists for. One chunk division per digit.
void BM_MultiPrecisionDecimal_Figure81(benchmark::State &State) {
  volatile uint64_t TenVolatile = 10;
  const DWordDivider<uint64_t> By10(TenVolatile);
  for (auto _ : State) {
    uint64_t Limbs[4] = {0xfedcba9876543210ull, 0x0123456789abcdefull,
                         0xa5a5a5a55a5a5a5aull, 0x1111111122222222ull};
    unsigned DigitSum = 0;
    bool NonZero = true;
    while (NonZero) {
      uint64_t Remainder = 0;
      NonZero = false;
      for (int I = 3; I >= 0; --I) {
        auto [Q, R] =
            By10.divRem(UInt128::fromHalves(Remainder, Limbs[I]));
        Limbs[I] = Q;
        Remainder = R;
        NonZero |= Q != 0;
      }
      DigitSum += static_cast<unsigned>(Remainder);
    }
    benchmark::DoNotOptimize(DigitSum);
  }
}
BENCHMARK(BM_MultiPrecisionDecimal_Figure81);

// Chunked variant: one Figure 8.1 pass per 19 digits (divide by 10^19)
// instead of one per digit — the production-grade §8 application from
// core/MultiPrecision.h.
void BM_MultiPrecisionDecimal_Chunked(benchmark::State &State) {
  volatile uint64_t ChunkVolatile = 10000000000000000000ull;
  const DWordDivider<uint64_t> ByChunk(ChunkVolatile);
  for (auto _ : State) {
    uint64_t Limbs[4] = {0xfedcba9876543210ull, 0x0123456789abcdefull,
                         0xa5a5a5a55a5a5a5aull, 0x1111111122222222ull};
    unsigned DigitSum = 0;
    bool NonZero = true;
    while (NonZero) {
      uint64_t Remainder = 0;
      NonZero = false;
      for (int I = 3; I >= 0; --I) {
        auto [Q, R] =
            ByChunk.divRem(UInt128::fromHalves(Remainder, Limbs[I]));
        Limbs[I] = Q;
        Remainder = R;
        NonZero |= Q != 0;
      }
      for (int DigitIndex = 0; DigitIndex < 19; ++DigitIndex) {
        DigitSum += static_cast<unsigned>(Remainder % 10);
        Remainder /= 10; // Single-word, compiler strength-reduces.
      }
    }
    benchmark::DoNotOptimize(DigitSum);
  }
}
BENCHMARK(BM_MultiPrecisionDecimal_Chunked);

void BM_MultiPrecisionDecimal_LongDivision(benchmark::State &State) {
  volatile uint64_t TenVolatile = 10;
  const UInt128 Ten(TenVolatile);
  for (auto _ : State) {
    uint64_t Limbs[4] = {0xfedcba9876543210ull, 0x0123456789abcdefull,
                         0xa5a5a5a55a5a5a5aull, 0x1111111122222222ull};
    unsigned DigitSum = 0;
    bool NonZero = true;
    while (NonZero) {
      uint64_t Remainder = 0;
      NonZero = false;
      for (int I = 3; I >= 0; --I) {
        auto [Q, R] = UInt128::divMod(
            UInt128::fromHalves(Remainder, Limbs[I]), Ten);
        Limbs[I] = Q.low64();
        Remainder = R.low64();
        NonZero |= Limbs[I] != 0;
      }
      DigitSum += static_cast<unsigned>(Remainder);
    }
    benchmark::DoNotOptimize(DigitSum);
  }
}
BENCHMARK(BM_MultiPrecisionDecimal_LongDivision);

} // namespace

GMDIV_BENCH_MAIN(dword_div)
