//===- bench/bench_divider128.cpp - The paper's technique at N = 128 ------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The 1994 situation — dividers far slower than multipliers — is alive
// today one word size up: 128-bit division has no hardware instruction
// anywhere; compilers call a library routine (__udivti3), which is the
// modern analog of Table 1.1's "no direct hardware support; software
// implementation". Instantiating the paper's Figure 4.1 divider at
// N = 128 (UInt256 doubleword) turns an invariant 128-bit division into
// a handful of 64-bit multiplies. Compared here against (a) our generic
// 128-bit long division and (b) the compiler's __int128 divide where
// available.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "core/ExactDiv.h"
#include "wideint/UInt256.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

const UInt128 Divisor128 =
    UInt128::fromHalves(0x0000000000000003ull, 0x9e3779b97f4a7c15ull);

void BM_Div128_Figure41Divider(benchmark::State &State) {
  const UnsignedDivider<UInt128> Divider(Divisor128);
  UInt128 X = UInt128::fromHalves(0xfedcba9876543210ull,
                                  0x0123456789abcdefull);
  for (auto _ : State) {
    X = Divider.divide(X) +
        UInt128::fromHalves(0xfedcba9876543210ull, 0);
    benchmark::DoNotOptimize(&X);
  }
}
BENCHMARK(BM_Div128_Figure41Divider);

void BM_Div128_GenericLongDivision(benchmark::State &State) {
  UInt128 X = UInt128::fromHalves(0xfedcba9876543210ull,
                                  0x0123456789abcdefull);
  for (auto _ : State) {
    X = UInt128::divMod(X, Divisor128).first +
        UInt128::fromHalves(0xfedcba9876543210ull, 0);
    benchmark::DoNotOptimize(&X);
  }
}
BENCHMARK(BM_Div128_GenericLongDivision);

#ifdef __SIZEOF_INT128__
void BM_Div128_CompilerUdivti3(benchmark::State &State) {
  volatile uint64_t Hi = 0x0000000000000003ull;
  const unsigned __int128 D =
      (static_cast<unsigned __int128>(Hi) << 64) | 0x9e3779b97f4a7c15ull;
  unsigned __int128 X =
      (static_cast<unsigned __int128>(0xfedcba9876543210ull) << 64) |
      0x0123456789abcdefull;
  for (auto _ : State) {
    X = X / D +
        (static_cast<unsigned __int128>(0xfedcba9876543210ull) << 64);
    benchmark::DoNotOptimize(&X);
  }
}
BENCHMARK(BM_Div128_CompilerUdivti3);
#endif

uint64_t rngConstant() { return 0x9e3779b97f4a7c15ull; }

// Remainder-only reduction (the hashing/number-theory shape) at 128 bits.
void BM_Mod128_Figure41Divider(benchmark::State &State) {
  const UnsignedDivider<UInt128> Divider(Divisor128);
  UInt128 X = UInt128::fromHalves(0xfedcba9876543210ull,
                                  0x0123456789abcdefull);
  for (auto _ : State) {
    X = Divider.remainder(X) + UInt128::fromHalves(rngConstant(), 1);
    benchmark::DoNotOptimize(&X);
  }
}
BENCHMARK(BM_Mod128_Figure41Divider);

void BM_Mod128_GenericLongDivision(benchmark::State &State) {
  UInt128 X = UInt128::fromHalves(0xfedcba9876543210ull,
                                  0x0123456789abcdefull);
  for (auto _ : State) {
    X = UInt128::divMod(X, Divisor128).second +
        UInt128::fromHalves(rngConstant(), 1);
    benchmark::DoNotOptimize(&X);
  }
}
BENCHMARK(BM_Mod128_GenericLongDivision);

// Divisibility testing at 128 bits (§9 one size up): one MULL.
void BM_Divisible128_Section9(benchmark::State &State) {
  const ExactUnsignedDivider<UInt128> Divider(Divisor128 | UInt128(1));
  UInt128 X = UInt128::fromHalves(0xfedcba9876543210ull,
                                  0x0123456789abcdefull);
  int Count = 0;
  for (auto _ : State) {
    Count += Divider.isDivisible(X);
    X += UInt128(0x9e3779b9);
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_Divisible128_Section9);

void BM_Divisible128_LongDivision(benchmark::State &State) {
  const UInt128 D = Divisor128 | UInt128(1);
  UInt128 X = UInt128::fromHalves(0xfedcba9876543210ull,
                                  0x0123456789abcdefull);
  int Count = 0;
  for (auto _ : State) {
    Count += UInt128::divMod(X, D).second.isZero();
    X += UInt128(0x9e3779b9);
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_Divisible128_LongDivision);

} // namespace

GMDIV_BENCH_MAIN(divider128)
