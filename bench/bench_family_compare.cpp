//===- bench/bench_family_compare.cpp - divider family head-to-head -------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The successor families against the paper's own sequences, on the
// operations each claims to win:
//
//   * u32 quotient — narrow (Mitsunari–Hoshino 32-on-64: one 64-bit
//     multiply, no shift, no fixup) and fastmod vs GM Figure 4.1 and
//     the hardware divide; latency chains and buffer throughput.
//   * u32 divisibility — fastmod's headline (one multiply + compare,
//     LKK) vs GM remainder-and-test vs hardware %. The committed
//     baseline is the acceptance evidence that at least one successor
//     family beats GM on at least one (op, width).
//   * u64 quotient — only the full-word families run natively on a
//     64-bit host (fastmod/narrow would need 128-bit products, LKK
//     section 3), so the u64 rows are GM, roundup and hardware.
//
// Divisor 7 everywhere: odd, not a power of two, admits a word-sized
// round-up multiplier — every family is on its general path.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "core/FastModDivider.h"
#include "core/NarrowDivider.h"
#include "core/RoundUpDivider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

constexpr uint32_t D32 = 7;
constexpr uint64_t D64 = 7;

// --- u32 quotient, latency: the quotient feeds the next dividend, so
// the chain exposes the full divide latency of each family.

void BM_Latency32_Hardware(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const uint32_t D = DVolatile;
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = X / D + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency32_Hardware);

void BM_Latency32_GM(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const UnsignedDivider<uint32_t> Div(DVolatile);
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = Div.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency32_GM);

void BM_Latency32_FastMod(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const FastModDivider<uint32_t> Div(DVolatile);
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = Div.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency32_FastMod);

void BM_Latency32_RoundUp(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const RoundUpDivider<uint32_t> Div(DVolatile);
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = Div.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency32_RoundUp);

void BM_Latency32_Narrow(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const NarrowDivider<uint32_t> Div(DVolatile);
  uint32_t X = 0xfffffffbu;
  for (auto _ : State) {
    X = Div.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency32_Narrow);

// --- u32 quotient, throughput: independent divisions over a buffer
// (superscalar hosts overlap the multiplies; the shorter dependency
// trees of narrow/fastmod show up here).

uint32_t *buffer32() {
  static uint32_t Values[256];
  static bool Init = false;
  if (!Init) {
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (auto &V : Values) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      V = static_cast<uint32_t>(X >> 32);
    }
    Init = true;
  }
  return Values;
}

void BM_Throughput32_Hardware(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const uint32_t D = DVolatile;
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (int I = 0; I < 256; ++I)
      Sum += Values[I] / D;
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_Throughput32_Hardware);

void BM_Throughput32_GM(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const UnsignedDivider<uint32_t> Div(DVolatile);
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (int I = 0; I < 256; ++I)
      Sum += Div.divide(Values[I]);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_Throughput32_GM);

void BM_Throughput32_FastMod(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const FastModDivider<uint32_t> Div(DVolatile);
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (int I = 0; I < 256; ++I)
      Sum += Div.divide(Values[I]);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_Throughput32_FastMod);

void BM_Throughput32_RoundUp(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const RoundUpDivider<uint32_t> Div(DVolatile);
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (int I = 0; I < 256; ++I)
      Sum += Div.divide(Values[I]);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_Throughput32_RoundUp);

void BM_Throughput32_Narrow(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const NarrowDivider<uint32_t> Div(DVolatile);
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (int I = 0; I < 256; ++I)
      Sum += Div.divide(Values[I]);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_Throughput32_Narrow);

// --- u32 divisibility: the operation LKK built fastmod for. GM has no
// direct form — it computes the remainder and tests it.

void BM_Divisible32_Hardware(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const uint32_t D = DVolatile;
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Hits = 0;
    for (int I = 0; I < 256; ++I)
      Hits += (Values[I] % D) == 0;
    benchmark::DoNotOptimize(Hits);
  }
}
BENCHMARK(BM_Divisible32_Hardware);

void BM_Divisible32_GM(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const UnsignedDivider<uint32_t> Div(DVolatile);
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Hits = 0;
    for (int I = 0; I < 256; ++I)
      Hits += Div.remainder(Values[I]) == 0;
    benchmark::DoNotOptimize(Hits);
  }
}
BENCHMARK(BM_Divisible32_GM);

void BM_Divisible32_FastMod(benchmark::State &State) {
  volatile uint32_t DVolatile = D32;
  const FastModDivider<uint32_t> Div(DVolatile);
  const uint32_t *Values = buffer32();
  for (auto _ : State) {
    uint32_t Hits = 0;
    for (int I = 0; I < 256; ++I)
      Hits += Div.isDivisible(Values[I]);
    benchmark::DoNotOptimize(Hits);
  }
}
BENCHMARK(BM_Divisible32_FastMod);

// --- u64 quotient, latency: the families a 64-bit host can actually
// run at full width.

void BM_Latency64_Hardware(benchmark::State &State) {
  volatile uint64_t DVolatile = D64;
  const uint64_t D = DVolatile;
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = X / D + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency64_Hardware);

void BM_Latency64_GM(benchmark::State &State) {
  volatile uint64_t DVolatile = D64;
  const UnsignedDivider<uint64_t> Div(DVolatile);
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = Div.divide(X) + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency64_GM);

void BM_Latency64_RoundUp(benchmark::State &State) {
  volatile uint64_t DVolatile = D64;
  const RoundUpDivider<uint64_t> Div(DVolatile);
  uint64_t X = ~uint64_t{4};
  for (auto _ : State) {
    X = Div.divide(X) + 0xfffffffffffffff0ull;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_Latency64_RoundUp);

} // namespace

GMDIV_BENCH_MAIN(family_compare)
