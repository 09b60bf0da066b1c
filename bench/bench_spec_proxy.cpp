//===- bench/bench_spec_proxy.cpp - §11's negative result -----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// §11, faithfully including the *negative* result: "We also ran the
// integer benchmarks from SPEC 92. The improvement was negligible for
// most of the programs; the best improvement seen was only about 3%."
// Division elimination only helps code that divides; most integer code
// barely does. This bench runs two proxy workloads:
//
//   * division-poor: an LZ77-ish match/hash kernel (compress-style)
//     where the only division is a rare bucket reduction — expect ~no
//     difference between hardware divide and the divider;
//   * division-rich: the same loop with a modulus on every iteration —
//     expect the visible gap.
//
// The contrast is the reproduced claim.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace gmdiv;

namespace {

constexpr int WindowBits = 15;
constexpr uint32_t HashSize = 1 << 13;

uint32_t hash3(const uint8_t *P) {
  return (static_cast<uint32_t>(P[0]) << 10 ^
          static_cast<uint32_t>(P[1]) << 5 ^ P[2]) &
         (HashSize - 1);
}

std::vector<uint8_t> makeInput() {
  std::vector<uint8_t> Data(1 << 18);
  uint32_t State = 0x12345678;
  for (size_t I = 0; I < Data.size(); ++I) {
    State = State * 1664525 + 1013904223;
    // Skewed bytes so matches actually occur, compress-style.
    Data[I] = static_cast<uint8_t>((State >> 24) & 0x1f);
  }
  return Data;
}

/// LZ77-ish kernel. DivideEveryN controls how division-heavy it is:
/// the "rare" variant divides once per hash-table wraparound epoch,
/// the "rich" variant once per input position.
template <typename Reduce>
uint64_t lzKernel(const std::vector<uint8_t> &Data, int DivideEveryN,
                  const Reduce &ReduceFn) {
  std::vector<int32_t> Head(HashSize, -1);
  uint64_t MatchedBytes = 0;
  uint64_t Epoch = 0;
  for (size_t Pos = 0; Pos + 3 < Data.size(); ++Pos) {
    const uint32_t H = hash3(&Data[Pos]);
    const int32_t Candidate = Head[H];
    Head[H] = static_cast<int32_t>(Pos);
    if (Candidate >= 0 &&
        Pos - static_cast<size_t>(Candidate) < (1u << WindowBits)) {
      size_t Length = 0;
      while (Pos + Length < Data.size() &&
             Data[Candidate + Length] == Data[Pos + Length] &&
             Length < 64)
        ++Length;
      MatchedBytes += Length;
    }
    if (DivideEveryN == 1 ||
        (Pos & ((1u << WindowBits) - 1)) == 0) {
      // The division: bucket an epoch counter by a runtime-invariant
      // modulus (as compress's entropy accounting does occasionally).
      Epoch += ReduceFn(MatchedBytes + Pos);
    }
  }
  return MatchedBytes + Epoch;
}

const std::vector<uint8_t> &input() {
  static const std::vector<uint8_t> Data = makeInput();
  return Data;
}

void BM_DivisionPoor_Hardware(benchmark::State &State) {
  volatile uint64_t DVolatile = 8191;
  const uint64_t D = DVolatile;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        lzKernel(input(), 1 << WindowBits,
                 [&](uint64_t X) { return X % D; }));
}
BENCHMARK(BM_DivisionPoor_Hardware);

void BM_DivisionPoor_Divider(benchmark::State &State) {
  volatile uint64_t DVolatile = 8191;
  const UnsignedDivider<uint64_t> ByD(DVolatile);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        lzKernel(input(), 1 << WindowBits,
                 [&](uint64_t X) { return ByD.remainder(X); }));
}
BENCHMARK(BM_DivisionPoor_Divider);

void BM_DivisionRich_Hardware(benchmark::State &State) {
  volatile uint64_t DVolatile = 8191;
  const uint64_t D = DVolatile;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        lzKernel(input(), 1, [&](uint64_t X) { return X % D; }));
}
BENCHMARK(BM_DivisionRich_Hardware);

void BM_DivisionRich_Divider(benchmark::State &State) {
  volatile uint64_t DVolatile = 8191;
  const UnsignedDivider<uint64_t> ByD(DVolatile);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        lzKernel(input(), 1, [&](uint64_t X) { return ByD.remainder(X); }));
}
BENCHMARK(BM_DivisionRich_Divider);

} // namespace

GMDIV_BENCH_MAIN(spec_proxy)
