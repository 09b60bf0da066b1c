//===- bench/bench_hashing.cpp - §11 SPEC-hashing proxy -------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// §11: SPEC92 gains were mostly negligible "...[but] some benchmarks
// that involve hashing show improvements up to about 30%". The division-
// heavy kernel in those codes is modulus reduction by an invariant prime
// table size. This benchmark reproduces that kernel as a whole-workload
// measurement (hash + probe + compare), so the expected improvement is a
// workload-level fraction, not the raw divide:multiply ratio.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace gmdiv;

namespace {

constexpr uint64_t TableSize = 1000003; // Prime, chosen "at run time".
constexpr int KeyCount = 400000;

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::vector<uint64_t> buildTable() {
  std::vector<uint64_t> Slots(TableSize, ~uint64_t{0});
  for (int I = 0; I < KeyCount; ++I) {
    const uint64_t Key = static_cast<uint64_t>(I) * 2654435761u + 1;
    uint64_t Slot = splitmix(Key) % TableSize;
    while (Slots[Slot] != ~uint64_t{0})
      Slot = Slot + 1 == TableSize ? 0 : Slot + 1;
    Slots[Slot] = Key;
  }
  return Slots;
}

void BM_HashLookups_HardwareModulo(benchmark::State &State) {
  const std::vector<uint64_t> Slots = buildTable();
  volatile uint64_t SizeVolatile = TableSize;
  const uint64_t Size = SizeVolatile;
  for (auto _ : State) {
    int Found = 0;
    for (int I = 0; I < KeyCount; ++I) {
      const uint64_t Key = static_cast<uint64_t>(I) * 2654435761u + 1;
      uint64_t Slot = splitmix(Key) % Size;
      while (Slots[Slot] != ~uint64_t{0}) {
        if (Slots[Slot] == Key) {
          ++Found;
          break;
        }
        Slot = Slot + 1 == Size ? 0 : Slot + 1;
      }
    }
    benchmark::DoNotOptimize(Found);
  }
}
BENCHMARK(BM_HashLookups_HardwareModulo);

void BM_HashLookups_DividerModulo(benchmark::State &State) {
  const std::vector<uint64_t> Slots = buildTable();
  volatile uint64_t SizeVolatile = TableSize;
  const UnsignedDivider<uint64_t> BySize(SizeVolatile);
  const uint64_t Size = SizeVolatile;
  for (auto _ : State) {
    int Found = 0;
    for (int I = 0; I < KeyCount; ++I) {
      const uint64_t Key = static_cast<uint64_t>(I) * 2654435761u + 1;
      uint64_t Slot = BySize.remainder(splitmix(Key));
      while (Slots[Slot] != ~uint64_t{0}) {
        if (Slots[Slot] == Key) {
          ++Found;
          break;
        }
        Slot = Slot + 1 == Size ? 0 : Slot + 1;
      }
    }
    benchmark::DoNotOptimize(Found);
  }
}
BENCHMARK(BM_HashLookups_DividerModulo);

// The bare reduction, to show where the workload-level gain comes from.
void BM_BareReduction_Hardware(benchmark::State &State) {
  volatile uint64_t SizeVolatile = TableSize;
  const uint64_t Size = SizeVolatile;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (auto _ : State) {
    X = splitmix(X) % Size + (X << 32);
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_BareReduction_Hardware);

void BM_BareReduction_Divider(benchmark::State &State) {
  volatile uint64_t SizeVolatile = TableSize;
  const UnsignedDivider<uint64_t> BySize(SizeVolatile);
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (auto _ : State) {
    X = BySize.remainder(splitmix(X)) + (X << 32);
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_BareReduction_Divider);

} // namespace

GMDIV_BENCH_MAIN(hashing)
