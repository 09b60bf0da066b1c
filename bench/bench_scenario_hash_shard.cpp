//===- bench/bench_scenario_hash_shard.cpp - §11 hashing scenario ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// examples/hash_table.cpp promoted into the statistical harness. §11:
// "Some benchmarks that involve hashing show improvements up to about
// 30%." Both of its modulus-by-runtime-invariant workloads are here:
//
//   HashInsert/HashLookup   open-addressing table with a prime slot
//                           count chosen at run time — every probe is
//                           one reduction, Divider vs hardware %.
//   ShardRoute              a sharded cache's use of the same idiom:
//                           route keys to a fixed shard count by
//                           remainder.
//   HashLookupInstrumented  the divider lookup loop with a live
//                           metrics counter counting probes — pins the
//                           claim that leaving instrumentation on does
//                           not erase the §11 win.
//
// Reports to BENCH_scenario_hash_shard.json via bench_report.h.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "metrics/Metrics.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

using namespace gmdiv;

namespace {

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

constexpr uint64_t Empty = ~uint64_t{0};
constexpr uint64_t Prime = 65521;  // Table size chosen at run time.
constexpr int Keys = 40000;        // ~0.61 load factor.

uint64_t keyAt(int I) { return static_cast<uint64_t>(I) * 2654435761u; }

/// A table pre-filled with Keys entries; lookups probe this.
const std::vector<uint64_t> &filledTable() {
  static const std::vector<uint64_t> Table = [] {
    std::vector<uint64_t> Slots(Prime, Empty);
    const UnsignedDivider<uint64_t> BySize(Prime);
    for (int I = 0; I < Keys; ++I) {
      const uint64_t Key = keyAt(I);
      uint64_t Slot = BySize.remainder(splitmix(Key));
      while (Slots[Slot] != Empty)
        Slot = Slot + 1 == Prime ? 0 : Slot + 1;
      Slots[Slot] = Key;
    }
    return Slots;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// Insert phase: one reduction per insert plus linear probing
//===----------------------------------------------------------------------===//

void BM_HashInsertDivider(benchmark::State &State) {
  volatile uint64_t RuntimePrime = Prime;
  const UnsignedDivider<uint64_t> BySize(RuntimePrime);
  std::vector<uint64_t> Slots;
  for (auto _ : State) {
    Slots.assign(Prime, Empty);
    for (int I = 0; I < Keys; ++I) {
      uint64_t Slot = BySize.remainder(splitmix(keyAt(I)));
      while (Slots[Slot] != Empty)
        Slot = Slot + 1 == Prime ? 0 : Slot + 1;
      Slots[Slot] = keyAt(I);
    }
    benchmark::DoNotOptimize(Slots.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Keys);
}
BENCHMARK(BM_HashInsertDivider);

void BM_HashInsertHardware(benchmark::State &State) {
  volatile uint64_t RuntimePrime = Prime;
  std::vector<uint64_t> Slots;
  for (auto _ : State) {
    Slots.assign(Prime, Empty);
    for (int I = 0; I < Keys; ++I) {
      uint64_t Slot = splitmix(keyAt(I)) % RuntimePrime;
      while (Slots[Slot] != Empty)
        Slot = Slot + 1 == Prime ? 0 : Slot + 1;
      Slots[Slot] = keyAt(I);
    }
    benchmark::DoNotOptimize(Slots.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Keys);
}
BENCHMARK(BM_HashInsertHardware);

//===----------------------------------------------------------------------===//
// Lookup phase: the example's timed section
//===----------------------------------------------------------------------===//

void BM_HashLookupDivider(benchmark::State &State) {
  volatile uint64_t RuntimePrime = Prime;
  const UnsignedDivider<uint64_t> BySize(RuntimePrime);
  const std::vector<uint64_t> &Slots = filledTable();
  int Found = 0;
  for (auto _ : State) {
    for (int I = 0; I < Keys; ++I) {
      const uint64_t Key = keyAt(I);
      uint64_t Slot = BySize.remainder(splitmix(Key));
      while (Slots[Slot] != Empty) {
        if (Slots[Slot] == Key) {
          ++Found;
          break;
        }
        Slot = Slot + 1 == Prime ? 0 : Slot + 1;
      }
    }
    benchmark::DoNotOptimize(Found);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Keys);
}
BENCHMARK(BM_HashLookupDivider);

void BM_HashLookupHardware(benchmark::State &State) {
  volatile uint64_t RuntimePrime = Prime;
  const std::vector<uint64_t> &Slots = filledTable();
  int Found = 0;
  for (auto _ : State) {
    for (int I = 0; I < Keys; ++I) {
      const uint64_t Key = keyAt(I);
      uint64_t Slot = splitmix(Key) % RuntimePrime;
      while (Slots[Slot] != Empty) {
        if (Slots[Slot] == Key) {
          ++Found;
          break;
        }
        Slot = Slot + 1 == Prime ? 0 : Slot + 1;
      }
    }
    benchmark::DoNotOptimize(Found);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Keys);
}
BENCHMARK(BM_HashLookupHardware);

// The divider lookup loop with metrics left ON: one striped counter add
// per probe, batched per outer pass the way instrumented hot loops
// should. The gap to BM_HashLookupDivider is the price of observability
// on this workload.
void BM_HashLookupInstrumented(benchmark::State &State) {
  volatile uint64_t RuntimePrime = Prime;
  const UnsignedDivider<uint64_t> BySize(RuntimePrime);
  const std::vector<uint64_t> &Slots = filledTable();
  metrics::Counter &Probes = metrics::Registry::global().counter(
      "gmdiv_bench_hash_probes_total", "bench: hash probes executed");
  metrics::Counter &Hits = metrics::Registry::global().counter(
      "gmdiv_bench_hash_hits_total", "bench: hash lookups that hit");
  int Found = 0;
  for (auto _ : State) {
    uint64_t ProbeCount = 0;
    for (int I = 0; I < Keys; ++I) {
      const uint64_t Key = keyAt(I);
      uint64_t Slot = BySize.remainder(splitmix(Key));
      while (Slots[Slot] != Empty) {
        ++ProbeCount;
        if (Slots[Slot] == Key) {
          Hits.inc();
          ++Found;
          break;
        }
        Slot = Slot + 1 == Prime ? 0 : Slot + 1;
      }
    }
    Probes.add(ProbeCount);
    benchmark::DoNotOptimize(Found);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Keys);
}
BENCHMARK(BM_HashLookupInstrumented);

//===----------------------------------------------------------------------===//
// Shard routing: remainder by a small invariant count
//===----------------------------------------------------------------------===//
//
// A sharded cache can route keys to shards the same way the hash table
// picks slots: a remainder by a count fixed at construction. 4096 keys
// per pass, 13 shards (prime).

constexpr size_t RouteCount = 4096;
constexpr uint64_t NumShards = 13;

void BM_ShardRouteDivider(benchmark::State &State) {
  volatile uint64_t RuntimeShards = NumShards;
  const UnsignedDivider<uint64_t> ByShards(RuntimeShards);
  std::vector<uint32_t> Histogram(NumShards, 0);
  for (auto _ : State) {
    for (size_t I = 0; I < RouteCount; ++I)
      ++Histogram[ByShards.remainder(splitmix(I))];
    benchmark::DoNotOptimize(Histogram.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(RouteCount));
}
BENCHMARK(BM_ShardRouteDivider);

void BM_ShardRouteHardware(benchmark::State &State) {
  volatile uint64_t RuntimeShards = NumShards;
  std::vector<uint32_t> Histogram(NumShards, 0);
  for (auto _ : State) {
    for (size_t I = 0; I < RouteCount; ++I)
      ++Histogram[splitmix(I) % RuntimeShards];
    benchmark::DoNotOptimize(Histogram.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(RouteCount));
}
BENCHMARK(BM_ShardRouteHardware);

} // namespace

GMDIV_BENCH_MAIN(scenario_hash_shard)
