//===- bench/bench_scenario_router.cpp - Registry-served shard router -----===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The §11 hash-sharding scenario promoted to the service tier: a message
// router that spreads keys over per-tenant shard counts. Each tenant has
// its own prime bucket count, so the divisor is invariant per tenant but
// unknown at compile time — the registry's home turf.
//
// Four routing strategies over the same message stream:
//
//   RouterHardwareMod       key % buckets with a runtime divisor (the
//                           unoptimized baseline).
//   RouterDirectDivider     per-tenant UnsignedDivider resolved ahead of
//                           time and held in a local table (the best
//                           case a static topology can reach).
//   RouterRegistryLookup    DividerRegistry::lookup() per message, one
//                           shared_ptr copy per route.
//   RouterRegistryWithEntry DividerRegistry::withEntry() per message —
//                           the zero-refcount path a router's hot loop
//                           should use.
//
// The gap between the two registry rows and RouterDirectDivider is the
// price of dynamic tenancy; the gap to RouterHardwareMod is the win.
//
// Reports to BENCH_scenario_router.json via bench_report.h.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "service/Registry.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

using namespace gmdiv;

namespace {

constexpr size_t Tenants = 64;
constexpr size_t Messages = 4096;

/// Distinct prime shard counts, one per tenant (cycled).
constexpr std::array<uint64_t, 16> Primes = {
    61,  127,  251,  509,  1021, 2039, 4093, 8191,
    97,  193,  389,  769,  1543, 3079, 6151, 12289};

uint64_t bucketsFor(size_t Tenant) { return Primes[Tenant % Primes.size()]; }

struct Message {
  uint32_t Tenant;
  uint64_t Hash;
};

const std::vector<Message> &stream() {
  static const std::vector<Message> S = [] {
    std::vector<Message> V(Messages);
    for (size_t I = 0; I < Messages; ++I) {
      const uint64_t M = cache::mixBits(I + 0x5eed);
      V[I] = {static_cast<uint32_t>(M % Tenants), cache::mixBits(M)};
    }
    return V;
  }();
  return S;
}

service::DividerRegistry &routerRegistry() {
  static service::DividerRegistry &R = []() -> service::DividerRegistry & {
    service::DividerRegistry::Options O;
    O.NumShards = 16;
    O.ShardCapacity = 64;
    static service::DividerRegistry Reg(O);
    for (size_t T = 0; T < Tenants; ++T)
      Reg.acquireFor<uint64_t>(bucketsFor(T));
    return Reg;
  }();
  return R;
}

//===----------------------------------------------------------------------===//
// Strategies
//===----------------------------------------------------------------------===//

void BM_RouterHardwareMod(benchmark::State &State) {
  const auto &S = stream();
  // Runtime table defeats constant-folding of the divisors.
  std::vector<uint64_t> Buckets(Tenants);
  for (size_t T = 0; T < Tenants; ++T)
    Buckets[T] = bucketsFor(T);
  volatile const uint64_t *Table = Buckets.data();
  uint64_t Sink = 0;
  for (auto _ : State) {
    for (const Message &M : S)
      Sink += M.Hash % Table[M.Tenant];
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Messages));
}
BENCHMARK(BM_RouterHardwareMod);

void BM_RouterDirectDivider(benchmark::State &State) {
  const auto &S = stream();
  std::vector<UnsignedDivider<uint64_t>> Dividers;
  Dividers.reserve(Tenants);
  for (size_t T = 0; T < Tenants; ++T)
    Dividers.emplace_back(bucketsFor(T));
  uint64_t Sink = 0;
  for (auto _ : State) {
    for (const Message &M : S)
      Sink += Dividers[M.Tenant].remainder(M.Hash);
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Messages));
}
BENCHMARK(BM_RouterDirectDivider);

void BM_RouterRegistryLookup(benchmark::State &State) {
  service::DividerRegistry &R = routerRegistry();
  const auto &S = stream();
  uint64_t Sink = 0;
  for (auto _ : State) {
    for (const Message &M : S) {
      const auto E = R.lookup(service::keyFor<uint64_t>(bucketsFor(M.Tenant)));
      Sink += E->remainderBits(M.Hash);
    }
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Messages));
}
BENCHMARK(BM_RouterRegistryLookup);

void BM_RouterRegistryWithEntry(benchmark::State &State) {
  service::DividerRegistry &R = routerRegistry();
  const auto &S = stream();
  uint64_t Sink = 0;
  for (auto _ : State) {
    for (const Message &M : S)
      R.withEntry(service::keyFor<uint64_t>(bucketsFor(M.Tenant)),
                  [&](const service::DividerEntry &E) {
                    Sink += E.remainderBits(M.Hash);
                  });
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Messages));
}
BENCHMARK(BM_RouterRegistryWithEntry);

} // namespace

GMDIV_BENCH_MAIN(scenario_router)
