//===- bench/bench_service_registry.cpp - Registry contention bench -------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Contention profile of the service-tier DividerRegistry (src/service):
//
//   RegistryLookupHit/threads:N    lock-free hit path, shared_ptr copy
//                                  out, hot working set, N threads.
//   RegistryWithEntryHit/threads:N zero-refcount routing path
//                                  (withEntry + one remainder).
//   MutexMapLookup/threads:N       the structure the registry replaces:
//                                  one unordered_map behind one mutex.
//   RegistryAcquireHot/threads:N   acquire() when every key is already
//                                  resident (hit path + key packing).
//   RegistryAdmitChurn             cold admissions at capacity: entry
//                                  build + copy-on-write rebuild +
//                                  eviction + epoch retirement.
//   BatchSubmitPipeline            32 in-flight 4096-lane jobs through
//                                  the async front door (2 workers).
//
// The headline claim — aggregate hit-path throughput scaling from 1 to
// 16 threads — is only observable on a machine with >= 16 cores; the
// committed baseline records whatever the benchmark host provides (see
// docs/SERVICE.md for the measurement caveat). The mutex-map baseline
// is the within-host comparison: under contention it collapses while
// the lock-free path does not.
//
// Reports to BENCH_service_registry.json via bench_report.h.
//
//===----------------------------------------------------------------------===//

#include "service/BatchService.h"
#include "service/Registry.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <future>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

using namespace gmdiv;

namespace {

constexpr size_t HotKeys = 1024;

uint64_t divisorAt(size_t I) { return 2 + I; } // 1024 distinct divisors

service::DividerRegistry::Options benchOptions() {
  service::DividerRegistry::Options O;
  O.NumShards = 16;
  O.ShardCapacity = 256; // 4096 total: the hot set fits
  return O;
}

/// Shared registry preloaded with the hot working set.
service::DividerRegistry &hotRegistry() {
  static service::DividerRegistry &R = []() -> service::DividerRegistry & {
    static service::DividerRegistry Reg(benchOptions());
    for (size_t I = 0; I < HotKeys; ++I)
      Reg.acquireFor<uint64_t>(divisorAt(I));
    return Reg;
  }();
  return R;
}

/// Per-thread pseudo-random walk over the hot keys.
struct KeyWalk {
  uint64_t State;
  explicit KeyWalk(int ThreadIndex) : State(0x9e37 + ThreadIndex * 131) {}
  service::Key next() {
    State += 0x9e3779b97f4a7c15ULL;
    return service::keyFor<uint64_t>(
        divisorAt(cache::mixBits(State) % HotKeys));
  }
};

//===----------------------------------------------------------------------===//
// Hit-path lookup: lock-free vs one-mutex map
//===----------------------------------------------------------------------===//

void BM_RegistryLookupHit(benchmark::State &State) {
  service::DividerRegistry &R = hotRegistry();
  KeyWalk Walk(State.thread_index());
  uint64_t Sink = 0;
  for (auto _ : State) {
    const auto E = R.lookup(Walk.next());
    Sink += E ? E->divisorBits() : 0;
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RegistryLookupHit)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

void BM_RegistryWithEntryHit(benchmark::State &State) {
  service::DividerRegistry &R = hotRegistry();
  KeyWalk Walk(State.thread_index());
  uint64_t Sink = 0;
  for (auto _ : State) {
    R.withEntry(Walk.next(), [&](const service::DividerEntry &E) {
      Sink += E.remainderBits(0x123456789abcdefULL);
    });
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RegistryWithEntryHit)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

/// The pre-registry design: every lookup under one process-wide mutex.
void BM_MutexMapLookup(benchmark::State &State) {
  static std::mutex Mutex;
  static const std::unordered_map<service::Key,
                                  service::DividerRegistry::EntryHandle,
                                  service::KeyHash>
      Map = [] {
        std::unordered_map<service::Key,
                           service::DividerRegistry::EntryHandle,
                           service::KeyHash>
            M;
        for (size_t I = 0; I < HotKeys; ++I) {
          const service::Key K = service::keyFor<uint64_t>(divisorAt(I));
          M.emplace(K, service::makeDividerEntry(K));
        }
        return M;
      }();
  KeyWalk Walk(State.thread_index());
  uint64_t Sink = 0;
  for (auto _ : State) {
    const service::Key K = Walk.next();
    std::lock_guard<std::mutex> Lock(Mutex);
    const auto It = Map.find(K);
    Sink += It != Map.end() ? It->second->divisorBits() : 0;
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MutexMapLookup)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

void BM_RegistryAcquireHot(benchmark::State &State) {
  service::DividerRegistry &R = hotRegistry();
  KeyWalk Walk(State.thread_index());
  uint64_t Sink = 0;
  for (auto _ : State) {
    const auto E = R.acquire(Walk.next());
    Sink += E->divisorBits();
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RegistryAcquireHot)->Threads(1)->Threads(16)->UseRealTime();

//===----------------------------------------------------------------------===//
// Cold admissions at capacity
//===----------------------------------------------------------------------===//

void BM_RegistryAdmitChurn(benchmark::State &State) {
  // Tiny registry, fresh divisor every iteration: each admission pays
  // entry precompute + table rebuild + eviction + epoch retirement.
  service::DividerRegistry::Options O;
  O.NumShards = 1;
  O.ShardCapacity = 64;
  service::DividerRegistry R(O);
  uint64_t D = 1;
  for (auto _ : State) {
    const auto E = R.acquireFor<uint64_t>(2 + (D++ * 2));
    benchmark::DoNotOptimize(E.get());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RegistryAdmitChurn);

//===----------------------------------------------------------------------===//
// Async batch front door
//===----------------------------------------------------------------------===//

void BM_BatchSubmitPipeline(benchmark::State &State) {
  constexpr size_t Jobs = 32;
  constexpr size_t Lanes = 4096;
  service::DividerRegistry R(benchOptions());
  service::BatchService::Options BOpts;
  BOpts.Workers = 2;
  service::BatchService Svc(R, BOpts);

  std::vector<uint64_t> In(Lanes);
  for (size_t I = 0; I < Lanes; ++I)
    In[I] = cache::mixBits(I + 1);
  std::vector<std::vector<uint64_t>> Outs(Jobs,
                                          std::vector<uint64_t>(Lanes));
  std::vector<std::future<service::BatchResult>> Futures;
  Futures.reserve(Jobs);
  for (auto _ : State) {
    Futures.clear();
    for (size_t J = 0; J < Jobs; ++J)
      Futures.push_back(Svc.submitRemainder<uint64_t>(
          3 + (J % 61), std::span<const uint64_t>(In),
          std::span<uint64_t>(Outs[J])));
    for (auto &F : Futures)
      F.get();
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Jobs * Lanes));
}
BENCHMARK(BM_BatchSubmitPipeline)->UseRealTime();

} // namespace

GMDIV_BENCH_MAIN(service_registry)
