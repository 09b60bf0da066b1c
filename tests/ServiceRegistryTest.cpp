//===- tests/ServiceRegistryTest.cpp - Divider registry contracts ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Contracts of the service tier (src/service): key validation, the
// environment knobs' ranges, compile-once admission under contention,
// lock-free lookup counters, LRU eviction liveness, bit-for-bit
// agreement with the core dividers, the async batch front door's
// ordering and error paths, its inline and helping guards and the
// paths they choose between (in place too), and the metrics-plane
// export.
// The TSan CI leg runs this whole file; MixedContentionStress,
// ConcurrentSubmittersMixInlineAndQueued and
// ReadersNeverSeeAWrongEntryDuringEviction at the bottom are the
// data-race hammers.
//
//===----------------------------------------------------------------------===//

#include "service/BatchService.h"
#include "service/DividerEntry.h"
#include "service/Epoch.h"
#include "service/Key.h"
#include "service/Registry.h"

#include "core/Divider.h"
#include "metrics/Metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gmdiv {
namespace service {
namespace {

uint64_t splitmix(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  return cache::mixBits(State);
}

DividerRegistry::Options smallOptions(size_t Shards, size_t Capacity) {
  DividerRegistry::Options O;
  O.NumShards = Shards;
  O.ShardCapacity = Capacity;
  O.SampleEvery = 1; // deterministic recency stamps for LRU tests
  return O;
}

/// u32 keys whose home bucket, in a one-shard table of \p Buckets
/// slots, is one of its last two slots or its first: they form long
/// clusters that wrap the table end, so every eviction's backward shift
/// moves entries across the wrap.
std::vector<Key> wrappingClusterKeys(size_t Count, uint64_t Buckets) {
  std::vector<Key> Keys;
  for (uint32_t D = 1; Keys.size() < Count; ++D) {
    const Key K = keyFor<uint32_t>(D);
    const uint64_t Home = KeyHash()(K) & (Buckets - 1);
    if (Home + 2 >= Buckets || Home == 0)
      Keys.push_back(K);
  }
  return Keys;
}

/// The entry is the one asked for and divides like hardware.
bool dividesAs(const DividerEntry &E, const Key &K) {
  const uint32_t N = 0xfedcba98u;
  return E.key() == K &&
         E.divide<uint32_t>(N) == N / static_cast<uint32_t>(K.DivisorBits);
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

TEST(ServiceKey, KeyForBuildsCanonicalKeys) {
  const Key U = keyFor<uint32_t>(7);
  EXPECT_EQ(U.Kind, OpKind::Unsigned);
  EXPECT_EQ(U.WordBits, 32);
  EXPECT_EQ(U.DivisorBits, 7u);
  EXPECT_TRUE(U.valid());
  EXPECT_EQ(U.describe(), "u32/7");

  const Key S = keyFor<int16_t>(-3);
  EXPECT_EQ(S.Kind, OpKind::Signed);
  EXPECT_EQ(S.WordBits, 16);
  EXPECT_EQ(S.DivisorBits, 0xfffdu); // -3 masked to 16 bits
  EXPECT_TRUE(S.valid());
  EXPECT_EQ(S.describe(), "i16/-3");
}

TEST(ServiceKey, ValidRejectsZeroBadWidthAndStrayBits) {
  EXPECT_FALSE(keyFor<uint32_t>(0).valid());
  EXPECT_FALSE((Key{OpKind::Unsigned, 24, 7}).valid());
  EXPECT_FALSE((Key{OpKind::Unsigned, 16, 0x10000}).valid());
  EXPECT_TRUE((Key{OpKind::Unsigned, 64, ~0ull}).valid());
  // INT_MIN-magnitude divisor is admissible (SignedDivider accepts it).
  EXPECT_TRUE(keyFor<int8_t>(int8_t(-128)).valid());
}

TEST(ServiceRegistry, InvalidKeysAreRejectedNotCached) {
  DividerRegistry R(smallOptions(1, 8));
  EXPECT_EQ(R.acquire(keyFor<uint32_t>(0)), nullptr);
  EXPECT_EQ(R.lookup(Key{OpKind::Unsigned, 13, 5}), nullptr);
  EXPECT_EQ(R.invalidKeys(), 2u);
  EXPECT_EQ(R.size(), 0u);
  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Hits + St.Misses, 0u); // rejected before counting
}

//===----------------------------------------------------------------------===//
// Environment knobs
//===----------------------------------------------------------------------===//

TEST(ServiceOptions, FromEnvClampsEveryKnobToItsRange) {
  // Only Options are built from these values, never a registry or a
  // service: unclamped, the shard capacity would hang the registry's
  // constructor, the shard count would allocate 2^62 shards and the
  // worker count would start a million threads.
  using RO = DividerRegistry::Options;
  using SO = BatchService::Options;
  const char *const Knobs[] = {
      "GMDIV_SERVICE_SHARDS", "GMDIV_SERVICE_SHARD_CAPACITY",
      "GMDIV_SERVICE_SAMPLE", "GMDIV_TOPK",
      "GMDIV_SERVICE_WORKERS", "GMDIV_SERVICE_QUEUE"};
  const auto SetAll = [&](const char *Value) {
    for (const char *K : Knobs)
      setenv(K, Value, 1);
  };
  for (const char *K : Knobs)
    unsetenv(K);

  // Unset, empty or not a number: the defaults.
  for (const char *Value : {static_cast<const char *>(nullptr), "", "many"}) {
    if (Value)
      SetAll(Value);
    const RO R = RO::fromEnv();
    const SO S = SO::fromEnv();
    EXPECT_EQ(R.NumShards, RO{}.NumShards);
    EXPECT_EQ(R.ShardCapacity, RO{}.ShardCapacity);
    EXPECT_EQ(R.SampleEvery, RO{}.SampleEvery);
    EXPECT_EQ(R.TopKSlots, 32u);
    EXPECT_EQ(S.Workers, SO{}.Workers);
    EXPECT_EQ(S.QueueCapacity, SO{}.QueueCapacity);
  }

  // In range: passed through.
  setenv("GMDIV_TOPK", "16", 1);
  setenv("GMDIV_SERVICE_SAMPLE", "7", 1);
  EXPECT_EQ(RO::fromEnv().TopKSlots, 16u);
  EXPECT_EQ(RO::fromEnv().SampleEvery, 7u);

  // Below the range: 1.
  for (const char *Value : {"0", "-5"}) {
    SetAll(Value);
    const RO R = RO::fromEnv();
    const SO S = SO::fromEnv();
    EXPECT_EQ(R.NumShards, 1u);
    EXPECT_EQ(R.ShardCapacity, 1u);
    EXPECT_EQ(R.SampleEvery, 1u);
    EXPECT_EQ(R.TopKSlots, 1u);
    EXPECT_EQ(S.Workers, 1u);
    EXPECT_EQ(S.QueueCapacity, 1u);
  }

  // Above the range, including values that used to wrap or overflow
  // and text past LLONG_MAX: the top of the range.
  setenv("GMDIV_SERVICE_SHARDS", "4611686018427387904", 1);
  setenv("GMDIV_SERVICE_SHARD_CAPACITY", "4611686018427387905", 1);
  setenv("GMDIV_SERVICE_SAMPLE", "4294967296", 1);
  setenv("GMDIV_TOPK", "100000", 1);
  setenv("GMDIV_SERVICE_WORKERS", "1000000", 1);
  setenv("GMDIV_SERVICE_QUEUE", "99999999999999999999999", 1);
  const RO R = RO::fromEnv();
  const SO S = SO::fromEnv();
  EXPECT_EQ(R.NumShards, RO::MaxShards);
  EXPECT_EQ(R.ShardCapacity, RO::MaxShardCapacity);
  EXPECT_EQ(R.SampleEvery, RO::MaxSampleEvery);
  EXPECT_EQ(R.TopKSlots, 4096u);
  EXPECT_EQ(S.Workers, SO::MaxWorkers);
  EXPECT_EQ(S.QueueCapacity, SO::MaxQueueCapacity);

  for (const char *K : Knobs)
    unsetenv(K);
}

TEST(ServiceOptions, CodeSetOptionsAreClampedToTheSameRanges) {
  // Options set in code go through the same clamp as the environment.
  // Unclamped, this shard capacity hangs the registry's constructor
  // (ceilPow2 of 2^63 + 2), and the service starts MaxWorkers + 1
  // threads. Workers is never set near SIZE_MAX: unclamped, that would
  // try to start as many threads.
  using RO = DividerRegistry::Options;
  using SO = BatchService::Options;
  RO ROpts;
  ROpts.NumShards = 1;
  ROpts.ShardCapacity = (size_t{1} << 62) + 1;
  ROpts.SampleEvery = UINT32_MAX;
  ROpts.TopKSlots = SIZE_MAX;
  DividerRegistry R(ROpts);
  EXPECT_EQ(R.numShards(), 1u);
  EXPECT_EQ(R.shardCapacity(), RO::MaxShardCapacity);
  EXPECT_EQ(R.sampleEvery(), RO::MaxSampleEvery);
  EXPECT_EQ(R.topKSlots(), RO::MaxTopKSlots);

  SO SOpts;
  SOpts.Workers = SO::MaxWorkers + 1;
  SOpts.QueueCapacity = SIZE_MAX;
  BatchService Svc(R, SOpts);
  EXPECT_EQ(Svc.workers(), SO::MaxWorkers);
  EXPECT_EQ(Svc.queueCapacity(), SO::MaxQueueCapacity);
}

//===----------------------------------------------------------------------===//
// Admission and the lock-free hit path
//===----------------------------------------------------------------------===//

TEST(ServiceRegistry, AcquireAdmitsOnceThenHits) {
  DividerRegistry R(smallOptions(4, 16));
  const Key K = keyFor<uint32_t>(7);
  const auto E1 = R.acquire(K);
  ASSERT_NE(E1, nullptr);
  const auto E2 = R.acquire(K);
  const auto E3 = R.lookup(K);
  EXPECT_EQ(E1.get(), E2.get());
  EXPECT_EQ(E1.get(), E3.get());

  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Inserts, 1u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(R.size(), 1u);
}

TEST(ServiceRegistry, LookupNeverAdmits) {
  DividerRegistry R(smallOptions(4, 16));
  EXPECT_EQ(R.lookup(keyFor<uint32_t>(9)), nullptr);
  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Inserts, 0u);
  EXPECT_EQ(R.size(), 0u);
}

TEST(ServiceRegistry, WithEntryRunsUnderTheGuardWithoutCopying) {
  DividerRegistry R(smallOptions(2, 8));
  const Key K = keyFor<uint64_t>(10);
  ASSERT_NE(R.acquire(K), nullptr);

  uint64_t Rem = ~0ull;
  const bool Hit = R.withEntry(K, [&](const DividerEntry &E) {
    Rem = E.remainderBits(1234567);
  });
  EXPECT_TRUE(Hit);
  EXPECT_EQ(Rem, 1234567 % 10u);
  EXPECT_FALSE(
      R.withEntry(keyFor<uint64_t>(11), [](const DividerEntry &) {}));
  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 2u); // withEntry miss + the acquire admission
}

TEST(ServiceRegistry, SampledLookupsFeedTheLookupHistogram) {
  DividerRegistry R(smallOptions(1, 8)); // SampleEvery = 1
  const Key K = keyFor<uint32_t>(3);
  ASSERT_NE(R.acquire(K), nullptr);
  for (int I = 0; I < 10; ++I)
    ASSERT_NE(R.lookup(K), nullptr);
  EXPECT_GE(R.lookupLatency().cumulative().Count, 10u);
  EXPECT_EQ(R.admitLatency().cumulative().Count, 1u);
}

TEST(ServiceRegistry, LookupLatencyIsTimedOnceInSampleEverySampledHits) {
  // 64 consecutive ticks hold exactly 16 multiples of 4 (sampled hits)
  // and 4 multiples of 16 (timed ones), whatever the thread's phase.
  DividerRegistry::Options O = smallOptions(1, 8);
  O.SampleEvery = 4;
  DividerRegistry R(O);
  const Key K = keyFor<uint32_t>(3);
  ASSERT_NE(R.acquire(K), nullptr);
  for (int I = 0; I < 64; ++I)
    ASSERT_NE(R.lookup(K), nullptr);
  EXPECT_EQ(R.lookupLatency().cumulative().Count, 4u);
  ASSERT_EQ(R.hotKeys().size(), 1u);
  EXPECT_EQ(R.hotKeys()[0].Heat, 1u + 16 * 4);

  // SampleEvery² = 2^40 saturates to 1 hit in 2^32. A fresh thread
  // starts its tick at 0, so 2^20 hits hold one sampled hit and no
  // timed one.
  O.SampleEvery = 1u << 20;
  DividerRegistry Sparse(O);
  uint64_t Timed = ~0ull, Heat = 0;
  std::thread([&] {
    ASSERT_NE(Sparse.acquire(K), nullptr);
    for (uint32_t I = 0; I < (1u << 20); ++I)
      ASSERT_NE(Sparse.lookup(K), nullptr);
    Timed = Sparse.lookupLatency().cumulative().Count;
    Heat = Sparse.hotKeys().at(0).Heat;
  }).join();
  EXPECT_EQ(Heat, 1u + (1u << 20));
  EXPECT_EQ(Timed, 0u);
}

//===----------------------------------------------------------------------===//
// Agreement with the core dividers
//===----------------------------------------------------------------------===//

template <typename T> void expectAgreesWithCore(DividerRegistry &R) {
  using U = std::make_unsigned_t<T>;
  const std::array<int64_t, 7> Divisors = {1, 2, 3, 7, 10, 25, 127};
  uint64_t Rng = 0x1234 + sizeof(T);
  for (int64_t DRaw : Divisors) {
    for (const int Sign : {+1, -1}) {
      if (Sign < 0 && !std::is_signed_v<T>)
        continue;
      const T D = static_cast<T>(Sign * DRaw);
      const auto E = R.acquireFor<T>(D);
      ASSERT_NE(E, nullptr) << int(sizeof(T) * 8) << "-bit d=" << int64_t(D);

      std::vector<uint64_t> Patterns = {0, 1, static_cast<uint64_t>(-1),
                                        uint64_t{1}
                                            << (sizeof(T) * 8 - 1)};
      for (int I = 0; I < 40; ++I)
        Patterns.push_back(splitmix(Rng));
      for (uint64_t P : Patterns) {
        const T N = static_cast<T>(static_cast<U>(P));
        T WantQ, WantR;
        if constexpr (std::is_signed_v<T>) {
          const SignedDivider<T> Ref(D);
          WantQ = Ref.divide(N);
          WantR = Ref.remainder(N);
        } else {
          const UnsignedDivider<T> Ref(D);
          WantQ = Ref.divide(N);
          WantR = Ref.remainder(N);
        }
        EXPECT_EQ(E->template divide<T>(N), WantQ);
        EXPECT_EQ(E->template remainder<T>(N), WantR);
        const auto [QB, RB] =
            E->divRemBits(static_cast<uint64_t>(static_cast<U>(N)));
        EXPECT_EQ(static_cast<T>(static_cast<U>(QB)), WantQ);
        EXPECT_EQ(static_cast<T>(static_cast<U>(RB)), WantR);
      }
    }
  }
}

TEST(ServiceRegistry, EntriesAgreeWithCoreDividersNoJit) {
  DividerRegistry R(smallOptions(8, 64));
  expectAgreesWithCore<uint8_t>(R);
  expectAgreesWithCore<uint16_t>(R);
  expectAgreesWithCore<uint32_t>(R);
  expectAgreesWithCore<uint64_t>(R);
  expectAgreesWithCore<int8_t>(R);
  expectAgreesWithCore<int16_t>(R);
  expectAgreesWithCore<int32_t>(R);
  expectAgreesWithCore<int64_t>(R);
}

TEST(ServiceRegistry, EntriesAgreeWithCoreDividersJit) {
  // Default Options leave the ignored UseJit flag on. Entries must
  // take the same scalar path, and agree with core, either way.
  DividerRegistry R(DividerRegistry::Options{});
  expectAgreesWithCore<uint32_t>(R);
  expectAgreesWithCore<uint64_t>(R);
  expectAgreesWithCore<int32_t>(R);
  expectAgreesWithCore<int64_t>(R);
}

TEST(ServiceRegistry, SignedWrapCaseAgreesWithCore) {
  DividerRegistry R(smallOptions(1, 8));
  const auto E = R.acquireFor<int32_t>(-1);
  ASSERT_NE(E, nullptr);
  const SignedDivider<int32_t> Ref(-1);
  const int32_t Min = std::numeric_limits<int32_t>::min();
  EXPECT_EQ(E->divide<int32_t>(Min), Ref.divide(Min)); // wraps, no trap
}

/// Array calls on every length 0..67 (so every SIMD tail size runs),
/// from an aligned start and from one element past it, against
/// hardware / and %. INT_MIN / -1 is excluded: hardware traps on it.
template <typename T> void expectArraysMatchHardware(DividerRegistry &R) {
  using U = std::make_unsigned_t<T>;
  constexpr size_t MaxLen = 67;
  constexpr T Min = std::numeric_limits<T>::min();
  constexpr T Max = std::numeric_limits<T>::max();
  std::vector<T> Divisors;
  if constexpr (std::is_signed_v<T>)
    Divisors = {1, 2, 3, 7, 10, 127, Max, -1, -3, -7, Min};
  else
    Divisors = {1, 2, 3, 7, 10, 127, Max, T(Max / 2 + 2)};
  uint64_t Rng = 0x5a5a + sizeof(T) * 2 + std::is_signed_v<T>;
  // One lane of slack so the offset start still reaches MaxLen lanes.
  alignas(64) std::array<T, MaxLen + 1> Pool;
  for (T &V : Pool)
    V = static_cast<T>(static_cast<U>(splitmix(Rng)));
  Pool[0] = Min;
  Pool[1] = Max;
  Pool[2] = 0;

  for (const T D : Divisors) {
    const auto E = R.acquireFor<T>(D);
    ASSERT_NE(E, nullptr) << int(sizeof(T) * 8) << "-bit d=" << int64_t(D);
    alignas(64) std::array<T, MaxLen + 1> In = Pool;
    if constexpr (std::is_signed_v<T>)
      if (D == T(-1))
        std::replace(In.begin(), In.end(), Min, T(Min + 1));
    for (const size_t Offset : {size_t{0}, size_t{1}}) {
      for (size_t Len = 0; Len <= MaxLen; ++Len) {
        const T *Src = In.data() + Offset;
        std::vector<T> Q(Len + 1, T(0x5a)), Rem(Len + 1, T(0x5a));
        std::vector<T> Q2(Len + 1, T(0x5a)), Rem2(Len + 1, T(0x5a));
        E->divideArray(Src, Q.data(), Len);
        E->remainderArray(Src, Rem.data(), Len);
        E->divRemArray(Src, Q2.data(), Rem2.data(), Len);
        for (size_t I = 0; I < Len; ++I) {
          const T WantQ = static_cast<T>(Src[I] / D);
          const T WantR = static_cast<T>(Src[I] % D);
          ASSERT_EQ(Q[I], WantQ) << int(sizeof(T) * 8) << "-bit d="
                                 << int64_t(D) << " len=" << Len
                                 << " offset=" << Offset << " lane=" << I;
          ASSERT_EQ(Rem[I], WantR) << "len=" << Len << " lane=" << I;
          ASSERT_EQ(Q2[I], WantQ) << "len=" << Len << " lane=" << I;
          ASSERT_EQ(Rem2[I], WantR) << "len=" << Len << " lane=" << I;
        }
        // Nothing is written past the last lane.
        ASSERT_EQ(Q[Len], T(0x5a));
        ASSERT_EQ(Rem[Len], T(0x5a));
        ASSERT_EQ(Q2[Len], T(0x5a));
        ASSERT_EQ(Rem2[Len], T(0x5a));
      }
    }
  }
}

TEST(ServiceRegistry, ArrayOpsMatchScalarLoops) {
  DividerRegistry R(smallOptions(4, 64));
  expectArraysMatchHardware<uint8_t>(R);
  expectArraysMatchHardware<uint16_t>(R);
  expectArraysMatchHardware<uint32_t>(R);
  expectArraysMatchHardware<uint64_t>(R);
  expectArraysMatchHardware<int8_t>(R);
  expectArraysMatchHardware<int16_t>(R);
  expectArraysMatchHardware<int32_t>(R);
  expectArraysMatchHardware<int64_t>(R);
}

//===----------------------------------------------------------------------===//
// Compile-once admission under contention
//===----------------------------------------------------------------------===//

TEST(ServiceRegistry, EightThreadCompileOncePerKey) {
  // Eight threads race acquire() over the same key set from a start
  // gate, so several of them miss on the same key at once and meet at
  // the shard's writer lock. Every thread must observe the same entry
  // per key, and each key must be built exactly once.
  constexpr size_t Threads = 8;
  constexpr size_t NumKeys = 24;
  constexpr size_t Rounds = 50;
  DividerRegistry R(smallOptions(4, 64));

  std::vector<Key> Keys;
  for (size_t I = 0; I < NumKeys; ++I)
    Keys.push_back(keyFor<uint32_t>(static_cast<uint32_t>(3 + 2 * I)));

  std::vector<std::vector<const DividerEntry *>> Seen(
      Threads, std::vector<const DividerEntry *>(NumKeys, nullptr));
  std::atomic<size_t> Ready{0};
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() < Threads) {
      } // start gate: maximize admission races
      for (size_t Round = 0; Round < Rounds; ++Round) {
        for (size_t I = 0; I < NumKeys; ++I) {
          const size_t Idx = (I * 7 + T * 3 + Round) % NumKeys;
          const auto E = R.acquire(Keys[Idx]);
          ASSERT_NE(E, nullptr);
          if (!Seen[T][Idx])
            Seen[T][Idx] = E.get();
          else
            ASSERT_EQ(Seen[T][Idx], E.get());
        }
      }
    });
  }
  for (std::thread &W : Pool)
    W.join();

  for (size_t I = 0; I < NumKeys; ++I)
    for (size_t T = 1; T < Threads; ++T)
      EXPECT_EQ(Seen[T][I], Seen[0][I]) << "key " << I;

  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Inserts, NumKeys);
  EXPECT_EQ(St.Misses, NumKeys); // late hits count as hits
  EXPECT_EQ(St.Hits + St.Misses, Threads * Rounds * NumKeys);
  EXPECT_EQ(St.Evictions, 0u);
}

TEST(ServiceRegistry, CountersExactUnderContention) {
  // 8 threads at a time, in waves, so 80 thread lifetimes pass through
  // the registry and the counters' stripes are handed back and reused.
  constexpr size_t Threads = 8;
  constexpr size_t Waves = 10;
  constexpr size_t NumKeys = 32;
  constexpr size_t Rounds = 100;
  DividerRegistry R(smallOptions(8, 64));

  for (size_t W = 0; W < Waves; ++W) {
    std::vector<std::thread> Pool;
    for (size_t T = 0; T < Threads; ++T) {
      Pool.emplace_back([&, T, W] {
        uint64_t Rng = 0xabc + W * Threads + T;
        for (size_t Round = 0; Round < Rounds; ++Round) {
          const uint32_t D =
              static_cast<uint32_t>(1 + (splitmix(Rng) % NumKeys));
          const Key K = keyFor<uint32_t>(D);
          // acquire admits; lookup and withEntry then always hit.
          ASSERT_NE(R.acquire(K), nullptr);
          ASSERT_NE(R.lookup(K), nullptr);
          uint32_t Q = 0;
          ASSERT_TRUE(R.withEntry(
              K, [&](const DividerEntry &E) { Q = E.divide<uint32_t>(1000); }));
          ASSERT_EQ(Q, 1000u / D);
        }
      });
    }
    for (std::thread &Worker : Pool)
      Worker.join();
  }

  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Hits + St.Misses, 3 * Waves * Threads * Rounds);
  EXPECT_EQ(St.Misses, St.Inserts);
  EXPECT_EQ(St.Inserts, R.size());
  EXPECT_LE(St.Inserts, NumKeys);

  // Per-shard rows sum to the aggregate.
  cache::CacheStats Sum;
  for (const cache::CacheStats &Row : R.shardStats())
    Sum += Row;
  EXPECT_EQ(Sum.Hits, St.Hits);
  EXPECT_EQ(Sum.Misses, St.Misses);
  EXPECT_EQ(Sum.Inserts, St.Inserts);
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

/// Evicts the entry for \p D from a one-shard registry of 4 while a
/// handle to it is held, then checks that the held entry answers every
/// scalar call, and every array call on lengths 0..67, bit for bit like
/// a fresh makeDividerEntry of the same key and like hardware / and %
/// (INT_MIN / -1 is left out of the hardware check: it traps).
template <typename T> void expectEvictedHandleMatchesFresh(T D) {
  using U = std::make_unsigned_t<T>;
  constexpr size_t MaxLen = 67;
  constexpr T Min = std::numeric_limits<T>::min();
  constexpr T Max = std::numeric_limits<T>::max();
  const Key K = keyFor<T>(D);
  const std::string What =
      K.describe() + " (" + std::to_string(sizeof(T) * 8) + "-bit lanes)";
  DividerRegistry R(smallOptions(1, 4)); // SampleEvery = 1: strict LRU
  const auto Held = R.acquire(K);
  ASSERT_NE(Held, nullptr) << What;
  size_t Others = 0;
  for (const T Other : {T(11), T(13), T(17), T(19), T(23)})
    if (Other != D && Others < 4) {
      ASSERT_NE(R.acquireFor<T>(Other), nullptr) << What;
      ++Others;
    }
  ASSERT_EQ(R.stats().Evictions, 1u) << What;
  ASSERT_EQ(R.lookup(K), nullptr) << What; // evicted from the table
  ASSERT_EQ(Held.use_count(), 1) << What; // registry dropped its reference
  const auto Fresh = makeDividerEntry(K);
  const auto hardwareDefined = [&](T N) {
    return !(std::is_signed_v<T> && N == Min && D == T(-1));
  };

  uint64_t Rng = 0xe71c + sizeof(T) * 2 + std::is_signed_v<T>;
  alignas(64) std::array<T, MaxLen> In;
  for (T &V : In)
    V = static_cast<T>(static_cast<U>(splitmix(Rng)));
  In[0] = Min;
  In[1] = Max;
  In[2] = 0;
  In[3] = T(Min + 1);
  In[4] = T(1);

  for (const T N : In) {
    const uint64_t Bits = static_cast<U>(N);
    ASSERT_EQ(Held->divideBits(Bits), Fresh->divideBits(Bits)) << What;
    ASSERT_EQ(Held->remainderBits(Bits), Fresh->remainderBits(Bits))
        << What;
    ASSERT_EQ(Held->divRemBits(Bits), Fresh->divRemBits(Bits)) << What;
    if (!hardwareDefined(N))
      continue;
    const auto [QB, RB] = Held->divRemBits(Bits);
    ASSERT_EQ(static_cast<T>(static_cast<U>(QB)), static_cast<T>(N / D))
        << What << " n=" << int64_t(N);
    ASSERT_EQ(static_cast<T>(static_cast<U>(RB)), static_cast<T>(N % D))
        << What << " n=" << int64_t(N);
    ASSERT_EQ(Held->divideBits(Bits), QB) << What;
    ASSERT_EQ(Held->remainderBits(Bits), RB) << What;
  }

  for (size_t Len = 0; Len <= MaxLen; ++Len) {
    // One canary lane past the end: nothing may be written there.
    std::vector<T> Q(Len + 1, T(0x5a)), Rem(Len + 1, T(0x5a)),
        Q2(Len + 1, T(0x5a)), Rem2(Len + 1, T(0x5a));
    std::vector<T> FQ(Q), FRem(Rem), FQ2(Q), FRem2(Rem);
    Held->divideArray(In.data(), Q.data(), Len);
    Held->remainderArray(In.data(), Rem.data(), Len);
    Held->divRemArray(In.data(), Q2.data(), Rem2.data(), Len);
    Fresh->divideArray(In.data(), FQ.data(), Len);
    Fresh->remainderArray(In.data(), FRem.data(), Len);
    Fresh->divRemArray(In.data(), FQ2.data(), FRem2.data(), Len);
    ASSERT_EQ(Q, FQ) << What << " len=" << Len;
    ASSERT_EQ(Rem, FRem) << What << " len=" << Len;
    ASSERT_EQ(Q2, FQ2) << What << " len=" << Len;
    ASSERT_EQ(Rem2, FRem2) << What << " len=" << Len;
    for (const std::vector<T> *Out : {&Q, &Rem, &Q2, &Rem2})
      ASSERT_EQ(Out->back(), T(0x5a)) << What << " len=" << Len;
    for (size_t I = 0; I < Len; ++I) {
      if (!hardwareDefined(In[I]))
        continue;
      ASSERT_EQ(Q[I], static_cast<T>(In[I] / D)) << What << " lane=" << I;
      ASSERT_EQ(Rem[I], static_cast<T>(In[I] % D)) << What << " lane=" << I;
      ASSERT_EQ(Q2[I], Q[I]) << What << " lane=" << I;
      ASSERT_EQ(Rem2[I], Rem[I]) << What << " lane=" << I;
    }
  }
}

template <typename T> void expectEvictedHandlesMatchFresh() {
  constexpr T Max = std::numeric_limits<T>::max();
  std::vector<T> Divisors = {1, 7, 10, 64, Max};
  if constexpr (std::is_signed_v<T>)
    for (const T D : {T(-1), T(-3), std::numeric_limits<T>::min()})
      Divisors.push_back(D);
  for (const T D : Divisors)
    expectEvictedHandleMatchesFresh<T>(D);
}

TEST(ServiceRegistry, EvictionKeepsHeldHandlesAlive) {
  DividerRegistry R(smallOptions(1, 4));
  const Key First = keyFor<uint32_t>(101);
  const auto Held = R.acquire(First);
  ASSERT_NE(Held, nullptr);
  for (uint32_t D = 102; D < 106; ++D)
    ASSERT_NE(R.acquireFor<uint32_t>(D), nullptr);

  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.lookup(First), nullptr); // evicted from the table...
  EXPECT_EQ(Held->divide<uint32_t>(707), 707u / 101); // ...but alive
  EXPECT_EQ(Held.use_count(), 1); // registry dropped every reference

  // Re-acquiring the evicted key admits a fresh entry.
  const auto Fresh = R.acquire(First);
  ASSERT_NE(Fresh, nullptr);
  EXPECT_NE(Fresh.get(), Held.get());

  // Every lane type and every scalar and array operation on an evicted
  // entry still matches the normal path.
  expectEvictedHandlesMatchFresh<uint8_t>();
  expectEvictedHandlesMatchFresh<uint16_t>();
  expectEvictedHandlesMatchFresh<uint32_t>();
  expectEvictedHandlesMatchFresh<uint64_t>();
  expectEvictedHandlesMatchFresh<int8_t>();
  expectEvictedHandlesMatchFresh<int16_t>();
  expectEvictedHandlesMatchFresh<int32_t>();
  expectEvictedHandlesMatchFresh<int64_t>();
}

TEST(ServiceRegistry, EvictionPicksTheStalestEntry) {
  DividerRegistry R(smallOptions(1, 3)); // SampleEvery = 1
  const Key A = keyFor<uint32_t>(11), B = keyFor<uint32_t>(12),
            C = keyFor<uint32_t>(13), D = keyFor<uint32_t>(14);
  ASSERT_NE(R.acquire(A), nullptr);
  ASSERT_NE(R.acquire(B), nullptr);
  ASSERT_NE(R.acquire(C), nullptr);
  // Refresh A and C; B is now the stalest.
  ASSERT_NE(R.lookup(A), nullptr);
  ASSERT_NE(R.lookup(C), nullptr);
  ASSERT_NE(R.acquire(D), nullptr); // evicts B
  EXPECT_NE(R.lookup(A), nullptr);
  EXPECT_EQ(R.lookup(B), nullptr);
  EXPECT_NE(R.lookup(C), nullptr);
  EXPECT_NE(R.lookup(D), nullptr);
  EXPECT_EQ(R.stats().Evictions, 1u);
}

TEST(ServiceRegistry, EvictionKeepsEveryResidentKeyReachable) {
  // One shard of 16 (32 buckets at load <= 0.5) and keys homed in its
  // last two slots or its first. A reference LRU model says what must
  // be resident after each admission; SampleEvery = 1 makes every hit
  // a refresh, and checking residents oldest-first keeps their order.
  constexpr size_t Capacity = 16;
  DividerRegistry R(smallOptions(1, Capacity));
  const std::vector<Key> Pool = wrappingClusterKeys(40, 2 * Capacity);
  std::vector<size_t> Lru; // pool indices, least recently used first
  uint64_t Inserts = 0, Evictions = 0;
  const auto resident = [&Lru](size_t I) {
    return std::find(Lru.begin(), Lru.end(), I) != Lru.end();
  };
  const auto touch = [&Lru](size_t I) {
    Lru.erase(std::find(Lru.begin(), Lru.end(), I));
    Lru.push_back(I);
  };

  uint64_t Rng = 19;
  while (Inserts < 10000) {
    const size_t I = splitmix(Rng) % Pool.size();
    if (splitmix(Rng) % 4 == 0) {
      const auto E = R.lookup(Pool[I]);
      ASSERT_EQ(E != nullptr, resident(I)) << Pool[I].describe();
      if (E)
        touch(I);
      continue;
    }
    ASSERT_NE(R.acquire(Pool[I]), nullptr);
    if (resident(I)) {
      touch(I);
      continue;
    }
    if (Lru.size() == Capacity) {
      Lru.erase(Lru.begin());
      ++Evictions;
    }
    Lru.push_back(I);
    ++Inserts;

    for (size_t J : Lru) {
      const auto E = R.lookup(Pool[J]);
      ASSERT_NE(E, nullptr) << Pool[J].describe() << " after " << Inserts;
      ASSERT_TRUE(dividesAs(*E, Pool[J]));
    }
    for (size_t J : Lru) {
      bool Ok = false;
      ASSERT_TRUE(R.withEntry(Pool[J], [&](const DividerEntry &E) {
        Ok = dividesAs(E, Pool[J]);
      }));
      ASSERT_TRUE(Ok) << Pool[J].describe();
    }
    for (size_t J = 0; J < Pool.size(); ++J) {
      if (!resident(J)) {
        ASSERT_EQ(R.lookup(Pool[J]), nullptr) << Pool[J].describe();
      }
    }
    const cache::CacheStats St = R.stats();
    ASSERT_EQ(R.size(), Lru.size());
    ASSERT_EQ(St.Inserts, Inserts);
    ASSERT_EQ(St.Evictions, Evictions);
  }
}

TEST(ServiceRegistry, HotKeysRankResidentKeysBySampledHits) {
  // SampleEvery = 1: heat is exactly 1 + hits. Keys homed at the wrap
  // of an 8-bucket shard, so the eviction's backward shift moves
  // survivors, and their heat with them.
  DividerRegistry R(smallOptions(1, 4));
  const std::vector<Key> Keys = wrappingClusterKeys(5, 8);
  const Key &A = Keys[0], &B = Keys[1], &C = Keys[2], &D = Keys[3],
            &E = Keys[4];
  const auto hits = [&R](const Key &K, int N) {
    for (int I = 0; I < N; ++I)
      ASSERT_TRUE(R.withEntry(K, [](const DividerEntry &) {}));
  };
  using Ranked = std::vector<std::pair<std::string, uint64_t>>;
  const auto ranked = [&R] {
    Ranked Out;
    for (const DividerRegistry::HotKey &H : R.hotKeys())
      Out.emplace_back(H.K.describe(), H.Heat);
    return Out;
  };

  for (const Key &K : {A, B, C})
    ASSERT_NE(R.acquire(K), nullptr);
  hits(A, 4);
  ASSERT_NE(R.lookup(A), nullptr);
  ASSERT_NE(R.acquire(B), nullptr); // a hit: acquire() counts too
  hits(B, 1);
  EXPECT_EQ(ranked(), (Ranked{{A.describe(), 6}, {B.describe(), 3},
                              {C.describe(), 1}}));

  // Copy-and-patch admission carries every count into the new table.
  ASSERT_NE(R.acquire(D), nullptr);
  hits(D, 1);
  EXPECT_EQ(ranked(), (Ranked{{A.describe(), 6}, {B.describe(), 3},
                              {D.describe(), 2}, {C.describe(), 1}}));

  // A full shard evicts C, the stalest; it leaves the list.
  ASSERT_NE(R.acquire(E), nullptr);
  ASSERT_EQ(R.lookup(C), nullptr);
  EXPECT_EQ(R.stats().Evictions, 1u);
  EXPECT_EQ(ranked(), (Ranked{{A.describe(), 6}, {B.describe(), 3},
                              {D.describe(), 2}, {E.describe(), 1}}));

  // TopKSlots caps the list; the hottest keys stay.
  DividerRegistry::Options O = smallOptions(1, 4);
  O.TopKSlots = 1;
  DividerRegistry One(O);
  ASSERT_NE(One.acquire(A), nullptr);
  ASSERT_NE(One.acquire(B), nullptr);
  ASSERT_NE(One.lookup(B), nullptr);
  ASSERT_EQ(One.hotKeys().size(), 1u);
  EXPECT_EQ(One.hotKeys()[0].K, B);
  EXPECT_EQ(One.hotKeys()[0].Heat, 2u);
}

TEST(ServiceRegistry, ClearDropsEntriesKeepsCounters) {
  DividerRegistry R(smallOptions(2, 8));
  ASSERT_NE(R.acquireFor<uint32_t>(5), nullptr);
  ASSERT_NE(R.acquireFor<uint32_t>(6), nullptr);
  const uint64_t MissesBefore = R.stats().Misses;
  R.clear();
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(R.stats().Misses, MissesBefore);
  EXPECT_EQ(R.lookup(keyFor<uint32_t>(5)), nullptr);
}

//===----------------------------------------------------------------------===//
// Epoch domain
//===----------------------------------------------------------------------===//

TEST(ServiceEpoch, GuardsNestAndAnnounce) {
  EpochDomain &D = EpochDomain::global();
  const uint64_t Before = D.current();
  {
    EpochDomain::Guard G1(D);
    EXPECT_LE(D.minActive(), D.current());
    {
      EpochDomain::Guard G2(D); // nested: must not clobber G1's pin
      EXPECT_LE(D.minActive(), D.current());
    }
    // Still pinned by G1.
    EXPECT_LE(D.minActive(), D.current());
  }
  EXPECT_GE(D.current(), Before);
  EXPECT_GE(D.slotCount(), 1u);
}

TEST(ServiceEpoch, ExitedThreadsHandTheirSlotsBack) {
  // Every retirement scans the slot list, so it must track live
  // readers, not every thread that ever pinned.
  EpochDomain &D = EpochDomain::global();
  { EpochDomain::Guard G(D); } // this thread holds a slot from here on
  const size_t Before = D.slotCount();
  for (int I = 0; I < 64; ++I)
    std::thread([&D] { EpochDomain::Guard G(D); }).join();
  EXPECT_LE(D.slotCount(), Before + 1);
}

//===----------------------------------------------------------------------===//
// Batch front door
//===----------------------------------------------------------------------===//

BatchService::Options workerOptions(size_t Workers) {
  BatchService::Options O;
  O.Workers = Workers;
  O.QueueCapacity = 64;
  return O;
}

TEST(BatchService, SubmitDivideRemainderDivRem) {
  DividerRegistry R(smallOptions(4, 32));
  BatchService Svc(R, workerOptions(2));

  std::vector<uint32_t> In(256), Q(256), Rem(256);
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = static_cast<uint32_t>(I * 2654435761u);

  auto FQ = Svc.submitDivide<uint32_t>(9, In, Q);
  auto FR = Svc.submitRemainder<uint32_t>(9, In, Rem);
  const BatchResult RQ = FQ.get();
  const BatchResult RR = FR.get();
  EXPECT_EQ(RQ.Elements, In.size());
  EXPECT_EQ(RQ.K, keyFor<uint32_t>(9));
  EXPECT_STRNE(RQ.Backend, "");
  EXPECT_GT(RQ.JobNs, 0u);
  EXPECT_EQ(RR.Elements, In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    ASSERT_EQ(Q[I], In[I] / 9);
    ASSERT_EQ(Rem[I], In[I] % 9);
  }

  std::vector<int32_t> SIn(64), SQ(64), SR(64);
  for (size_t I = 0; I < SIn.size(); ++I)
    SIn[I] = static_cast<int32_t>(I * 7919) - 200000;
  Svc.submitDivRem<int32_t>(-7, SIn, SQ, SR).get();
  for (size_t I = 0; I < SIn.size(); ++I) {
    ASSERT_EQ(SQ[I], SIn[I] / -7);
    ASSERT_EQ(SR[I], SIn[I] % -7);
  }
}

TEST(BatchService, SingleWorkerRunsJobsInSubmissionOrder) {
  DividerRegistry R(smallOptions(2, 16));
  BatchService Svc(R, workerOptions(1));

  // x % 7 then % 5 is order-sensitive (13 % 7 % 5 = 1, 13 % 5 % 7 = 3):
  // chaining in-place jobs over one buffer observes FIFO execution.
  std::vector<uint32_t> Buf(512, 13);
  std::span<uint32_t> Out(Buf);
  std::span<const uint32_t> In(Buf.data(), Buf.size());
  auto F1 = Svc.submitRemainder<uint32_t>(7, In, Out);
  auto F2 = Svc.submitRemainder<uint32_t>(5, In, Out);
  F1.get();
  F2.get();
  for (uint32_t V : Buf)
    ASSERT_EQ(V, 1u);

  Svc.drain();
  EXPECT_EQ(Svc.pending(), 0u);
}

TEST(BatchService, InvalidSubmissionsFailTheFutureWithoutEnqueueing) {
  DividerRegistry R(smallOptions(2, 16));
  BatchService Svc(R, workerOptions(1));

  std::vector<uint32_t> In(16), Out(16), Short(8);
  auto FZero = Svc.submitDivide<uint32_t>(0, In, Out);
  EXPECT_THROW(FZero.get(), std::invalid_argument);
  auto FMismatch = Svc.submitDivide<uint32_t>(
      3, std::span<const uint32_t>(In), std::span<uint32_t>(Short));
  EXPECT_THROW(FMismatch.get(), std::invalid_argument);
  std::vector<uint32_t> Rem(8);
  auto FDrMismatch = Svc.submitDivRem<uint32_t>(
      3, std::span<const uint32_t>(In), std::span<uint32_t>(Out),
      std::span<uint32_t>(Rem));
  EXPECT_THROW(FDrMismatch.get(), std::invalid_argument);

  Svc.drain();
  EXPECT_EQ(R.size(), 0u); // nothing was admitted
}

TEST(BatchService, ManyJobsAcrossWorkersAllResolve) {
  DividerRegistry R(smallOptions(8, 64));
  BatchService Svc(R, workerOptions(4));

  constexpr size_t Jobs = 120;
  constexpr size_t Lanes = 128;
  std::vector<std::vector<uint64_t>> Ins(Jobs), Outs(Jobs);
  std::vector<std::future<BatchResult>> Futures;
  uint64_t Rng = 7;
  for (size_t J = 0; J < Jobs; ++J) {
    Ins[J].resize(Lanes);
    Outs[J].resize(Lanes);
    for (size_t I = 0; I < Lanes; ++I)
      Ins[J][I] = splitmix(Rng);
    const uint64_t D = 2 + (J % 29);
    Futures.push_back(Svc.submitRemainder<uint64_t>(D, Ins[J], Outs[J]));
  }
  for (size_t J = 0; J < Jobs; ++J) {
    const BatchResult Res = Futures[J].get();
    EXPECT_EQ(Res.Elements, Lanes);
    const uint64_t D = 2 + (J % 29);
    for (size_t I = 0; I < Lanes; ++I)
      ASSERT_EQ(Outs[J][I], Ins[J][I] % D) << "job " << J;
  }
  Svc.drain();
  EXPECT_EQ(Svc.pending(), 0u);
}

//===----------------------------------------------------------------------===//
// Inline and helping policy: the two guards
//===----------------------------------------------------------------------===//

TEST(BatchInlinePolicy, GuardTruthTable) {
  // First in line, a worker idle, 64 u64 lanes (512 bytes).
  EXPECT_TRUE(runsOnCaller(0, 0, 2, 64, 8));
  EXPECT_TRUE(runsOnCaller(0, 1, 2, 64, 8));
  // Each condition alone sends the job to the queue.
  EXPECT_FALSE(runsOnCaller(1, 0, 2, 64, 8)); // queue non-empty
  EXPECT_FALSE(runsOnCaller(0, 2, 2, 64, 8)); // no idle worker
  EXPECT_FALSE(runsOnCaller(0, 0, 2, 16384, 4)); // a bulk job: 64 KiB
  // The cap is the span in bytes, whatever the lane width.
  EXPECT_TRUE(runsOnCaller(0, 0, 2, 512, 8));
  EXPECT_FALSE(runsOnCaller(0, 0, 2, 513, 8));
  EXPECT_TRUE(runsOnCaller(0, 0, 2, 1024, 4));
  EXPECT_FALSE(runsOnCaller(0, 0, 2, 1025, 4));
  EXPECT_TRUE(runsOnCaller(0, 0, 2, 4096, 1));
  EXPECT_FALSE(runsOnCaller(0, 0, 2, 4097, 1));
  EXPECT_TRUE(runsOnCaller(0, 0, 2, 0, 8));
  // No overflow on absurd counts.
  EXPECT_FALSE(runsOnCaller(0, 0, 2, std::numeric_limits<size_t>::max(), 8));
  // One worker: only when nothing at all is running.
  EXPECT_TRUE(runsOnCaller(0, 0, 1, 64, 8));
  EXPECT_FALSE(runsOnCaller(0, 1, 1, 64, 8));

  // A push that found a backlog while every worker was busy helps.
  EXPECT_TRUE(submitterHelps(true, 2, 2));
  EXPECT_TRUE(submitterHelps(true, 4, 4));
  EXPECT_FALSE(submitterHelps(false, 2, 2)); // its job is the front
  EXPECT_FALSE(submitterHelps(true, 1, 2));  // a worker will take it
  EXPECT_FALSE(submitterHelps(true, 1, 1));  // one worker: strict FIFO
}

//===----------------------------------------------------------------------===//
// Inline, queued and helped paths through the service
//===----------------------------------------------------------------------===//

/// Jobs the service exported under \p Prefix has run on the caller.
uint64_t inlineRuns(const std::string &Prefix) {
  return static_cast<uint64_t>(metrics::Registry::global().snapshot().valueOr(
      Prefix + "_inline_total", {}, -1));
}

/// Queued jobs a submitter of the service exported under \p Prefix ran.
uint64_t helpedRuns(const std::string &Prefix) {
  return static_cast<uint64_t>(metrics::Registry::global().snapshot().valueOr(
      Prefix + "_helped_total", {}, -1));
}

/// Jobs a worker or a helping submitter has taken off the queue of the
/// service exported under \p Prefix.
uint64_t queueWaits(const std::string &Prefix) {
  const metrics::Snapshot Snap = metrics::Registry::global().snapshot();
  const metrics::Sample *S = Snap.find(Prefix + "_queue_wait_ns");
  return S ? S->Count : 0;
}

bool isReady(const std::future<BatchResult> &F) {
  return F.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Submits op \p OpIdx (0 divide, 1 remainder, 2 divRem) of \p Len lanes.
template <typename T>
std::future<BatchResult> submitOp(BatchService &Svc, int OpIdx, T D,
                                  const T *In, T *A, T *B, size_t Len) {
  const std::span<const T> Src(In, Len);
  switch (OpIdx) {
  case 0:
    return Svc.submitDivide<T>(D, Src, std::span<T>(A, Len));
  case 1:
    return Svc.submitRemainder<T>(D, Src, std::span<T>(A, Len));
  default:
    return Svc.submitDivRem<T>(D, Src, std::span<T>(A, Len),
                               std::span<T>(B, Len));
  }
}

/// Every op at every length 0..67, out of place and in place, once
/// queued on a one-worker service whose worker a long job holds
/// throughout (so each job provably waits in the queue, which
/// `_queue_wait_ns` confirms) and once on \p Idle, where each job runs
/// on the caller: outputs equal hardware / and % and each other bit
/// for bit, and the BatchResults agree. Adds the jobs \p Idle ran on
/// the caller to \p InlineRuns.
template <typename T>
void expectPathsAgree(DividerRegistry &R, BatchService &Idle,
                      const std::string &IdlePrefix, uint64_t &InlineRuns) {
  using U = std::make_unsigned_t<T>;
  constexpr size_t MaxLen = 67;
  const T D = std::is_signed_v<T> ? T(-7) : T(7);
  uint64_t Rng = 0x1717 + sizeof(T) * 2 + std::is_signed_v<T>;
  std::vector<T> In(MaxLen);
  for (T &V : In)
    V = static_cast<T>(static_cast<U>(splitmix(Rng)));
  In[0] = std::numeric_limits<T>::min();
  In[1] = std::numeric_limits<T>::max();
  In[2] = 0;

  // One case per (op, length): the queued path's outputs, out of place
  // (QA, QB) and in place (PBuf over a copy of the input, PRem).
  struct Case {
    int OpIdx = 0;
    size_t Len = 0;
    std::vector<T> QA, QB, PBuf, PRem;
    std::future<BatchResult> F, FP;
    BatchResult Queued;
  };
  std::vector<Case> Cases;
  for (int OpIdx = 0; OpIdx < 3; ++OpIdx)
    for (size_t Len = 0; Len <= MaxLen; ++Len) {
      Cases.emplace_back();
      Cases.back().OpIdx = OpIdx;
      Cases.back().Len = Len;
    }

  const std::string QueuedPrefix = "gmdiv_test_batch_queued";
  BatchService::Options HeldOpts = workerOptions(1);
  HeldOpts.QueueCapacity = 2 * Cases.size();
  for (int Attempt = 0;; ++Attempt) {
    BatchService Held(R, HeldOpts);
    Held.exportMetrics(QueuedPrefix);
    std::vector<uint64_t> Hold(size_t{1} << 22, ~uint64_t{0});
    auto FHold = Held.submitRemainder<uint64_t>(
        7, std::span<const uint64_t>(Hold), std::span<uint64_t>(Hold));
    while (queueWaits(QueuedPrefix) < 1)
      std::this_thread::yield();
    for (Case &C : Cases) {
      C.QA.assign(C.Len + 1, T(0x5a));
      C.QB.assign(C.Len + 1, T(0x5a));
      C.PBuf.assign(In.begin(), In.begin() + C.Len);
      C.PBuf.push_back(T(0x5a));
      C.PRem.assign(C.Len + 1, T(0x5a));
    }
    for (Case &C : Cases) {
      C.F = submitOp<T>(Held, C.OpIdx, D, In.data(), C.QA.data(),
                        C.QB.data(), C.Len);
      C.FP = submitOp<T>(Held, C.OpIdx, D, C.PBuf.data(), C.PBuf.data(),
                         C.PRem.data(), C.Len);
    }
    // With the worker still on the long job, nothing could run inline.
    const bool HeldThroughout = !isReady(FHold);
    for (Case &C : Cases) {
      C.Queued = C.F.get();
      ASSERT_EQ(C.FP.get().Elements, C.Len);
    }
    FHold.get();
    Held.drain();
    if (HeldThroughout) {
      ASSERT_EQ(queueWaits(QueuedPrefix), 1 + 2 * Cases.size());
      ASSERT_EQ(inlineRuns(QueuedPrefix), 0u);
      break;
    }
    ASSERT_LT(Attempt, 4) << "the long job kept finishing before the "
                             "submissions behind it";
  }

  const uint64_t Before = inlineRuns(IdlePrefix);
  for (const Case &C : Cases) {
    const int OpIdx = C.OpIdx;
    const size_t Len = C.Len;
    std::vector<T> IA(Len + 1, T(0x5a)), IB(Len + 1, T(0x5a));
    const BatchResult OnIdle =
        submitOp<T>(Idle, OpIdx, D, In.data(), IA.data(), IB.data(), Len)
            .get();
    ASSERT_EQ(C.Queued.K, keyFor<T>(D));
    ASSERT_EQ(OnIdle.K, C.Queued.K);
    ASSERT_EQ(OnIdle.Elements, Len);
    ASSERT_EQ(C.Queued.Elements, Len);
    ASSERT_STREQ(OnIdle.Backend, C.Queued.Backend);
    const bool Quot = OpIdx != 1;
    for (size_t I = 0; I < Len; ++I) {
      const T WantA = static_cast<T>(Quot ? In[I] / D : In[I] % D);
      ASSERT_EQ(C.QA[I], WantA) << int(sizeof(T) * 8) << "-bit op=" << OpIdx
                                << " len=" << Len << " lane=" << I;
      ASSERT_EQ(IA[I], WantA) << int(sizeof(T) * 8) << "-bit op=" << OpIdx
                              << " len=" << Len << " lane=" << I;
      if (OpIdx == 2) {
        ASSERT_EQ(C.QB[I], static_cast<T>(In[I] % D)) << "lane " << I;
        ASSERT_EQ(IB[I], static_cast<T>(In[I] % D)) << "lane " << I;
      }
    }
    // Nothing is written past the last lane on either path.
    ASSERT_EQ(C.QA[Len], T(0x5a));
    ASSERT_EQ(IA[Len], T(0x5a));
    ASSERT_EQ(C.QB, IB);

    // In place: a copy of the input is also Out (Quot for divRem).
    // Each path must leave in it, bit for bit, what the queued path
    // wrote out of place.
    ASSERT_EQ(C.PBuf, C.QA) << "queued in place " << int(sizeof(T) * 8)
                            << "-bit op=" << OpIdx << " len=" << Len;
    ASSERT_EQ(C.PRem, C.QB) << "queued in place " << int(sizeof(T) * 8)
                            << "-bit op=" << OpIdx << " len=" << Len;
    std::vector<T> Buf(In.begin(), In.begin() + Len);
    Buf.push_back(T(0x5a));
    std::vector<T> Rem(Len + 1, T(0x5a));
    ASSERT_EQ(
        submitOp<T>(Idle, OpIdx, D, Buf.data(), Buf.data(), Rem.data(), Len)
            .get()
            .Elements,
        Len);
    ASSERT_EQ(Buf, C.QA) << "idle in place " << int(sizeof(T) * 8)
                         << "-bit op=" << OpIdx << " len=" << Len;
    ASSERT_EQ(Rem, C.QB) << "idle in place " << int(sizeof(T) * 8)
                         << "-bit op=" << OpIdx << " len=" << Len;
  }
  InlineRuns += inlineRuns(IdlePrefix) - Before;
}

TEST(BatchService, InlineAndQueuedPathsAgreeBitForBit) {
  DividerRegistry R(smallOptions(4, 64));
  BatchService Idle(R, workerOptions(2));
  Idle.exportMetrics("gmdiv_test_batch_paths");

  uint64_t Inline = 0;
  expectPathsAgree<uint8_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<uint16_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<uint32_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<uint64_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<int8_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<int16_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<int32_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  expectPathsAgree<int64_t>(R, Idle, "gmdiv_test_batch_paths", Inline);
  // Every span is at most 67 x 8 bytes and nothing else runs on the
  // idle service, so every one of its jobs ran on the caller.
  EXPECT_EQ(Inline, 8u * 3u * 68u * 2u);
}

TEST(BatchService, ColdFirstJobRunsInline) {
  // No warm-up job: the guard reads no estimate, so a fresh service
  // runs a 1-lane job on the caller, as it does every later one.
  DividerRegistry R(smallOptions(2, 16));
  BatchService Svc(R, workerOptions(2));
  Svc.exportMetrics("gmdiv_test_batch_cold");
  std::vector<uint32_t> One{13}, OneOut(1);
  auto F = Svc.submitRemainder<uint32_t>(7, One, OneOut);
  EXPECT_TRUE(isReady(F));
  EXPECT_EQ(inlineRuns("gmdiv_test_batch_cold"), 1u);
  EXPECT_EQ(F.get().Elements, 1u);
  EXPECT_EQ(OneOut[0], 6u);
  for (int I = 0; I < 16; ++I)
    Svc.submitRemainder<uint32_t>(7, One, OneOut).get();
  EXPECT_EQ(inlineRuns("gmdiv_test_batch_cold"), 17u);
  EXPECT_EQ(queueWaits("gmdiv_test_batch_cold"), 0u);
}

TEST(BatchService, ParkedWorkersDoNotPullBulkJobsInline) {
  // Workers parked long enough for the first wake to be slow, then 8
  // 16384-lane u64 jobs in flight (128 KiB each, far above the cap):
  // none may run on the caller, however slow that first hand-off was.
  DividerRegistry R(smallOptions(2, 16));
  BatchService Svc(R, workerOptions(2));
  Svc.exportMetrics("gmdiv_test_batch_parked");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  constexpr size_t InFlight = 8;
  constexpr size_t Lanes = 16384;
  std::vector<uint64_t> In(Lanes);
  uint64_t Rng = 0x9a4c;
  for (uint64_t &V : In)
    V = splitmix(Rng);
  std::vector<std::vector<uint64_t>> Outs(InFlight,
                                          std::vector<uint64_t>(Lanes));
  std::vector<std::future<BatchResult>> Futures(InFlight);
  constexpr size_t Jobs = 8 * InFlight;
  for (size_t J = 0; J < Jobs; ++J) {
    const size_t Slot = J % InFlight;
    if (Futures[Slot].valid())
      Futures[Slot].get();
    Futures[Slot] = Svc.submitDivide<uint64_t>(
        3 + J, std::span<const uint64_t>(In), std::span<uint64_t>(Outs[Slot]));
  }
  for (size_t Slot = 0; Slot < InFlight; ++Slot) {
    Futures[Slot].get();
    const uint64_t D = 3 + (Jobs - InFlight + Slot);
    for (size_t I = 0; I < Lanes; ++I)
      ASSERT_EQ(Outs[Slot][I], In[I] / D) << "slot " << Slot << " lane " << I;
  }
  Svc.drain();
  EXPECT_EQ(inlineRuns("gmdiv_test_batch_parked"), 0u);
  // Every job went through the queue, to a worker or a helping caller.
  EXPECT_EQ(queueWaits("gmdiv_test_batch_parked"), Jobs);
}

TEST(BatchService, SubmitterRunsTheOldestJobWhenEveryWorkerIsBusy) {
  // Both workers hold a long job; job 3 queues behind them; submitting
  // job 4 finds that backlog and every worker busy, so the submitter
  // runs job 3 (the front) before returning, and job 4 stays queued.
  // The precondition (both long jobs still running when job 4's submit
  // returns) rests on timing, so an attempt where a long job finished
  // early is retried.
  DividerRegistry R(smallOptions(2, 16));
  const std::string Prefix = "gmdiv_test_batch_helped";
  constexpr size_t LongLanes = size_t{1} << 22;
  std::vector<uint64_t> Long1(LongLanes), Long2(LongLanes);
  std::vector<uint32_t> In3(64), Out3(64), In4(64), Out4(64);
  for (size_t I = 0; I < 64; ++I) {
    In3[I] = static_cast<uint32_t>(I * 2654435761u);
    In4[I] = static_cast<uint32_t>(I * 40503u + 1);
  }
  for (int Attempt = 0;; ++Attempt) {
    BatchService Svc(R, workerOptions(2));
    Svc.exportMetrics(Prefix);
    std::fill(Long1.begin(), Long1.end(), ~uint64_t{0});
    std::fill(Long2.begin(), Long2.end(), ~uint64_t{0} - 1);
    auto F1 = Svc.submitRemainder<uint64_t>(
        7, std::span<const uint64_t>(Long1), std::span<uint64_t>(Long1));
    auto F2 = Svc.submitRemainder<uint64_t>(
        9, std::span<const uint64_t>(Long2), std::span<uint64_t>(Long2));
    while (queueWaits(Prefix) < 2)
      std::this_thread::yield();

    auto F3 = Svc.submitDivide<uint32_t>(7, In3, Out3);
    const bool F3Queued = !isReady(F3) && queueWaits(Prefix) == 2;
    auto F4 = Svc.submitDivide<uint32_t>(9, In4, Out4);
    const bool F3Ready = isReady(F3);
    const bool F4Ready = isReady(F4);
    const uint64_t Waits = queueWaits(Prefix);
    const uint64_t Helped = helpedRuns(Prefix);
    const bool WorkersHeld = !isReady(F1) && !isReady(F2);

    F1.get();
    F2.get();
    F3.get();
    F4.get();
    for (size_t I = 0; I < LongLanes; I += 4099) {
      ASSERT_EQ(Long1[I], ~uint64_t{0} % 7);
      ASSERT_EQ(Long2[I], (~uint64_t{0} - 1) % 9);
    }
    for (size_t I = 0; I < 64; ++I) {
      ASSERT_EQ(Out3[I], In3[I] / 7) << I;
      ASSERT_EQ(Out4[I], In4[I] / 9) << I;
    }
    Svc.drain();
    EXPECT_EQ(inlineRuns(Prefix), 0u);
    EXPECT_EQ(queueWaits(Prefix), 4u);
    if (WorkersHeld) {
      EXPECT_TRUE(F3Queued);
      EXPECT_TRUE(F3Ready);
      EXPECT_FALSE(F4Ready);
      EXPECT_EQ(Helped, 1u);
      // Job 3 recorded its queue wait like a worker-run job; job 4 has
      // not been taken yet.
      EXPECT_EQ(Waits, 3u);
      EXPECT_EQ(helpedRuns(Prefix), 1u);
      break;
    }
    ASSERT_LT(Attempt, 4) << "a long job kept finishing before job 4";
  }
}

TEST(BatchService, SingleWorkerKeepsAShortJobBehindARunningOne) {
  DividerRegistry R(smallOptions(2, 16));
  BatchService Svc(R, workerOptions(1));
  Svc.exportMetrics("gmdiv_test_batch_order");
  // Give the service both estimates: a queued job, then an idle service
  // runs a 1-lane job on the caller.
  std::vector<uint32_t> Warm(4096, 100), WarmOut(4096);
  Svc.submitRemainder<uint32_t>(7, Warm, WarmOut).get();
  Svc.drain();
  std::vector<uint32_t> One{13}, OneOut(1);
  Svc.submitRemainder<uint32_t>(7, One, OneOut).get();
  ASSERT_EQ(OneOut[0], 6u);
  const uint64_t Before = inlineRuns("gmdiv_test_batch_order");
  ASSERT_EQ(Before, 1u);

  // x % 7 then % 5 is order-sensitive (13 % 7 % 5 = 1, 13 % 5 % 7 = 3).
  // The long job holds the one worker, so the 1-lane job chained on its
  // first lane must queue behind it and observe its output.
  std::vector<uint32_t> Buf(size_t{1} << 22, 13);
  auto F1 = Svc.submitRemainder<uint32_t>(
      7, std::span<const uint32_t>(Buf), std::span<uint32_t>(Buf));
  // Wait for the worker to take F1 off the queue, so that the busy
  // worker, not an occupied queue, is what holds the next job back.
  while (queueWaits("gmdiv_test_batch_order") < 2)
    std::this_thread::yield();
  const bool F1Running =
      F1.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
  auto F2 = Svc.submitRemainder<uint32_t>(
      5, std::span<const uint32_t>(Buf.data(), 1),
      std::span<uint32_t>(Buf.data(), 1));
  F1.get();
  F2.get();
  if (F1Running) {
    EXPECT_EQ(inlineRuns("gmdiv_test_batch_order"), Before);
  }
  EXPECT_EQ(Buf[0], 1u);
  for (size_t I = 1; I < Buf.size(); ++I)
    ASSERT_EQ(Buf[I], 6u) << I;
  Svc.drain();
  EXPECT_EQ(Svc.pending(), 0u);
}

TEST(BatchService, QueueFullPathMatchesTheNormalPath) {
  DividerRegistry R(smallOptions(2, 16));
  BatchService::Options O;
  O.Workers = 1;
  O.QueueCapacity = 1;
  BatchService Svc(R, O);
  Svc.exportMetrics("gmdiv_test_batch_full");

  // A holds the worker, B fills the one queue slot, C (on its own
  // thread) blocks in backpressure. A fresh service has no run-cost
  // estimate until A completes, so while A runs nothing can go inline.
  std::vector<uint32_t> AIn(size_t{1} << 22), AOut(AIn.size());
  uint64_t Rng = 0xf011;
  for (uint32_t &V : AIn)
    V = static_cast<uint32_t>(splitmix(Rng));
  std::vector<uint64_t> BIn(64), BOut(64);
  std::vector<int32_t> CIn(64), CQ(64), CR(64);
  for (size_t I = 0; I < 64; ++I) {
    BIn[I] = splitmix(Rng);
    CIn[I] = static_cast<int32_t>(splitmix(Rng));
  }

  std::shared_future<BatchResult> FA =
      Svc.submitRemainder<uint32_t>(7, AIn, AOut).share();
  auto FB = Svc.submitDivide<uint64_t>(1000003, BIn, BOut);
  std::atomic<bool> CReturned{false};
  bool ARunningAtC = false;
  std::future<BatchResult> FC;
  std::thread C([&] {
    ARunningAtC =
        FA.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
    FC = Svc.submitDivRem<int32_t>(-13, CIn, CQ, CR);
    CReturned.store(true);
  });
  // While A still runs, B still waits in the full queue, so C cannot
  // have been accepted yet.
  bool CAcceptedEarly = false;
  for (;;) {
    const bool Returned = CReturned.load();
    if (FA.wait_for(std::chrono::microseconds(100)) ==
        std::future_status::ready)
      break;
    if (Returned) {
      CAcceptedEarly = true;
      break;
    }
  }
  C.join();
  EXPECT_FALSE(CAcceptedEarly);
  FA.get();
  FB.get();
  FC.get();
  if (ARunningAtC) {
    EXPECT_EQ(inlineRuns("gmdiv_test_batch_full"), 0u);
  }
  for (size_t I = 0; I < AIn.size(); ++I)
    ASSERT_EQ(AOut[I], AIn[I] % 7) << I;
  for (size_t I = 0; I < 64; ++I) {
    ASSERT_EQ(BOut[I], BIn[I] / 1000003) << I;
    ASSERT_EQ(CQ[I], CIn[I] / -13) << I;
    ASSERT_EQ(CR[I], CIn[I] % -13) << I;
  }
  Svc.drain();
  EXPECT_EQ(Svc.pending(), 0u);
}

//===----------------------------------------------------------------------===//
// Metrics export
//===----------------------------------------------------------------------===//

TEST(ServiceRegistry, ExportMetricsPublishesPerShardAndAggregateSeries) {
  auto R = std::make_unique<DividerRegistry>(smallOptions(4, 8));
  R->exportMetrics("gmdiv_test_service");
  ASSERT_NE(R->acquireFor<uint32_t>(7), nullptr);
  ASSERT_NE(R->lookup(keyFor<uint32_t>(7)), nullptr);
  ASSERT_EQ(R->lookup(keyFor<uint32_t>(0)), nullptr); // invalid

  const metrics::Snapshot Snap = metrics::Registry::global().snapshot();
  EXPECT_EQ(Snap.valueOr("gmdiv_test_service_entries", {}, -1), 1.0);
  EXPECT_EQ(Snap.valueOr("gmdiv_test_service_capacity", {}, -1), 32.0);
  EXPECT_DOUBLE_EQ(Snap.valueOr("gmdiv_test_service_occupancy", {}, -1),
                   1.0 / 32.0);
  EXPECT_DOUBLE_EQ(Snap.valueOr("gmdiv_test_service_hit_ratio", {}, -1),
                   0.5);
  EXPECT_EQ(Snap.valueOr("gmdiv_test_service_invalid_keys_total", {}, -1),
            1.0);

  double Hits = 0, Misses = 0, Inserts = 0;
  for (size_t I = 0; I < R->numShards(); ++I) {
    const metrics::LabelSet L = {{"shard", std::to_string(I)}};
    Hits += Snap.valueOr("gmdiv_test_service_shard_hits_total", L, 0);
    Misses += Snap.valueOr("gmdiv_test_service_shard_misses_total", L, 0);
    Inserts += Snap.valueOr("gmdiv_test_service_shard_inserts_total", L, 0);
  }
  EXPECT_EQ(Hits, 1.0);
  EXPECT_EQ(Misses, 1.0);
  EXPECT_EQ(Inserts, 1.0);
  // Heat of u32/7: its admission plus one sampled hit.
  EXPECT_EQ(Snap.valueOr("gmdiv_test_service_topk",
                         {{"key", "u32/7"}, {"rank", "0"}}, -1),
            2.0);
  EXPECT_EQ(Snap.valueOr("gmdiv_test_service_topk_capacity", {}, -1), 32.0);

  // Destruction unregisters the collector: the series disappear.
  R.reset();
  EXPECT_EQ(metrics::Registry::global().snapshot().valueOr(
                "gmdiv_test_service_entries", {}, -123),
            -123.0);
}

TEST(BatchService, ExportMetricsPublishesJobSeries) {
  DividerRegistry R(smallOptions(2, 16));
  {
    BatchService Svc(R, workerOptions(1));
    Svc.exportMetrics("gmdiv_test_batchsvc");
    std::vector<uint32_t> In(32, 9), Out(32);
    Svc.submitDivide<uint32_t>(3, In, Out).get();
    auto Bad = Svc.submitDivide<uint32_t>(0, In, Out);
    EXPECT_THROW(Bad.get(), std::invalid_argument);
    Svc.drain();

    const metrics::Snapshot Snap = metrics::Registry::global().snapshot();
    EXPECT_EQ(Snap.valueOr("gmdiv_test_batchsvc_submitted_total", {}, -1),
              1.0);
    EXPECT_EQ(Snap.valueOr("gmdiv_test_batchsvc_completed_total", {}, -1),
              1.0);
    EXPECT_EQ(Snap.valueOr("gmdiv_test_batchsvc_rejected_total", {}, -1),
              1.0);
    EXPECT_EQ(Snap.valueOr("gmdiv_test_batchsvc_elements_total", {}, -1),
              32.0);
    EXPECT_EQ(Snap.valueOr("gmdiv_test_batchsvc_workers", {}, -1), 1.0);
  }
  EXPECT_EQ(metrics::Registry::global().snapshot().valueOr(
                "gmdiv_test_batchsvc_submitted_total", {}, -123),
            -123.0);
}

//===----------------------------------------------------------------------===//
// Mixed stress (the TSan hammer)
//===----------------------------------------------------------------------===//

TEST(BatchService, ConcurrentSubmittersMixInlineAndQueued) {
  // Four submitters on two workers: 1..64-lane jobs that may run on
  // their caller, 16384-lane jobs that queue, submitters that run the
  // queue's front while both workers are busy, and the Running and
  // BusyWorkers counts and the counters shared between those paths.
  DividerRegistry R(smallOptions(4, 32));
  BatchService Svc(R, workerOptions(2));
  Svc.exportMetrics("gmdiv_test_batch_mix");
  constexpr size_t Threads = 4;
  constexpr size_t Jobs = 300;
  constexpr size_t Window = 4;
  constexpr size_t LongLanes = 16384;

  std::vector<std::thread> Pool;
  std::atomic<uint64_t> Mismatches{0};
  for (size_t T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      struct Slot {
        std::vector<uint64_t> In, Out, Rem;
        uint64_t D = 0;
        int OpIdx = 0;
        std::future<BatchResult> F;
      };
      std::vector<Slot> Slots(Window);
      uint64_t Rng = 0xabc + T;
      auto check = [&](Slot &S) {
        if (S.F.get().Elements != S.In.size())
          Mismatches.fetch_add(1);
        for (size_t I = 0; I < S.In.size(); ++I) {
          const uint64_t Q = S.In[I] / S.D, Rm = S.In[I] % S.D;
          if (S.Out[I] != (S.OpIdx == 1 ? Rm : Q) ||
              (S.OpIdx == 2 && S.Rem[I] != Rm))
            Mismatches.fetch_add(1);
        }
      };
      for (size_t J = 0; J < Jobs; ++J) {
        Slot &S = Slots[J % Window];
        if (S.F.valid())
          check(S);
        const size_t Lanes = J % 8 == 7 ? LongLanes : 1 + splitmix(Rng) % 64;
        S.In.resize(Lanes);
        S.Out.assign(Lanes, 0);
        S.Rem.assign(Lanes, 0);
        for (uint64_t &V : S.In)
          V = splitmix(Rng);
        S.D = 2 + splitmix(Rng) % 100;
        S.OpIdx = static_cast<int>(J % 3);
        S.F = submitOp<uint64_t>(Svc, S.OpIdx, S.D, S.In.data(),
                                 S.Out.data(), S.Rem.data(), Lanes);
      }
      for (Slot &S : Slots)
        if (S.F.valid())
          check(S);
    });
  }
  for (std::thread &W : Pool)
    W.join();
  Svc.drain();

  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(Svc.pending(), 0u);
  const metrics::Snapshot Snap = metrics::Registry::global().snapshot();
  const double Submitted =
      Snap.valueOr("gmdiv_test_batch_mix_submitted_total", {}, -1);
  EXPECT_EQ(Submitted, double(Threads * Jobs));
  EXPECT_EQ(Snap.valueOr("gmdiv_test_batch_mix_completed_total", {}, -2),
            Submitted);
  const double Inline =
      Snap.valueOr("gmdiv_test_batch_mix_inline_total", {}, -1);
  // Both paths ran: 16384-lane jobs never run inline.
  EXPECT_GT(Inline, 0.0);
  EXPECT_LT(Inline, Submitted);
  // Every other job went through the queue.
  EXPECT_EQ(double(queueWaits("gmdiv_test_batch_mix")), Submitted - Inline);
}

TEST(ServiceRegistry, MixedContentionStress) {
  // Small capacity forces constant eviction + table retirement while
  // readers run lock-free: the memory-reclamation scheme's worst case.
  DividerRegistry R(smallOptions(2, 8));
  BatchService Svc(R, workerOptions(2));
  constexpr size_t Threads = 6;
  constexpr size_t Ops = 3000;

  std::vector<std::thread> Pool;
  std::atomic<uint64_t> Checksum{0};
  for (size_t T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      uint64_t Rng = 0xfeed + T;
      uint64_t Local = 0;
      for (size_t I = 0; I < Ops; ++I) {
        const uint32_t D = static_cast<uint32_t>(1 + (splitmix(Rng) % 48));
        const Key K = keyFor<uint32_t>(D);
        switch (I % 4) {
        case 0: {
          const auto E = R.acquire(K);
          ASSERT_NE(E, nullptr);
          Local += E->divide<uint32_t>(1000003);
          break;
        }
        case 1:
          if (const auto E = R.lookup(K))
            Local += E->remainder<uint32_t>(777);
          break;
        case 2:
          R.withEntry(K, [&](const DividerEntry &E) {
            Local += E.remainderBits(31337);
          });
          break;
        case 3:
          if (I % 64 == 3 && T == 0)
            R.clear(); // writer churn against live readers
          else if (const auto E = R.lookup(K))
            Local += E->divide<uint32_t>(42424242);
          break;
        }
      }
      Checksum.fetch_add(Local);
    });
  }

  // Batch traffic through the same registry while it churns.
  std::vector<uint32_t> In(64, 1000), Out(64);
  for (int I = 0; I < 40; ++I)
    Svc.submitRemainder<uint32_t>(static_cast<uint32_t>(3 + I % 11), In,
                                  Out)
        .get();

  for (std::thread &W : Pool)
    W.join();
  Svc.drain();

  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Hits + St.Misses,
            R.shardStats()[0].Hits + R.shardStats()[0].Misses +
                R.shardStats()[1].Hits + R.shardStats()[1].Misses);
  EXPECT_GT(Checksum.load(), 0u);
}

TEST(ServiceRegistry, ReadersNeverSeeAWrongEntryDuringEviction) {
  // A writer admits into one small shard as fast as it can, so nearly
  // every admission evicts and backward-shifts a wrapping cluster,
  // while readers ask for the same keys through all three hit paths.
  // A miss is fine; an entry for another key, or one that divides
  // wrongly, is not.
  constexpr size_t Capacity = 8;
  DividerRegistry R(smallOptions(1, Capacity));
  const std::vector<Key> Pool = wrappingClusterKeys(64, 2 * Capacity);
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Wrong{0}, Hits{0};

  std::vector<std::thread> Readers;
  for (uint64_t T = 0; T < 3; ++T) {
    Readers.emplace_back([&, T] {
      uint64_t Rng = 0x5eed + T;
      uint64_t LocalWrong = 0, LocalHits = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        const Key &K = Pool[splitmix(Rng) % Pool.size()];
        bool Ok = true, Hit = false;
        switch (splitmix(Rng) % 4) {
        case 0: {
          const auto E = R.acquire(K);
          Hit = E != nullptr;
          Ok = Hit && dividesAs(*E, K);
          break;
        }
        case 1:
          if (const auto E = R.lookup(K)) {
            Hit = true;
            Ok = dividesAs(*E, K);
          }
          break;
        default:
          Hit = R.withEntry(K, [&](const DividerEntry &E) {
            Ok = dividesAs(E, K);
          });
          break;
        }
        LocalWrong += !Ok;
        LocalHits += Hit;
      }
      Wrong.fetch_add(LocalWrong);
      Hits.fetch_add(LocalHits);
    });
  }

  uint64_t Rng = 7, NullAdmissions = 0;
  for (int I = 0; I < 20000; ++I)
    NullAdmissions += R.acquire(Pool[splitmix(Rng) % Pool.size()]) == nullptr;
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(NullAdmissions, 0u);
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_GT(Hits.load(), 0u);
  const cache::CacheStats St = R.stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_EQ(St.Inserts - St.Evictions, R.size());
  EXPECT_LE(R.size(), Capacity);
}

} // namespace
} // namespace service
} // namespace gmdiv
