//===- tests/ServiceRegistryTest.cpp - Divider registry contracts ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Contracts of the service tier (src/service): key validation,
// compile-once admission under contention, lock-free lookup counters,
// LRU eviction liveness, bit-for-bit agreement with the core dividers,
// the async batch front door's ordering and error paths, and the
// metrics-plane export. The TSan CI leg runs this whole file; the
// MixedContentionStress test at the bottom is the data-race hammer.
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
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gmdiv {
namespace service {
namespace {

uint64_t splitmix(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  return cache::mixBits(State);
}

DividerRegistry::Options smallOptions(size_t Shards, size_t Capacity,
                                      bool UseJit = false) {
  DividerRegistry::Options O;
  O.NumShards = Shards;
  O.ShardCapacity = Capacity;
  O.UseJit = UseJit;
  O.SampleEvery = 1; // deterministic recency stamps for LRU tests
  return O;
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
  DividerRegistry R(smallOptions(8, 64, /*UseJit=*/false));
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
  // On hosts without the JIT backend (or GMDIV_NO_JIT=1) the entries
  // fall back to the interpreter inside JitDivider; agreement must
  // hold either way.
  DividerRegistry R(smallOptions(8, 64, /*UseJit=*/true));
  expectAgreesWithCore<uint32_t>(R);
  expectAgreesWithCore<uint64_t>(R);
  expectAgreesWithCore<int32_t>(R);
  expectAgreesWithCore<int64_t>(R);
}

TEST(ServiceRegistry, SignedWrapCaseAgreesWithCore) {
  DividerRegistry R(smallOptions(1, 8, /*UseJit=*/true));
  const auto E = R.acquireFor<int32_t>(-1);
  ASSERT_NE(E, nullptr);
  const SignedDivider<int32_t> Ref(-1);
  const int32_t Min = std::numeric_limits<int32_t>::min();
  EXPECT_EQ(E->divide<int32_t>(Min), Ref.divide(Min)); // wraps, no trap
}

TEST(ServiceRegistry, ArrayOpsMatchScalarLoops) {
  DividerRegistry R(smallOptions(2, 16, /*UseJit=*/false));
  const auto E = R.acquireFor<uint32_t>(7);
  ASSERT_NE(E, nullptr);

  uint64_t Rng = 99;
  std::vector<uint32_t> In(97), Q(97), Rem(97), WantQ(97), WantR(97);
  for (size_t I = 0; I < In.size(); ++I) {
    In[I] = static_cast<uint32_t>(splitmix(Rng));
    WantQ[I] = In[I] / 7;
    WantR[I] = In[I] % 7;
  }
  E->divideArray(In.data(), Q.data(), In.size());
  EXPECT_EQ(Q, WantQ);
  E->remainderArray(In.data(), Rem.data(), In.size());
  EXPECT_EQ(Rem, WantR);
  std::fill(Q.begin(), Q.end(), 0u);
  std::fill(Rem.begin(), Rem.end(), 0u);
  E->divRemArray(In.data(), Q.data(), Rem.data(), In.size());
  EXPECT_EQ(Q, WantQ);
  EXPECT_EQ(Rem, WantR);
}

//===----------------------------------------------------------------------===//
// Compile-once admission under contention
//===----------------------------------------------------------------------===//

TEST(ServiceRegistry, EightThreadCompileOncePerKey) {
  // Eight threads race acquire() over the same key set (JIT precompute
  // on, so admission is expensive enough to overlap). Every thread
  // must observe the same entry per key, and each key must be built
  // exactly once.
  constexpr size_t Threads = 8;
  constexpr size_t NumKeys = 24;
  constexpr size_t Rounds = 50;
  DividerRegistry R(smallOptions(4, 64, /*UseJit=*/true));

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
  constexpr size_t Threads = 8;
  constexpr size_t NumKeys = 32;
  constexpr size_t Rounds = 400;
  DividerRegistry R(smallOptions(8, 64, /*UseJit=*/false));

  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      uint64_t Rng = 0xabc + T;
      for (size_t Round = 0; Round < Rounds; ++Round) {
        const uint32_t D =
            static_cast<uint32_t>(1 + (splitmix(Rng) % NumKeys));
        ASSERT_NE(R.acquireFor<uint32_t>(D), nullptr);
      }
    });
  }
  for (std::thread &W : Pool)
    W.join();

  const cache::CacheStats St = R.stats();
  EXPECT_EQ(St.Hits + St.Misses, Threads * Rounds);
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

} // namespace
} // namespace service
} // namespace gmdiv
