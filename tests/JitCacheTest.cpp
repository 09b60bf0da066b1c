//===- tests/JitCacheTest.cpp - Sharded code cache tests ------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache contracts front-ends rely on: compile-once per key (hit
/// counters prove it), cross-thread sharing of one compiled sequence,
/// and eviction that drops the cache's reference without invalidating
/// handles already held. The mechanics tests drive the cache with a
/// counting stand-in compiler so they run identically on hosts without
/// the x86-64 backend; the execution tests gate on jit::vectorJitIsa().
///
//===----------------------------------------------------------------------===//

#include "jit/JitCache.h"

#include "jit/JitBatchDivider.h"
#include "metrics/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::jit;

namespace {

/// A distinct (never-executed) sequence object, so pointer identity
/// distinguishes "shared" from "recompiled".
std::shared_ptr<const CompiledSequence> makeDummy() {
  return std::make_shared<const CompiledSequence>(ExecBuffer(),
                                                  VectorLoopShape());
}

TEST(JitCache, CompileOncePerKey) {
  CodeCache Cache(4, 8);
  const CacheKey Key{SeqKind::UDiv, 32, 7};
  std::atomic<int> Compiles{0};
  const auto Compiler = [&] {
    ++Compiles;
    return makeDummy();
  };

  const auto First = Cache.getOrCompile(Key, Compiler);
  const auto Second = Cache.getOrCompile(Key, Compiler);
  EXPECT_EQ(Compiles.load(), 1);
  EXPECT_EQ(First.get(), Second.get());

  const cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
}

TEST(JitCache, DistinctKeysCompileSeparately) {
  CodeCache Cache(4, 8);
  std::atomic<int> Compiles{0};
  const auto Compiler = [&] {
    ++Compiles;
    return makeDummy();
  };
  // Kind, width, and divisor each split the key space.
  Cache.getOrCompile({SeqKind::UDiv, 32, 7}, Compiler);
  Cache.getOrCompile({SeqKind::URem, 32, 7}, Compiler);
  Cache.getOrCompile({SeqKind::UDiv, 64, 7}, Compiler);
  Cache.getOrCompile({SeqKind::UDiv, 32, 9}, Compiler);
  EXPECT_EQ(Compiles.load(), 4);
  EXPECT_EQ(Cache.stats().Entries, 4u);
  // The telemetry name of a key (top-K labels, `gmdiv_tool top`):
  // signed kinds print the divisor sign-extended.
  EXPECT_EQ(describeCacheKey({SeqKind::URem, 32, 7}), "urem/u32/7");
  EXPECT_EQ(describeCacheKey({SeqKind::SDiv, 32, 0xfffffffd}), "sdiv/i32/-3");
}

TEST(JitCache, FailedCompileIsCachedNegative) {
  CodeCache Cache(4, 8);
  const CacheKey Key{SeqKind::SDiv, 32, 0};
  std::atomic<int> Compiles{0};
  const auto Failing = [&]() -> std::shared_ptr<const CompiledSequence> {
    ++Compiles;
    return nullptr;
  };
  EXPECT_EQ(Cache.getOrCompile(Key, Failing), nullptr);
  EXPECT_EQ(Cache.getOrCompile(Key, Failing), nullptr);
  // The bail was attempted once, then served from the cache.
  EXPECT_EQ(Compiles.load(), 1);
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

TEST(JitCache, CrossThreadReuseCompilesOnce) {
  CodeCache Cache(4, 16);
  constexpr int NumKeys = 8;
  std::atomic<int> Compiles{0};
  std::vector<std::shared_ptr<const CompiledSequence>> Seen(
      static_cast<size_t>(NumKeys));
  std::mutex SeenMutex;
  std::atomic<bool> Shared{true};

  const auto Worker = [&] {
    for (int Round = 0; Round < 500; ++Round) {
      const int K = Round % NumKeys;
      const CacheKey Key{SeqKind::UDiv, 32,
                         static_cast<uint64_t>(3 + 2 * K)};
      const auto Seq = Cache.getOrCompile(Key, [&] {
        ++Compiles;
        return makeDummy();
      });
      std::lock_guard<std::mutex> Lock(SeenMutex);
      auto &Expected = Seen[static_cast<size_t>(K)];
      if (!Expected)
        Expected = Seq;
      else if (Expected.get() != Seq.get())
        Shared = false;
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();

  // Every thread saw the same sequence per key, and no key compiled
  // twice even with 4 threads racing to it.
  EXPECT_TRUE(Shared.load());
  EXPECT_EQ(Compiles.load(), NumKeys);
  EXPECT_EQ(Cache.stats().Misses, static_cast<uint64_t>(NumKeys));
}

TEST(JitCache, EvictionKeepsHeldHandlesAlive) {
  // One shard, capacity two: the third insert must evict the LRU entry.
  CodeCache Cache(1, 2);
  std::atomic<int> Compiles{0};
  const auto Compiler = [&] {
    ++Compiles;
    return makeDummy();
  };
  const CacheKey A{SeqKind::UDiv, 32, 3};
  const CacheKey B{SeqKind::UDiv, 32, 5};
  const CacheKey C{SeqKind::UDiv, 32, 7};

  const auto HandleA = Cache.getOrCompile(A, Compiler);
  Cache.getOrCompile(B, Compiler);
  EXPECT_EQ(Cache.stats().Evictions, 0u);

  Cache.getOrCompile(C, Compiler); // Evicts A (least recently used).
  cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Stats.Entries, 2u);

  // The evicted handle is still alive — eviction drops the cache's
  // reference, not ours.
  EXPECT_NE(HandleA, nullptr);
  EXPECT_EQ(HandleA.use_count(), 1);

  // Re-requesting A recompiles (it is gone from the cache), and B —
  // refreshed less recently than C — is the one evicted next.
  Cache.getOrCompile(A, Compiler);
  EXPECT_EQ(Compiles.load(), 4);
  EXPECT_EQ(Cache.stats().Evictions, 2u);
}

TEST(JitCache, EvictedSequencesStillExecute) {
  VectorEmitOptions Opts;
  if (!vectorJitIsa(Opts.Isa))
    GTEST_SKIP() << "vector jit unavailable on this host/config";
  // Real compiled loops this time: hold the first one, force it out of
  // a tiny cache, and run it after eviction.
  CodeCache Cache(1, 1);
  const auto First = compileVectorCached(Cache, {SeqKind::UDiv, 32, 7}, Opts);
  ASSERT_NE(First, nullptr);
  const auto Second =
      compileVectorCached(Cache, {SeqKind::UDiv, 32, 11}, Opts);
  ASSERT_NE(Second, nullptr);
  EXPECT_GE(Cache.stats().Evictions, 1u);

  const size_t Lanes = static_cast<size_t>(First->vectorShape().Lanes);
  std::vector<uint32_t> In(4 * Lanes), Out(In.size());
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = static_cast<uint32_t>(1000 + 977 * I);
  ASSERT_EQ(First->batchFn()(In.data(), Out.data(), nullptr, In.size()),
            In.size());
  for (size_t I = 0; I < In.size(); ++I)
    ASSERT_EQ(Out[I], In[I] / 7u) << "n=" << In[I];
  ASSERT_EQ(Second->batchFn()(In.data(), Out.data(), nullptr, In.size()),
            In.size());
  for (size_t I = 0; I < In.size(); ++I)
    ASSERT_EQ(Out[I], In[I] / 11u) << "n=" << In[I];
}

TEST(JitCache, CountersExactUnderFourThreadContention) {
  // Shard counters are plain integers mutated under the shard mutex,
  // so even with four threads hammering the same keys the totals are
  // exact, not approximate.
  CodeCache Cache(4, 64);
  constexpr int NumThreads = 4;
  constexpr int RoundsPerThread = 1000;
  constexpr int NumKeys = 16;
  std::atomic<int> Compiles{0};
  const auto Worker = [&] {
    for (int Round = 0; Round < RoundsPerThread; ++Round) {
      const CacheKey Key{SeqKind::UDiv, 32,
                         static_cast<uint64_t>(3 + 2 * (Round % NumKeys))};
      Cache.getOrCompile(Key, [&] {
        ++Compiles;
        return makeDummy();
      });
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();

  const cache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses,
            static_cast<uint64_t>(NumThreads) * RoundsPerThread);
  EXPECT_EQ(S.Misses, static_cast<uint64_t>(NumKeys));
  EXPECT_EQ(S.Inserts, S.Misses);
  EXPECT_EQ(S.NegativeHits, 0u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.Entries, static_cast<size_t>(NumKeys));
  EXPECT_EQ(Compiles.load(), NumKeys);
  // One compile-latency observation per miss, none lost.
  EXPECT_EQ(Cache.compileLatency().count(),
            static_cast<uint64_t>(NumKeys));
  EXPECT_DOUBLE_EQ(S.hitRatio(),
                   static_cast<double>(S.Hits) /
                       static_cast<double>(S.Hits + S.Misses));
}

TEST(JitCache, NegativeHitsAreTheCachedFailureSubset) {
  CodeCache Cache(2, 8);
  std::atomic<int> Compiles{0};
  const auto Failing = [&]() -> std::shared_ptr<const CompiledSequence> {
    ++Compiles;
    return nullptr;
  };
  const CacheKey Bad{SeqKind::SDiv, 32, 0};
  Cache.getOrCompile(Bad, Failing); // Miss, caches the failure.
  Cache.getOrCompile(Bad, Failing); // Hit on the null entry.
  Cache.getOrCompile(Bad, Failing);
  // A successful entry's hits are NOT negative hits.
  const CacheKey Good{SeqKind::UDiv, 32, 7};
  Cache.getOrCompile(Good, [&] { return makeDummy(); });
  Cache.getOrCompile(Good, [&] { return makeDummy(); });

  const cache::CacheStats S = Cache.stats();
  EXPECT_EQ(Compiles.load(), 1);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.NegativeHits, 2u);
}

TEST(JitCache, ShardStatsSumToAggregate) {
  CodeCache Cache(8, 4);
  std::atomic<int> Compiles{0};
  const auto Compiler = [&] {
    ++Compiles;
    return makeDummy();
  };
  // Enough keys to spread over shards and force some evictions.
  for (int Round = 0; Round < 3; ++Round)
    for (uint64_t D = 3; D < 120; D += 2)
      Cache.getOrCompile({SeqKind::UDiv, 32, D}, Compiler);

  const std::vector<cache::CacheStats> PerShard = Cache.shardStats();
  ASSERT_EQ(PerShard.size(), Cache.numShards());
  cache::CacheStats Sum;
  for (const cache::CacheStats &Row : PerShard) {
    EXPECT_EQ(Row.Capacity, Cache.shardCapacity());
    EXPECT_LE(Row.Entries, Row.Capacity);
    Sum.Hits += Row.Hits;
    Sum.Misses += Row.Misses;
    Sum.NegativeHits += Row.NegativeHits;
    Sum.Evictions += Row.Evictions;
    Sum.Inserts += Row.Inserts;
    Sum.Entries += Row.Entries;
    Sum.Capacity += Row.Capacity;
  }
  const cache::CacheStats Total = Cache.stats();
  EXPECT_EQ(Sum.Hits, Total.Hits);
  EXPECT_EQ(Sum.Misses, Total.Misses);
  EXPECT_EQ(Sum.NegativeHits, Total.NegativeHits);
  EXPECT_EQ(Sum.Evictions, Total.Evictions);
  EXPECT_EQ(Sum.Inserts, Total.Inserts);
  EXPECT_EQ(Sum.Entries, Total.Entries);
  EXPECT_EQ(Sum.Capacity, Total.Capacity);
  EXPECT_EQ(Total.Misses, static_cast<uint64_t>(Compiles.load()));
  EXPECT_GT(Total.Evictions, 0u) << "8x4 cache with 59 keys must evict";
}

TEST(JitCache, ExportMetricsPublishesPerShardAndAggregateSeries) {
  CodeCache Cache(2, 8);
  Cache.exportMetrics("gmdiv_test_jitcache");
  const auto Compiler = [] { return makeDummy(); };
  for (uint64_t D = 3; D < 13; D += 2) {
    Cache.getOrCompile({SeqKind::UDiv, 32, D}, Compiler);
    Cache.getOrCompile({SeqKind::UDiv, 32, D}, Compiler);
  }
  const cache::CacheStats Total = Cache.stats();

  const metrics::Snapshot Snap = metrics::Registry::global().snapshot();
  // Aggregate gauges.
  EXPECT_EQ(Snap.valueOr("gmdiv_test_jitcache_entries", {}, -1),
            static_cast<double>(Total.Entries));
  EXPECT_EQ(Snap.valueOr("gmdiv_test_jitcache_capacity", {}, -1), 16.0);
  EXPECT_DOUBLE_EQ(Snap.valueOr("gmdiv_test_jitcache_hit_ratio", {}, -1),
                   Total.hitRatio());
  // Per-shard counters sum back to the aggregate.
  double ShardHits = 0, ShardMisses = 0;
  for (int I = 0; I < 2; ++I) {
    const metrics::LabelSet L = {{"shard", std::to_string(I)}};
    ShardHits +=
        Snap.valueOr("gmdiv_test_jitcache_shard_hits_total", L, 0);
    ShardMisses +=
        Snap.valueOr("gmdiv_test_jitcache_shard_misses_total", L, 0);
  }
  EXPECT_EQ(ShardHits, static_cast<double>(Total.Hits));
  EXPECT_EQ(ShardMisses, static_cast<double>(Total.Misses));
  // The compile-latency histogram counts exactly the misses.
  const metrics::Sample *Latency =
      Snap.find("gmdiv_test_jitcache_compile_ns");
  ASSERT_NE(Latency, nullptr);
  EXPECT_EQ(Latency->Count, Total.Misses);
}

TEST(JitCache, DestructionUnregistersTheCollector) {
  {
    CodeCache Cache(2, 8);
    Cache.exportMetrics("gmdiv_test_jitcache_scoped");
    Cache.getOrCompile({SeqKind::UDiv, 32, 3}, [] { return makeDummy(); });
    EXPECT_GE(metrics::Registry::global().snapshot().valueOr(
                  "gmdiv_test_jitcache_scoped_entries", {}, -1),
              1.0);
  }
  // After the cache dies its collector must be gone, or the next
  // snapshot would touch freed memory.
  EXPECT_EQ(metrics::Registry::global().snapshot().valueOr(
                "gmdiv_test_jitcache_scoped_entries", {}, -1),
            -1.0);
}

TEST(JitCache, GlobalCacheSharesAcrossDividers) {
  const cache::CacheStats Before = CodeCache::global().stats();
  const JitBatchDivider<uint32_t> One(54323);
  const JitBatchDivider<uint32_t> Two(54323);
  const cache::CacheStats After = CodeCache::global().stats();
  if (One.usesJit()) {
    // The second divider's four loops (div, rem, divRem, divisible)
    // were all cache hits, and it runs the very same code.
    EXPECT_GE(After.Hits - Before.Hits, 4u);
    EXPECT_EQ(One.compiledDivide(), Two.compiledDivide());
  } else {
    // With the vector jit off no divider touches the cache.
    EXPECT_EQ(After.Hits + After.Misses, Before.Hits + Before.Misses);
  }
  const std::vector<uint32_t> In = {0u, 1u, 54322u, 54323u, 0xffffffffu};
  std::vector<uint32_t> Q(In.size()), R(In.size());
  One.divide(In.data(), Q.data(), In.size());
  Two.remainder(In.data(), R.data(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Q[I], In[I] / 54323u);
    EXPECT_EQ(R[I], In[I] % 54323u);
  }
}

} // namespace
