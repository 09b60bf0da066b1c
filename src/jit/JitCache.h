//===- jit/JitCache.h - Sharded code cache for compiled sequences -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's setting is an *invariant* divisor: the same (kind,
/// width, divisor) triple recurs across calls and threads, so compiled
/// sequences are cached and shared. The cache is sharded — the key
/// hashes to one of NumShards independent LRU maps, each behind its own
/// mutex — so concurrent front-ends on different divisors rarely
/// contend on a lock, while threads dividing by the *same* divisor get
/// compile-once semantics (the compile runs under the owning shard's
/// lock; latecomers block briefly and then share the entry).
///
/// Entries are shared_ptr handles: eviction drops the cache's
/// reference, never the code — a JitBatchDivider holding an evicted
/// loop keeps calling it safely, and the pages unmap when the last
/// holder goes away.
///
/// Compilation *failures* are cached too (as null entries), so a
/// program the vector emitter bails on is attempted once, not per
/// divider construction.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JITCACHE_H
#define GMDIV_JIT_JITCACHE_H

#include "jit/CachePolicy.h"
#include "jit/Jit.h"
#include "metrics/Metrics.h"
#include "prof/TopK.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gmdiv {
namespace jit {

/// Which lowering a cached sequence implements. Part of the cache key:
/// the same divisor yields different programs for divide vs remainder
/// vs divRem.
enum class SeqKind : uint8_t {
  UDiv,
  URem,
  UDivRem,
  SDiv,
  SRem,
  SDivRem,
  FloorDivMod, ///< Figure 6.1 (listed by `gmdiv_tool jit <d> <w> floor`).
  UDivisible,  ///< §9 branch-free "d divides n" filter (unsigned).
};

const char *seqKindName(SeqKind Kind);

/// True for the kinds whose operands are signed (trunc and floor).
constexpr bool isSignedKind(SeqKind Kind) {
  return Kind == SeqKind::SDiv || Kind == SeqKind::SRem ||
         Kind == SeqKind::SDivRem || Kind == SeqKind::FloorDivMod;
}

/// "udiv/u32/7": the human form used by the top-K exposition and
/// `gmdiv_tool top`.
std::string describeCacheKey(const struct CacheKey &Key);

/// (op-kind, width, divisor bit pattern).
struct CacheKey {
  SeqKind Kind;
  uint8_t WordBits;
  uint64_t Divisor;

  bool operator==(const CacheKey &Other) const {
    return Kind == Other.Kind && WordBits == Other.WordBits &&
           Divisor == Other.Divisor;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey &Key) const {
    // splitmix64-style mix over the packed key (cache::mixBits).
    return static_cast<size_t>(cache::mixBits(
        Key.Divisor ^ (static_cast<uint64_t>(Key.WordBits) << 8) ^
        static_cast<uint64_t>(Key.Kind)));
  }
};

class CodeCache {
public:
  /// \p ShardCapacity is per shard; total capacity is the product.
  explicit CodeCache(size_t NumShards = 16, size_t ShardCapacity = 128);
  ~CodeCache();

  using Compiler =
      std::function<std::shared_ptr<const CompiledSequence>()>;

  /// Returns the cached sequence for \p Key, compiling it with
  /// \p Compile on first request. The returned handle may be null when
  /// compilation failed (cached negative result) — callers fall back to
  /// the static batch kernels.
  std::shared_ptr<const CompiledSequence> getOrCompile(const CacheKey &Key,
                                                       const Compiler &Compile);

  /// Aggregate over every shard.
  cache::CacheStats stats() const;
  /// Per-shard counters, index = shard number. The hit-rate telemetry
  /// the metrics plane exposes per shard comes from here.
  std::vector<cache::CacheStats> shardStats() const;
  size_t numShards() const { return Shards.size(); }
  size_t shardCapacity() const { return ShardCapacity; }

  /// Compile-latency distribution (ns), aggregated over all shards;
  /// per-shard histograms are reachable through the metrics snapshot.
  const metrics::Histogram &compileLatency() const { return CompileNsAll; }

  /// Heavy-hitter sketch over requested sequence keys (every
  /// getOrCompile call, hits included). Exported as <prefix>_topk.
  const prof::TopK<CacheKey, CacheKeyHash> &hotKeys() const {
    return HotKeys;
  }

  /// Drops every entry (counters keep accumulating).
  void clear();

  /// Registers this cache's counters, occupancy gauges, hit-rate gauge
  /// and compile-latency histograms with the global metrics registry
  /// under \p Prefix (e.g. "gmdiv_jit_cache" publishes
  /// gmdiv_jit_cache_shard_hits_total{shard="..."} and friends).
  /// Idempotent; the destructor unregisters, so test-local caches are
  /// safe to export under their own prefix.
  void exportMetrics(const std::string &Prefix);

  /// The process-wide cache all JitBatchDivider instances share;
  /// exported to the metrics registry as gmdiv_jit_cache_*.
  static CodeCache &global();

private:
  struct Entry {
    CacheKey Key;
    std::shared_ptr<const CompiledSequence> Seq;
  };
  struct Shard {
    std::mutex Mutex;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        Map;
    // Counters are written and read under Mutex: the lock is already
    // taken on every path that touches them, so snapshots are exact.
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t NegativeHits = 0;
    uint64_t Evictions = 0;
    uint64_t Inserts = 0;
  };

  Shard &shardFor(const CacheKey &Key) {
    return Shards[shardIndexFor(Key)];
  }
  size_t shardIndexFor(const CacheKey &Key) const {
    return CacheKeyHash()(Key) % Shards.size();
  }

  void collect(metrics::SnapshotBuilder &B) const;

  std::vector<Shard> Shards;
  size_t ShardCapacity;
  /// Hottest sequence keys; capacity from GMDIV_TOPK (default 32).
  /// getOrCompile is a per-divider-construction path, not per-divide,
  /// so the sketch mutex is uncontended in practice.
  prof::TopK<CacheKey, CacheKeyHash> HotKeys{prof::topKCapacityFromEnv(32)};
  /// Compile latency in ns: one histogram per shard plus the aggregate
  /// (each compile records into both; compiles are rare).
  std::vector<std::unique_ptr<metrics::Histogram>> CompileNs;
  metrics::Histogram CompileNsAll;
  std::string MetricsPrefix;
  uint64_t CollectorHandle = 0;
};

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JITCACHE_H
