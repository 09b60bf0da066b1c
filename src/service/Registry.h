//===- service/Registry.h - Concurrent divider registry ----------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's premise is that invariant-divisor precomputation
/// amortizes across many divisions. This registry owns that
/// amortization under concurrent traffic: a process-wide cache of
/// precomputed DividerEntry handles keyed by (kind, width, divisor),
/// shaped for read-mostly workloads — hash-sharding routers and
/// partitioners that resolve a divisor per message.
///
/// Structure: keys spread over power-of-two shards (cache::mixBits).
/// Each shard publishes an open-addressing table through an atomic
/// pointer. The hit path — lookup() / withEntry() — never takes a
/// mutex: it pins the epoch domain (service/Epoch.h), loads the
/// published table, probes, and reads the entry through the bucket's
/// raw pointer (copying out the registry's shared_ptr only for
/// lookup() and acquire()). Writers (acquire() on a miss) serialize on
/// a per-shard mutex, re-probe (build-once: latecomers on the same key
/// become "late hits"), precompute the entry (no code generation),
/// then publish a patched copy of the table and retire the old one
/// through the epoch domain.
///
/// Admission is copy-and-patch: buckets are trivially copyable (key,
/// raw entry pointer, pointer to the registry's owning reference), so
/// the copy touches no reference count; a full shard removes its victim
/// from the private copy by backward-shift deletion and the new key
/// takes the first empty slot on its probe path. Only the victim's
/// probe cluster moves; no other resident is rehashed. The victim's
/// owning reference is dropped with the retired table, once its grace
/// period ends.
///
/// Eviction is size-capped approximate LRU: each table carries one
/// recency record per bucket, its only mutable part: a stamp drawn from
/// a per-shard sequence and a heat count. *Sampled* hits (1 in
/// Options::SampleEvery) take the next stamp and add SampleEvery to the
/// heat; an admission takes the next stamp and starts the heat at 1. No
/// lock and no clock read is involved, so LRU order is strict at
/// SampleEvery = 1. A rebuild copies the records and evicts the smallest
/// stamp; an update that lands on a table being retired is lost, which
/// an approximate LRU accepts. hotKeys() ranks resident keys by heat.
/// Handles are shared_ptr: eviction drops the registry's reference,
/// never the entry — holders keep dividing.
///
/// The lookup-latency histograms time one sampled hit in SampleEvery,
/// so the only clock reads on the hit path are 1 in SampleEvery².
///
/// Counters per shard: Hits/Misses on wait-free striped
/// metrics::Counter (exact at snapshot); Inserts/Evictions as plain
/// words under the writer mutex. For acquire()-only workloads
/// Misses == Inserts exactly (the consistency check the tests rely
/// on); lookup() misses on absent keys add to Misses without an
/// insert. Everything is exported to the metrics plane under
/// gmdiv_service_registry_* (see exportMetrics).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_SERVICE_REGISTRY_H
#define GMDIV_SERVICE_REGISTRY_H

#include "metrics/Metrics.h"
#include "service/DividerEntry.h"
#include "service/Epoch.h"
#include "service/Key.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace gmdiv {
namespace service {

/// The integer environment knob \p Name: \p Default when unset, empty
/// or not a number, 0 when negative, LLONG_MAX when past it. Every
/// service knob reads through this; the Options' clamped() brings the
/// value into its range.
size_t envKnob(const char *Name, size_t Default);

class DividerRegistry {
public:
  struct Options {
    /// Shard count; rounded up to a power of two.
    size_t NumShards = 16;
    /// Entries per shard; total capacity is the product.
    size_t ShardCapacity = 256;
    /// Ignored: admission is precompute only and never compiles code.
    /// Stays only until the next change to the end-to-end benchmark
    /// (bench/e2e) stops reading it.
    bool UseJit = true;
    /// Recency-stamp and heat sampling period, rounded up to a power
    /// of two; lookup latency is timed on one sampled hit in
    /// SampleEvery (at most 1 hit in 2^32). 1 = every hit (strict LRU,
    /// exact heat, used by tests).
    uint32_t SampleEvery = 64;
    /// How many of the hottest resident keys hotKeys() reports
    /// (gmdiv_service_registry_topk, `gmdiv_tool top`).
    size_t TopKSlots = 32;

    /// Upper ends of the fields' ranges (each starts at 1). Shards x
    /// capacity at both maxima is 2^24 entries, whose tables (two
    /// 48-byte buckets per entry) take 1.5 GiB; SampleEvery stays a
    /// uint32_t power of two.
    static constexpr size_t MaxShards = 256;
    static constexpr size_t MaxShardCapacity = size_t{1} << 16;
    static constexpr size_t MaxSampleEvery = size_t{1} << 31;
    static constexpr size_t MaxTopKSlots = 4096;

    /// These options with every field clamped to [1, Max...], so no
    /// value can overflow a table size. The constructor applies it.
    Options clamped() const;

    /// Reads GMDIV_SERVICE_SHARDS, GMDIV_SERVICE_SHARD_CAPACITY,
    /// GMDIV_SERVICE_SAMPLE and GMDIV_TOPK (see envKnob), clamped().
    static Options fromEnv();
  };

  using EntryHandle = std::shared_ptr<const DividerEntry>;

  explicit DividerRegistry(Options Opts = Options::fromEnv());
  /// Destruction requires that no other thread is inside lookup/
  /// withEntry/acquire on this registry (the global() instance is
  /// leaked for exactly that reason).
  ~DividerRegistry();

  /// Lock-free hit path: returns the entry for \p K or null (miss or
  /// invalid key). Never admits, never blocks on a writer.
  EntryHandle lookup(const Key &K);

  /// Lookup-or-admit. On a miss, takes the shard writer lock,
  /// re-probes (another thread may have admitted the key — that is a
  /// hit, not a second build), builds the entry once and publishes
  /// it. Returns null only for invalid keys.
  EntryHandle acquire(const Key &K);

  /// acquire() for a native divisor: acquireFor<uint32_t>(7).
  template <typename T> EntryHandle acquireFor(T Divisor) {
    return acquire(keyFor<T>(Divisor));
  }

  /// Zero-refcount hit path for per-message routing: runs
  /// \p F(const DividerEntry &) under the epoch guard without copying
  /// the shared_ptr. \p F must be short and must not re-enter writer
  /// paths of this registry. Returns false on miss (F not called).
  template <typename Fn> bool withEntry(const Key &K, Fn &&F) {
    if (!K.valid()) {
      InvalidKeys.inc();
      return false;
    }
    const uint64_t H = KeyHash()(K);
    Shard &S = Shards[shardIndexFor(H)];
    if (probe(S, K, H, [&F](const Bucket &B) { F(*B.E); }))
      return true;
    S.Misses.inc();
    return false;
  }

  /// Aggregate counters over every shard.
  cache::CacheStats stats() const;
  /// Per-shard counters, index = shard number.
  std::vector<cache::CacheStats> shardStats() const;
  size_t numShards() const { return Shards.size(); }
  size_t shardCapacity() const { return ShardCapacity; }
  /// Options::SampleEvery rounded up to a power of two.
  uint32_t sampleEvery() const { return SampleMask + 1; }
  size_t topKSlots() const { return HotKeySlots; }
  /// Entries resident right now (sums the published tables).
  size_t size() const;
  /// Invalid-key rejections (d = 0, unsupported width); never cached.
  uint64_t invalidKeys() const { return InvalidKeys.value(); }

  /// Drops every entry (counters keep accumulating). Takes every
  /// writer lock; concurrent readers stay safe via the epoch domain.
  void clear();

  struct HotKey {
    Key K;
    /// Hits since admission, estimated from sampled hits: 1 at
    /// admission plus SampleEvery per sampled hit (exact at 1).
    uint64_t Heat;
  };
  /// The Options::TopKSlots hottest resident keys, hottest first (ties
  /// in no particular order), from one scan of the published tables.
  /// An evicted key leaves the list. Exported as <prefix>_topk and
  /// printed by `gmdiv_tool top`.
  std::vector<HotKey> hotKeys() const;

  /// Hit-path lookup latency (ns) of timed hits (1 in SampleEvery²),
  /// aggregated over shards.
  const metrics::Histogram &lookupLatency() const { return LookupNsAll; }
  /// Entry-construction latency (ns): core + batch precompute.
  const metrics::Histogram &admitLatency() const { return AdmitNsAll; }

  /// Registers per-shard hit/miss/insert/eviction counters, occupancy
  /// and hit-ratio gauges and lookup/admit latency histograms with the
  /// global metrics registry under \p Prefix (the global() instance
  /// uses "gmdiv_service_registry"). Idempotent; the destructor
  /// unregisters.
  void exportMetrics(const std::string &Prefix);

  /// The process-wide registry (leaked), built from Options::fromEnv()
  /// and exported as gmdiv_service_registry_*.
  static DividerRegistry &global();

private:
  /// Trivially copyable, so a rebuild copies buckets without touching
  /// a reference count. Every read goes through E; Owner is the
  /// registry's one counted reference, which lookup() and acquire()
  /// copy out and which is deleted with the last table naming it.
  struct Bucket {
    Key K{};
    const DividerEntry *E = nullptr; ///< Null = empty slot (no tombstones).
    EntryHandle *Owner = nullptr;
  };
  static_assert(std::is_trivially_copyable_v<Bucket>);

  /// A bucket's mutable part. On a published table every access goes
  /// through std::atomic_ref (sampled hits write it while a writer
  /// copies it); an unpublished table is private to its writer, which
  /// reads and moves records as plain words.
  struct Recency {
    /// From the shard's StampSeq; UINT64_MAX = empty slot.
    uint64_t Stamp;
    uint64_t Heat;
  };
  static_assert(alignof(Recency) >=
                std::atomic_ref<uint64_t>::required_alignment);

  /// Linear-probing table with load <= 0.5, so probes on a published
  /// table always terminate at an empty slot. Immutable once published
  /// except Use, one recency record per bucket.
  struct Table {
    std::vector<Bucket> Buckets;
    std::unique_ptr<Recency[]> Use;
    uint64_t Mask = 0;
    size_t Size = 0;

    explicit Table(size_t BucketCount);
    /// A private copy of the published \p From: same geometry, records
    /// as read now.
    explicit Table(const Table &From);

    const Bucket *find(const Key &K, uint64_t H) const {
      for (uint64_t I = H & Mask;; I = (I + 1) & Mask) {
        const Bucket &B = Buckets[I];
        if (!B.E)
          return nullptr;
        if (B.K == K)
          return &B;
      }
    }

    void touch(const Bucket &B, uint64_t Stamp, uint64_t Weight) const {
      Recency &R = Use[static_cast<size_t>(&B - Buckets.data())];
      std::atomic_ref<uint64_t>(R.Stamp).store(Stamp,
                                               std::memory_order_relaxed);
      std::atomic_ref<uint64_t>(R.Heat).fetch_add(Weight,
                                                  std::memory_order_relaxed);
    }

    /// Slot with the smallest stamp.
    size_t stalest() const;
    /// Backward-shift deletion of \p Slot on an unpublished table;
    /// returns the removed bucket's owning reference.
    EntryHandle *erase(size_t Slot);
    /// Puts \p K in the first empty slot on its probe path, on an
    /// unpublished table, with heat 1.
    void insert(const Key &K, uint64_t H, EntryHandle *Owner,
                uint64_t Stamp);
  };

  /// A table and/or an owning reference no published table names any
  /// more (either may be null).
  struct Retired {
    const Table *T;
    EntryHandle *Owner;
    uint64_t Epoch; ///< Free once Epoch <= EpochDomain::minActive().
  };

  struct alignas(64) Shard {
    /// The published table; readers load it under an epoch guard.
    std::atomic<const Table *> Current{nullptr};
    /// Wait-free striped counters: written by the lock-free hit path.
    metrics::Counter Hits;
    metrics::Counter Misses;
    /// Recency stamps for sampled hits and admissions alike; on its own
    /// line so sampled hits do not invalidate Current.
    alignas(64) std::atomic<uint64_t> StampSeq{0};
    /// Everything below is written only under WriterMutex; the insert
    /// and eviction counts are atomics so stats() can read them
    /// without taking the lock.
    std::mutex WriterMutex;
    std::atomic<uint64_t> Inserts{0};
    std::atomic<uint64_t> Evictions{0};
    std::vector<Retired> RetiredTables;
  };

  size_t shardIndexFor(uint64_t H) const {
    // High bits: the low bits pick the bucket inside the table.
    return static_cast<size_t>(H >> 48) & (Shards.size() - 1);
  }

  /// The hit path of lookup(), acquire() and withEntry(): pins the
  /// epoch, probes the published table and, on a hit, runs
  /// \p OnHit(const Bucket &) under the pin and counts the hit.
  /// A miss counts nothing; the caller decides what it was. Unsampled,
  /// the only locked instruction is the pin and nothing is called.
  template <typename Fn>
  bool probe(Shard &S, const Key &K, uint64_t H, Fn &&OnHit) {
    const uint32_t Tick = nextTick();
    const bool Sampled = (Tick & SampleMask) == 0;
    const uint64_t T0 = Sampled && (Tick & TimedMask) == 0 ? steadyNs() : 0;
    EpochDomain::Guard G(EpochDomain::global());
    const Table *T = S.Current.load(std::memory_order_seq_cst);
    const Bucket *B = T->find(K, H);
    if (!B)
      return false;
    OnHit(*B);
    if (Sampled) [[unlikely]]
      noteSampledHit(S, *T, *B, Tick, T0);
    S.Hits.inc();
    return true;
  }

  /// Per-thread operation count: a hit is sampled when its tick is a
  /// multiple of SampleEvery and timed when it is a multiple of
  /// TimedMask + 1.
  static uint32_t nextTick() {
    thread_local uint32_t Tick = 0;
    return ++Tick;
  }
  static uint64_t steadyNs();
  /// A sampled hit's bookkeeping: a fresh recency stamp and SampleEvery
  /// heat on \p B and, if \p Tick is timed, the lookup latency since
  /// \p T0.
  void noteSampledHit(Shard &S, const Table &T, const Bucket &B,
                      uint32_t Tick, uint64_t T0);

  /// Publishes \p NewT in \p S and retires the old table together with
  /// the owning references in \p Dropped; then frees everything retired
  /// whose grace period has elapsed. Caller holds S.WriterMutex.
  void publish(Shard &S, const Table *NewT,
               std::span<EntryHandle *const> Dropped);

  void collect(metrics::SnapshotBuilder &B) const;

  std::vector<Shard> Shards;
  size_t ShardCapacity;
  size_t BucketsPerShard;
  uint32_t SampleMask;
  /// SampleEvery² − 1, saturated at 32 bits.
  uint32_t TimedMask;
  size_t HotKeySlots;
  metrics::Counter InvalidKeys;
  /// Timed lookup latency: per shard + aggregate.
  std::vector<std::unique_ptr<metrics::Histogram>> LookupNs;
  metrics::Histogram LookupNsAll;
  metrics::Histogram AdmitNsAll;
  std::string MetricsPrefix;
  uint64_t CollectorHandle = 0;
};

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_REGISTRY_H
