//===- service/Registry.cpp - Concurrent divider registry -----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Registry.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace gmdiv {
namespace service {

size_t envKnob(const char *Name, size_t Default, size_t Max) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  char *End = nullptr;
  const long long Parsed = std::strtoll(V, &End, 10);
  if (End == V)
    return Default;
  if (Parsed < 1)
    return 1;
  // Out-of-range text saturates at LLONG_MAX and clamps like any other
  // value past Max.
  const auto Value = static_cast<unsigned long long>(Parsed);
  return Value > Max ? Max : static_cast<size_t>(Value);
}

DividerRegistry::Options DividerRegistry::Options::fromEnv() {
  Options O;
  O.NumShards = envKnob("GMDIV_SERVICE_SHARDS", O.NumShards, MaxShards);
  O.ShardCapacity = envKnob("GMDIV_SERVICE_SHARD_CAPACITY", O.ShardCapacity,
                            MaxShardCapacity);
  O.SampleEvery = static_cast<uint32_t>(
      envKnob("GMDIV_SERVICE_SAMPLE", O.SampleEvery, MaxSampleEvery));
  O.TopKSlots = envKnob("GMDIV_TOPK", O.TopKSlots, MaxTopKSlots);
  return O;
}

DividerRegistry::DividerRegistry(Options Opts)
    : Shards(cache::ceilPow2(std::max<size_t>(1, Opts.NumShards))),
      ShardCapacity(std::max<size_t>(1, Opts.ShardCapacity)),
      BucketsPerShard(cache::ceilPow2(std::max<size_t>(8, ShardCapacity * 2))),
      SampleMask(static_cast<uint32_t>(
          cache::ceilPow2(std::max<uint32_t>(1, Opts.SampleEvery)) - 1)),
      TimedMask(static_cast<uint32_t>(std::min<uint64_t>(
          (SampleMask + uint64_t{1}) * (SampleMask + uint64_t{1}) - 1,
          UINT32_MAX))),
      HotKeySlots(std::max<size_t>(1, Opts.TopKSlots)) {
  LookupNs.reserve(Shards.size());
  for (Shard &S : Shards) {
    S.Current.store(new Table(BucketsPerShard), std::memory_order_release);
    LookupNs.push_back(std::make_unique<metrics::Histogram>());
  }
}

DividerRegistry::~DividerRegistry() {
  if (CollectorHandle != 0)
    metrics::Registry::global().removeCollector(CollectorHandle);
  // Destruction contract: no concurrent readers. Everything retired is
  // past its grace period by definition.
  for (Shard &S : Shards) {
    const Table *Cur = S.Current.load(std::memory_order_acquire);
    for (const Bucket &B : Cur->Buckets)
      delete B.Owner;
    delete Cur;
    for (const Retired &R : S.RetiredTables) {
      delete R.T;
      delete R.Owner;
    }
  }
}

DividerRegistry::Table::Table(size_t BucketCount)
    : Buckets(BucketCount), Use(new Recency[BucketCount]),
      Mask(BucketCount - 1) {
  std::fill_n(Use.get(), BucketCount, Recency{UINT64_MAX, 0});
}

DividerRegistry::Table::Table(const Table &From)
    : Buckets(From.Buckets),
      Use(std::make_unique_for_overwrite<Recency[]>(From.Buckets.size())),
      Mask(From.Mask), Size(From.Size) {
  for (size_t I = 0; I < Buckets.size(); ++I)
    Use[I] = {std::atomic_ref<uint64_t>(From.Use[I].Stamp)
                  .load(std::memory_order_relaxed),
              std::atomic_ref<uint64_t>(From.Use[I].Heat)
                  .load(std::memory_order_relaxed)};
}

size_t DividerRegistry::Table::stalest() const {
  size_t Slot = 0;
  uint64_t Stalest = UINT64_MAX;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    const uint64_t Used = Use[I].Stamp;
    if (Used <= Stalest) {
      // <= so a table of empty slots still yields a slot (last wins).
      Stalest = Used;
      Slot = I;
    }
  }
  return Slot;
}

DividerRegistry::EntryHandle *DividerRegistry::Table::erase(size_t Slot) {
  EntryHandle *Dropped = Buckets[Slot].Owner;
  // Walk the rest of the cluster. A later bucket moves back into the
  // hole unless its home slot lies cyclically in (hole, J]: then the
  // hole is not on its probe path.
  for (size_t J = (Slot + 1) & Mask; Buckets[J].E; J = (J + 1) & Mask) {
    const uint64_t Home = KeyHash()(Buckets[J].K) & Mask;
    if (((J - Home) & Mask) < ((J - Slot) & Mask))
      continue;
    Buckets[Slot] = Buckets[J];
    Use[Slot] = Use[J];
    Slot = J;
  }
  Buckets[Slot] = Bucket{};
  Use[Slot] = {UINT64_MAX, 0};
  --Size;
  return Dropped;
}

void DividerRegistry::Table::insert(const Key &K, uint64_t H,
                                    EntryHandle *Owner, uint64_t Stamp) {
  uint64_t I = H & Mask;
  while (Buckets[I].E)
    I = (I + 1) & Mask;
  Buckets[I] = Bucket{K, Owner->get(), Owner};
  Use[I] = {Stamp, 1};
  ++Size;
}

uint64_t DividerRegistry::steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void DividerRegistry::noteSampledHit(Shard &S, const Table &T,
                                     const Bucket &B, uint32_t Tick,
                                     uint64_t T0) {
  // Heat in hits: a sampled hit stands for SampleEvery of them.
  T.touch(B, S.StampSeq.fetch_add(1, std::memory_order_relaxed),
          SampleMask + uint64_t{1});
  if ((Tick & TimedMask) != 0)
    return;
  const uint64_t Ns = steadyNs() - T0;
  LookupNs[static_cast<size_t>(&S - Shards.data())]->record(Ns);
  LookupNsAll.record(Ns);
}

DividerRegistry::EntryHandle DividerRegistry::lookup(const Key &K) {
  if (!K.valid()) {
    InvalidKeys.inc();
    return nullptr;
  }
  const uint64_t H = KeyHash()(K);
  Shard &S = Shards[shardIndexFor(H)];
  EntryHandle E;
  if (!probe(S, K, H, [&E](const Bucket &B) { E = *B.Owner; }))
    S.Misses.inc();
  return E;
}

DividerRegistry::EntryHandle DividerRegistry::acquire(const Key &K) {
  if (!K.valid()) {
    InvalidKeys.inc();
    return nullptr;
  }
  const uint64_t H = KeyHash()(K);
  Shard &S = Shards[shardIndexFor(H)];
  EntryHandle Found;
  if (probe(S, K, H, [&Found](const Bucket &B) { Found = *B.Owner; }))
    return Found;

  std::lock_guard<std::mutex> Lock(S.WriterMutex);
  // Only this shard's writer replaces Current and we hold its lock, so
  // the raw load needs no epoch guard.
  const Table *Cur = S.Current.load(std::memory_order_relaxed);
  if (const Bucket *B = Cur->find(K, H)) {
    // Late hit: another thread admitted the key between our probe and
    // the lock. Build-once means this counts as a hit, keeping
    // Misses == Inserts exact.
    S.Hits.inc();
    return *B->Owner;
  }

  S.Misses.inc();
  const uint64_t Admit0 = steadyNs();
  auto Owner = std::make_unique<EntryHandle>(makeDividerEntry(K));
  AdmitNsAll.record(steadyNs() - Admit0);

  // Copy-and-patch: the published table minus the stalest entry when
  // full, plus the new key. Only the victim's cluster moves.
  auto *NewT = new Table(*Cur);
  EntryHandle *Victim = nullptr;
  if (NewT->Size >= ShardCapacity) {
    Victim = NewT->erase(NewT->stalest());
    S.Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  EntryHandle *Admitted = Owner.release();
  NewT->insert(K, H, Admitted,
               S.StampSeq.fetch_add(1, std::memory_order_relaxed));
  S.Inserts.fetch_add(1, std::memory_order_relaxed);
  publish(S, NewT, {&Victim, Victim ? 1u : 0u});
  return *Admitted;
}

void DividerRegistry::publish(Shard &S, const Table *NewT,
                              std::span<EntryHandle *const> Dropped) {
  const Table *Old = S.Current.load(std::memory_order_relaxed);
  S.Current.store(NewT, std::memory_order_seq_cst);
  EpochDomain &D = EpochDomain::global();
  const uint64_t Tag = D.retire();
  S.RetiredTables.push_back({Old, nullptr, Tag});
  for (EntryHandle *Owner : Dropped)
    S.RetiredTables.push_back({nullptr, Owner, Tag});
  // Reclaim everything whose grace period has elapsed: no active
  // reader announced an epoch older than its retirement tag.
  const uint64_t MinActive = D.minActive();
  auto Keep = S.RetiredTables.begin();
  for (Retired &R : S.RetiredTables) {
    if (R.Epoch <= MinActive) {
      delete R.T;
      delete R.Owner;
    } else {
      *Keep++ = R;
    }
  }
  S.RetiredTables.erase(Keep, S.RetiredTables.end());
}

void DividerRegistry::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.WriterMutex);
    std::vector<EntryHandle *> Dropped;
    for (const Bucket &B : S.Current.load(std::memory_order_relaxed)->Buckets)
      if (B.Owner)
        Dropped.push_back(B.Owner);
    publish(S, new Table(BucketsPerShard), Dropped);
  }
}

std::vector<cache::CacheStats> DividerRegistry::shardStats() const {
  std::vector<cache::CacheStats> Out(Shards.size());
  EpochDomain::Guard G(EpochDomain::global());
  for (size_t I = 0; I < Shards.size(); ++I) {
    const Shard &S = Shards[I];
    cache::CacheStats &Row = Out[I];
    Row.Hits = S.Hits.value();
    Row.Misses = S.Misses.value();
    Row.Evictions = S.Evictions.load(std::memory_order_relaxed);
    Row.Inserts = S.Inserts.load(std::memory_order_relaxed);
    Row.Entries = S.Current.load(std::memory_order_seq_cst)->Size;
    Row.Capacity = ShardCapacity;
  }
  return Out;
}

cache::CacheStats DividerRegistry::stats() const {
  cache::CacheStats Total;
  for (const cache::CacheStats &Row : shardStats())
    Total += Row;
  return Total;
}

size_t DividerRegistry::size() const {
  size_t N = 0;
  EpochDomain::Guard G(EpochDomain::global());
  for (const Shard &S : Shards)
    N += S.Current.load(std::memory_order_seq_cst)->Size;
  return N;
}

std::vector<DividerRegistry::HotKey> DividerRegistry::hotKeys() const {
  std::vector<HotKey> Hot;
  {
    EpochDomain::Guard G(EpochDomain::global());
    for (const Shard &S : Shards) {
      const Table *T = S.Current.load(std::memory_order_seq_cst);
      for (size_t I = 0; I < T->Buckets.size(); ++I)
        if (T->Buckets[I].E)
          Hot.push_back({T->Buckets[I].K,
                         std::atomic_ref<uint64_t>(T->Use[I].Heat)
                             .load(std::memory_order_relaxed)});
    }
  }
  const size_t N = std::min(HotKeySlots, Hot.size());
  std::partial_sort(Hot.begin(), Hot.begin() + static_cast<ptrdiff_t>(N),
                    Hot.end(), [](const HotKey &A, const HotKey &B) {
                      return A.Heat > B.Heat;
                    });
  Hot.resize(N);
  return Hot;
}

void DividerRegistry::collect(metrics::SnapshotBuilder &B) const {
  const std::string &P = MetricsPrefix;
  const std::vector<cache::CacheStats> PerShard = shardStats();
  cache::CacheStats Total;
  for (size_t I = 0; I < PerShard.size(); ++I) {
    const cache::CacheStats &Row = PerShard[I];
    const metrics::LabelSet L = {{"shard", std::to_string(I)}};
    B.counter(P + "_shard_hits_total",
              "Registry lookups that found an entry", L,
              static_cast<double>(Row.Hits));
    B.counter(P + "_shard_misses_total",
              "Registry lookups that found nothing (admissions and "
              "absent keys)",
              L, static_cast<double>(Row.Misses));
    B.counter(P + "_shard_evictions_total", "LRU evictions", L,
              static_cast<double>(Row.Evictions));
    B.counter(P + "_shard_inserts_total", "Entries admitted", L,
              static_cast<double>(Row.Inserts));
    B.gauge(P + "_shard_entries", "Entries resident in the shard", L,
            static_cast<double>(Row.Entries));
    B.gauge(P + "_shard_capacity", "Shard capacity", L,
            static_cast<double>(Row.Capacity));
    metrics::Histogram::Cumulative C = LookupNs[I]->cumulative();
    B.histogram(P + "_shard_lookup_ns",
                "Timed hit-path lookup latency per shard, 1 hit in "
                "SampleEvery^2 (ns)",
                L,
                std::move(C.Bounds), C.Count, C.Sum);
    Total += Row;
  }
  B.counter(P + "_invalid_keys_total",
            "Lookups rejected up front (zero divisor, bad width)", {},
            static_cast<double>(InvalidKeys.value()));
  B.gauge(P + "_entries", "Entries resident across all shards", {},
          static_cast<double>(Total.Entries));
  B.gauge(P + "_capacity", "Total registry capacity", {},
          static_cast<double>(Total.Capacity));
  B.gauge(P + "_occupancy",
          "Resident entries / capacity across all shards", {},
          Total.Capacity ? static_cast<double>(Total.Entries) /
                               static_cast<double>(Total.Capacity)
                         : 0.0);
  B.gauge(P + "_hit_ratio", "Hits / lookups since process start", {},
          Total.hitRatio());
  metrics::Histogram::Cumulative CL = LookupNsAll.cumulative();
  B.histogram(P + "_lookup_ns",
              "Timed hit-path lookup latency, all shards, 1 hit in "
              "SampleEvery^2 (ns)",
              {},
              std::move(CL.Bounds), CL.Count, CL.Sum);
  metrics::Histogram::Cumulative CA = AdmitNsAll.cumulative();
  B.histogram(P + "_admit_ns",
              "Entry construction latency on admission (ns)", {},
              std::move(CA.Bounds), CA.Count, CA.Sum);
  // Heat of the hottest resident keys, one scan of the tables.
  const std::vector<HotKey> Hot = hotKeys();
  for (size_t I = 0; I < Hot.size(); ++I) {
    const metrics::LabelSet L = {{"key", Hot[I].K.describe()},
                                 {"rank", std::to_string(I)}};
    B.gauge(P + "_topk",
            "Heat of the hottest resident divisor keys: hits since "
            "admission, estimated from sampled hits",
            L, static_cast<double>(Hot[I].Heat));
  }
  B.gauge(P + "_topk_capacity", "Hottest resident keys exported as _topk",
          {}, static_cast<double>(HotKeySlots));
}

void DividerRegistry::exportMetrics(const std::string &Prefix) {
  if (CollectorHandle != 0)
    return;
  MetricsPrefix = Prefix;
  CollectorHandle = metrics::Registry::global().addCollector(
      [this](metrics::SnapshotBuilder &B) { collect(B); });
}

DividerRegistry &DividerRegistry::global() {
  // Leaked: the metrics exporter thread may snapshot (and hence run
  // this registry's collector) arbitrarily late in process teardown.
  static DividerRegistry *R = [] {
    auto *Registry = new DividerRegistry(Options::fromEnv());
    Registry->exportMetrics("gmdiv_service_registry");
    return Registry;
  }();
  return *R;
}

} // namespace service
} // namespace gmdiv
