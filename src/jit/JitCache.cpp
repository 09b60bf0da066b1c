//===- jit/JitCache.cpp - Sharded code cache ------------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "jit/JitCache.h"

#include "ops/Bits.h"
#include "trace/Trace.h"

#include <chrono>

using namespace gmdiv;
using namespace gmdiv::jit;

namespace {
uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
} // namespace

const char *gmdiv::jit::seqKindName(SeqKind Kind) {
  switch (Kind) {
  case SeqKind::UDiv:
    return "udiv";
  case SeqKind::URem:
    return "urem";
  case SeqKind::UDivRem:
    return "udivrem";
  case SeqKind::SDiv:
    return "sdiv";
  case SeqKind::SRem:
    return "srem";
  case SeqKind::SDivRem:
    return "sdivrem";
  case SeqKind::FloorDiv:
    return "floordiv";
  case SeqKind::FloorMod:
    return "floormod";
  case SeqKind::FloorDivMod:
    return "floordivmod";
  case SeqKind::UDivisible:
    return "udivisible";
  }
  return "?";
}

std::string gmdiv::jit::describeCacheKey(const CacheKey &Key) {
  std::string Out;
  if (Key.Form == cache::KernelForm::Vector)
    Out += "vec-";
  Out += seqKindName(Key.Kind);
  const bool Signed = isSignedKind(Key.Kind);
  Out += Signed ? "/i" : "/u";
  Out += std::to_string(static_cast<unsigned>(Key.WordBits));
  Out += '/';
  // Divisor is the zero-extended WordBits-wide pattern; sign-extend so
  // i32/-3 prints as -3, not 4294967293.
  Out += Signed ? std::to_string(signExtend64(Key.Divisor, Key.WordBits))
                : std::to_string(Key.Divisor);
  return Out;
}

CodeCache::CodeCache(size_t NumShards, size_t ShardCapacity)
    : Shards(NumShards == 0 ? 1 : NumShards),
      ShardCapacity(ShardCapacity == 0 ? 1 : ShardCapacity) {
  CompileNs.reserve(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    CompileNs.push_back(std::make_unique<metrics::Histogram>());
}

CodeCache::~CodeCache() {
  if (CollectorHandle != 0)
    metrics::Registry::global().removeCollector(CollectorHandle);
}

std::shared_ptr<const CompiledSequence>
CodeCache::getOrCompile(const CacheKey &Key, const Compiler &Compile) {
  const size_t ShardIndex = shardIndexFor(Key);
  Shard &S = Shards[ShardIndex];
  // Every requested key feeds the heavy-hitter sketch (hits included):
  // this path runs per JitDivider construction, not per divide.
  HotKeys.offer(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);

  const size_t Form = static_cast<size_t>(Key.Form);
  auto Found = S.Map.find(Key);
  if (Found != S.Map.end()) {
    S.Lru.splice(S.Lru.begin(), S.Lru, Found->second);
    ++S.Hits;
    ++S.FormHits[Form];
    if (!Found->second->Seq)
      ++S.NegativeHits;
    return Found->second->Seq;
  }

  // Miss: compile under the shard lock so the same divisor is compiled
  // exactly once even when several threads race to it. Contending keys
  // on *other* shards proceed unblocked.
  ++S.Misses;
  ++S.FormMisses[Form];
  std::shared_ptr<const CompiledSequence> Seq;
  {
    GMDIV_TRACE_SPAN("jit", "cache-miss", Key.Divisor);
    const uint64_t T0 = steadyNs();
    Seq = Compile();
    const uint64_t Elapsed = steadyNs() - T0;
    CompileNs[ShardIndex]->record(Elapsed);
    CompileNsAll.record(Elapsed);
  }
  S.Lru.push_front(Entry{Key, Seq});
  S.Map[Key] = S.Lru.begin();
  ++S.Inserts;
  ++S.FormInserts[Form];
  if (S.Lru.size() > ShardCapacity) {
    const Entry &Oldest = S.Lru.back();
    S.Map.erase(Oldest.Key);
    S.Lru.pop_back(); // Holders' shared_ptrs keep the code alive.
    ++S.Evictions;
  }
  return Seq;
}

std::vector<cache::CacheStats> CodeCache::shardStats() const {
  std::vector<cache::CacheStats> Out;
  Out.reserve(Shards.size());
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(S.Mutex));
    cache::CacheStats Row;
    Row.Hits = S.Hits;
    Row.Misses = S.Misses;
    Row.NegativeHits = S.NegativeHits;
    Row.Evictions = S.Evictions;
    Row.Inserts = S.Inserts;
    Row.Entries = S.Lru.size();
    Row.Capacity = ShardCapacity;
    Out.push_back(Row);
  }
  return Out;
}

cache::CacheStats CodeCache::formStats(cache::KernelForm Form) const {
  const size_t F = static_cast<size_t>(Form);
  cache::CacheStats Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(S.Mutex));
    Out.Hits += S.FormHits[F];
    Out.Misses += S.FormMisses[F];
    Out.Inserts += S.FormInserts[F];
  }
  return Out;
}

cache::CacheStats CodeCache::stats() const {
  cache::CacheStats Out;
  for (const cache::CacheStats &Row : shardStats()) {
    Out.Hits += Row.Hits;
    Out.Misses += Row.Misses;
    Out.NegativeHits += Row.NegativeHits;
    Out.Evictions += Row.Evictions;
    Out.Inserts += Row.Inserts;
    Out.Entries += Row.Entries;
    Out.Capacity += Row.Capacity;
  }
  return Out;
}

void CodeCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Lru.clear();
    S.Map.clear();
  }
}

void CodeCache::collect(metrics::SnapshotBuilder &B) const {
  const std::string &P = MetricsPrefix;
  const std::vector<cache::CacheStats> PerShard = shardStats();
  cache::CacheStats Total;
  for (size_t I = 0; I < PerShard.size(); ++I) {
    const cache::CacheStats &Row = PerShard[I];
    const metrics::LabelSet L = {{"shard", std::to_string(I)}};
    B.counter(P + "_shard_hits_total", "Cache lookups that found an entry",
              L, static_cast<double>(Row.Hits));
    B.counter(P + "_shard_misses_total", "Cache lookups that compiled", L,
              static_cast<double>(Row.Misses));
    B.counter(P + "_shard_negative_hits_total",
              "Hits on cached compile failures", L,
              static_cast<double>(Row.NegativeHits));
    B.counter(P + "_shard_evictions_total", "LRU evictions", L,
              static_cast<double>(Row.Evictions));
    B.counter(P + "_shard_inserts_total", "Entries inserted", L,
              static_cast<double>(Row.Inserts));
    B.gauge(P + "_shard_entries", "Entries resident in the shard", L,
            static_cast<double>(Row.Entries));
    B.gauge(P + "_shard_capacity", "Shard LRU capacity", L,
            static_cast<double>(Row.Capacity));
    metrics::Histogram::Cumulative C = CompileNs[I]->cumulative();
    B.histogram(P + "_shard_compile_ns", "Compile latency per shard (ns)",
                L, std::move(C.Bounds), C.Count, C.Sum);
    Total.Hits += Row.Hits;
    Total.Misses += Row.Misses;
    Total.Entries += Row.Entries;
    Total.Capacity += Row.Capacity;
  }
  // Scalar call-per-element kernels vs vector array loops, separable in
  // Prometheus by the form label.
  for (cache::KernelForm F :
       {cache::KernelForm::Scalar, cache::KernelForm::Vector}) {
    const cache::CacheStats FS = formStats(F);
    const metrics::LabelSet L = {{"form", cache::kernelFormName(F)}};
    B.counter(P + "_form_hits_total",
              "Cache hits split by kernel form (scalar vs vector)", L,
              static_cast<double>(FS.Hits));
    B.counter(P + "_form_misses_total",
              "Cache misses split by kernel form (scalar vs vector)", L,
              static_cast<double>(FS.Misses));
    B.counter(P + "_form_inserts_total",
              "Cache inserts split by kernel form (scalar vs vector)", L,
              static_cast<double>(FS.Inserts));
  }
  B.gauge(P + "_entries", "Entries resident across all shards", {},
          static_cast<double>(Total.Entries));
  B.gauge(P + "_capacity", "Total cache capacity", {},
          static_cast<double>(Total.Capacity));
  B.gauge(P + "_hit_ratio", "Hits / lookups since process start", {},
          Total.hitRatio());
  metrics::Histogram::Cumulative C = CompileNsAll.cumulative();
  B.histogram(P + "_compile_ns", "Compile latency, all shards (ns)", {},
              std::move(C.Bounds), C.Count, C.Sum);
  // Heavy-hitter sketch over requested sequence keys; counts are
  // space-saving estimates (exact while _topk_evictions_total is 0).
  const auto Hot = HotKeys.items();
  for (size_t I = 0; I < Hot.size(); ++I) {
    const metrics::LabelSet L = {{"key", describeCacheKey(Hot[I].Key)},
                                 {"rank", std::to_string(I)}};
    B.gauge(P + "_topk",
            "Estimated getOrCompile calls for the hottest sequence keys "
            "(space-saving sketch)",
            L, static_cast<double>(Hot[I].Count));
    B.gauge(P + "_topk_error",
            "Overestimate bound for the matching _topk sample", L,
            static_cast<double>(Hot[I].Error));
  }
  B.gauge(P + "_topk_capacity", "Heavy-hitter sketch slots", {},
          static_cast<double>(HotKeys.capacity()));
  B.counter(P + "_topk_evictions_total",
            "Space-saving sketch evictions (0 means counts are exact)",
            {}, static_cast<double>(HotKeys.evictions()));
}

void CodeCache::exportMetrics(const std::string &Prefix) {
  if (CollectorHandle != 0)
    return;
  MetricsPrefix = Prefix;
  CollectorHandle = metrics::Registry::global().addCollector(
      [this](metrics::SnapshotBuilder &B) { collect(B); });
}

CodeCache &CodeCache::global() {
  // Leaked: the metrics exporter thread may snapshot (and hence run
  // this cache's collector) arbitrarily late in process teardown.
  static CodeCache *Cache = [] {
    CodeCache *C = new CodeCache;
    C->exportMetrics("gmdiv_jit_cache");
    return C;
  }();
  return *Cache;
}
