//===- jit/CachePolicy.h - Shared divider-cache policy pieces ----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Policy pieces shared by every divider cache in the repo: the JIT
/// CodeCache (src/jit) and the service-tier DividerRegistry
/// (src/service) key on the same (kind, width, divisor) shape, report
/// the same counter set, and spread keys over shards with the same
/// mix. Keeping the bit-mixing and the counter vocabulary here means
/// "hit ratio" and "shard" mean the same thing in gmdiv_jit_cache_*
/// and gmdiv_service_registry_* metric families.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_CACHEPOLICY_H
#define GMDIV_JIT_CACHEPOLICY_H

#include <cstddef>
#include <cstdint>

namespace gmdiv {
namespace cache {

/// splitmix64 finalizer: full-avalanche mix of a packed key. Both the
/// JIT cache and the service registry derive shard index and bucket
/// index from this, so a dense divisor range (1, 2, 3, ...) still
/// spreads uniformly.
constexpr uint64_t mixBits(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Smallest power of two >= \p X (and >= 1). Cache tables size their
/// bucket arrays with this so index = hash & (buckets - 1).
constexpr size_t ceilPow2(size_t X) {
  size_t P = 1;
  while (P < X)
    P <<= 1;
  return P;
}

/// Shape of the machine code a cached entry holds: a Scalar call-per-
/// element function (the classic JIT) or a Vector array loop (the
/// AVX2/AVX-512 batch JIT). Part of the cache key — the same (kind,
/// width, divisor) triple compiles to different code per form — and the
/// label that splits the gmdiv_jit_cache_form_* metrics.
enum class KernelForm : uint8_t {
  Scalar,
  Vector,
};

inline const char *kernelFormName(KernelForm Form) {
  return Form == KernelForm::Vector ? "vector" : "scalar";
}

/// Point-in-time counter snapshot shared by every divider cache; each
/// owner's metrics collector exports it. Hits counts every
/// lookup that found an entry; NegativeHits is the subset that found a
/// cached *failure* (null entry; the service registry never caches
/// failures, so it reports 0). Inserts counts entries added
/// (Misses == Inserts is an invariant both caches maintain, kept
/// separately as a consistency check).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t NegativeHits = 0;
  uint64_t Evictions = 0;
  uint64_t Inserts = 0;
  size_t Entries = 0;
  size_t Capacity = 0;

  /// Hits / (Hits + Misses); 0 before any lookup.
  double hitRatio() const {
    const uint64_t Lookups = Hits + Misses;
    return Lookups ? static_cast<double>(Hits) /
                         static_cast<double>(Lookups)
                   : 0.0;
  }

  CacheStats &operator+=(const CacheStats &Other) {
    Hits += Other.Hits;
    Misses += Other.Misses;
    NegativeHits += Other.NegativeHits;
    Evictions += Other.Evictions;
    Inserts += Other.Inserts;
    Entries += Other.Entries;
    Capacity += Other.Capacity;
    return *this;
  }
};

} // namespace cache
} // namespace gmdiv

#endif // GMDIV_JIT_CACHEPOLICY_H
