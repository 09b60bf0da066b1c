//===- service/Key.h - Registry key: (kind, width, divisor) ------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service registry serves precomputed dividers keyed by operation
/// kind, word width, and the divisor's bit pattern. The divisor is
/// stored masked to the width (zero-extended), so keyFor<int32_t>(-7)
/// and keyFor<uint32_t>(...) with the same bits are distinct only
/// through Kind.
///
/// The cache:: pieces below are the registry's table policy: the key
/// mix that picks shard and bucket, power-of-two sizing, and the
/// counter snapshot its metrics collector exports.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_SERVICE_KEY_H
#define GMDIV_SERVICE_KEY_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace gmdiv {
namespace cache {

/// splitmix64 finalizer: full-avalanche mix of a packed key. The
/// registry derives shard index and bucket index from it, so a dense
/// divisor range (1, 2, 3, ...) still spreads uniformly.
constexpr uint64_t mixBits(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Smallest power of two >= \p X (and >= 1). Tables size their bucket
/// arrays with this so index = hash & (buckets - 1).
constexpr size_t ceilPow2(size_t X) {
  assert(X <= (size_t{1} << 63) && "no power of two above X fits");
  size_t P = 1;
  while (P < X)
    P <<= 1;
  return P;
}

/// Point-in-time counter snapshot of the registry. Hits counts every
/// lookup that found an entry; Inserts counts entries added (for
/// acquire()-only traffic Misses == Inserts, kept separately as a
/// consistency check).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
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
    Evictions += Other.Evictions;
    Inserts += Other.Inserts;
    Entries += Other.Entries;
    Capacity += Other.Capacity;
    return *this;
  }
};

} // namespace cache

namespace service {

/// Which divider family an entry implements. Unsigned is Figure 4.1
/// (UnsignedDivider), Signed is the trunc-rounding Figure 5.1
/// (SignedDivider). Floor/ceil variants stay on the core/batch surface;
/// the service tier serves the router/partitioner cases.
enum class OpKind : uint8_t {
  Unsigned = 0,
  Signed = 1,
};

const char *opKindName(OpKind Kind);

/// (op-kind, width, divisor bit pattern). DivisorBits holds the
/// divisor masked to WordBits — for signed kinds it is the two's
/// complement pattern zero-extended to 64 bits.
struct Key {
  OpKind Kind = OpKind::Unsigned;
  uint8_t WordBits = 0;
  uint64_t DivisorBits = 0;

  bool operator==(const Key &Other) const {
    return Kind == Other.Kind && WordBits == Other.WordBits &&
           DivisorBits == Other.DivisorBits;
  }

  /// True when the key can be admitted: a supported width, no stray
  /// bits above it, and a nonzero divisor. (There is no "negative
  /// caching" in the registry — invalid keys are rejected up front and
  /// never occupy a slot.)
  bool valid() const {
    if (WordBits != 8 && WordBits != 16 && WordBits != 32 && WordBits != 64)
      return false;
    if (WordBits < 64 && (DivisorBits >> WordBits) != 0)
      return false;
    return DivisorBits != 0;
  }

  /// "u32/7", "i16/-3": the form used in remarks and describe() output.
  std::string describe() const;
};

struct KeyHash {
  size_t operator()(const Key &K) const {
    return static_cast<size_t>(cache::mixBits(
        K.DivisorBits ^ (static_cast<uint64_t>(K.WordBits) << 8) ^
        static_cast<uint64_t>(K.Kind)));
  }
};

/// Canonical key for dividing native \p T values by \p Divisor.
template <typename T> Key keyFor(T Divisor) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "service keys cover native integer lanes");
  using U = std::make_unsigned_t<T>;
  Key K;
  K.Kind = std::is_signed_v<T> ? OpKind::Signed : OpKind::Unsigned;
  K.WordBits = static_cast<uint8_t>(sizeof(T) * 8);
  K.DivisorBits = static_cast<uint64_t>(static_cast<U>(Divisor));
  return K;
}

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_KEY_H
