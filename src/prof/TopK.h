//===- prof/TopK.h - Space-saving heavy-hitter sketch ----------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded top-K heavy-hitter sketch (Metwally-Agrawal-El Abbadi
/// "space-saving") over an arbitrary key type. The JIT code cache feeds
/// one with its keys so the metrics exposition can answer "which
/// divisors dominate compiles" without an unbounded per-key counter
/// map. (The divider registry needs no sketch: it ranks its resident
/// keys by a per-bucket heat count; see service/Registry.h.)
///
/// Invariants of the algorithm (and what the tests check):
///   - At most K slots are ever allocated; memory is O(K).
///   - Every reported count overestimates the true count by at most the
///     reported per-slot Error, i.e. Count - Error <= true <= Count.
///   - If the stream is skewed so that the true top-K keys each occur
///     more often than the (K+1)-th key plus the maximum error, the
///     identified key *set* is exactly the true top-K.
///   - With capacity >= distinct keys no eviction ever happens, every
///     Error is 0, and counts equal exact reference counts.
///
/// offer() takes an internal mutex: callers on hot paths are expected
/// to sample (the JIT cache offers on compile-or-lookup calls, far from
/// per-divide).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_PROF_TOPK_H
#define GMDIV_PROF_TOPK_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace gmdiv {
namespace prof {

/// Read the shared sketch capacity knob. GMDIV_TOPK=<n> overrides the
/// caller's default; values outside [1, 4096] are clamped.
inline size_t topKCapacityFromEnv(size_t Default) {
  const char *Env = std::getenv("GMDIV_TOPK");
  if (!Env || !*Env)
    return Default;
  const long V = std::strtol(Env, nullptr, 10);
  if (V < 1)
    return 1;
  if (V > 4096)
    return 4096;
  return static_cast<size_t>(V);
}

template <typename KeyT, typename HashT = std::hash<KeyT>> class TopK {
public:
  struct Item {
    KeyT Key;
    /// Estimated occurrence count (an overestimate by at most Error).
    uint64_t Count = 0;
    /// Count inherited from the evicted slot at admission time; the
    /// true count is bounded below by Count - Error.
    uint64_t Error = 0;
  };

  explicit TopK(size_t Capacity = 32) : Cap(Capacity ? Capacity : 1) {
    Slots.reserve(Cap);
    Index.reserve(Cap);
  }

  /// Credit \p Weight occurrences to \p Key. Weight lets sampled
  /// callers scale back up to an estimate of the unsampled stream
  /// (offer(K, SamplePeriod) once per sampled hit).
  void offer(const KeyT &Key, uint64_t Weight = 1) {
    std::lock_guard<std::mutex> Lock(Mutex);
    TotalOffered += Weight;
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Slots[It->second].Count += Weight;
      return;
    }
    if (Slots.size() < Cap) {
      Index.emplace(Key, Slots.size());
      Slots.push_back(Item{Key, Weight, 0});
      return;
    }
    // Space-saving eviction: the new key inherits the minimum slot's
    // count as its error bound.
    size_t Min = 0;
    for (size_t I = 1; I < Slots.size(); ++I)
      if (Slots[I].Count < Slots[Min].Count)
        Min = I;
    ++Evictions;
    Index.erase(Slots[Min].Key);
    const uint64_t Inherited = Slots[Min].Count;
    Slots[Min] = Item{Key, Inherited + Weight, Inherited};
    Index.emplace(Key, Min);
  }

  /// Current contents, sorted by descending estimated count.
  std::vector<Item> items() const {
    std::vector<Item> Out;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Out = Slots;
    }
    std::sort(Out.begin(), Out.end(), [](const Item &A, const Item &B) {
      return A.Count > B.Count;
    });
    return Out;
  }

  size_t capacity() const { return Cap; }

  /// Total weight offered over the sketch's lifetime (exact).
  uint64_t totalOffered() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return TotalOffered;
  }

  /// Number of space-saving evictions (0 means every count is exact).
  uint64_t evictions() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Evictions;
  }

private:
  mutable std::mutex Mutex;
  size_t Cap;
  std::unordered_map<KeyT, size_t, HashT> Index;
  std::vector<Item> Slots;
  uint64_t TotalOffered = 0;
  uint64_t Evictions = 0;
};

} // namespace prof
} // namespace gmdiv

#endif // GMDIV_PROF_TOPK_H
