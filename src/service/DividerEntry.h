//===- service/DividerEntry.h - Type-erased precomputed divider --*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One registry entry owns the precomputed state for a (kind, width,
/// divisor) triple: one BatchDivider, whose core divider (the Figure
/// 4.1/5.1 runtime multiplier) serves every scalar call and whose SIMD
/// array kernels broadcast that same state. Building one is precompute
/// only: no code generation and no executable pages, because a divisor
/// that arrives at run time is exactly the case the paper's runtime
/// algorithms are for.
/// The registry stores entries type-erased behind this interface so
/// one shard table serves all eight lane types; callers that know
/// their lane type get it back through the divide<T>() templates,
/// callers that don't (the batch front door, the tool) use the
/// bit-pattern and array virtuals.
///
/// Entries are immutable after construction (the registry keeps its
/// recency stamps in its own tables), so sharing them across threads
/// with no further synchronization is safe.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_SERVICE_DIVIDERENTRY_H
#define GMDIV_SERVICE_DIVIDERENTRY_H

#include "service/Key.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace gmdiv {
namespace service {

class DividerEntry {
public:
  virtual ~DividerEntry() = default;

  const Key &key() const { return K; }
  OpKind kind() const { return K.Kind; }
  int wordBits() const { return K.WordBits; }
  uint64_t divisorBits() const { return K.DivisorBits; }

  /// Scalar operations over bit patterns at the entry's width. Inputs
  /// are masked (and, for signed kinds, sign-extended) internally;
  /// results come back zero-extended to 64 bits. These are the
  /// lane-type-agnostic form used by the tool and the width-generic
  /// tests.
  virtual uint64_t divideBits(uint64_t NBits) const = 0;
  virtual uint64_t remainderBits(uint64_t NBits) const = 0;
  virtual std::pair<uint64_t, uint64_t> divRemBits(uint64_t NBits) const = 0;

  /// Array operations over native-width lanes; \p In / \p Out point at
  /// \p Count lanes of the entry's width. Routed through the
  /// BatchDivider backends (SIMD when the host has them).
  virtual void divideArray(const void *In, void *Out, size_t Count) const = 0;
  virtual void remainderArray(const void *In, void *Out,
                              size_t Count) const = 0;
  virtual void divRemArray(const void *In, void *Quot, void *Rem,
                           size_t Count) const = 0;

  /// Active batch backend name ("avx2", "sse2", "scalar", ...).
  virtual const char *batchBackend() const = 0;
  /// Human-readable summary for the tool: key, backends, magic state.
  virtual std::string describe() const = 0;

  /// Typed conveniences; the caller's lane type must match the key.
  template <typename T> T divide(T N) const {
    assert(keyFor<T>(1).Kind == K.Kind && sizeof(T) * 8 == K.WordBits &&
           "lane type does not match entry key");
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(
        static_cast<U>(divideBits(static_cast<uint64_t>(static_cast<U>(N)))));
  }
  template <typename T> T remainder(T N) const {
    assert(keyFor<T>(1).Kind == K.Kind && sizeof(T) * 8 == K.WordBits &&
           "lane type does not match entry key");
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(
        remainderBits(static_cast<uint64_t>(static_cast<U>(N)))));
  }

protected:
  explicit DividerEntry(const Key &EntryKey) : K(EntryKey) {}

private:
  Key K;
};

/// Builds the entry for \p K: precomputes its BatchDivider's core
/// divider once. Returns null for an invalid key, never fails for a
/// valid one. The bool is ignored; it stays only until the next change
/// to the end-to-end benchmark (bench/e2e) stops passing it.
std::shared_ptr<const DividerEntry> makeDividerEntry(const Key &K,
                                                     bool Ignored = false);

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_DIVIDERENTRY_H
