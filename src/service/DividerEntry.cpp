//===- service/DividerEntry.cpp - Type-erased precomputed divider ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/DividerEntry.h"

#include "batch/BatchDivider.h"

#include <sstream>

namespace gmdiv {
namespace service {

const char *opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Unsigned:
    return "udiv";
  case OpKind::Signed:
    return "sdiv";
  }
  return "?";
}

std::string Key::describe() const {
  std::ostringstream OS;
  OS << (Kind == OpKind::Signed ? 'i' : 'u') << int(WordBits) << '/';
  if (Kind == OpKind::Signed && WordBits > 0 && WordBits <= 64) {
    // Sign-extend the stored pattern for display.
    const uint64_t SignBit = uint64_t{1} << (WordBits - 1);
    OS << static_cast<int64_t>((DivisorBits ^ SignBit) - SignBit);
  } else {
    OS << DivisorBits;
  }
  return OS.str();
}

namespace {

template <typename T> class TypedEntry final : public DividerEntry {
  using U = std::make_unsigned_t<T>;

  static T fromBits(uint64_t Bits) {
    return static_cast<T>(static_cast<U>(Bits));
  }
  static uint64_t toBits(T Value) {
    return static_cast<uint64_t>(static_cast<U>(Value));
  }

public:
  TypedEntry(const Key &EntryKey, T Divisor)
      : DividerEntry(EntryKey), Batch(Divisor) {}

  // Scalar calls run the batch divider's own core divider, so one
  // admission does one precompute.
  uint64_t divideBits(uint64_t NBits) const override {
    return toBits(Batch.scalar().divide(fromBits(NBits)));
  }
  uint64_t remainderBits(uint64_t NBits) const override {
    return toBits(Batch.scalar().remainder(fromBits(NBits)));
  }
  std::pair<uint64_t, uint64_t> divRemBits(uint64_t NBits) const override {
    const auto [Q, R] = Batch.scalar().divRem(fromBits(NBits));
    return {toBits(Q), toBits(R)};
  }

  void divideArray(const void *In, void *Out, size_t Count) const override {
    Batch.divide(static_cast<const T *>(In), static_cast<T *>(Out), Count);
  }
  void remainderArray(const void *In, void *Out,
                      size_t Count) const override {
    Batch.remainder(static_cast<const T *>(In), static_cast<T *>(Out), Count);
  }
  void divRemArray(const void *In, void *Quot, void *Rem,
                   size_t Count) const override {
    Batch.divRem(static_cast<const T *>(In), static_cast<T *>(Quot),
                 static_cast<T *>(Rem), Count);
  }

  const char *batchBackend() const override {
    return batch::backendName(Batch.backend());
  }
  std::string describe() const override {
    std::ostringstream OS;
    OS << key().describe() << " scalar=divider batch=" << batchBackend();
    return OS.str();
  }

private:
  batch::BatchDivider<T> Batch;
};

template <typename T>
std::shared_ptr<const DividerEntry> makeTyped(const Key &K) {
  using U = std::make_unsigned_t<T>;
  const T Divisor = static_cast<T>(static_cast<U>(K.DivisorBits));
  return std::make_shared<TypedEntry<T>>(K, Divisor);
}

} // namespace

std::shared_ptr<const DividerEntry> makeDividerEntry(const Key &K, bool) {
  if (!K.valid())
    return nullptr;
  if (K.Kind == OpKind::Unsigned) {
    switch (K.WordBits) {
    case 8:
      return makeTyped<uint8_t>(K);
    case 16:
      return makeTyped<uint16_t>(K);
    case 32:
      return makeTyped<uint32_t>(K);
    case 64:
      return makeTyped<uint64_t>(K);
    }
  } else {
    switch (K.WordBits) {
    case 8:
      return makeTyped<int8_t>(K);
    case 16:
      return makeTyped<int16_t>(K);
    case 32:
      return makeTyped<int32_t>(K);
    case 64:
      return makeTyped<int64_t>(K);
    }
  }
  return nullptr;
}

} // namespace service
} // namespace gmdiv
