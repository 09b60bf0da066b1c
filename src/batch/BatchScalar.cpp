//===- batch/BatchScalar.cpp - Portable scalar/SWAR backend ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The always-available fallback backend: plain loops over the core
// dividers' per-element Figure 4.1/5.1 sequences, plus one genuinely
// packed path — a SWAR kernel for 8-bit unsigned lanes that runs the
// Figure 4.1 sequence on eight bytes packed in a uint64_t. Because every
// 16-bit sublane product m' * byte is < 2^16, a single 64-bit multiply
// computes four byte-MULUHs with no cross-lane carries.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchKernels.h"

#include <cstring>
#include <tuple>
#include <type_traits>

namespace gmdiv {
namespace batch {
namespace {

//===----------------------------------------------------------------------===//
// SWAR helpers: eight 8-bit lanes in a uint64_t.
//===----------------------------------------------------------------------===//

constexpr uint64_t EvenBytes = 0x00FF00FF00FF00FFull;
constexpr uint64_t OddBytes = 0xFF00FF00FF00FF00ull;
constexpr uint64_t SignBits = 0x8080808080808080ull;

inline uint64_t repeatByte(uint8_t B) {
  return 0x0101010101010101ull * B;
}

/// Lane-wise x - y (mod 256 per byte, no cross-lane borrow).
inline uint64_t swarSub8(uint64_t X, uint64_t Y) {
  return ((X | SignBits) - (Y & ~SignBits)) ^ ((X ^ ~Y) & SignBits);
}

/// Lane-wise x + y (mod 256 per byte, no cross-lane carry).
inline uint64_t swarAdd8(uint64_t X, uint64_t Y) {
  return ((X & ~SignBits) + (Y & ~SignBits)) ^ ((X ^ Y) & SignBits);
}

/// Lane-wise logical right shift by a uniform count.
inline uint64_t swarSrl8(uint64_t X, int Count) {
  return (X >> Count) & repeatByte(static_cast<uint8_t>(0xFF >> Count));
}

/// Figure 4.1 on eight packed bytes: two 64-bit multiplies replace
/// eight widening byte multiplies.
inline uint64_t swarDivide8(const UnsignedDivider<uint8_t> &Div,
                            uint64_t Packed) {
  const uint64_t M = Div.magic();
  const uint64_t ProdEven = (Packed & EvenBytes) * M;
  const uint64_t ProdOdd = ((Packed >> 8) & EvenBytes) * M;
  const uint64_t T1 = ((ProdEven >> 8) & EvenBytes) | (ProdOdd & OddBytes);
  const uint64_t Diff = swarSub8(Packed, T1);
  const uint64_t Sum = swarAdd8(T1, swarSrl8(Diff, Div.preShift()));
  return swarSrl8(Sum, Div.postShift());
}

//===----------------------------------------------------------------------===//
// Generic scalar kernels
//===----------------------------------------------------------------------===//

// Both state kinds carry their core divider as S.Div, so one loop serves
// unsigned and signed lanes.

template <class State, typename T>
void divideLoop(const State &S, const T *In, T *Out, size_t Count) {
  size_t I = 0;
  if constexpr (std::is_same_v<T, uint8_t>) {
    // SWAR bulk path: eight lanes per 64-bit word.
    for (; I + 8 <= Count; I += 8) {
      uint64_t Packed;
      std::memcpy(&Packed, In + I, 8);
      const uint64_t Q = swarDivide8(S.Div, Packed);
      std::memcpy(Out + I, &Q, 8);
    }
  }
  for (; I < Count; ++I)
    Out[I] = S.Div.divide(In[I]);
}

template <class State, typename T>
void remainderLoop(const State &S, const T *In, T *Out, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] = S.Div.remainder(In[I]);
}

template <class State, typename T>
void divRemLoop(const State &S, const T *In, T *Quot, T *Rem, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    std::tie(Quot[I], Rem[I]) = S.Div.divRem(In[I]);
}

template <typename T>
void divisibleU(const UnsignedBatchState<T> &S, const T *In, uint8_t *Out,
                size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] = S.Exact.isDivisible(In[I]) ? 1 : 0;
}

template <typename T, int Round>
void roundDivideS(const SignedBatchState<T> &S, const T *In, T *Out,
                  size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] = roundDivideOne<Round>(S.Div, In[I]);
}

template <typename T> constexpr UnsignedKernels<T> makeUnsigned() {
  using S = UnsignedBatchState<T>;
  return {divideLoop<S, T>, remainderLoop<S, T>, divRemLoop<S, T>,
          divisibleU<T>};
}
template <typename T> constexpr SignedKernels<T> makeSigned() {
  using S = SignedBatchState<T>;
  return {divideLoop<S, T>, remainderLoop<S, T>, divRemLoop<S, T>,
          roundDivideS<T, -1>, roundDivideS<T, 1>};
}

} // namespace

const KernelTables &scalarKernels() {
  static const KernelTables Tables = {
      makeUnsigned<uint8_t>(),  makeUnsigned<uint16_t>(),
      makeUnsigned<uint32_t>(), makeUnsigned<uint64_t>(),
      makeSigned<int8_t>(),     makeSigned<int16_t>(),
      makeSigned<int32_t>(),    makeSigned<int64_t>()};
  return Tables;
}

} // namespace batch
} // namespace gmdiv
