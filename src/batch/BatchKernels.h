//===- batch/BatchKernels.h - Batch kernel internals ------------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internals shared by the batch backends: the per-divisor state, the
/// floor/ceil fix-ups, and the kernel function tables one per backend.
///
/// The state is the core dividers themselves (core/Divider.h,
/// core/ExactDiv.h): the Figure 4.1/5.1 m' and shift counts and the §9
/// inverse are computed once per divisor, and both halves of a kernel
/// read that one object. A SIMD body broadcasts the values it needs
/// through the accessors (magic(), preShift(), postShift(),
/// divisorSign(), inverse(), shift(), maxQuotient()); every scalar tail
/// calls the core divide/remainder/divRem/isDivisible, so tails agree
/// bit-for-bit with the per-element API by construction and vector
/// bodies by test.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BATCH_BATCHKERNELS_H
#define GMDIV_BATCH_BATCHKERNELS_H

#include "core/Divider.h"
#include "core/ExactDiv.h"

#include <cstddef>
#include <cstdint>

namespace gmdiv {
namespace batch {

//===----------------------------------------------------------------------===//
// Per-divisor state
//===----------------------------------------------------------------------===//

/// Figure 4.1 division plus the §9 divisibility test.
template <typename T> struct UnsignedBatchState {
  explicit UnsignedBatchState(T Divisor) : Div(Divisor), Exact(Divisor) {}
  UnsignedDivider<T> Div;
  ExactUnsignedDivider<T> Exact;
};

/// Figure 5.1 division.
template <typename T> struct SignedBatchState {
  explicit SignedBatchState(T Divisor) : Div(Divisor) {}
  SignedDivider<T> Div;
};

/// Floor (Round = -1) / ceil (Round = +1) over the core trunc divRem:
/// floor subtracts one when the remainder is nonzero and its sign
/// differs from d's, ceil adds one when it is nonzero and its sign
/// matches.
template <int Round, typename T>
inline T roundDivideOne(const SignedDivider<T> &Div, T N0) {
  using UWord = typename SignedDivider<T>::UWord;
  const auto [Q, R] = Div.divRem(N0);
  const bool Fix =
      R != 0 && (((R < 0) == (Div.divisor() < 0)) == (Round > 0));
  return static_cast<T>(static_cast<UWord>(Q) +
                        static_cast<UWord>(Fix ? Round : 0));
}

//===----------------------------------------------------------------------===//
// Kernel tables
//===----------------------------------------------------------------------===//

/// Array kernels for one unsigned lane type. All pointers are non-null
/// in a registered table.
template <typename T> struct UnsignedKernels {
  void (*Divide)(const UnsignedBatchState<T> &, const T *, T *, size_t);
  void (*Remainder)(const UnsignedBatchState<T> &, const T *, T *, size_t);
  void (*DivRem)(const UnsignedBatchState<T> &, const T *, T *, T *,
                 size_t);
  /// §9 branch-free divisibility filter: Out[i] = 1 iff d | In[i].
  void (*Divisible)(const UnsignedBatchState<T> &, const T *, uint8_t *,
                    size_t);
};

/// Array kernels for one signed lane type.
template <typename T> struct SignedKernels {
  void (*Divide)(const SignedBatchState<T> &, const T *, T *, size_t);
  void (*Remainder)(const SignedBatchState<T> &, const T *, T *, size_t);
  void (*DivRem)(const SignedBatchState<T> &, const T *, T *, T *, size_t);
  void (*FloorDivide)(const SignedBatchState<T> &, const T *, T *, size_t);
  void (*CeilDivide)(const SignedBatchState<T> &, const T *, T *, size_t);
};

/// One backend's complete kernel set: every lane width, both signs.
struct KernelTables {
  UnsignedKernels<uint8_t> U8;
  UnsignedKernels<uint16_t> U16;
  UnsignedKernels<uint32_t> U32;
  UnsignedKernels<uint64_t> U64;
  SignedKernels<int8_t> S8;
  SignedKernels<int16_t> S16;
  SignedKernels<int32_t> S32;
  SignedKernels<int64_t> S64;

  template <typename T> const UnsignedKernels<T> &unsignedFor() const {
    if constexpr (sizeof(T) == 1)
      return U8;
    else if constexpr (sizeof(T) == 2)
      return U16;
    else if constexpr (sizeof(T) == 4)
      return U32;
    else
      return U64;
  }
  template <typename T> const SignedKernels<T> &signedFor() const {
    if constexpr (sizeof(T) == 1)
      return S8;
    else if constexpr (sizeof(T) == 2)
      return S16;
    else if constexpr (sizeof(T) == 4)
      return S32;
    else
      return S64;
  }
};

/// The portable fallback; always present.
const KernelTables &scalarKernels();
/// SIMD backends; null when not compiled in (not x86, AVX2 codegen
/// unavailable, or GMDIV_FORCE_SCALAR_BATCH).
const KernelTables *sse2Kernels();
const KernelTables *avx2Kernels();

} // namespace batch
} // namespace gmdiv

#endif // GMDIV_BATCH_BATCHKERNELS_H
