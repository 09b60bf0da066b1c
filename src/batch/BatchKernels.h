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
/// read that one object. An unsigned state also holds its Figure 4.2
/// shape, which chooseUnsignedShape (core/Divider.h) derives from the
/// same m' and which picks the vector loops. A
/// SIMD body broadcasts the values it needs (the shape's multiplier and
/// shifts, or the accessors divisorSign(), inverse(), shift(),
/// maxQuotient()); every scalar tail calls the core
/// divide/remainder/divRem/isDivisible, so tails agree bit-for-bit with
/// the per-element API by construction and vector bodies by test.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BATCH_BATCHKERNELS_H
#define GMDIV_BATCH_BATCHKERNELS_H

#include "core/Divider.h"
#include "core/ExactDiv.h"

#include <array>
#include <cstddef>
#include <cstdint>

namespace gmdiv {
namespace batch {

//===----------------------------------------------------------------------===//
// Per-divisor state
//===----------------------------------------------------------------------===//

/// Figure 4.1 division, its Figure 4.2 shape (chooseUnsignedShape,
/// core/Divider.h), and the §9 divisibility test.
template <typename T> struct UnsignedBatchState {
  explicit UnsignedBatchState(T Divisor) : Div(Divisor), Exact(Divisor) {
    const UnsignedShapeChoice<T> Choice = chooseUnsignedShape(Div);
    Shape = Choice.Shape;
    Magic = Choice.Magic;
    Pre = Choice.Pre;
    Post = Choice.Post;
    if constexpr (sizeof(T) == 8) {
      if ((Divisor >> 32) != 0) {
        CrossShift = 0;
        CrossFactor = Divisor >> 32;
      }
    }
  }

  UnsignedDivider<T> Div;
  ExactUnsignedDivider<T> Exact;
  UnsignedShape Shape;
  /// The shape's multiplier and shifts: (m, 0, s) for Fits, (m, e, s)
  /// for PreShift, Figure 4.1's (m', sh1, sh2) for Long.
  T Magic;
  int Pre;
  int Post;
  /// q·d on 64-bit lanes from two 32x32 products:
  /// q·d = q_lo·d_lo + (SRL(q, CrossShift)_lo · CrossFactor_lo) << 32.
  /// For d < 2^32, d_hi = 0 and the cross term is q_hi·d_lo (32, d);
  /// otherwise q <= (2^64 - 1)/d < 2^32 and it is q_lo·d_hi (0, d_hi).
  int CrossShift = 32;
  T CrossFactor = Div.divisor();
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

/// One unsigned lane type's kernels, indexed by UnsignedShape.
template <typename T>
using UnsignedShapeKernels = std::array<UnsignedKernels<T>, NumUnsignedShapes>;

/// One backend's complete kernel set: every lane width and unsigned
/// shape, both signs.
struct KernelTables {
  UnsignedShapeKernels<uint8_t> U8;
  UnsignedShapeKernels<uint16_t> U16;
  UnsignedShapeKernels<uint32_t> U32;
  UnsignedShapeKernels<uint64_t> U64;
  SignedKernels<int8_t> S8;
  SignedKernels<int16_t> S16;
  SignedKernels<int32_t> S32;
  SignedKernels<int64_t> S64;

  template <typename T>
  const UnsignedKernels<T> &unsignedFor(UnsignedShape S) const {
    const size_t I = static_cast<size_t>(S);
    if constexpr (sizeof(T) == 1)
      return U8[I];
    else if constexpr (sizeof(T) == 2)
      return U16[I];
    else if constexpr (sizeof(T) == 4)
      return U32[I];
    else
      return U64[I];
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
