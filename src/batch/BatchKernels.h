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
/// shape, derived from the same m', which picks the vector loops. A
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

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace gmdiv {
namespace batch {

//===----------------------------------------------------------------------===//
// Per-divisor state
//===----------------------------------------------------------------------===//

/// Figure 4.2's unsigned case split, resolved once per divisor. Each
/// shape has its own vector loops, so an array call never branches on
/// it.
enum class UnsignedShape : uint8_t {
  Fits,     ///< q = SRL(MULUH(m, n), s) with m < 2^N; powers of two too.
  PreShift, ///< q = SRL(MULUH(m, SRL(n, e)), s): even d, m < 2^N.
  Long,     ///< Figure 4.1: q = SRL(t + SRL(n - t, sh1), sh2).
};
inline constexpr size_t NumUnsignedShapes = 3;

/// "fits", "pre-shift", "long".
const char *unsignedShapeName(UnsignedShape S);

namespace detail {

/// ⌊(R + 2^L)/Dd⌋ for R < Dd < 2^L and 1 <= L <= N, in word arithmetic:
/// with 2^L - 1 = q·Dd + r, it is q, plus one when R + r + 1 reaches Dd,
/// so 2^N itself is never formed. For 2^(L-1) <= Dd, q = 1 and no
/// division is needed (every m_high of CHOOSE_MULTIPLIER(d, N)).
template <typename T> T bumpQuotient(T R, int L, T Dd) {
  constexpr int N = WordBitWidthV<T>;
  const T Pow2LMinus1 = static_cast<T>(static_cast<T>(~T{0}) >> (N - L));
  const bool One = Dd > (Pow2LMinus1 >> 1);
  const T Q = One ? T{1} : static_cast<T>(Pow2LMinus1 / Dd);
  const T Rem =
      One ? static_cast<T>(Pow2LMinus1 - Dd) : static_cast<T>(Pow2LMinus1 % Dd);
  return static_cast<T>(Q + (R >= static_cast<T>(Dd - Rem - 1) ? 1 : 0));
}

/// Figure 6.2's halving loop over m_low = 2^N + A and m_high = 2^N + B
/// (both below 2^(N+1); B < A means m_high overflowed), in closed form:
/// ⌊m_low/2^k⌋ < ⌊m_high/2^k⌋ exactly while some bit at or above k
/// differs, so the loop halves min(sh, ⌊log2(A ⊕ B)⌋) times. Returns
/// true, with the multiplier in \p M and \p Sh reduced, when that is at
/// least once: then m_high drops below 2^N.
template <typename T> bool reduceBelow2N(T A, T B, int &Sh, T &M) {
  constexpr int N = WordBitWidthV<T>;
  if (B <= A)
    return false;
  const int K =
      std::min(Sh, static_cast<int>(std::bit_width(static_cast<T>(A ^ B))) - 1);
  if (K == 0)
    return false;
  M = static_cast<T>((B >> K) | (T{1} << (N - K)));
  Sh -= K;
  return true;
}

} // namespace detail

/// Figure 4.1 division, its Figure 4.2 shape, and the §9 divisibility
/// test.
///
/// The shape comes from the one wide division UnsignedDivider already
/// did: its m' gives q0 = ⌊2^(N+l)/d⌋ = 2^N + m' - 1 and
/// r0 = 2^(N+l) - q0·d = -q0·d mod 2^N, so CHOOSE_MULTIPLIER(d, N)'s
/// m_high is q0 + ⌊(r0 + 2^l)/d⌋, and CHOOSE_MULTIPLIER(d >> e, N - e)'s
/// is q0 + ⌊((r0 >> e) + 2^l)/(d >> e)⌋ (same q0, remainder scaled by
/// 2^e). The first needs no division and the second one word division;
/// Figure 6.2's halving then finishes each in closed form.
template <typename T> struct UnsignedBatchState {
  explicit UnsignedBatchState(T Divisor)
      : Div(Divisor), Exact(Divisor), Magic(Div.magic()),
        Pre(Div.preShift()), Post(Div.postShift()) {
    constexpr int N = WordBitWidthV<T>;
    if constexpr (N == 64) {
      if ((Divisor >> 32) != 0) {
        CrossShift = 0;
        CrossFactor = Divisor >> 32;
      }
    }
    if (Divisor == 1)
      return; // m = 2^N: Figure 4.1 with m' = 1.
    if (isPowerOf2(Divisor)) {
      Shape = UnsignedShape::Fits;
      Magic = static_cast<T>(T{1} << (N - std::countr_zero(Divisor)));
      Pre = 0;
      Post = 0;
      return;
    }
    // <bit> rather than the ops/Bits.h binary searches: their
    // data-dependent branches mispredict on every fresh divisor.
    const int L = static_cast<int>(std::bit_width(static_cast<T>(Divisor - 1)));
    const T A = static_cast<T>(Div.magic() - 1); // q0 - 2^N
    const T R0 =
        static_cast<T>(0 - static_cast<uint64_t>(A) * uint64_t{Divisor});
    int Sh = L;
    T M;
    if (detail::reduceBelow2N(
            A, static_cast<T>(A + detail::bumpQuotient(R0, L, Divisor)), Sh,
            M)) {
      Shape = UnsignedShape::Fits;
      Magic = M;
      Pre = 0;
      Post = Sh;
      return;
    }
    const int E = Exact.shift();
    Sh = L - E;
    if (E > 0 &&
        detail::reduceBelow2N(
            A,
            static_cast<T>(A + detail::bumpQuotient(
                                   static_cast<T>(R0 >> E), L,
                                   static_cast<T>(Divisor >> E))),
            Sh, M)) {
      Shape = UnsignedShape::PreShift;
      Magic = M;
      Pre = E;
      Post = Sh;
    }
  }

  UnsignedDivider<T> Div;
  ExactUnsignedDivider<T> Exact;
  UnsignedShape Shape = UnsignedShape::Long;
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
