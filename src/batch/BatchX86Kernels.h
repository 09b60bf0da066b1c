//===- batch/BatchX86Kernels.h - Shared x86 SIMD kernel templates -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 4.1/5.1 sequences as width-generic vector code, templated
/// over a VecOps trait so BatchSSE2.cpp (128-bit) and BatchAVX2.cpp
/// (256-bit, compiled with -mavx2) instantiate identical algorithms.
///
/// Per-lane MULUH/MULSH follow the Highway/NumPy intdiv idiom:
///   8-bit   promote to 16-bit sublanes, MULLO, take the high byte
///   16-bit  native mulhi instructions
///   32-bit  even/odd _mm*_mul_epu32 widening splits
///   64-bit  four-partial-product decomposition over mul_epu32
/// Variable shifts are uniform per batch (the shift count is part of
/// the divisor state), so the *_srl_epi* forms with a scalar count
/// suffice everywhere; 8-bit shifts are emulated with 16-bit shifts
/// plus byte masks.
///
/// Only included by the backend TUs; everything is internal.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BATCH_BATCHX86KERNELS_H
#define GMDIV_BATCH_BATCHX86KERNELS_H

#include "batch/BatchKernels.h"

#include <cstring>
#include <tuple>

namespace gmdiv {
namespace batch {
namespace x86 {

/// Width-generic wrappers over a VecOps trait. All `int` shift counts
/// are uniform (taken from the divisor state, 0 <= count < lane bits).
template <class Ops> struct Vec {
  using V = typename Ops::V;

  template <typename T> static constexpr size_t lanes() {
    return Ops::VectorBytes / sizeof(T);
  }

  template <typename T> static V set1(T Value) {
    if constexpr (sizeof(T) == 1)
      return Ops::set1_8(static_cast<uint8_t>(Value));
    else if constexpr (sizeof(T) == 2)
      return Ops::set1_16(static_cast<uint16_t>(Value));
    else if constexpr (sizeof(T) == 4)
      return Ops::set1_32(static_cast<uint32_t>(Value));
    else
      return Ops::set1_64(static_cast<uint64_t>(Value));
  }

  template <typename T> static V add(V A, V B) {
    if constexpr (sizeof(T) == 1)
      return Ops::add8(A, B);
    else if constexpr (sizeof(T) == 2)
      return Ops::add16(A, B);
    else if constexpr (sizeof(T) == 4)
      return Ops::add32(A, B);
    else
      return Ops::add64(A, B);
  }

  template <typename T> static V sub(V A, V B) {
    if constexpr (sizeof(T) == 1)
      return Ops::sub8(A, B);
    else if constexpr (sizeof(T) == 2)
      return Ops::sub16(A, B);
    else if constexpr (sizeof(T) == 4)
      return Ops::sub32(A, B);
    else
      return Ops::sub64(A, B);
  }

  static V notV(V A) { return Ops::xor_(A, Ops::ones()); }

  /// Logical right shift by a uniform count, per T-wide lane.
  template <typename T> static V srl(V A, int Count) {
    if constexpr (sizeof(T) == 1) {
      if (Count == 0)
        return A;
      return Ops::and_(Ops::srl16(A, Count),
                       Ops::set1_8(static_cast<uint8_t>(0xFF >> Count)));
    } else if constexpr (sizeof(T) == 2)
      return Ops::srl16(A, Count);
    else if constexpr (sizeof(T) == 4)
      return Ops::srl32(A, Count);
    else
      return Ops::srl64(A, Count);
  }

  /// Logical left shift by a uniform count, per T-wide lane.
  template <typename T> static V sll(V A, int Count) {
    if constexpr (sizeof(T) == 1) {
      if (Count == 0)
        return A;
      return Ops::and_(
          Ops::sll16(A, Count),
          Ops::set1_8(static_cast<uint8_t>((0xFF << Count) & 0xFF)));
    } else if constexpr (sizeof(T) == 2)
      return Ops::sll16(A, Count);
    else if constexpr (sizeof(T) == 4)
      return Ops::sll32(A, Count);
    else
      return Ops::sll64(A, Count);
  }

  /// Arithmetic right shift by a uniform count. 8-bit lanes use the
  /// xor-bias trick; 64-bit lanes the same trick over srl64.
  template <typename T> static V sra(V A, int Count) {
    if constexpr (sizeof(T) == 1) {
      if (Count == 0)
        return A;
      const V Bias = Ops::set1_8(static_cast<uint8_t>(0x80 >> Count));
      return Ops::sub8(Ops::xor_(srl<T>(A, Count), Bias), Bias);
    } else if constexpr (sizeof(T) == 2)
      return Ops::sra16(A, Count);
    else if constexpr (sizeof(T) == 4)
      return Ops::sra32(A, Count);
    else {
      if (Count == 0)
        return A;
      const V Bias = Ops::srl64(Ops::set1_64(0x8000000000000000ull), Count);
      return Ops::sub64(Ops::xor_(Ops::srl64(A, Count), Bias), Bias);
    }
  }

  /// XSIGN per lane: all-ones for negative lanes, zero otherwise.
  template <typename T> static V xsignV(V A) {
    if constexpr (sizeof(T) == 1)
      return Ops::cmpgt8(Ops::zero(), A);
    else if constexpr (sizeof(T) == 2)
      return Ops::sra16(A, 15);
    else if constexpr (sizeof(T) == 4)
      return Ops::sra32(A, 31);
    else
      return Ops::sra32(Ops::dupOdd32(A), 31);
  }

  /// Signed greater-than-zero mask (floor/ceil fixups).
  template <typename T> static V gtZero(V A) {
    if constexpr (sizeof(T) == 1)
      return Ops::cmpgt8(A, Ops::zero());
    else if constexpr (sizeof(T) == 2)
      return Ops::cmpgt16(A, Ops::zero());
    else if constexpr (sizeof(T) == 4)
      return Ops::cmpgt32(A, Ops::zero());
    else {
      // r > 0  <=>  r != 0 and r not negative.
      const V Eq32 = Ops::cmpeq32(A, Ops::zero());
      const V Zero64 = Ops::and_(Eq32, Ops::swapPairs32(Eq32));
      return Ops::andnot(Ops::or_(xsignV<T>(A), Zero64), Ops::ones());
    }
  }

  /// MULUH: upper lane-half of the unsigned product with a broadcast
  /// multiplier (every lane of M holds the same value).
  template <typename T> static V muluh(V X, V M) {
    if constexpr (sizeof(T) == 1) {
      const V ByteLo = Ops::set1_16(0x00FF);
      const V M16 = Ops::and_(M, ByteLo);
      const V ProdEven = Ops::mullo16(Ops::and_(X, ByteLo), M16);
      const V ProdOdd = Ops::mullo16(Ops::srl16(X, 8), M16);
      return Ops::or_(Ops::srl16(ProdEven, 8),
                      Ops::and_(ProdOdd, Ops::set1_16(0xFF00)));
    } else if constexpr (sizeof(T) == 2)
      return Ops::mulhi_epu16(X, M);
    else if constexpr (sizeof(T) == 4) {
      const V ProdEven = Ops::mul_epu32(X, M);
      const V ProdOdd = Ops::mul_epu32(Ops::srl64(X, 32), M);
      return Ops::or_(
          Ops::srl64(ProdEven, 32),
          Ops::and_(ProdOdd, Ops::set1_64(0xFFFFFFFF00000000ull)));
    } else {
      // Four 32x32 partial products with carry propagation.
      const V XH = Ops::srl64(X, 32);
      const V YH = Ops::srl64(M, 32);
      const V LoLo = Ops::mul_epu32(X, M);
      const V HiLo = Ops::mul_epu32(XH, M);
      const V LoHi = Ops::mul_epu32(X, YH);
      const V HiHi = Ops::mul_epu32(XH, YH);
      const V Lo32 = Ops::set1_64(0x00000000FFFFFFFFull);
      const V Mid = Ops::add64(HiLo, Ops::srl64(LoLo, 32));
      const V MidLo = Ops::add64(Ops::and_(Mid, Lo32), LoHi);
      return Ops::add64(HiHi, Ops::add64(Ops::srl64(Mid, 32),
                                         Ops::srl64(MidLo, 32)));
    }
  }

  /// MULSH with a broadcast multiplier, via the §3 identity
  /// MULSH(x, m) = MULUH(x, m) - (m & XSIGN(x)) - (x & XSIGN(m));
  /// XSIGN(m) is a per-batch constant, so \p MNeg carries it. 8/16-bit
  /// lanes use the widening/native signed forms directly.
  template <typename T> static V mulsh(V X, V M, bool MNeg) {
    if constexpr (sizeof(T) == 1) {
      const V ByteLo = Ops::set1_16(0x00FF);
      const V M16 = Ops::sra16(Ops::sll16(Ops::and_(M, ByteLo), 8), 8);
      const V Bias = Ops::set1_16(0x0080);
      const V EvenX =
          Ops::sub16(Ops::xor_(Ops::and_(X, ByteLo), Bias), Bias);
      const V ProdEven = Ops::mullo16(EvenX, M16);
      const V ProdOdd = Ops::mullo16(Ops::sra16(X, 8), M16);
      return Ops::or_(Ops::and_(Ops::srl16(ProdEven, 8), ByteLo),
                      Ops::and_(ProdOdd, Ops::set1_16(0xFF00)));
    } else if constexpr (sizeof(T) == 2) {
      (void)MNeg;
      return Ops::mulhi_epi16(X, M);
    } else {
      V High = muluh<T>(X, M);
      High = sub<T>(High, Ops::and_(M, xsignV<T>(X)));
      if (MNeg)
        High = sub<T>(High, X);
      return High;
    }
  }

  /// MULL with a broadcast multiplier.
  template <typename T> static V mullo(V X, V M) {
    if constexpr (sizeof(T) == 1) {
      const V ByteLo = Ops::set1_16(0x00FF);
      const V M16 = Ops::and_(M, ByteLo);
      const V ProdEven = Ops::mullo16(Ops::and_(X, ByteLo), M16);
      const V ProdOdd = Ops::mullo16(Ops::srl16(X, 8), M16);
      return Ops::or_(Ops::and_(ProdEven, ByteLo), Ops::sll16(ProdOdd, 8));
    } else if constexpr (sizeof(T) == 2)
      return Ops::mullo16(X, M);
    else if constexpr (sizeof(T) == 4) {
      const V ProdEven = Ops::mul_epu32(X, M);
      const V ProdOdd = Ops::mul_epu32(Ops::srl64(X, 32), M);
      return Ops::or_(Ops::and_(ProdEven, Ops::set1_64(0xFFFFFFFFull)),
                      Ops::sll64(ProdOdd, 32));
    } else {
      const V Cross = Ops::add64(Ops::mul_epu32(Ops::srl64(X, 32), M),
                                 Ops::mul_epu32(X, Ops::srl64(M, 32)));
      return Ops::add64(Ops::mul_epu32(X, M), Ops::sll64(Cross, 32));
    }
  }

  /// Signed greater-than mask (divisibility's unsigned compare after a
  /// sign-bit flip). 64-bit is never needed: the 64-bit divisibility
  /// kernel stays scalar.
  template <typename T> static V cmpgt(V A, V B) {
    if constexpr (sizeof(T) == 1)
      return Ops::cmpgt8(A, B);
    else if constexpr (sizeof(T) == 2)
      return Ops::cmpgt16(A, B);
    else
      return Ops::cmpgt32(A, B);
  }
};

//===----------------------------------------------------------------------===//
// Vector bodies of the paper sequences
//===----------------------------------------------------------------------===//

/// Figure 4.1 on one vector: q = SRL(t1 + SRL(n - t1, sh1), sh2).
template <class Ops, typename T>
inline typename Ops::V divVecU(const UnsignedDivider<T> &Div,
                               typename Ops::V X, typename Ops::V MB) {
  using W = Vec<Ops>;
  const auto T1 = W::template muluh<T>(X, MB);
  const auto Diff = W::template sub<T>(X, T1);
  const auto Sum =
      W::template add<T>(T1, W::template srl<T>(Diff, Div.preShift()));
  return W::template srl<T>(Sum, Div.postShift());
}

/// The Figure 5.1 constants of one SignedDivider, broadcast once per
/// array call.
template <class Ops, typename T> struct SignedBroadcast {
  explicit SignedBroadcast(const SignedDivider<T> &Div)
      : MB(Vec<Ops>::template set1<T>(static_cast<T>(Div.magic()))),
        MNeg(static_cast<T>(Div.magic()) < 0), Shift(Div.postShift()),
        DMask(Vec<Ops>::template set1<T>(Div.divisorSign())),
        DB(Vec<Ops>::template set1<T>(Div.divisor())) {}
  typename Ops::V MB;
  bool MNeg;
  int Shift;
  typename Ops::V DMask;
  typename Ops::V DB;
};

/// Figure 5.1 on one vector: q = EOR(SRA(n + MULSH(m', n), sh) -
/// XSIGN(n), dsign) - dsign.
template <class Ops, typename T>
inline typename Ops::V divVecS(const SignedBroadcast<Ops, T> &B,
                               typename Ops::V X) {
  using W = Vec<Ops>;
  const auto Q0 =
      W::template add<T>(X, W::template mulsh<T>(X, B.MB, B.MNeg));
  const auto Shifted = W::template sra<T>(Q0, B.Shift);
  const auto Q1 = W::template sub<T>(Shifted, W::template xsignV<T>(X));
  return W::template sub<T>(Ops::xor_(Q1, B.DMask), B.DMask);
}

//===----------------------------------------------------------------------===//
// Array kernels (vector body + scalar tail on the core divider)
//===----------------------------------------------------------------------===//

template <class Ops, typename T>
void divideSimdU(const UnsignedBatchState<T> &S, const T *In, T *Out,
                 size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  const auto MB = W::template set1<T>(S.Div.magic());
  size_t I = 0;
  for (; I + L <= Count; I += L)
    Ops::store(Out + I, divVecU<Ops, T>(S.Div, Ops::load(In + I), MB));
  for (; I < Count; ++I)
    Out[I] = S.Div.divide(In[I]);
}

template <class Ops, typename T>
void remainderSimdU(const UnsignedBatchState<T> &S, const T *In, T *Out,
                    size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  const auto MB = W::template set1<T>(S.Div.magic());
  const auto DB = W::template set1<T>(S.Div.divisor());
  size_t I = 0;
  for (; I + L <= Count; I += L) {
    const auto X = Ops::load(In + I);
    const auto Q = divVecU<Ops, T>(S.Div, X, MB);
    Ops::store(Out + I,
               W::template sub<T>(X, W::template mullo<T>(Q, DB)));
  }
  for (; I < Count; ++I)
    Out[I] = S.Div.remainder(In[I]);
}

template <class Ops, typename T>
void divRemSimdU(const UnsignedBatchState<T> &S, const T *In, T *Quot,
                 T *Rem, size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  const auto MB = W::template set1<T>(S.Div.magic());
  const auto DB = W::template set1<T>(S.Div.divisor());
  size_t I = 0;
  for (; I + L <= Count; I += L) {
    const auto X = Ops::load(In + I);
    const auto Q = divVecU<Ops, T>(S.Div, X, MB);
    Ops::store(Quot + I, Q);
    Ops::store(Rem + I,
               W::template sub<T>(X, W::template mullo<T>(Q, DB)));
  }
  for (; I < Count; ++I)
    std::tie(Quot[I], Rem[I]) = S.Div.divRem(In[I]);
}

/// §9 filter: ROR(MULL(d_inv, n), e) <= qmax, unsigned compare via a
/// sign-bit flip. 8/16/32-bit lanes only (the 64-bit table entry is the
/// scalar backend's loop).
template <class Ops, typename T>
void divisibleSimdU(const UnsignedBatchState<T> &S, const T *In,
                    uint8_t *Out, size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  constexpr int N = static_cast<int>(sizeof(T) * 8);
  constexpr T SignBit = static_cast<T>(T{1} << (N - 1));
  const int E = S.Exact.shift();
  const auto InvB = W::template set1<T>(S.Exact.inverse());
  const auto SignB = W::template set1<T>(SignBit);
  const auto QMaxFlipped =
      W::template set1<T>(static_cast<T>(S.Exact.maxQuotient() ^ SignBit));
  const auto OneB = W::template set1<T>(static_cast<T>(1));
  T Tmp[Ops::VectorBytes / sizeof(T)];
  size_t I = 0;
  for (; I + L <= Count; I += L) {
    const auto Q0 = W::template mullo<T>(Ops::load(In + I), InvB);
    const auto Ror = E == 0 ? Q0
                            : Ops::or_(W::template srl<T>(Q0, E),
                                       W::template sll<T>(Q0, N - E));
    const auto NotDiv =
        W::template cmpgt<T>(Ops::xor_(Ror, SignB), QMaxFlipped);
    Ops::store(Tmp, Ops::andnot(NotDiv, OneB));
    for (size_t J = 0; J < L; ++J)
      Out[I + J] = static_cast<uint8_t>(Tmp[J]);
  }
  for (; I < Count; ++I)
    Out[I] = S.Exact.isDivisible(In[I]) ? 1 : 0;
}

template <class Ops, typename T>
void divideSimdS(const SignedBatchState<T> &S, const T *In, T *Out,
                 size_t Count) {
  constexpr size_t L = Vec<Ops>::template lanes<T>();
  const SignedBroadcast<Ops, T> B(S.Div);
  size_t I = 0;
  for (; I + L <= Count; I += L)
    Ops::store(Out + I, divVecS<Ops, T>(B, Ops::load(In + I)));
  for (; I < Count; ++I)
    Out[I] = S.Div.divide(In[I]);
}

template <class Ops, typename T>
void remainderSimdS(const SignedBatchState<T> &S, const T *In, T *Out,
                    size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  const SignedBroadcast<Ops, T> B(S.Div);
  size_t I = 0;
  for (; I + L <= Count; I += L) {
    const auto X = Ops::load(In + I);
    const auto Q = divVecS<Ops, T>(B, X);
    Ops::store(Out + I,
               W::template sub<T>(X, W::template mullo<T>(Q, B.DB)));
  }
  for (; I < Count; ++I)
    Out[I] = S.Div.remainder(In[I]);
}

template <class Ops, typename T>
void divRemSimdS(const SignedBatchState<T> &S, const T *In, T *Quot, T *Rem,
                 size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  const SignedBroadcast<Ops, T> B(S.Div);
  size_t I = 0;
  for (; I + L <= Count; I += L) {
    const auto X = Ops::load(In + I);
    const auto Q = divVecS<Ops, T>(B, X);
    Ops::store(Quot + I, Q);
    Ops::store(Rem + I,
               W::template sub<T>(X, W::template mullo<T>(Q, B.DB)));
  }
  for (; I < Count; ++I)
    std::tie(Quot[I], Rem[I]) = S.Div.divRem(In[I]);
}

/// Floor (Round = -1) / ceil (Round = +1): trunc quotient plus the
/// branch-free fixup. The divisor's sign is a per-batch constant, so
/// the fixup mask is just "r < 0" or "r > 0".
template <class Ops, typename T, int Round>
void roundDivSimdS(const SignedBatchState<T> &S, const T *In, T *Out,
                   size_t Count) {
  using W = Vec<Ops>;
  constexpr size_t L = W::template lanes<T>();
  const SignedBroadcast<Ops, T> B(S.Div);
  // floor fixes lanes whose remainder sign differs from d's, ceil
  // lanes whose remainder sign matches.
  const bool FixNegativeRem =
      Round < 0 ? S.Div.divisor() > 0 : S.Div.divisor() < 0;
  size_t I = 0;
  for (; I + L <= Count; I += L) {
    const auto X = Ops::load(In + I);
    auto Q = divVecS<Ops, T>(B, X);
    const auto R = W::template sub<T>(X, W::template mullo<T>(Q, B.DB));
    const auto Fix =
        FixNegativeRem ? W::template xsignV<T>(R) : W::template gtZero<T>(R);
    // Fix lanes are all-ones (-1): floor adds the mask, ceil subtracts.
    Q = Round < 0 ? W::template add<T>(Q, Fix) : W::template sub<T>(Q, Fix);
    Ops::store(Out + I, Q);
  }
  for (; I < Count; ++I)
    Out[I] = roundDivideOne<Round>(S.Div, In[I]);
}

/// Builds the full table for one VecOps instantiation.
template <class Ops> KernelTables makeTables() {
  KernelTables Tables;
  Tables.U8 = {divideSimdU<Ops, uint8_t>, remainderSimdU<Ops, uint8_t>,
               divRemSimdU<Ops, uint8_t>, divisibleSimdU<Ops, uint8_t>};
  Tables.U16 = {divideSimdU<Ops, uint16_t>, remainderSimdU<Ops, uint16_t>,
                divRemSimdU<Ops, uint16_t>, divisibleSimdU<Ops, uint16_t>};
  Tables.U32 = {divideSimdU<Ops, uint32_t>, remainderSimdU<Ops, uint32_t>,
                divRemSimdU<Ops, uint32_t>, divisibleSimdU<Ops, uint32_t>};
  Tables.U64 = {divideSimdU<Ops, uint64_t>, remainderSimdU<Ops, uint64_t>,
                divRemSimdU<Ops, uint64_t>, scalarKernels().U64.Divisible};
  Tables.S8 = {divideSimdS<Ops, int8_t>, remainderSimdS<Ops, int8_t>,
               divRemSimdS<Ops, int8_t>, roundDivSimdS<Ops, int8_t, -1>,
               roundDivSimdS<Ops, int8_t, 1>};
  Tables.S16 = {divideSimdS<Ops, int16_t>, remainderSimdS<Ops, int16_t>,
                divRemSimdS<Ops, int16_t>, roundDivSimdS<Ops, int16_t, -1>,
                roundDivSimdS<Ops, int16_t, 1>};
  Tables.S32 = {divideSimdS<Ops, int32_t>, remainderSimdS<Ops, int32_t>,
                divRemSimdS<Ops, int32_t>, roundDivSimdS<Ops, int32_t, -1>,
                roundDivSimdS<Ops, int32_t, 1>};
  Tables.S64 = {divideSimdS<Ops, int64_t>, remainderSimdS<Ops, int64_t>,
                divRemSimdS<Ops, int64_t>, roundDivSimdS<Ops, int64_t, -1>,
                roundDivSimdS<Ops, int64_t, 1>};
  return Tables;
}

} // namespace x86
} // namespace batch
} // namespace gmdiv

#endif // GMDIV_BATCH_BATCHX86KERNELS_H
