//===- core/Divider.h - Invariant-divisor division ---------------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-time invariant division: precompute a small amount of state from
/// the divisor once, then divide many dividends with a multiply and a few
/// cheap operations, never a hardware divide.
///
///   UnsignedDivider<UWord>  — Figure 4.1;   q = ⌊n/d⌋.
///   chooseUnsignedShape     — Figure 4.2's case split for a divisor,
///                             derived from the divider's m'.
///   SignedDivider<SWord>    — Figure 5.1;   q = trunc(n/d) (C semantics).
///   FloorDivider<SWord>     — §6;           q = ⌊n/d⌋ (Fortran MODULO
///                             partner). Uses the Figure 6.1 sequence for
///                             d > 0 and a branch-free fixup otherwise.
///   CeilDivider<SWord>      — §6 analog;    q = ⌈n/d⌉.
///
/// All intermediate arithmetic runs in the unsigned domain so that the
/// wrap-around the paper's two's complement model assumes is well-defined
/// C++ (signed overflow would be UB).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_CORE_DIVIDER_H
#define GMDIV_CORE_DIVIDER_H

#include "core/ChooseMultiplier.h"
#include "ops/Bits.h"
#include "ops/Ops.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

namespace gmdiv {

//===----------------------------------------------------------------------===//
// UnsignedDivider — Figure 4.1
//===----------------------------------------------------------------------===//

/// Unsigned division by a run-time invariant divisor (Figure 4.1).
///
/// Initialization computes m' = ⌊2^N*(2^l - d)/d⌋ + 1 (the low word of the
/// N+1-bit multiplier m = ⌊2^(N+l)/d⌋ + 1) and the two shift counts; each
/// quotient then costs one MULUH, two adds/subtracts and two shifts.
template <typename UWordT> class UnsignedDivider {
public:
  using UWord = UWordT;
  using Traits = WordTraits<UWord>;
  static constexpr int N = Traits::Bits;

  /// Precomputes the division state. \p Divisor must satisfy 1 <= d < 2^N.
  explicit UnsignedDivider(UWord Divisor) : D(Divisor) {
    assert(Divisor >= 1 && "divisor must be nonzero");
    const int L = ceilLog2(Divisor);
    // m' = ⌊2^(N+l)/d⌋ - 2^N + 1: subtracting 2^N*d from the numerator is
    // exact, so compute ⌊2^N*(2^l - d)/d⌋ + 1 as the paper writes it.
    auto [Quotient, Remainder] =
        Traits::udDivModPow2(N + L, Traits::udFromWord(Divisor));
    (void)Remainder;
    MPrime = static_cast<UWord>(
        Traits::udLow(Quotient - Traits::udPow2(N)) + UWord{1});
    Shift1 = L < 1 ? L : 1;          // min(l, 1)
    Shift2 = L - 1 > 0 ? L - 1 : 0;  // max(l - 1, 0)
  }

  UWord divisor() const { return D; }
  /// The precomputed m' of Figure 4.1 (low word of the N+1-bit
  /// multiplier). Exposed so batch kernels (src/batch) can reuse the
  /// state instead of re-deriving it.
  UWord magic() const { return MPrime; }
  /// sh1 = min(l, 1) of Figure 4.1.
  int preShift() const { return Shift1; }
  /// sh2 = max(l - 1, 0) of Figure 4.1.
  int postShift() const { return Shift2; }

  /// ⌊n/d⌋.
  UWord divide(UWord N0) const {
    const UWord T1 = mulUH(MPrime, N0);
    // Conceptually q = SRL(n + t1, l), but n + t1 may overflow N bits; the
    // paper's safe form splits the add across the two shifts.
    const UWord Sum =
        static_cast<UWord>(T1 + srl(static_cast<UWord>(N0 - T1), Shift1));
    return srl(Sum, Shift2);
  }

  /// n mod d, via one extra MULL and subtract.
  UWord remainder(UWord N0) const {
    return static_cast<UWord>(N0 - mulL(divide(N0), D));
  }

  /// Quotient and remainder together.
  std::pair<UWord, UWord> divRem(UWord N0) const {
    const UWord Quotient = divide(N0);
    return {Quotient, static_cast<UWord>(N0 - mulL(Quotient, D))};
  }

  /// ⌈n/d⌉ = ⌊n/d⌋ + (n mod d != 0).
  UWord divideCeil(UWord N0) const {
    auto [Quotient, Remainder] = divRem(N0);
    return static_cast<UWord>(Quotient + (Remainder != 0 ? 1 : 0));
  }

  /// Human-readable account of the precomputed state, libdivide-style:
  /// "n/10 = SRL(t1 + SRL(n - t1, 1), 3), t1 = MULUH(0xcccccccc, n)".
  std::string describe() const {
    std::ostringstream Out;
    Out << "n/" << static_cast<uint64_t>(D) << " at N=" << N
        << ": t1 = MULUH(0x" << std::hex
        << static_cast<uint64_t>(MPrime) << std::dec
        << ", n); q = SRL(t1 + SRL(n - t1, " << Shift1 << "), " << Shift2
        << ")";
    return Out.str();
  }

private:
  UWord D;
  UWord MPrime;
  int Shift1;
  int Shift2;
};

//===----------------------------------------------------------------------===//
// Figure 4.2's unsigned case split, from Figure 4.1's m'
//===----------------------------------------------------------------------===//

/// Figure 4.2's unsigned case split. Each shape has its own generated
/// sequence and its own batch loops.
enum class UnsignedShape : uint8_t {
  Fits,     ///< q = SRL(MULUH(m, n), s) with m < 2^N; powers of two too.
  PreShift, ///< q = SRL(MULUH(m, SRL(n, e)), s): even d, m < 2^N.
  Long,     ///< Figure 4.1: q = SRL(t + SRL(n - t, sh1), sh2).
};
inline constexpr size_t NumUnsignedShapes = 3;

/// "fits", "pre-shift", "long".
constexpr const char *unsignedShapeName(UnsignedShape S) {
  switch (S) {
  case UnsignedShape::Fits:
    return "fits";
  case UnsignedShape::PreShift:
    return "pre-shift";
  case UnsignedShape::Long:
    return "long";
  }
  return "long";
}

/// A divisor's Figure 4.2 shape with its multiplier and shifts: (m, 0, s)
/// for Fits, (m, e, s) for PreShift, Figure 4.1's (m', sh1, sh2) for
/// Long. A Long shape's CHOOSE_MULTIPLIER(d, N) is m = 2^N + m' with
/// sh_post = sh2 + 1.
template <typename UWord> struct UnsignedShapeChoice {
  UnsignedShape Shape;
  UWord Magic;
  int Pre;
  int Post;
};

namespace detail {

/// ⌊(R + 2^L)/Dd⌋ for R < Dd < 2^L and 1 <= L <= N, in word arithmetic:
/// with 2^L - 1 = q·Dd + r, it is q, plus one when R + r + 1 reaches Dd,
/// so 2^N itself is never formed. For 2^(L-1) <= Dd, q = 1 and no
/// division is needed (every m_high of CHOOSE_MULTIPLIER(d, N)).
template <typename UWord> UWord bumpQuotient(UWord R, int L, UWord Dd) {
  constexpr int N = WordTraits<UWord>::Bits;
  const UWord Pow2LMinus1 =
      static_cast<UWord>(static_cast<UWord>(~UWord{0}) >> (N - L));
  const bool One = Dd > static_cast<UWord>(Pow2LMinus1 >> 1);
  const UWord Q = One ? UWord{1} : static_cast<UWord>(Pow2LMinus1 / Dd);
  const UWord Rem = One ? static_cast<UWord>(Pow2LMinus1 - Dd)
                        : static_cast<UWord>(Pow2LMinus1 % Dd);
  const bool Carry = R >= static_cast<UWord>(Dd - Rem - UWord{1});
  return static_cast<UWord>(Q + static_cast<UWord>(Carry ? 1 : 0));
}

/// Figure 6.2's halving loop over m_low = 2^N + A and m_high = 2^N + B
/// (both below 2^(N+1); B < A means m_high overflowed), in closed form:
/// ⌊m_low/2^k⌋ < ⌊m_high/2^k⌋ exactly while some bit at or above k
/// differs, so the loop halves min(sh, ⌊log2(A ⊕ B)⌋) times. Returns
/// true, with the multiplier in \p M and \p Sh reduced, when that is at
/// least once: then m_high drops below 2^N.
template <typename UWord>
bool reduceBelow2N(UWord A, UWord B, int &Sh, UWord &M) {
  constexpr int N = WordTraits<UWord>::Bits;
  if (B <= A)
    return false;
  const int Top = floorLog2(static_cast<UWord>(A ^ B));
  const int K = Sh < Top ? Sh : Top;
  if (K == 0)
    return false;
  M = static_cast<UWord>(static_cast<UWord>(B >> K) |
                         static_cast<UWord>(UWord{1} << (N - K)));
  Sh -= K;
  return true;
}

} // namespace detail

/// Figure 4.2's unsigned case split for \p Div's divisor: the one place
/// it is made, read by the code generators, the batch kernels and the
/// tool. The result equals what CHOOSE_MULTIPLIER (Figure 6.2) picks:
/// CHOOSE_MULTIPLIER(d, N) when its m < 2^N, else for even d = 2^e·d'
/// CHOOSE_MULTIPLIER(d', N - e) with pre-shift e, else Figure 4.1.
///
/// It reuses the one wide division UnsignedDivider already did: its m'
/// gives q0 = ⌊2^(N+l)/d⌋ = 2^N + m' - 1 and r0 = 2^(N+l) - q0·d =
/// -q0·d mod 2^N, so CHOOSE_MULTIPLIER(d, N)'s m_high is
/// q0 + ⌊(r0 + 2^l)/d⌋, and CHOOSE_MULTIPLIER(d', N - e)'s is
/// q0 + ⌊((r0 >> e) + 2^l)/d'⌋ (same q0, remainder scaled by 2^e). The
/// first needs no division and the second one word division; Figure
/// 6.2's halving then finishes each in closed form.
///
/// `Fits` is Theorem 4.2's bound, m·d - 2^(N+s) <= 2^s. Lemire, Bartlett
/// and Kaser, "Integer Division by Constants: Optimal Bounds"
/// (arXiv:2012.12369), give the exact condition for a word multiplier
/// m = ⌈2^(N+s)/d⌉: (m·d - 2^(N+s))·n* < 2^(N+s), with n* the largest
/// n < 2^N that is -1 mod d. It admits every `Fits` divisor and some
/// that stay `Long` here (d = 35 at N = 8: m = 235, s = 5).
template <typename UWord>
UnsignedShapeChoice<UWord>
chooseUnsignedShape(const UnsignedDivider<UWord> &Div) {
  constexpr int N = UnsignedDivider<UWord>::N;
  const UWord D = Div.divisor();
  const UnsignedShapeChoice<UWord> Long{UnsignedShape::Long, Div.magic(),
                                        Div.preShift(), Div.postShift()};
  if (D == UWord{1})
    return Long; // m = 2^N: Figure 4.1 with m' = 1.
  if (isPowerOf2(D))
    return {UnsignedShape::Fits,
            static_cast<UWord>(UWord{1} << (N - countTrailingZeros(D))), 0,
            0};
  const int L = Div.preShift() + Div.postShift();
  const UWord A = static_cast<UWord>(Div.magic() - UWord{1}); // q0 - 2^N
  // Widened, so that a uint16_t product cannot overflow int.
  const UWord R0 = static_cast<UWord>(
      0 - static_cast<uint64_t>(A) * static_cast<uint64_t>(D));
  int Sh = L;
  UWord M;
  if (detail::reduceBelow2N(
          A, static_cast<UWord>(A + detail::bumpQuotient(R0, L, D)), Sh, M))
    return {UnsignedShape::Fits, M, 0, Sh};
  const int E = countTrailingZeros(D);
  Sh = L - E;
  if (E > 0 &&
      detail::reduceBelow2N(
          A,
          static_cast<UWord>(A + detail::bumpQuotient(
                                     static_cast<UWord>(R0 >> E), L,
                                     static_cast<UWord>(D >> E))),
          Sh, M))
    return {UnsignedShape::PreShift, M, E, Sh};
  return Long;
}

//===----------------------------------------------------------------------===//
// SignedDivider — Figure 5.1 (quotient rounds towards zero)
//===----------------------------------------------------------------------===//

/// Signed division by a run-time invariant divisor with the quotient
/// rounded towards zero (Figure 5.1) — the C `/` operator.
///
/// Each quotient costs one MULSH, three adds/subtracts, two shifts and one
/// EOR. As the paper notes, n = -2^(N-1) divided by d = -1 overflows; this
/// implementation returns -2^(N-1), matching common hardware.
template <typename SWordT> class SignedDivider {
public:
  using SWord = SWordT;
  using Traits = typename SignedWordTraits<SWord>::Traits;
  using UWord = typename Traits::UWord;
  static constexpr int N = Traits::Bits;

  /// Precomputes the division state. \p Divisor must be nonzero;
  /// -2^(N-1) (whose magnitude is a power of two) is accepted.
  explicit SignedDivider(SWord Divisor) : D(Divisor) {
    assert(Divisor != 0 && "divisor must be nonzero");
    // |d| computed in the unsigned domain so -2^(N-1) is representable.
    const UWord AbsD =
        Divisor < 0 ? static_cast<UWord>(UWord{0} - static_cast<UWord>(Divisor))
                    : static_cast<UWord>(Divisor);
    // l = max(⌈log2 |d|⌉, 1).
    const int L = AbsD == 1 ? 1 : ceilLog2(AbsD);
    // m = 1 + ⌊2^(N+l-1) / |d|⌋; m - 2^N fits in a signed word.
    auto [Quotient, Remainder] =
        Traits::udDivModPow2(N + L - 1, Traits::udFromWord(AbsD));
    (void)Remainder;
    MPrime = static_cast<UWord>(Traits::udLow(Quotient) + UWord{1});
    DSign = xsign(Divisor);
    ShiftPost = L - 1;
  }

  SWord divisor() const { return D; }
  /// Bit pattern of m - 2^N (an sword value), Figure 5.1. Exposed for
  /// the batch kernels (src/batch).
  UWord magic() const { return MPrime; }
  /// sh_post = l - 1 of Figure 5.1.
  int postShift() const { return ShiftPost; }
  /// XSIGN(d): -1 for negative divisors, else 0.
  SWord divisorSign() const { return DSign; }

  /// trunc(n/d).
  SWord divide(SWord N0) const {
    const UWord UN = static_cast<UWord>(N0);
    // q0 = n + MULSH(m - 2^N, n) = ⌊m*n/2^N⌋; the add wraps mod 2^N for
    // d = ±1 and corrects itself in the next step, so use unsigned adds.
    const UWord Q0 = static_cast<UWord>(
        UN + static_cast<UWord>(mulSH(static_cast<SWord>(MPrime), N0)));
    const SWord Shifted = sra(static_cast<SWord>(Q0), ShiftPost);
    const UWord Q1 = static_cast<UWord>(static_cast<UWord>(Shifted) -
                                        static_cast<UWord>(xsign(N0)));
    // Negate if the divisor is negative: EOR with the sign mask, subtract.
    const UWord Mask = static_cast<UWord>(DSign);
    return static_cast<SWord>(static_cast<UWord>((Q1 ^ Mask) - Mask));
  }

  /// trunc(n/d) with the §5 overflow check: sets \p Overflow when
  /// n = -2^(N-1) and d = -1 (the only overflowing pair), in which case
  /// the returned value is the wrapped -2^(N-1). "If overflow detection
  /// is required, the final subtraction of d_sign should check for
  /// overflow."
  SWord divideChecked(SWord N0, bool &Overflow) const {
    constexpr SWord Min = static_cast<SWord>(
        typename Traits::UWord{1} << (N - 1));
    Overflow = D == -1 && N0 == Min;
    return divide(N0);
  }

  /// n rem d (sign of the dividend), the C `%` operator.
  SWord remainder(SWord N0) const {
    return static_cast<SWord>(static_cast<UWord>(N0) -
                              mulL(static_cast<UWord>(divide(N0)),
                                   static_cast<UWord>(D)));
  }

  /// Quotient and remainder together.
  std::pair<SWord, SWord> divRem(SWord N0) const {
    const SWord Quotient = divide(N0);
    const SWord Remainder = static_cast<SWord>(
        static_cast<UWord>(N0) - mulL(static_cast<UWord>(Quotient),
                                      static_cast<UWord>(D)));
    return {Quotient, Remainder};
  }

private:
  SWord D;
  UWord MPrime; // Bit pattern of m - 2^N (an sword value).
  SWord DSign;
  int ShiftPost;
};

//===----------------------------------------------------------------------===//
// FloorDivider — §6 (quotient rounds towards -∞)
//===----------------------------------------------------------------------===//

/// Signed division rounding towards -∞ by a run-time invariant divisor.
///
/// For d > 0 this is the branch-free Figure 6.1 sequence: one unsigned
/// MULUH of EOR(XSIGN(n), n), a shift and two EORs. For d < 0 (where the
/// paper falls back to identities over trunc division) we use the trunc
/// divider plus a branch-free fixup: q-- when the remainder is nonzero
/// and has sign opposite to the divisor.
template <typename SWordT> class FloorDivider {
public:
  using SWord = SWordT;
  using Traits = typename SignedWordTraits<SWord>::Traits;
  using UWord = typename Traits::UWord;
  static constexpr int N = Traits::Bits;

  explicit FloorDivider(SWord Divisor)
      : D(Divisor), Trunc(Divisor), Magic(0), ShiftPost(0), PowerOf2Log(-1) {
    assert(Divisor != 0 && "divisor must be nonzero");
    if (Divisor <= 0)
      return; // Negative divisors take the fixup path.
    const UWord AbsD = static_cast<UWord>(Divisor);
    if (isPowerOf2(AbsD)) {
      PowerOf2Log = floorLog2(AbsD);
      return;
    }
    const MultiplierInfo<UWord> Info =
        chooseMultiplier<UWord>(AbsD, N - 1);
    assert(Info.fitsInWord() &&
           "Figure 6.1 requires m < 2^N, guaranteed for d < 2^(N-1)");
    Magic = Info.wordMultiplier();
    ShiftPost = Info.ShiftPost;
  }

  SWord divisor() const { return D; }

  /// ⌊n/d⌋.
  SWord divide(SWord N0) const {
    if (D > 0) {
      if (PowerOf2Log >= 0)
        return sra(N0, PowerOf2Log); // SRA already floors.
      // Figure 6.1: both EOR(nsign, n) and the final EOR are cheap; the
      // multiply is *unsigned* high.
      const UWord NSign = static_cast<UWord>(xsign(N0));
      const UWord Q0 =
          mulUH(Magic, static_cast<UWord>(NSign ^ static_cast<UWord>(N0)));
      return static_cast<SWord>(NSign ^ srl(Q0, ShiftPost));
    }
    // d < 0: trunc quotient, then subtract one when the division was
    // inexact and the remainder's sign differs from the divisor's.
    auto [Quotient, Remainder] = Trunc.divRem(N0);
    const bool NeedsFixup =
        Remainder != 0 && ((Remainder < 0) != (D < 0));
    return static_cast<SWord>(static_cast<UWord>(Quotient) -
                              static_cast<UWord>(NeedsFixup ? 1 : 0));
  }

  /// n mod d (Fortran MODULO / Ada mod: result has the divisor's sign).
  SWord modulo(SWord N0) const {
    return static_cast<SWord>(static_cast<UWord>(N0) -
                              mulL(static_cast<UWord>(divide(N0)),
                                   static_cast<UWord>(D)));
  }

private:
  SWord D;
  SignedDivider<SWord> Trunc; // Used for d < 0.
  UWord Magic;
  int ShiftPost;
  int PowerOf2Log;
};

//===----------------------------------------------------------------------===//
// GeneralFloorDivider — the §6 identities (6.1)/(6.2), branch-free
//===----------------------------------------------------------------------===//

/// Floor division by a run-time invariant divisor of unknown sign, via
/// the paper's identity (6.1):
///
///   ⌊n/d⌋ = TRUNC((n + d_sign - n_sign)/d) + q_sign,
///     d_sign = XSIGN(d),  n_sign = XSIGN(OR(n, n + d_sign)),
///     q_sign = EOR(n_sign, d_sign),
///
/// and its remainder corollary (6.2):
///
///   n mod d = ((n + d_sign - n_sign) rem d) + AND(d - 2*d_sign - 1,
///                                                 q_sign).
///
/// "Since the new numerators never overflow, these identities can be
/// used for computation" — all adjustment arithmetic is branch-free.
/// The inner TRUNC is the Figure 5.1 divider. FloorDivider is usually
/// faster when the divisor's sign is known; this class exists for the
/// fully general case and as an executable proof of (6.1)/(6.2).
template <typename SWordT> class GeneralFloorDivider {
public:
  using SWord = SWordT;
  using Traits = typename SignedWordTraits<SWord>::Traits;
  using UWord = typename Traits::UWord;

  explicit GeneralFloorDivider(SWord Divisor)
      : D(Divisor), Trunc(Divisor),
        DSignMask(static_cast<UWord>(xsign(Divisor))),
        DAdjusted(static_cast<UWord>(static_cast<UWord>(Divisor) -
                                     UWord{2} * DSignMask - UWord{1})) {
    assert(Divisor != 0 && "divisor must be nonzero");
  }

  SWord divisor() const { return D; }

  /// ⌊n/d⌋ via (6.1).
  SWord divide(SWord N0) const {
    const UWord UN = static_cast<UWord>(N0);
    const UWord NPlus = static_cast<UWord>(UN + DSignMask);
    const UWord NSignMask =
        static_cast<UWord>(xsign(static_cast<SWord>(UN | NPlus)));
    const SWord Adjusted = static_cast<SWord>(
        static_cast<UWord>(NPlus - NSignMask));
    const UWord QSignMask = DSignMask ^ NSignMask;
    return static_cast<SWord>(
        static_cast<UWord>(static_cast<UWord>(Trunc.divide(Adjusted)) +
                           QSignMask));
  }

  /// n mod d (divisor-sign remainder) via (6.2).
  SWord modulo(SWord N0) const {
    const UWord UN = static_cast<UWord>(N0);
    const UWord NPlus = static_cast<UWord>(UN + DSignMask);
    const UWord NSignMask =
        static_cast<UWord>(xsign(static_cast<SWord>(UN | NPlus)));
    const SWord Adjusted = static_cast<SWord>(
        static_cast<UWord>(NPlus - NSignMask));
    const UWord QSignMask = DSignMask ^ NSignMask;
    const SWord Rem = Trunc.remainder(Adjusted);
    return static_cast<SWord>(static_cast<UWord>(
        static_cast<UWord>(Rem) + (DAdjusted & QSignMask)));
  }

private:
  SWord D;
  SignedDivider<SWord> Trunc;
  UWord DSignMask;
  UWord DAdjusted; // d - 2*d_sign - 1: d-1 for d > 0, d+1 for d < 0.
};

//===----------------------------------------------------------------------===//
// CeilDivider — §6 analog (quotient rounds towards +∞)
//===----------------------------------------------------------------------===//

/// Signed division rounding towards +∞ by a run-time invariant divisor.
/// Implemented as trunc division plus a branch-free fixup: q++ when the
/// remainder is nonzero and has the divisor's sign.
template <typename SWordT> class CeilDivider {
public:
  using SWord = SWordT;
  using Traits = typename SignedWordTraits<SWord>::Traits;
  using UWord = typename Traits::UWord;

  explicit CeilDivider(SWord Divisor) : D(Divisor), Trunc(Divisor) {
    assert(Divisor != 0 && "divisor must be nonzero");
  }

  SWord divisor() const { return D; }

  /// ⌈n/d⌉.
  SWord divide(SWord N0) const {
    auto [Quotient, Remainder] = Trunc.divRem(N0);
    const bool NeedsFixup =
        Remainder != 0 && ((Remainder < 0) == (D < 0));
    return static_cast<SWord>(static_cast<UWord>(Quotient) +
                              static_cast<UWord>(NeedsFixup ? 1 : 0));
  }

private:
  SWord D;
  SignedDivider<SWord> Trunc;
};

} // namespace gmdiv

#endif // GMDIV_CORE_DIVIDER_H
