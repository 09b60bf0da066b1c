//===- core/FastModDivider.h - LKK direct remainder ------------*- C++ -*-===//
//
// Part of the gmdiv project: a faithful, testable reproduction of
// "Division by Invariant Integers using Multiplication" (Granlund &
// Montgomery, PLDI 1994), grown toward successor techniques.
//
// The Lemire–Kaser–Kurz family ("Faster Remainder by Direct Computation",
// arXiv:1902.01961): instead of the GM route remainder = n - d*(n/d), keep
// the *fractional* part of the approximate reciprocal product and multiply
// it back by d. With F = 2N fraction bits and
//
//   c = floor(2^F / d) + 1            (the round-up reciprocal)
//
// the identities are, for all 0 <= n < 2^N and 2 <= d < 2^N:
//
//   quotient   n / d    = floor(c*n / 2^F)                (high half)
//   remainder  n mod d  = floor((c*n mod 2^F) * d / 2^F)  (low half * d)
//   divisible  d | n    <=>  (c*n mod 2^F) < c            (one compare!)
//
// The divisibility test is the family's headline: one multiply and one
// compare, versus GM's multiply + shifts + multiply + compare. The
// precondition is that 2N-bit products must be cheap — i.e. the operand
// width is at most half the host word (LKK section 3). Nothing here
// enforces that: the wide arithmetic is exact at every width via the
// doubleword traits (emulated where no host type is wide enough), so the
// verify harness can sweep the family at N = 4..12 and 16/32/64
// regardless of host.
//
//===----------------------------------------------------------------------===//

#ifndef GMDIV_CORE_FASTMODDIVIDER_H
#define GMDIV_CORE_FASTMODDIVIDER_H

#include "core/SignMagnitude.h"
#include "ops/Ops.h"

#include <cassert>
#include <string>

namespace gmdiv {

namespace detail {

/// floor(X * Y / 2^(2N)) where X, Y are held in the doubleword of an
/// N-bit word family. Two cases:
///  - the doubleword is exactly 2N bits wide (all native widths,
///    including uint64 whose doubleword is UInt128): this is mulUH at
///    the doubleword width;
///  - the emulated SmallUWord family stores its doubleword in uint64_t
///    (2N <= 32 bits): a plain 64-bit multiply and shift is exact
///    because both operands are < 2^(2N) only when the caller says so.
/// Callers guarantee X * Y < 2^(4N) (always true for products of
/// 2N-bit values) and, on the emulated path, X * Y fits uint64_t.
template <typename Traits>
typename Traits::UDWord
udMulHigh2N(typename Traits::UDWord X, typename Traits::UDWord Y) {
  using UDWord = typename Traits::UDWord;
  constexpr int N = Traits::Bits;
  if constexpr (WordTraits<UDWord>::Bits == 2 * N) {
    return mulUH<UDWord>(X, Y);
  } else {
    // Emulated small widths: UDWord is uint64_t and 2N <= 32.
    static_assert(2 * N <= 32, "emulated doubleword must fit uint64_t");
    return static_cast<UDWord>((X * Y) >> (2 * N));
  }
}

/// X * Y mod 2^(2N) in the doubleword type.
template <typename Traits>
typename Traits::UDWord
udMulLow2N(typename Traits::UDWord X, typename Traits::UDWord Y) {
  using UDWord = typename Traits::UDWord;
  constexpr int N = Traits::Bits;
  if constexpr (WordTraits<UDWord>::Bits == 2 * N) {
    return static_cast<UDWord>(X * Y); // the type wraps mod 2^(2N)
  } else {
    const UDWord Mask =
        static_cast<UDWord>((uint64_t{1} << (2 * N)) - 1);
    return static_cast<UDWord>((X * Y) & Mask);
  }
}

} // namespace detail

/// Unsigned LKK divider: remainder and divisibility by direct
/// computation, quotient via the same round-up reciprocal. Divisor 1 is
/// handled by a trivial flag (the reciprocal 2^(2N) + 1 does not fit the
/// doubleword); divisor 0 is a precondition violation as everywhere else.
template <typename UWordT>
class FastModDivider {
public:
  using UWord = UWordT;
  using Traits = WordTraits<UWord>;
  using UDWord = typename Traits::UDWord;
  static constexpr int N = Traits::Bits;
  static constexpr int FractionBits = 2 * N;

  explicit FastModDivider(UWord Divisor) : D(Divisor) {
    assert(Divisor >= static_cast<UWord>(1) && "divisor must be >= 1");
    Trivial = Divisor == static_cast<UWord>(1);
    if (Trivial) {
      C = static_cast<UDWord>(0);
      return;
    }
    // c = floor(2^(2N) / d) + 1. The exponent-2N form is exactly what
    // udDivModPow2 exists for (the quotient fits: d >= 2).
    const auto QR = Traits::udDivModPow2(FractionBits, Traits::udFromWord(D));
    C = static_cast<UDWord>(QR.first + Traits::udFromWord(static_cast<UWord>(1)));
  }

  UWord divisor() const { return D; }

  /// The round-up reciprocal c (0 when d == 1, which bypasses it).
  UDWord magic() const { return C; }

  /// floor(n / d): the high 2N bits of c*n.
  UWord divide(UWord Numerator) const {
    if (Trivial)
      return Numerator;
    return Traits::udLow(detail::udMulHigh2N<Traits>(
        C, Traits::udFromWord(Numerator)));
  }

  /// n mod d without forming the quotient: scale the fractional part
  /// (c*n mod 2^(2N)) back up by d.
  UWord remainder(UWord Numerator) const {
    if (Trivial)
      return static_cast<UWord>(0);
    const UDWord Frac =
        detail::udMulLow2N<Traits>(C, Traits::udFromWord(Numerator));
    return Traits::udLow(
        detail::udMulHigh2N<Traits>(Frac, Traits::udFromWord(D)));
  }

  struct Result {
    UWord Quotient;
    UWord Remainder;
  };

  Result divRem(UWord Numerator) const {
    return {divide(Numerator), remainder(Numerator)};
  }

  /// d | n <=> c*n mod 2^(2N) < c (LKK Theorem 2). One multiply, one
  /// compare — no quotient, no remainder.
  bool isDivisible(UWord Numerator) const {
    if (Trivial)
      return true;
    const UDWord Frac =
        detail::udMulLow2N<Traits>(C, Traits::udFromWord(Numerator));
    return Frac < C;
  }

  std::string describe() const {
    std::string Out = "fastmod: F=" + std::to_string(FractionBits) +
                      " fraction bits; divisible(n) = (c*n mod 2^F) < c";
    if (Trivial)
      Out += " [trivial d=1]";
    return Out;
  }

private:
  UWord D;
  UDWord C;
  bool Trivial;
};

/// describe() of the signed form over |d| (core/SignMagnitude.h).
template <typename UWord>
std::string describeSigned(const FastModDivider<UWord> &Magnitude) {
  return "fastmod-signed over |d|=" +
         std::to_string(uint64_t(Magnitude.divisor())) + ": " +
         Magnitude.describe();
}

/// Signed LKK divider: the unsigned machinery on |n|, |d| with the
/// EOR/subtract sign patch-up (core/SignMagnitude.h).
template <typename SWord>
using FastModSignedDivider =
    SignMagnitudeDivider<FastModDivider<UnsignedWordOf<SWord>>>;

} // namespace gmdiv

#endif // GMDIV_CORE_FASTMODDIVIDER_H
