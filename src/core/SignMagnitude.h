//===- core/SignMagnitude.h - signed successor families -------*- C++ -*-===//
//
// Part of the gmdiv project: a faithful, testable reproduction of
// "Division by Invariant Integers using Multiplication" (Granlund &
// Montgomery, PLDI 1994), grown toward successor techniques.
//
// The successor families (fastmod, roundup, narrow) are unsigned
// algorithms. Their signed forms all take the same route: divide the
// magnitudes |n|, |d| through the unsigned core, then restore the signs
// with the paper's branch-free EOR/subtract idiom (the shape of the
// Figure 5.2 sign handling). Truncating C semantics: the quotient takes
// sign(n) ^ sign(d), the remainder the sign of n. INT_MIN / -1 *wraps*:
// |INT_MIN| is INT_MIN again in word arithmetic, the magnitude quotient
// is INT_MIN and the sign fixup maps it back to INT_MIN with remainder 0
// — the Oracle's documented overflow policy.
//
//===----------------------------------------------------------------------===//

#ifndef GMDIV_CORE_SIGNMAGNITUDE_H
#define GMDIV_CORE_SIGNMAGNITUDE_H

#include "ops/Ops.h"

#include <cassert>
#include <string>

namespace gmdiv {

/// Signed divider over the unsigned divider \p UnsignedT, built for |d|.
/// Accessors of the unsigned core (magic(), multiplierBits(), choice(),
/// mode(), usesFixup(), isDivisible()) are forwarded and compile only
/// where the core has them. describe() is the family's describeSigned().
template <typename UnsignedT> class SignMagnitudeDivider {
public:
  using Unsigned = UnsignedT;
  using UWord = typename Unsigned::UWord;
  using Traits = WordTraits<UWord>;
  using SWord = typename Traits::SWord;
  using UDWord = typename Traits::UDWord;
  static constexpr int N = Traits::Bits;

  explicit SignMagnitudeDivider(SWord Divisor)
      : D(Divisor), U(magnitude(Divisor)), DSignMask(signMask(Divisor)) {
    assert(Divisor != static_cast<SWord>(0) && "divisor must be nonzero");
  }

  SWord divisor() const { return D; }
  auto magic() const { return U.magic(); }
  int multiplierBits() const { return U.multiplierBits(); }
  const auto &choice() const { return U.choice(); }
  auto mode() const { return U.mode(); }
  bool usesFixup() const { return U.usesFixup(); }

  SWord divide(SWord Numerator) const {
    return withSign(U.divide(magnitude(Numerator)),
                    static_cast<UWord>(signMask(Numerator) ^ DSignMask));
  }

  SWord remainder(SWord Numerator) const {
    return withSign(U.remainder(magnitude(Numerator)), signMask(Numerator));
  }

  struct Result {
    SWord Quotient;
    SWord Remainder;
  };

  Result divRem(SWord Numerator) const {
    const UWord NMask = signMask(Numerator);
    const auto [Q, Rm] = U.divRem(magnitude(Numerator));
    return {withSign(Q, static_cast<UWord>(NMask ^ DSignMask)),
            withSign(Rm, NMask)};
  }

  /// d | n in the signed sense (|d| divides |n|). Constrained rather
  /// than lazily instantiated so generic callers can probe for it.
  bool isDivisible(SWord Numerator) const
    requires requires(const Unsigned &Core, UWord M) { Core.isDivisible(M); }
  {
    return U.isDivisible(magnitude(Numerator));
  }

  std::string describe() const { return describeSigned(U); }

private:
  static UWord signMask(SWord Value) {
    return static_cast<UWord>(xsign(Value));
  }
  /// (v ^ mask) - mask: negates \p Value when \p Mask is all ones.
  static SWord withSign(UWord Value, UWord Mask) {
    return static_cast<SWord>(static_cast<UWord>((Value ^ Mask) - Mask));
  }
  static UWord magnitude(SWord Value) {
    return static_cast<UWord>(
        withSign(static_cast<UWord>(Value), signMask(Value)));
  }

  SWord D;
  Unsigned U;
  UWord DSignMask;
};

/// The unsigned word of signed word \p SWord.
template <typename SWord>
using UnsignedWordOf = typename SignedWordTraits<SWord>::Traits::UWord;

} // namespace gmdiv

#endif // GMDIV_CORE_SIGNMAGNITUDE_H
