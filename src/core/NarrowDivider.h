//===- core/NarrowDivider.h - narrow-word GM, no fixup ---------*- C++ -*-===//
//
// Part of the gmdiv project: a faithful, testable reproduction of
// "Division by Invariant Integers using Multiplication" (Granlund &
// Montgomery, PLDI 1994), grown toward successor techniques.
//
// Mitsunari–Hoshino's observation: when the operand width N is at most
// half the host word, GM's whole shift/add fixup apparatus is
// unnecessary. Take the full 2N fraction bits:
//
//   M = ceil(2^(2N) / d),   q = floor(M*n / 2^(2N))
//
// M always fits the 2N-bit doubleword (M <= 2^(2N-1) + 1 for d >= 2),
// and the error term e = M*d - 2^(2N) satisfies e <= d-1, so
// e*n <= (d-1)(2^N - 1) < 2^(2N) for *every* divisor and dividend — the
// round-up correctness condition holds unconditionally at k = 2N. The
// quotient is one widening multiply's high half: no shift (the shift
// count is exactly the doubleword width), no add, no special cases
// beyond d = 1. On a 64-bit host this turns u32 division into a single
// 64-bit multiply — the "32-on-64" trick. The canonical instantiations
// are Narrow32Divider / Narrow32SignedDivider; the template form lets
// the verify harness sweep the same algorithm at N = 4..12 and 8/16.
//
// Like FastModDivider, it is cheap on real hardware only when 2N <= host
// word bits; wider instantiations stay exact on emulated doublewords.
//
//===----------------------------------------------------------------------===//

#ifndef GMDIV_CORE_NARROWDIVIDER_H
#define GMDIV_CORE_NARROWDIVIDER_H

#include "core/FastModDivider.h" // detail::udMulHigh2N
#include "ops/Ops.h"

#include <cassert>
#include <string>

namespace gmdiv {

/// Unsigned narrow divider: one doubleword multiply per quotient.
template <typename UWordT>
class NarrowDivider {
public:
  using UWord = UWordT;
  using Traits = WordTraits<UWord>;
  using UDWord = typename Traits::UDWord;
  static constexpr int N = Traits::Bits;

  explicit NarrowDivider(UWord Divisor) : D(Divisor) {
    assert(Divisor >= 1 && "divisor must be nonzero");
    Trivial = Divisor == static_cast<UWord>(1);
    if (Trivial) {
      M = static_cast<UDWord>(0);
      return;
    }
    // M = ceil(2^(2N)/d) = floor + (2^(2N) mod d != 0).
    const auto QR = Traits::udDivModPow2(2 * N, Traits::udFromWord(D));
    const UDWord Zero = Traits::udFromWord(static_cast<UWord>(0));
    M = static_cast<UDWord>(
        QR.first +
        Traits::udFromWord(static_cast<UWord>(QR.second == Zero ? 0 : 1)));
  }

  UWord divisor() const { return D; }
  /// The 2N-bit multiplier (0 for the trivial d == 1).
  UDWord magic() const { return M; }
  int multiplierBits() const {
    return Trivial ? 0 : floorLog2(M) + 1;
  }

  /// floor(n/d) = high half of the M*n doubleword product.
  UWord divide(UWord Numerator) const {
    if (Trivial)
      return Numerator;
    return Traits::udLow(
        detail::udMulHigh2N<Traits>(M, Traits::udFromWord(Numerator)));
  }

  UWord remainder(UWord Numerator) const {
    return static_cast<UWord>(Numerator - mulL(divide(Numerator), D));
  }

  struct Result {
    UWord Quotient;
    UWord Remainder;
  };

  Result divRem(UWord Numerator) const {
    const UWord Q = divide(Numerator);
    return {Q, static_cast<UWord>(Numerator - mulL(Q, D))};
  }

  std::string describe() const {
    if (Trivial)
      return "narrow: d=1 passthrough";
    return "narrow: q = MULUH_" + std::to_string(2 * N) +
           "(M, n), M bits=" + std::to_string(multiplierBits()) +
           ", no shift, no fixup";
  }

private:
  UWord D;
  UDWord M;
  bool Trivial;
};

/// describe() of the signed form over |d| (core/SignMagnitude.h).
template <typename UWord>
std::string describeSigned(const NarrowDivider<UWord> &Magnitude) {
  return "narrow-signed over |d|: " + Magnitude.describe();
}

/// Signed narrow divider: |n|, |d| through the unsigned core, signs
/// patched with the EOR/subtract idiom (core/SignMagnitude.h).
template <typename SWord>
using NarrowSignedDivider =
    SignMagnitudeDivider<NarrowDivider<UnsignedWordOf<SWord>>>;

/// The canonical Mitsunari–Hoshino instantiations: u32/i32 served by one
/// 64-bit multiply on 64-bit hosts.
using Narrow32Divider = NarrowDivider<uint32_t>;
using Narrow32SignedDivider = NarrowSignedDivider<int32_t>;

} // namespace gmdiv

#endif // GMDIV_CORE_NARROWDIVIDER_H
