//===- core/RoundUpDivider.h - round-up variant, optimal bounds -*- C++ -*-===//
//
// Part of the gmdiv project: a faithful, testable reproduction of
// "Division by Invariant Integers using Multiplication" (Granlund &
// Montgomery, PLDI 1994), grown toward successor techniques.
//
// The round-up family: q = floor(m*n / 2^k) with m = ceil(2^k/d) (the
// "round-up" form), or q = floor(m*(n+1) / 2^k) with m = floor(2^k/d)
// and a saturating increment (the "increment" form). Either way the
// post-multiply fixup adds GM's Figure 4.1 needs (the n + t1 overflow
// dance) disappears: one MULUH, one shift, optionally one increment.
//
// GM's Theorem 4.2 brackets the multiplier into [2^N, 2^(N+1)) and
// accepts the fixup when m overflows a word. Lemire–Bartlett–Kaser
// ("Integer Division by Constants: Optimal Bounds", arXiv:2012.12369)
// prove the *minimal* k for which a word-sized round-up or increment
// multiplier exists; the full correctness proof of the round-up variant
// is arXiv:2412.03680. Both reduce to exact O(1) predicates on (d, m, k)
// — encoded here as checkRoundUpMultiplier(), the family's analogue of
// verify::checkMultiplier — evaluated at the single worst-case dividend:
//
//   round-up  (e = m*d - 2^k >= 0):  e * nstar < 2^k where nstar is the
//             largest n < 2^N with n == -1 (mod d)       [d <= 2^(N-1)]
//   increment (e' = 2^k - m*d > 0):  e' * (n0+1) <= 2^k where n0 is the
//             largest multiple of d below 2^N            [d <= 2^(N-1)]
//
// plus direct endpoint checks for d > 2^(N-1) (where quotients are only
// 0 or 1) and for the saturated top dividend of the increment form.
// chooseRoundUpMultiplier() scans k upward from N and returns the first
// (minimal) admissible pair, preferring round-up over increment at equal
// k; divisors admitting neither within k <= 2N-1 fall back to an
// embedded GM divider (Mode::Fixup) so the family stays total.
//
//===----------------------------------------------------------------------===//

#ifndef GMDIV_CORE_ROUNDUPDIVIDER_H
#define GMDIV_CORE_ROUNDUPDIVIDER_H

#include "core/Divider.h"
#include "core/SignMagnitude.h"
#include "ops/Ops.h"

#include <cassert>
#include <string>

namespace gmdiv {

/// Exact correctness test for a round-up/increment multiplier: true iff
/// floor(M*n / 2^K) (round-up) resp. floor(M*(n+1 saturating) / 2^K)
/// (increment) equals floor(n / Divisor) for every n in [0, 2^N).
/// Constant-time — evaluates the closed-form worst-case dividends rather
/// than sweeping. Requires N <= K <= 2N-1 and a word-sized M (a
/// multiplier that does not fit a word is reported unusable, mirroring
/// MultiplierCheck::FitsWord).
template <typename UWord>
bool checkRoundUpMultiplier(UWord Divisor,
                            typename WordTraits<UWord>::UDWord M, int K,
                            bool IncrementVariant) {
  using T = WordTraits<UWord>;
  using UDWord = typename T::UDWord;
  constexpr int N = T::Bits;
  assert(Divisor >= 1 && "divisor must be nonzero");
  assert(K >= N && K < 2 * N && "k out of range");

  const UDWord Zero = T::udFromWord(static_cast<UWord>(0));
  const UDWord One = T::udFromWord(static_cast<UWord>(1));
  const UDWord DW = T::udFromWord(Divisor);
  if (M == Zero || !(M < T::udPow2(N)))
    return false;
  const UDWord P2K = T::udPow2(K);
  const UDWord MaxN = static_cast<UDWord>(T::udPow2(N) - One);
  const UDWord TopQ = T::udDivMod(MaxN, DW).first;
  const UDWord HalfN = T::udPow2(N - 1);
  const UDWord MD = static_cast<UDWord>(M * DW);

  if (!IncrementVariant) {
    // Round-up form: m*d = 2^k + e with e >= 0.
    if (MD < P2K)
      return false;
    const UDWord E = static_cast<UDWord>(MD - P2K);
    if (E == Zero)
      return true; // exact reciprocal: d divides 2^k
    if (DW > HalfN) {
      // Quotients are only 0 (n <= d-1) and 1 (n >= d); monotonicity
      // reduces correctness to the two extreme dividends.
      return static_cast<UDWord>(M * static_cast<UDWord>(DW - One)) >> K ==
                 Zero &&
             static_cast<UDWord>(M * MaxN) >> K == One;
    }
    // d <= 2^(N-1): the binding dividend is the largest n == -1 (mod d).
    const UDWord Gap =
        T::udDivMod(static_cast<UDWord>(MaxN - (DW - One)), DW).second;
    const UDWord NStar = static_cast<UDWord>(MaxN - Gap);
    return static_cast<UDWord>(E * NStar) < P2K;
  }

  // Increment form: m*d = 2^k - e' with e' > 0 (e' == 0 is the exact
  // case, which belongs to the round-up form).
  if (!(MD < P2K))
    return false;
  const UDWord EP = static_cast<UDWord>(P2K - MD);
  bool Ok;
  if (DW > HalfN) {
    if (DW == MaxN)
      return false; // n = d-1 and the saturated top collide on m*(2^N-1)
    Ok = static_cast<UDWord>(M * DW) >> K == Zero &&
         static_cast<UDWord>(M * static_cast<UDWord>(DW + One)) >> K == One;
  } else {
    if (EP > MaxN)
      return false;
    // The binding unsaturated dividend is the largest multiple of d.
    const UDWord NZero =
        static_cast<UDWord>(DW * T::udDivMod(MaxN, DW).first);
    Ok = !(static_cast<UDWord>(EP * static_cast<UDWord>(NZero + One)) > P2K);
  }
  // The saturating increment clamps n = 2^N-1 to itself; that dividend
  // must still produce the top quotient.
  return Ok && static_cast<UDWord>(M * MaxN) >> K == TopQ;
}

/// What chooseRoundUpMultiplier decided for a divisor.
template <typename UWordT> struct RoundUpChoice {
  using UWord = UWordT;
  using UDWord = typename WordTraits<UWord>::UDWord;

  enum class Kind {
    Shift,     ///< d = 2^l: plain SRL, no multiply.
    RoundUp,   ///< q = SRL(MULUH(m, n), k - N), m = ceil(2^k/d).
    Increment, ///< q = SRL(MULUH(m, n + (n < 2^N-1)), k - N), m = floor.
    Fixup,     ///< no word-sized multiplier up to k = 2N-1: GM fallback.
  };

  Kind Mode = Kind::Fixup;
  UDWord Multiplier{}; ///< word-sized m (RoundUp/Increment modes only)
  int TotalShift = 0;  ///< k; the run-time post-shift is k - N
  int MultiplierBits = 0;

  static const char *kindName(Kind K) {
    switch (K) {
    case Kind::Shift:
      return "shift";
    case Kind::RoundUp:
      return "round-up";
    case Kind::Increment:
      return "increment";
    case Kind::Fixup:
      return "gm-fixup";
    }
    return "?";
  }
};

/// Minimal-k scan per the Optimal Bounds criterion: the first k in
/// [N, 2N-1] admitting a word-sized multiplier wins, round-up preferred
/// over increment at equal k (it saves the increment op).
template <typename UWord>
RoundUpChoice<UWord> chooseRoundUpMultiplier(UWord Divisor) {
  using T = WordTraits<UWord>;
  using UDWord = typename T::UDWord;
  using Choice = RoundUpChoice<UWord>;
  constexpr int N = T::Bits;
  assert(Divisor >= 1 && "divisor must be nonzero");

  Choice C;
  if (isPowerOf2(Divisor)) {
    C.Mode = Choice::Kind::Shift;
    C.TotalShift = floorLog2(Divisor);
    C.Multiplier = T::udFromWord(static_cast<UWord>(1));
    C.MultiplierBits = 1;
    return C;
  }

  const UDWord DW = T::udFromWord(Divisor);
  const UDWord Zero = T::udFromWord(static_cast<UWord>(0));
  const int L = ceilLog2(Divisor);
  const int KMax = N + L <= 2 * N - 1 ? N + L : 2 * N - 1;
  for (int K = N; K <= KMax; ++K) {
    const auto QR = T::udDivModPow2(K, DW);
    const UDWord MUp =
        static_cast<UDWord>(QR.first + T::udFromWord(static_cast<UWord>(1)));
    if (checkRoundUpMultiplier(Divisor, MUp, K, /*IncrementVariant=*/false)) {
      C.Mode = Choice::Kind::RoundUp;
      C.Multiplier = MUp;
      C.TotalShift = K;
      C.MultiplierBits = floorLog2(MUp) + 1;
      return C;
    }
    if (QR.first != Zero &&
        checkRoundUpMultiplier(Divisor, QR.first, K, /*IncrementVariant=*/true)) {
      C.Mode = Choice::Kind::Increment;
      C.Multiplier = QR.first;
      C.TotalShift = K;
      C.MultiplierBits = floorLog2(QR.first) + 1;
      return C;
    }
  }
  return C; // Fixup
}

/// Divider front-end over the choice: Shift and RoundUp cost one shift
/// resp. one MULUH + one shift; Increment adds a saturating increment;
/// Fixup delegates to the embedded GM UnsignedDivider so every divisor
/// is served.
template <typename UWordT> class RoundUpDivider {
public:
  using UWord = UWordT;
  using Traits = WordTraits<UWord>;
  using UDWord = typename Traits::UDWord;
  using Choice = RoundUpChoice<UWord>;
  static constexpr int N = Traits::Bits;

  explicit RoundUpDivider(UWord Divisor)
      : D(Divisor), C(chooseRoundUpMultiplier(Divisor)), Fallback(Divisor) {
    if (C.Mode != Choice::Kind::Shift && C.Mode != Choice::Kind::Fixup)
      Magic = Traits::udLow(C.Multiplier);
  }

  UWord divisor() const { return D; }
  const Choice &choice() const { return C; }
  typename Choice::Kind mode() const { return C.Mode; }
  bool usesFixup() const { return C.Mode == Choice::Kind::Fixup; }
  UWord magic() const { return Magic; }
  int totalShift() const { return C.TotalShift; }
  int multiplierBits() const { return C.MultiplierBits; }

  UWord divide(UWord Numerator) const {
    switch (C.Mode) {
    case Choice::Kind::Shift:
      return srl(Numerator, C.TotalShift);
    case Choice::Kind::RoundUp:
      return srl(mulUH(Magic, Numerator), C.TotalShift - N);
    case Choice::Kind::Increment: {
      const UWord MaxN = static_cast<UWord>(~static_cast<UWord>(0));
      const UWord Bumped = static_cast<UWord>(
          Numerator +
          static_cast<UWord>(Numerator == MaxN ? 0 : 1));
      return srl(mulUH(Magic, Bumped), C.TotalShift - N);
    }
    case Choice::Kind::Fixup:
      return Fallback.divide(Numerator);
    }
    return static_cast<UWord>(0); // unreachable
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
    std::string Out = "roundup[";
    Out += Choice::kindName(C.Mode);
    Out += "]: k=" + std::to_string(C.TotalShift) +
           ", m bits=" + std::to_string(C.MultiplierBits);
    if (usesFixup())
      Out += " (GM Figure 4.1 fallback)";
    return Out;
  }

private:
  UWord D;
  Choice C;
  UWord Magic{};
  /// Built for every divisor (a few ns) so it is never read
  /// uninitialized; only the Fixup mode calls it.
  UnsignedDivider<UWord> Fallback;
};

/// describe() of the signed form over |d| (core/SignMagnitude.h).
template <typename UWord>
std::string describeSigned(const RoundUpDivider<UWord> &Magnitude) {
  return "roundup-signed over |d|=" +
         std::to_string(static_cast<uint64_t>(Magnitude.divisor())) + ": " +
         Magnitude.describe();
}

/// Signed round-up divider: divide on magnitudes, then restore the sign
/// with the branch-free xor/sub mask (core/SignMagnitude.h). INT_MIN / -1
/// wraps to INT_MIN, as UnsignedDivider-backed SignedDivider defines.
template <typename SWord>
using RoundUpSignedDivider =
    SignMagnitudeDivider<RoundUpDivider<UnsignedWordOf<SWord>>>;

} // namespace gmdiv

#endif // GMDIV_CORE_ROUNDUPDIVIDER_H
