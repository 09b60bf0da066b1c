//===- verify/Oracle.cpp - Wide-integer reference oracle ------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "verify/Oracle.h"

#include "core/MultiPrecision.h"
#include "ops/Bits.h"

#include <cassert>

using namespace gmdiv;
using namespace gmdiv::verify;

namespace {

/// |v| of a sign-extended value, computed mod 2^64 so INT64_MIN is safe.
uint64_t magnitude(int64_t Value) {
  return Value < 0 ? 0 - static_cast<uint64_t>(Value)
                   : static_cast<uint64_t>(Value);
}

/// Little-endian limbs of 2^K (0 <= K <= 191).
std::vector<uint64_t> pow2Limbs(int K) {
  assert(K >= 0 && K < 192 && "exponent out of the oracle's range");
  std::vector<uint64_t> Limbs(static_cast<size_t>(K / 64) + 1, 0);
  Limbs.back() = uint64_t{1} << (K % 64);
  return Limbs;
}

/// Adds 2^K into the limb array (which must already span bit K).
void addPow2InPlace(std::vector<uint64_t> &Limbs, int K) {
  size_t Index = static_cast<size_t>(K / 64);
  uint64_t Carry = uint64_t{1} << (K % 64);
  while (Carry != 0) {
    assert(Index < Limbs.size() && "carry out of the limb array");
    const uint64_t Sum = Limbs[Index] + Carry;
    Carry = Sum < Carry ? 1 : 0;
    Limbs[Index++] = Sum;
  }
}

/// floor(value/d) of a limb array, returned as (low64, high64); asserts
/// the quotient fits two limbs (always true for the multiplier brackets,
/// which are below 2^(N+2) <= 2^66).
std::pair<uint64_t, uint64_t> divToHalves(std::vector<uint64_t> Limbs,
                                          const DWordDivider<uint64_t> &ByD,
                                          uint64_t *RemainderOut = nullptr) {
  const uint64_t Remainder = multiprecision::divModInPlace(Limbs, ByD);
  if (RemainderOut)
    *RemainderOut = Remainder;
  while (Limbs.size() > 2) {
    assert(Limbs.back() == 0 && "quotient exceeds 128 bits");
    Limbs.pop_back();
  }
  return {Limbs.empty() ? 0 : Limbs[0], Limbs.size() > 1 ? Limbs[1] : 0};
}

/// Lexicographic compare of (high, low) 128-bit halves.
int compareHalves(uint64_t ALow, uint64_t AHigh, uint64_t BLow,
                  uint64_t BHigh) {
  if (AHigh != BHigh)
    return AHigh < BHigh ? -1 : 1;
  if (ALow != BLow)
    return ALow < BLow ? -1 : 1;
  return 0;
}

} // namespace

Oracle::Oracle(int WordBits, uint64_t DBits, bool IsSigned)
    : W(WordBits), Signed(IsSigned), DBits(DBits & maskFor(WordBits)),
      Mask(maskFor(WordBits)),
      AbsD(IsSigned ? magnitude(signExtend64(DBits & maskFor(WordBits),
                                           WordBits))
                    : DBits & maskFor(WordBits)),
      MagnitudeDivider(AbsD), Limbs(1, 0) {
  assert(WordBits >= 2 && WordBits <= 64 && "unsupported word width");
  assert(AbsD != 0 && "divisor must be nonzero");
}

DivRef Oracle::ref(uint64_t NBits) const {
  NBits &= Mask;
  DivRef Result;
  if (!Signed) {
    // Magnitude division through the §8 kernel, cross-checked against
    // the hardware divide.
    Limbs[0] = NBits;
    const uint64_t R = multiprecision::divModInPlace(Limbs, MagnitudeDivider);
    const uint64_t Q = Limbs[0];
    assert(Q == NBits / AbsD && R == NBits % AbsD &&
           "multi-precision and hardware division disagree");
    Result.TruncQ = Q & Mask;
    Result.TruncR = R & Mask;
    Result.FloorQ = Result.TruncQ;
    Result.FloorR = Result.TruncR;
    Result.CeilQ = (Q + (R != 0 ? 1 : 0)) & Mask;
    Result.CeilR = (R != 0 ? R - AbsD : 0) & Mask;
    Result.Divisible = R == 0;
    return Result;
  }

  const int64_t N = signExtend64(NBits, W);
  const int64_t D = signExtend64(DBits, W);
  Limbs[0] = magnitude(N);
  const uint64_t MagR = multiprecision::divModInPlace(Limbs, MagnitudeDivider);
  const uint64_t MagQ = Limbs[0];
  assert(MagQ == magnitude(N) / AbsD && MagR == magnitude(N) % AbsD &&
         "multi-precision and hardware division disagree");

  // §2 sign rules applied as wrap-exact uint64 arithmetic, then masked:
  // trunc quotient negates when the signs differ, the trunc ("rem")
  // remainder takes the dividend's sign.
  const bool QNegative = (N < 0) != (D < 0);
  const uint64_t TruncQ = QNegative ? 0 - MagQ : MagQ;
  const uint64_t TruncR = N < 0 ? 0 - MagR : MagR;
  Result.TruncQ = TruncQ & Mask;
  Result.TruncR = TruncR & Mask;
  Result.Divisible = MagR == 0;

  // Floor: subtract one from the trunc quotient (and add d to the
  // remainder) when a nonzero remainder's sign differs from d's.
  uint64_t FloorQ = TruncQ, FloorR = TruncR;
  if (MagR != 0 && QNegative) {
    FloorQ -= 1;
    FloorR += static_cast<uint64_t>(D);
  }
  Result.FloorQ = FloorQ & Mask;
  Result.FloorR = FloorR & Mask;

  // Ceil: the mirror adjustment when the signs agree.
  uint64_t CeilQ = TruncQ, CeilR = TruncR;
  if (MagR != 0 && !QNegative) {
    CeilQ += 1;
    CeilR -= static_cast<uint64_t>(D);
  }
  Result.CeilQ = CeilQ & Mask;
  Result.CeilR = CeilR & Mask;

  // INT_MIN / -1: every quotient is 2^(N-1), unrepresentable. The
  // dividers wrap to INT_MIN (the masked value already says so); flag it
  // so callers can apply their documented policy.
  Result.Overflow = D == -1 && NBits == (uint64_t{1} << (W - 1));
  return Result;
}

MultiplierCheck verify::checkMultiplier(int WordBits, int Precision,
                                        uint64_t D, uint64_t MultiplierLow,
                                        uint64_t MultiplierHigh,
                                        int ShiftPost, int Log2Ceil) {
  assert(WordBits >= 2 && WordBits <= 64 && "unsupported word width");
  assert(D != 0 && "divisor must be nonzero");
  assert(Precision >= 1 && Precision <= WordBits && "precision out of range");
  MultiplierCheck Check;

  // ceil(log2 d) from the 64-bit LDZ, independent of the traits layer.
  const int L = D == 1 ? 0 : 64 - countLeadingZeros64(D - 1);
  Check.ShiftInRange = Log2Ceil == L && ShiftPost >= 0 && ShiftPost <= L;
  if (!Check.ShiftInRange)
    return Check;

  // Theorem 4.2 bracket, as bounds on m (division is exact in limbs):
  //   m_min = ceil(2^(N+sh)/d)
  //   m_max = floor((2^(N+sh) + 2^(N+sh-prec))/d)
  const DWordDivider<uint64_t> ByD(D);
  const int K = WordBits + ShiftPost;
  uint64_t Remainder = 0;
  auto [MinLow, MinHigh] = divToHalves(pow2Limbs(K), ByD, &Remainder);
  if (Remainder != 0) {
    MinLow += 1;
    if (MinLow == 0)
      MinHigh += 1;
  }
  std::vector<uint64_t> UpperLimbs = pow2Limbs(K);
  addPow2InPlace(UpperLimbs, K - Precision);
  auto [MaxLow, MaxHigh] = divToHalves(std::move(UpperLimbs), ByD);
  Check.MultiplierInRange =
      compareHalves(MultiplierLow, MultiplierHigh, MinLow, MinHigh) >= 0 &&
      compareHalves(MultiplierLow, MultiplierHigh, MaxLow, MaxHigh) <= 0;

  // §5's word-size guarantees.
  const uint64_t WordTop =
      WordBits == 64 ? 0 : uint64_t{1} << WordBits; // 2^N (0 flags 2^64).
  Check.FitsWord = MultiplierHigh == 0 &&
                   (WordBits == 64 || MultiplierLow < WordTop);
  Check.FitsSignedWord =
      MultiplierHigh == 0 &&
      MultiplierLow < (uint64_t{1} << (WordBits - 1));
  return Check;
}
