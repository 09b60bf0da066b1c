//===- codegen/DivCodeGen.cpp - Constant-divisor code generation ----------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "codegen/DivCodeGen.h"

#include "codegen/MulByConst.h"
#include "core/ChooseMultiplier.h"
#include "metrics/Metrics.h"
#include "numtheory/ModArith.h"
#include "ops/Bits.h"
#include "ops/Ops.h"
#include "ops/SmallWord.h"
#include "telemetry/Remarks.h"

#include <cassert>
#include <cstdio>
#include <initializer_list>

using namespace gmdiv;
using namespace gmdiv::codegen;
using namespace gmdiv::ir;

namespace {

//===----------------------------------------------------------------------===//
// Telemetry plumbing: every emitter reports exactly one remark naming the
// paper figure/case it selected (delegating emitters let the delegate
// report), plus a per-branch counter. Remark construction is guarded so
// the no-sink default allocates nothing.
//===----------------------------------------------------------------------===//

std::string hexStr(uint64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

std::string decStr(uint64_t Value) { return std::to_string(Value); }

using RemarkDetail = std::pair<std::string, std::string>;

void remarkCase(const char *Kind, const char *Figure, const char *CaseName,
                int WordBits, uint64_t DivisorBits, bool IsSigned,
                std::initializer_list<RemarkDetail> Details) {
  if (!telemetry::remarksEnabled())
    return;
  telemetry::Remark R;
  R.Pass = "codegen";
  R.Kind = Kind;
  R.Figure = Figure;
  R.CaseName = CaseName;
  R.WordBits = WordBits;
  R.DivisorBits = DivisorBits;
  R.IsSigned = IsSigned;
  for (const RemarkDetail &Detail : Details)
    R.Details.push_back(Detail);
  telemetry::emitRemark(R);
}

void remarkRuntimeCase(const char *Kind, const char *Figure,
                       const char *CaseName, int WordBits) {
  if (!telemetry::remarksEnabled())
    return;
  telemetry::Remark R;
  R.Pass = "codegen";
  R.Kind = Kind;
  R.Figure = Figure;
  R.CaseName = CaseName;
  R.WordBits = WordBits;
  R.HasDivisor = false;
  telemetry::emitRemark(R);
}

/// MULL by a constant, expanded into shifts/adds when the options say the
/// synthesis is cheaper than the machine's multiply. A power of two
/// (1 included) is a left shift, emitted without materializing C: the
/// Builder would strength-reduce the MULL anyway and leave C unused.
int emitMulLConst(Builder &B, int X, uint64_t C, const GenOptions &Options) {
  const int W = B.wordBits();
  // The Bernstein planner only models the native machine widths; at the
  // emulated small widths (verification harness) always emit the MULL.
  const bool NativeWidth = W == 8 || W == 16 || W == 32 || W == 64;
  if (NativeWidth && Options.ExpandMulBelowCycles >= 0 &&
      shouldExpandMultiply(C, W, Options.ExpandMulBelowCycles)) {
    GMDIV_STAT(codegen, mull_bernstein_expanded);
    return emitMulByConst(B, X, C);
  }
  C &= B.wordMask();
  if (C != 0 && (C & (C - 1)) == 0)
    return B.sll(X, countTrailingZeros64(C), "multiply by constant");
  return B.mulL(X, B.constant(C), "multiply by constant");
}

/// MULUH respecting the target's capability (§3 identity when absent).
int emitMulUHCap(Builder &B, int Lhs, int Rhs,
                 MulHighCapability Capability) {
  if (Capability != MulHighCapability::SignedOnly)
    return B.mulUH(Lhs, Rhs, "MULUH");
  // MULUH(x, y) = MULSH(x, y) + AND(x, XSIGN(y)) + AND(y, XSIGN(x)).
  const int High = B.mulSH(Lhs, Rhs, "MULSH (no MULUH on target)");
  const int FixA = B.and_(Lhs, B.xsign(Rhs), "§3 identity correction");
  const int FixB = B.and_(Rhs, B.xsign(Lhs), "§3 identity correction");
  return B.add(B.add(High, FixA), FixB);
}

/// MULSH respecting the target's capability (§3 identity when absent).
int emitMulSHCap(Builder &B, int Lhs, int Rhs,
                 MulHighCapability Capability) {
  if (Capability != MulHighCapability::UnsignedOnly)
    return B.mulSH(Lhs, Rhs, "MULSH");
  // MULSH(x, y) = MULUH(x, y) - AND(x, XSIGN(y)) - AND(y, XSIGN(x)).
  const int High = B.mulUH(Lhs, Rhs, "MULUH (no MULSH on target)");
  const int FixA = B.and_(Lhs, B.xsign(Rhs), "§3 identity correction");
  const int FixB = B.and_(Rhs, B.xsign(Lhs), "§3 identity correction");
  return B.sub(B.sub(High, FixA), FixB);
}

/// MULUH by a *constant* multiplier, exploiting that the constant's sign
/// bit is known: when the constant has its top bit clear, XSIGN(m) = 0
/// and one of the two §3 corrections vanishes.
int emitMulUHConstCap(Builder &B, int X, uint64_t M, int WordBits,
                      MulHighCapability Capability,
                      const std::string &Comment) {
  const int MConst = B.constant(M, Comment);
  if (Capability != MulHighCapability::SignedOnly)
    return B.mulUH(MConst, X, "MULUH(m, n)");
  const bool TopBitSet = (M >> (WordBits - 1)) & 1;
  const int High = B.mulSH(MConst, X, "MULSH (no MULUH on target)");
  // + AND(m, XSIGN(n)) always; + AND(n, XSIGN(m)) only if m's top bit
  // is set, in which case XSIGN(m) is all ones and the AND is just n.
  int Result = B.add(High, B.and_(MConst, B.xsign(X)),
                     "§3 identity correction");
  if (TopBitSet)
    Result = B.add(Result, X, "XSIGN(m) = -1: add n");
  return Result;
}

/// MULSH by a constant whose sign bit is known, for UnsignedOnly targets:
/// MULSH(m, n) = MULUH(m, n) - AND(m, XSIGN(n)) - (top bit of m ? n : 0).
int emitMulSHConstCap(Builder &B, int X, uint64_t M, int WordBits,
                      MulHighCapability Capability,
                      const std::string &Comment) {
  const int MConst = B.constant(M, Comment);
  if (Capability != MulHighCapability::UnsignedOnly)
    return B.mulSH(MConst, X, "MULSH(m, n)");
  const bool TopBitSet = (M >> (WordBits - 1)) & 1;
  const int High = B.mulUH(MConst, X, "MULUH (no MULSH on target)");
  int Result = B.sub(High, B.and_(MConst, B.xsign(X)),
                     "§3 identity correction");
  if (TopBitSet)
    Result = B.sub(Result, X, "XSIGN(m) = -1: subtract n");
  return Result;
}

//===----------------------------------------------------------------------===//
// Figure 4.2 — unsigned division by constant d.
//===----------------------------------------------------------------------===//

template <typename UWord>
int emitUnsignedDivT(Builder &B, int N, UWord D, const GenOptions &Options) {
  using T = WordTraits<UWord>;
  constexpr int Bits = T::Bits;
  assert(D >= 1 && "divisor must be nonzero");

  MultiplierInfo<UWord> Info = chooseMultiplier<UWord>(D, Bits);
  int ShiftPre = 0;
  if (!Info.fitsInWord() && (D & 1) == 0) {
    // Even divisor improvement: split d = 2^e * d_odd; divide by 2^e with
    // a pre-shift, then less precision is needed for the multiplier.
    const int E = countTrailingZeros(D);
    const UWord DOdd = srl(D, E);
    ShiftPre = E;
    Info = chooseMultiplier<UWord>(DOdd, Bits - E);
  }

  if (isPowerOf2(D)) {
    GMDIV_STAT(codegen, unsigned_div_pow2);
    remarkCase("unsigned-pow2", "Figure 4.2", "power of two", Bits,
               static_cast<uint64_t>(D), false,
               {{"shift", decStr(static_cast<uint64_t>(floorLog2(D)))}});
    return B.srl(N, floorLog2(D), "d is a power of two");
  }

  if (!Info.fitsInWord()) {
    assert(ShiftPre == 0 && "pre-shift implies a fitting multiplier");
    assert(Info.ShiftPost >= 1 && "m >= 2^N forces sh_post >= 1 for d >= 2");
    GMDIV_STAT(codegen, unsigned_div_long_form);
    remarkCase(
        "unsigned-long-form", "Figure 4.2", "long form (m >= 2^N)", Bits,
        static_cast<uint64_t>(D), false,
        {{"m_minus_2N",
          hexStr(static_cast<uint64_t>(Info.truncatedMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
    // q = SRL(t1 + SRL(n - t1, 1), sh_post - 1), t1 = MULUH(m - 2^N, n).
    const int T1 = emitMulUHConstCap(
        B, N, static_cast<uint64_t>(Info.truncatedMultiplier()), Bits,
        Options.MulHigh, "m - 2^N");
    const int Avg = B.srl(B.sub(N, T1), 1, "(n - t1) / 2");
    return B.srl(B.add(T1, Avg), Info.ShiftPost - 1);
  }

  if (ShiftPre > 0) {
    GMDIV_STAT(codegen, unsigned_div_pre_shift);
    remarkCase(
        "unsigned-pre-shift", "Figure 4.2", "even divisor pre-shift", Bits,
        static_cast<uint64_t>(D), false,
        {{"sh_pre", decStr(static_cast<uint64_t>(ShiftPre))},
         {"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
  } else {
    GMDIV_STAT(codegen, unsigned_div_short);
    remarkCase(
        "unsigned-short", "Figure 4.2", "short form (m < 2^N)", Bits,
        static_cast<uint64_t>(D), false,
        {{"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
  }
  const int Shifted =
      ShiftPre > 0 ? B.srl(N, ShiftPre, "pre-shift by the even part")
                   : N;
  const int Product = emitMulUHConstCap(
      B, Shifted, static_cast<uint64_t>(Info.wordMultiplier()), Bits,
      Options.MulHigh, "magic multiplier m");
  return B.srl(Product, Info.ShiftPost);
}

//===----------------------------------------------------------------------===//
// Figure 5.2 — signed division (trunc) by constant d.
//===----------------------------------------------------------------------===//

template <typename UWord>
int emitSignedDivT(Builder &B, int N, int64_t D64,
                   const GenOptions &Options) {
  using T = WordTraits<UWord>;
  using SWord = typename T::SWord;
  constexpr int Bits = T::Bits;
  const SWord D = static_cast<SWord>(D64);
  assert(static_cast<int64_t>(D) == D64 && "divisor does not fit the width");
  assert(D != 0 && "divisor must be nonzero");
  const UWord AbsD =
      D < 0 ? static_cast<UWord>(UWord{0} - static_cast<UWord>(D))
            : static_cast<UWord>(D);

  int Q;
  if (AbsD == 1) {
    GMDIV_STAT(codegen, signed_div_unit);
    remarkCase("signed-unit", "Figure 5.2", "|d| = 1", Bits,
               static_cast<uint64_t>(D64), true, {});
    Q = N; // q = n; the caller-visible negate below handles d = -1.
  } else if (isPowerOf2(AbsD)) {
    // q = SRA(n + SRL(SRA(n, l-1), N-l), l): add d-1 only for negative n.
    const int L = floorLog2(AbsD);
    GMDIV_STAT(codegen, signed_div_pow2);
    remarkCase("signed-pow2", "Figure 5.2", "|d| is a power of two", Bits,
               static_cast<uint64_t>(D64), true,
               {{"shift", decStr(static_cast<uint64_t>(L))}});
    const int AllSign = B.sra(N, L - 1, "sign spread over low bits");
    const int Round = B.srl(AllSign, Bits - L, "d - 1 if n < 0, else 0");
    Q = B.sra(B.add(N, Round), L);
  } else {
    const MultiplierInfo<UWord> Info = chooseMultiplier<UWord>(AbsD, Bits - 1);
    if (Info.Multiplier < T::udPow2(Bits - 1)) {
      GMDIV_STAT(codegen, signed_div_short);
      remarkCase(
          "signed-short", "Figure 5.2", "short form (m < 2^(N-1))", Bits,
          static_cast<uint64_t>(D64), true,
          {{"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
           {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
    } else {
      GMDIV_STAT(codegen, signed_div_add);
      remarkCase(
          "signed-add", "Figure 5.2", "add case (m >= 2^(N-1))", Bits,
          static_cast<uint64_t>(D64), true,
          {{"m_minus_2N",
            hexStr(static_cast<uint64_t>(Info.truncatedMultiplier()))},
           {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
    }
    int Q0;
    if (Info.Multiplier < T::udPow2(Bits - 1)) {
      Q0 = emitMulSHConstCap(
          B, N, static_cast<uint64_t>(Info.wordMultiplier()), Bits,
          Options.MulHigh, "magic multiplier m");
    } else {
      // m >= 2^(N-1): multiply by m - 2^N (negative) and add n back.
      Q0 = B.add(N, emitMulSHConstCap(
                        B, N,
                        static_cast<uint64_t>(Info.truncatedMultiplier()),
                        Bits, Options.MulHigh, "m - 2^N (negative)"));
    }
    const int ShiftedQ = B.sra(Q0, Info.ShiftPost);
    Q = B.sub(ShiftedQ, B.xsign(N), "add 1 if n < 0");
  }
  if (D < 0)
    Q = B.neg(Q, "negative divisor");
  return Q;
}

//===----------------------------------------------------------------------===//
// Figure 6.1 — floor division by constant d > 0.
//===----------------------------------------------------------------------===//

template <typename UWord>
int emitFloorDivT(Builder &B, int N, int64_t D64, const GenOptions &Options) {
  using T = WordTraits<UWord>;
  using SWord = typename T::SWord;
  constexpr int Bits = T::Bits;
  const SWord D = static_cast<SWord>(D64);
  assert(static_cast<int64_t>(D) == D64 && "divisor does not fit the width");
  assert(D > 0 && "Figure 6.1 requires a positive constant divisor");
  const UWord AbsD = static_cast<UWord>(D);

  if (isPowerOf2(AbsD)) {
    GMDIV_STAT(codegen, floor_div_pow2);
    remarkCase("floor-pow2", "Figure 6.1", "power of two (SRA floors)",
               Bits, static_cast<uint64_t>(D64), true,
               {{"shift", decStr(static_cast<uint64_t>(floorLog2(AbsD)))}});
    return B.sra(N, floorLog2(AbsD), "SRA floors by powers of two");
  }

  const MultiplierInfo<UWord> Info = chooseMultiplier<UWord>(AbsD, Bits - 1);
  assert(Info.fitsInWord() && "m < 2^N guaranteed for 0 < d < 2^(N-1)");
  GMDIV_STAT(codegen, floor_div_short);
  remarkCase("floor-short", "Figure 6.1", "XSIGN/EOR short form", Bits,
             static_cast<uint64_t>(D64), true,
             {{"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
              {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
  const int NSign = B.xsign(N, "nsign = XSIGN(n)");
  const int Flipped = B.eor(NSign, N, "n if n >= 0, else -n - 1");
  const int Q0 = emitMulUHConstCap(
      B, Flipped, static_cast<uint64_t>(Info.wordMultiplier()), Bits,
      Options.MulHigh, "magic multiplier m");
  return B.eor(NSign, B.srl(Q0, Info.ShiftPost));
}

//===----------------------------------------------------------------------===//
// §9 — exact division and divisibility.
//===----------------------------------------------------------------------===//

template <typename UWord>
int emitExactUnsignedDivT(Builder &B, int N, UWord D,
                          const GenOptions &Options) {
  constexpr int Bits = WordTraits<UWord>::Bits;
  assert(D >= 1 && "divisor must be nonzero");
  const int E = countTrailingZeros(D);
  const UWord DOdd = srl(D, E);
  if (DOdd == 1) {
    GMDIV_STAT(codegen, exact_udiv_pow2);
    remarkCase("exact-pow2", "§9", "power of two (exact => SRL)", Bits,
               static_cast<uint64_t>(D), false,
               {{"e", decStr(static_cast<uint64_t>(E))}});
    return B.srl(N, E, "d is a power of two");
  }
  const UWord Inverse = modInverseNewton(DOdd);
  GMDIV_STAT(codegen, exact_udiv_inverse);
  remarkCase("exact-inverse", "§9", "multiply by the odd part's inverse",
             Bits, static_cast<uint64_t>(D), false,
             {{"e", decStr(static_cast<uint64_t>(E))},
              {"d_odd", decStr(static_cast<uint64_t>(DOdd))},
              {"inverse", hexStr(static_cast<uint64_t>(Inverse))}});
  const int Product = emitMulLConst(
      B, N, static_cast<uint64_t>(Inverse), Options);
  return E == 0 ? Product : B.srl(Product, E, "shift out the even part");
}

template <typename UWord>
int emitExactSignedDivT(Builder &B, int N, int64_t D64,
                        const GenOptions &Options) {
  using SWord = typename WordTraits<UWord>::SWord;
  constexpr int Bits = WordTraits<UWord>::Bits;
  const SWord D = static_cast<SWord>(D64);
  assert(static_cast<int64_t>(D) == D64 && "divisor does not fit the width");
  assert(D != 0 && "divisor must be nonzero");
  const UWord AbsD =
      D < 0 ? static_cast<UWord>(UWord{0} - static_cast<UWord>(D))
            : static_cast<UWord>(D);
  const int E = countTrailingZeros(AbsD);
  const UWord DOdd = srl(AbsD, E);
  int Q;
  if (DOdd == 1) {
    GMDIV_STAT(codegen, exact_sdiv_pow2);
    remarkCase("exact-pow2", "§9", "power of two (exact => SRA)", Bits,
               static_cast<uint64_t>(D64), true,
               {{"e", decStr(static_cast<uint64_t>(E))}});
    Q = E == 0 ? N : B.sra(N, E, "|d| is a power of two; exact => SRA");
  } else {
    const UWord Inverse = modInverseNewton(DOdd);
    GMDIV_STAT(codegen, exact_sdiv_inverse);
    remarkCase("exact-inverse", "§9", "multiply by the odd part's inverse",
               Bits, static_cast<uint64_t>(D64), true,
               {{"e", decStr(static_cast<uint64_t>(E))},
                {"d_odd", decStr(static_cast<uint64_t>(DOdd))},
                {"inverse", hexStr(static_cast<uint64_t>(Inverse))}});
    const int Product =
        emitMulLConst(B, N, static_cast<uint64_t>(Inverse), Options);
    Q = E == 0 ? Product : B.sra(Product, E, "shift out the even part");
  }
  if (D < 0)
    Q = B.neg(Q, "negative divisor");
  return Q;
}

template <typename UWord>
int emitDivisibilityTestUnsignedT(Builder &B, int N, UWord D) {
  constexpr int Bits = WordTraits<UWord>::Bits;
  assert(D >= 1 && "divisor must be nonzero");
  if (D == 1) {
    GMDIV_STAT(codegen, divtest_u_trivial);
    remarkCase("divtest-trivial", "§9", "d = 1 is always divisible", Bits,
               static_cast<uint64_t>(D), false, {});
    return B.constant(1, "everything is divisible by 1");
  }
  const int E = countTrailingZeros(D);
  const UWord DOdd = srl(D, E);
  if (DOdd == 1) {
    GMDIV_STAT(codegen, divtest_u_pow2);
    remarkCase("divtest-pow2", "§9", "power of two (mask test)", Bits,
               static_cast<uint64_t>(D), false,
               {{"e", decStr(static_cast<uint64_t>(E))}});
    // Power of two: test the low bits.
    const int Low =
        B.and_(N, B.constant(static_cast<uint64_t>(D) - 1, "2^e - 1"));
    return B.sltU(Low, B.constant(1), "low bits all zero?");
  }
  const UWord Inverse = modInverseNewton(DOdd);
  const UWord QMax = static_cast<UWord>(static_cast<UWord>(~UWord{0}) / D);
  GMDIV_STAT(codegen, divtest_u_inverse);
  remarkCase("divtest-inverse", "§9", "inverse multiply + bound compare",
             Bits, static_cast<uint64_t>(D), false,
             {{"e", decStr(static_cast<uint64_t>(E))},
              {"inverse", hexStr(static_cast<uint64_t>(Inverse))},
              {"qmax", decStr(static_cast<uint64_t>(QMax))}});
  const int Q0 = B.mulL(B.constant(static_cast<uint64_t>(Inverse),
                                   "inverse of odd part mod 2^N"),
                        N, "q0 = MULL(d_inv, n)");
  const int Rotated =
      E == 0 ? Q0 : B.ror(Q0, E, "fold the 2^e test into the compare");
  // QMax < 2^(N-1) for d >= 2... actually QMax <= (2^N-1)/2, so QMax + 1
  // cannot wrap.
  return B.sltU(Rotated,
                B.constant(static_cast<uint64_t>(QMax) + 1,
                           "qmax + 1 = floor((2^N-1)/d) + 1"),
                "divisible iff below the bound");
}

template <typename UWord>
int emitRemainderTestUnsignedT(Builder &B, int N, UWord D, UWord R) {
  using SWord = typename WordTraits<UWord>::SWord;
  (void)sizeof(SWord);
  constexpr int Bits = WordTraits<UWord>::Bits;
  assert(D >= 1 && "divisor must be nonzero");
  assert(R < D && "remainder target must be below the divisor");
  if (R == 0) // Delegate; the divisibility test reports the remark.
    return emitDivisibilityTestUnsignedT(B, N, D);
  const int E = countTrailingZeros(D);
  const UWord DOdd = srl(D, E);
  const int Biased = B.sub(N, B.constant(static_cast<uint64_t>(R), "r"),
                           "n - r");
  if (DOdd == 1) {
    GMDIV_STAT(codegen, remtest_u_pow2);
    remarkCase("remtest-pow2", "§9", "power of two (mask low bits of n-r)",
               Bits, static_cast<uint64_t>(D), false,
               {{"r", decStr(static_cast<uint64_t>(R))},
                {"e", decStr(static_cast<uint64_t>(E))}});
    // Power of two: n mod 2^e == r iff the low e bits of n - r are zero,
    // i.e. the low bits of n equal r.
    const int Low = B.and_(Biased,
                           B.constant(static_cast<uint64_t>(D) - 1,
                                      "2^e - 1"));
    return B.sltU(Low, B.constant(1), "low bits match r?");
  }
  const UWord Inverse = modInverseNewton(DOdd);
  GMDIV_STAT(codegen, remtest_u_inverse);
  remarkCase("remtest-inverse", "§9", "inverse multiply of n-r + bound",
             Bits, static_cast<uint64_t>(D), false,
             {{"r", decStr(static_cast<uint64_t>(R))},
              {"e", decStr(static_cast<uint64_t>(E))},
              {"inverse", hexStr(static_cast<uint64_t>(Inverse))}});
  const int Q0 = B.mulL(B.constant(static_cast<uint64_t>(Inverse),
                                   "inverse of odd part mod 2^N"),
                        Biased, "q0 = MULL(d_inv, n - r)");
  const int Rotated =
      E == 0 ? Q0 : B.ror(Q0, E, "fold the 2^e test into the compare");
  // Bound ⌊(2^N - 1 - r)/d⌋ also rejects the wrapped n < r case.
  const UWord Bound = static_cast<UWord>(
      static_cast<UWord>(static_cast<UWord>(~UWord{0}) - R) / D);
  return B.sltU(Rotated,
                B.constant(static_cast<uint64_t>(Bound) + 1,
                           "floor((2^N-1-r)/d) + 1"),
                "n mod d == r iff below the bound");
}

template <typename UWord>
int emitRemainderTestSignedT(Builder &B, int N, int64_t D64, int64_t R64) {
  using SWord = typename WordTraits<UWord>::SWord;
  const SWord D = static_cast<SWord>(D64);
  const SWord R = static_cast<SWord>(R64);
  assert(static_cast<int64_t>(D) == D64 && "divisor does not fit the width");
  assert(D >= 2 && R >= 1 && R < D && "requires 1 <= r < d, d >= 2");
  const UWord AbsD = static_cast<UWord>(D);
  const int E = countTrailingZeros(AbsD);
  const UWord DOdd = srl(AbsD, E);
  assert(DOdd != 1 &&
         "power-of-two divisors: compare the low bits directly");
  const UWord Inverse = modInverseNewton(DOdd);
  GMDIV_STAT(codegen, remtest_s_inverse);
  remarkCase("remtest-inverse", "§9", "inverse multiply of n-r + bound",
             WordTraits<UWord>::Bits, static_cast<uint64_t>(D64), true,
             {{"r", decStr(static_cast<uint64_t>(R64))},
              {"e", decStr(static_cast<uint64_t>(E))},
              {"inverse", hexStr(static_cast<uint64_t>(Inverse))}});
  const int Biased = B.sub(N, B.constant(static_cast<uint64_t>(R), "r"),
                           "n - r");
  const int Q0 = B.mulL(B.constant(static_cast<uint64_t>(Inverse),
                                   "inverse of odd part mod 2^N"),
                        Biased, "q0 = MULL(d_inv, n - r)");
  // §9: q0 must be a nonnegative multiple of 2^e not exceeding
  // 2^e * floor((2^(N-1) - 1 - r)/d); the unsigned compare handles
  // "nonnegative" for free since the bound is below 2^(N-1).
  const UWord SMax = srl(static_cast<UWord>(~UWord{0}), 1);
  const UWord Bound =
      sll(static_cast<UWord>(
              static_cast<UWord>(SMax - static_cast<UWord>(R)) / AbsD),
          E);
  const int InBound =
      B.sltU(Q0, B.constant(static_cast<uint64_t>(Bound) + 1,
                            "2^e * floor((2^(N-1)-1-r)/d) + 1"));
  if (E == 0)
    return InBound;
  const int LowBits = B.and_(
      Q0, B.constant((uint64_t{1} << E) - 1, "2^e - 1"));
  const int IsMultiple = B.sltU(LowBits, B.constant(1),
                                "multiple of 2^e?");
  return B.and_(IsMultiple, InBound);
}

template <typename UWord>
int emitDivisibilityTestSignedT(Builder &B, int N, int64_t D64) {
  using SWord = typename WordTraits<UWord>::SWord;
  constexpr int Bits = WordTraits<UWord>::Bits;
  const SWord D = static_cast<SWord>(D64);
  assert(static_cast<int64_t>(D) == D64 && "divisor does not fit the width");
  assert(D != 0 && "divisor must be nonzero");
  const UWord AbsD =
      D < 0 ? static_cast<UWord>(UWord{0} - static_cast<UWord>(D))
            : static_cast<UWord>(D);
  if (AbsD == 1) {
    GMDIV_STAT(codegen, divtest_s_trivial);
    remarkCase("divtest-trivial", "§9", "|d| = 1 is always divisible",
               Bits, static_cast<uint64_t>(D64), true, {});
    return B.constant(1, "everything is divisible by 1");
  }
  const int E = countTrailingZeros(AbsD);
  const UWord DOdd = srl(AbsD, E);
  if (DOdd == 1) {
    GMDIV_STAT(codegen, divtest_s_pow2);
    remarkCase("divtest-pow2", "§9", "power of two (mask test)", Bits,
               static_cast<uint64_t>(D64), true,
               {{"e", decStr(static_cast<uint64_t>(E))}});
    // |d| = 2^e: §9's special case, test the low bits of n directly.
    const int Low = B.and_(
        N, B.constant(static_cast<uint64_t>(AbsD) - 1, "2^e - 1"));
    return B.sltU(Low, B.constant(1), "low bits all zero?");
  }
  const UWord Inverse = modInverseNewton(DOdd);
  const int Q0 = B.mulL(B.constant(static_cast<uint64_t>(Inverse),
                                   "inverse of odd part mod 2^N"),
                        N, "q0 = MULL(d_inv, n)");
  // q0 must be a multiple of 2^e in [-qmax, qmax]; fold the interval
  // test into one unsigned compare via the add-qmax trick.
  const UWord SMax = srl(static_cast<UWord>(~UWord{0}), 1);
  const UWord QMax = sll(static_cast<UWord>(SMax / AbsD), E);
  GMDIV_STAT(codegen, divtest_s_inverse);
  remarkCase("divtest-inverse", "§9",
             "inverse multiply + centered interval compare", Bits,
             static_cast<uint64_t>(D64), true,
             {{"e", decStr(static_cast<uint64_t>(E))},
              {"inverse", hexStr(static_cast<uint64_t>(Inverse))},
              {"qmax", decStr(static_cast<uint64_t>(QMax))}});
  const int Centered =
      B.add(Q0, B.constant(static_cast<uint64_t>(QMax), "qmax"),
            "center the interval at qmax");
  const int InBound = B.sltU(
      Centered,
      B.constant(2 * static_cast<uint64_t>(QMax) + 1, "2*qmax + 1"),
      "within [-qmax, qmax]?");
  if (E == 0)
    return InBound;
  const int LowBits =
      B.and_(Q0, B.constant((uint64_t{1} << E) - 1, "2^e - 1"));
  const int IsMultiple =
      B.sltU(LowBits, B.constant(1), "multiple of 2^e?");
  (void)Bits;
  return B.and_(IsMultiple, InBound);
}

template <typename UWord>
int emitUnsignedDivAlversonT(Builder &B, int N, UWord D) {
  using T = WordTraits<UWord>;
  using UDWord = typename T::UDWord;
  constexpr int Bits = T::Bits;
  assert(D >= 1 && "divisor must be nonzero");
  const int L = ceilLog2(D);
  auto [Quotient, Remainder] =
      T::udDivModPow2(Bits + L, T::udFromWord(D));
  if (!(Remainder == T::udFromWord(UWord{0})))
    Quotient = static_cast<UDWord>(Quotient + T::udFromWord(UWord{1}));
  const UWord FPrime =
      T::udLow(static_cast<UDWord>(Quotient - T::udPow2(Bits)));
  if (FPrime == 0) { // Power of two: the reciprocal is exactly 2^N.
    GMDIV_STAT(codegen, alverson_pow2);
    remarkCase("alverson-pow2", "[1] ARITH-10", "power of two", Bits,
               static_cast<uint64_t>(D), false,
               {{"l", decStr(static_cast<uint64_t>(L))}});
    return L == 0 ? N : B.srl(N, L, "d is a power of two");
  }
  GMDIV_STAT(codegen, alverson_long);
  remarkCase("alverson-long", "[1] ARITH-10",
             "round-up reciprocal, always the long sequence", Bits,
             static_cast<uint64_t>(D), false,
             {{"f_minus_2N", hexStr(static_cast<uint64_t>(FPrime))},
              {"l", decStr(static_cast<uint64_t>(L))}});
  // Always the long sequence: t1 = MULUH(f - 2^N, n);
  // q = SRL(t1 + SRL(n - t1, min(l,1)), max(l-1,0)).
  const int T1 = B.mulUH(
      B.constant(static_cast<uint64_t>(FPrime), "f - 2^N (Alverson)"), N,
      "t1 = MULUH(f - 2^N, n)");
  const int Avg = B.srl(B.sub(N, T1), L < 1 ? L : 1, "(n - t1) / 2");
  return B.srl(B.add(T1, Avg), L - 1 > 0 ? L - 1 : 0);
}

//===----------------------------------------------------------------------===//
// Figure 8.1 as generated code: udword / constant uword.
//===----------------------------------------------------------------------===//

template <typename UWord>
void emitDWordDivRemT(Builder &B, UWord D) {
  using T = WordTraits<UWord>;
  using UDWord = typename T::UDWord;
  constexpr int Bits = T::Bits;
  assert(D > 0 && "divisor must be nonzero");

  const int NHi = B.arg(0, "high word of n (must be < d)");
  const int NLo = B.arg(1, "low word of n");

  // Initialization, all folded to constants: l, m', d_norm (Figure 8.1).
  const int L = 1 + floorLog2(D);
  auto [Quotient, Remainder] =
      T::udDivModPow2(Bits + L, T::udFromWord(D));
  if (Remainder == T::udFromWord(UWord{0}))
    Quotient = static_cast<UDWord>(Quotient - T::udFromWord(UWord{1}));
  const UWord MPrime =
      T::udLow(static_cast<UDWord>(Quotient - T::udPow2(Bits)));
  const UWord DNorm = sll(D, Bits - L);
  GMDIV_STAT(codegen, dword_divrem);
  remarkCase("dword-divrem", "Figure 8.1", "udword by invariant uword",
             Bits, static_cast<uint64_t>(D), false,
             {{"m_prime", hexStr(static_cast<uint64_t>(MPrime))},
              {"l", decStr(static_cast<uint64_t>(L))},
              {"d_norm", hexStr(static_cast<uint64_t>(DNorm))}});

  const int MConst = B.constant(static_cast<uint64_t>(MPrime),
                                "m' = floor((2^(N+l)-1)/d) - 2^N");
  const int DConst = B.constant(static_cast<uint64_t>(D), "d");
  const int DNormConst = B.constant(static_cast<uint64_t>(DNorm),
                                    "d_norm = d << (N-l)");

  // n2 = SLL(HIGH(n), N-l) + SRL(LOW(n), l); the l = N case degenerates
  // to n2 = HIGH(n) ("use separate shifts" note in §8).
  const int N2 =
      L == Bits
          ? NHi
          : B.add(B.sll(NHi, Bits - L), B.srl(NLo, L), "n2 = n >> l");
  const int N10 = B.sll(NLo, Bits - L, "n10: n1 lands in the sign bit");
  const int N1Mask = B.xsign(N10, "-n1");
  const int NAdj = B.add(N10, B.and_(N1Mask, DNormConst),
                         "n_adj (underflow impossible)");

  // q1 = n2 + HIGH(m' * (n2 + n1) + n_adj): expand the udword add into
  // low/carry form since the IR is single-word. HIGH(1 * x) is 0: when
  // the constant factor is 1 (m' at d = 2^N - 1 here, d at d = 1 below)
  // the high product is left out, not folded to a zero nothing reads.
  const int T1 = B.sub(N2, N1Mask, "n2 + n1");
  const int ProdHi =
      MPrime == 1 ? -1 : B.mulUH(MConst, T1, "HIGH(m' * (n2 + n1))");
  const int ProdLo = B.mulL(MConst, T1, "LOW(m' * (n2 + n1))");
  const int SumLo = B.add(ProdLo, NAdj);
  const int Carry = B.sltU(SumLo, ProdLo, "carry of the low add");
  const int Q1 = B.add(N2, ProdHi < 0 ? Carry : B.add(ProdHi, Carry),
                       "q1 (Lemma 8.1)");

  // dr = n - q1*d - d = n + NOT(q1)*d - (d << N); only its sign (high
  // word: 0 or all ones) and low word are needed.
  const int NotQ1 = B.not_(Q1);
  const int DrLo0 = B.mulL(NotQ1, DConst, "LOW(NOT(q1) * d)");
  const int DrHi0 =
      D == 1 ? -1 : B.mulUH(NotQ1, DConst, "HIGH(NOT(q1) * d)");
  const int DrLo = B.add(NLo, DrLo0, "LOW(dr)");
  const int DrCarry = B.sltU(DrLo, DrLo0, "carry into HIGH(dr)");
  const int DrHi =
      B.sub(B.add(DrHi0 < 0 ? NHi : B.add(NHi, DrHi0), DrCarry), DConst,
            "HIGH(dr): 0 if dr >= 0, else all ones");

  const int Q = B.add(B.add(Q1, B.constant(1)), DrHi,
                      "q: add 1 unless dr < 0");
  const int R = B.add(DrLo, B.and_(DConst, DrHi),
                      "r: add d back if dr < 0");
  B.markResult(Q, "q");
  B.markResult(R, "r");
}

//===----------------------------------------------------------------------===//
// Figure 4.2 in wider registers (the Table 11.1 Alpha case).
//===----------------------------------------------------------------------===//

template <typename UOp>
int emitUnsignedDivWideT(Builder &B, int N, UOp D, const GenOptions &Options) {
  using T = WordTraits<UOp>;
  constexpr int OpBits = T::Bits;
  [[maybe_unused]] const int MachineBits = B.wordBits();
  assert(OpBits < MachineBits && "wide form needs a wider machine word");
  assert(D >= 1 && "divisor must be nonzero");

  MultiplierInfo<UOp> Info = chooseMultiplier<UOp>(D, OpBits);
  int ShiftPre = 0;
  if (!Info.fitsInWord() && (D & 1) == 0) {
    const int E = countTrailingZeros(D);
    ShiftPre = E;
    Info = chooseMultiplier<UOp>(srl(D, E), OpBits - E);
  }

  if (isPowerOf2(D)) {
    GMDIV_STAT(codegen, wide_unsigned_pow2);
    remarkCase("unsigned-wide-pow2", "Figure 4.2 (wide)", "power of two",
               OpBits, static_cast<uint64_t>(D), false,
               {{"machine_bits",
                 decStr(static_cast<uint64_t>(MachineBits))},
                {"shift", decStr(static_cast<uint64_t>(floorLog2(D)))}});
    return B.srl(N, floorLog2(D), "d is a power of two");
  }

  if (!Info.fitsInWord()) {
    assert(ShiftPre == 0 && "pre-shift implies a fitting multiplier");
    GMDIV_STAT(codegen, wide_unsigned_long_form);
    remarkCase(
        "unsigned-wide-long-form", "Figure 4.2 (wide)",
        "long form (m >= 2^OpBits)", OpBits, static_cast<uint64_t>(D),
        false,
        {{"machine_bits", decStr(static_cast<uint64_t>(MachineBits))},
         {"m_minus_2N",
          hexStr(static_cast<uint64_t>(Info.truncatedMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
    // MULUH at operation width = full machine product, high OpBits half.
    const int T1 =
        B.srl(emitMulLConst(
                  B, N, static_cast<uint64_t>(Info.truncatedMultiplier()),
                  Options),
              OpBits, "t1 = MULUH_op(m - 2^N, n)");
    const int Avg = B.srl(B.sub(N, T1), 1, "(n - t1) / 2");
    return B.srl(B.add(T1, Avg), Info.ShiftPost - 1);
  }

  if (ShiftPre > 0) {
    GMDIV_STAT(codegen, wide_unsigned_pre_shift);
    remarkCase(
        "unsigned-wide-pre-shift", "Figure 4.2 (wide)",
        "even divisor pre-shift", OpBits, static_cast<uint64_t>(D), false,
        {{"machine_bits", decStr(static_cast<uint64_t>(MachineBits))},
         {"sh_pre", decStr(static_cast<uint64_t>(ShiftPre))},
         {"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
  } else {
    GMDIV_STAT(codegen, wide_unsigned_short);
    remarkCase(
        "unsigned-wide-short", "Figure 4.2 (wide)",
        "single MULL + shift (full product fits)", OpBits,
        static_cast<uint64_t>(D), false,
        {{"machine_bits", decStr(static_cast<uint64_t>(MachineBits))},
         {"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
  }
  const int Shifted =
      ShiftPre > 0 ? B.srl(N, ShiftPre, "pre-shift by the even part") : N;
  // m < 2^OpBits and n < 2^OpBits, so the full product fits the machine
  // word: one MULL (or its shift/add expansion) plus one shift.
  const int Product = emitMulLConst(
      B, Shifted, static_cast<uint64_t>(Info.wordMultiplier()), Options);
  return B.srl(Product, OpBits + Info.ShiftPost,
               "extract HIGH and post-shift at once");
}

template <typename UOp>
int emitSignedDivWideT(Builder &B, int N, int64_t D64,
                       const GenOptions &Options) {
  using T = WordTraits<UOp>;
  using SOp = typename T::SWord;
  constexpr int OpBits = T::Bits;
  const int MachineBits = B.wordBits();
  assert(OpBits < MachineBits && "wide form needs a wider machine word");
  const SOp D = static_cast<SOp>(D64);
  assert(static_cast<int64_t>(D) == D64 && "divisor does not fit OpBits");
  assert(D != 0 && "divisor must be nonzero");
  const UOp AbsD =
      D < 0 ? static_cast<UOp>(UOp{0} - static_cast<UOp>(D))
            : static_cast<UOp>(D);

  int Q;
  if (AbsD == 1) {
    GMDIV_STAT(codegen, wide_signed_unit);
    remarkCase("signed-wide-unit", "Figure 5.2 (wide)", "|d| = 1", OpBits,
               static_cast<uint64_t>(D64), true,
               {{"machine_bits", decStr(static_cast<uint64_t>(MachineBits))}});
    Q = N;
  } else if (isPowerOf2(AbsD)) {
    // Figure 5.2's power-of-two path with the bias extracted from the
    // machine-wide sign spread: the low l bits of SRA(n, l-1) are d-1
    // for negative n once logically shifted down from the wide word.
    const int L = floorLog2(AbsD);
    GMDIV_STAT(codegen, wide_signed_pow2);
    remarkCase("signed-wide-pow2", "Figure 5.2 (wide)",
               "|d| is a power of two", OpBits,
               static_cast<uint64_t>(D64), true,
               {{"machine_bits", decStr(static_cast<uint64_t>(MachineBits))},
                {"shift", decStr(static_cast<uint64_t>(L))}});
    const int AllSign = B.sra(N, L - 1, "sign spread");
    const int Round =
        B.srl(AllSign, MachineBits - L, "d - 1 if n < 0, else 0");
    Q = B.sra(B.add(N, Round), L);
  } else {
    const MultiplierInfo<UOp> Info = chooseMultiplier<UOp>(AbsD, OpBits - 1);
    assert(Info.fitsInWord() && "m < 2^OpBits by the Figure 6.2 corollary");
    GMDIV_STAT(codegen, wide_signed_short);
    remarkCase(
        "signed-wide-short", "Figure 5.2 (wide)",
        "single MULL + SRA (signed product fits)", OpBits,
        static_cast<uint64_t>(D64), true,
        {{"machine_bits", decStr(static_cast<uint64_t>(MachineBits))},
         {"m", hexStr(static_cast<uint64_t>(Info.wordMultiplier()))},
         {"sh_post", decStr(static_cast<uint64_t>(Info.ShiftPost))}});
    // Signed product m*n fits the machine word (m < 2^OpBits,
    // |n| <= 2^(OpBits-1)), so MULL + SRA replaces MULSH + SRA.
    const int Product = emitMulLConst(
        B, N, static_cast<uint64_t>(Info.wordMultiplier()), Options);
    const int Q0 = B.sra(Product, OpBits + Info.ShiftPost,
                         "MULSH and post-shift at once");
    Q = B.sub(Q0, B.xsign(N), "add 1 if n < 0");
  }
  if (D < 0)
    Q = B.neg(Q, "negative divisor");
  return Q;
}

//===----------------------------------------------------------------------===//
// Width dispatch plumbing.
//===----------------------------------------------------------------------===//

/// Invokes \p F with the unsigned word type for \p WordBits: the native
/// integer at 8/16/32/64 and the emulated SmallUWord family at 4..12 (the
/// widths the verification harness checks exhaustively). Widths 13..15
/// and below 4 have no word family here and assert.
template <typename Fn> auto dispatchWord(int WordBits, Fn F) {
  switch (WordBits) {
  case 4:
    return F.template operator()<SmallUWord<4>>();
  case 5:
    return F.template operator()<SmallUWord<5>>();
  case 6:
    return F.template operator()<SmallUWord<6>>();
  case 7:
    return F.template operator()<SmallUWord<7>>();
  case 8:
    return F.template operator()<uint8_t>();
  case 9:
    return F.template operator()<SmallUWord<9>>();
  case 10:
    return F.template operator()<SmallUWord<10>>();
  case 11:
    return F.template operator()<SmallUWord<11>>();
  case 12:
    return F.template operator()<SmallUWord<12>>();
  case 16:
    return F.template operator()<uint16_t>();
  case 32:
    return F.template operator()<uint32_t>();
  case 64:
    return F.template operator()<uint64_t>();
  default:
    assert(false && "no word family for this width");
    return F.template operator()<uint64_t>();
  }
}

} // namespace

int codegen::emitUnsignedDiv(Builder &B, int N, uint64_t D,
                             const GenOptions &Options) {
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitUnsignedDivT<UWord>(B, N, static_cast<UWord>(D), Options);
  });
}

int codegen::emitSignedDiv(Builder &B, int N, int64_t D,
                           const GenOptions &Options) {
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitSignedDivT<UWord>(B, N, D, Options);
  });
}

int codegen::emitFloorDiv(Builder &B, int N, int64_t D,
                          const GenOptions &Options) {
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitFloorDivT<UWord>(B, N, D, Options);
  });
}

int codegen::emitExactUnsignedDiv(Builder &B, int N, uint64_t D) {
  const GenOptions Options;
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitExactUnsignedDivT<UWord>(B, N, static_cast<UWord>(D),
                                        Options);
  });
}

int codegen::emitExactSignedDiv(Builder &B, int N, int64_t D) {
  const GenOptions Options;
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitExactSignedDivT<UWord>(B, N, D, Options);
  });
}

int codegen::emitDivisibilityTestUnsigned(Builder &B, int N, uint64_t D) {
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitDivisibilityTestUnsignedT<UWord>(B, N, static_cast<UWord>(D));
  });
}

int codegen::emitRemainderTestUnsigned(Builder &B, int N, uint64_t D,
                                       uint64_t R) {
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitRemainderTestUnsignedT<UWord>(B, N, static_cast<UWord>(D),
                                             static_cast<UWord>(R));
  });
}

int codegen::emitRemainderTestSigned(Builder &B, int N, int64_t D,
                                     int64_t R) {
  return dispatchWord(B.wordBits(), [&]<typename UWord>() {
    return emitRemainderTestSignedT<UWord>(B, N, D, R);
  });
}

int codegen::emitMulUHCapability(Builder &B, int Lhs, int Rhs,
                                 MulHighCapability Capability) {
  return emitMulUHCap(B, Lhs, Rhs, Capability);
}

int codegen::emitMulSHCapability(Builder &B, int Lhs, int Rhs,
                                 MulHighCapability Capability) {
  return emitMulSHCap(B, Lhs, Rhs, Capability);
}

int codegen::emitUnsignedDivWide(Builder &B, int N, int OpBits, uint64_t D,
                                 const GenOptions &Options) {
  switch (OpBits) {
  case 8:
    return emitUnsignedDivWideT<uint8_t>(B, N, static_cast<uint8_t>(D),
                                         Options);
  case 16:
    return emitUnsignedDivWideT<uint16_t>(B, N, static_cast<uint16_t>(D),
                                          Options);
  case 32:
    return emitUnsignedDivWideT<uint32_t>(B, N, static_cast<uint32_t>(D),
                                          Options);
  default:
    assert(false && "operation width must be 8, 16 or 32");
    return N;
  }
}

//===----------------------------------------------------------------------===//
// Whole-program wrappers.
//===----------------------------------------------------------------------===//

ir::Program codegen::genUnsignedDiv(int WordBits, uint64_t D,
                                    const GenOptions &Options) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitUnsignedDiv(B, N, D, Options), "q");
  return B.take();
}

ir::Program codegen::genUnsignedDivRem(int WordBits, uint64_t D,
                                       const GenOptions &Options) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  const int Q = emitUnsignedDiv(B, N, D, Options);
  const int R = B.sub(N, emitMulLConst(B, Q, D, Options), "r = n - q*d");
  B.markResult(Q, "q");
  B.markResult(R, "r");
  return B.take();
}

ir::Program codegen::genSignedDiv(int WordBits, int64_t D,
                                  const GenOptions &Options) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitSignedDiv(B, N, D, Options), "q");
  return B.take();
}

ir::Program codegen::genSignedDivRem(int WordBits, int64_t D,
                                     const GenOptions &Options) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  const int Q = emitSignedDiv(B, N, D, Options);
  const int R = B.sub(
      N, emitMulLConst(B, Q, static_cast<uint64_t>(D), Options),
      "r = n - q*d");
  B.markResult(Q, "q");
  B.markResult(R, "r");
  return B.take();
}

ir::Program codegen::genFloorDiv(int WordBits, int64_t D,
                                 const GenOptions &Options) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitFloorDiv(B, N, D, Options), "q");
  return B.take();
}

ir::Program codegen::genFloorDivMod(int WordBits, int64_t D,
                                    const GenOptions &Options) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  const int Q = emitFloorDiv(B, N, D, Options);
  const int R = B.sub(
      N, emitMulLConst(B, Q, static_cast<uint64_t>(D), Options),
      "r = n mod d");
  B.markResult(Q, "q");
  B.markResult(R, "r");
  return B.take();
}

ir::Program codegen::genExactUnsignedDiv(int WordBits, uint64_t D) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitExactUnsignedDiv(B, N, D), "q");
  return B.take();
}

ir::Program codegen::genExactSignedDiv(int WordBits, int64_t D) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitExactSignedDiv(B, N, D), "q");
  return B.take();
}

ir::Program codegen::genDivisibilityTestUnsigned(int WordBits, uint64_t D) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitDivisibilityTestUnsigned(B, N, D), "divisible");
  return B.take();
}

ir::Program codegen::genRemainderTestUnsigned(int WordBits, uint64_t D,
                                              uint64_t R) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitRemainderTestUnsigned(B, N, D, R), "matches");
  return B.take();
}

ir::Program codegen::genRemainderTestSigned(int WordBits, int64_t D,
                                            int64_t R) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  B.markResult(emitRemainderTestSigned(B, N, D, R), "matches");
  return B.take();
}

ir::Program codegen::genDivisibilityTestSigned(int WordBits, int64_t D) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  const int Result = dispatchWord(WordBits, [&]<typename UWord>() {
    return emitDivisibilityTestSignedT<UWord>(B, N, D);
  });
  B.markResult(Result, "divisible");
  return B.take();
}

ir::Program codegen::genFloorDivModRuntime(int WordBits) {
  GMDIV_STAT(codegen, floor_divmod_runtime);
  remarkRuntimeCase("floor-runtime", "§6 (6.1)/(6.2)",
                    "runtime divisor floor div/mod, one DIVS", WordBits);
  Builder B(WordBits, 2);
  const int N = B.arg(0, "dividend n");
  const int D = B.arg(1, "divisor d (nonzero, unknown sign)");
  // The §6 SLT improvement: d_sign as a 0/1 bit, n_sign = (n < d_sign).
  const int DSignBit = B.srl(D, WordBits - 1, "d_sign as 0/1");
  const int NSignBit =
      B.sltS(N, DSignBit, "n_sign = (n < d_sign), the SLT form");
  const int DSignMask = B.neg(DSignBit, "d_sign as mask");
  const int NSignMask = B.neg(NSignBit, "n_sign as mask");
  // Adjusted numerator n + d_sign - n_sign never overflows (§6).
  const int Adjusted =
      B.sub(B.add(N, DSignMask), NSignMask, "n + d_sign - n_sign");
  const int QTrunc = B.divS(Adjusted, D, "the one divide");
  const int QSignMask = B.eor(NSignMask, DSignMask, "q_sign");
  const int Q = B.add(QTrunc, QSignMask, "floor quotient (6.1)");
  // Remainder via (6.2): rem + AND(d - 2*d_sign - 1, q_sign); the rem
  // comes from one MULL and subtract so only a single divide remains.
  const int RTrunc = B.sub(Adjusted, B.mulL(QTrunc, D),
                           "(n + d_sign - n_sign) rem d");
  const int DAdjusted = B.sub(B.sub(D, B.add(DSignMask, DSignMask)),
                              B.constant(1), "d - 2*d_sign - 1");
  const int R = B.add(RTrunc, B.and_(DAdjusted, QSignMask),
                      "divisor-sign modulo (6.2)");
  B.markResult(Q, "q");
  B.markResult(R, "r");
  return B.take();
}

ir::Program codegen::genUnsignedDivAlverson(int WordBits, uint64_t D) {
  Builder B(WordBits, 1);
  const int N = B.arg(0);
  const int Result = dispatchWord(WordBits, [&]<typename UWord>() {
    return emitUnsignedDivAlversonT<UWord>(B, N, static_cast<UWord>(D));
  });
  B.markResult(Result, "q");
  return B.take();
}

ir::Program codegen::genDWordDivRem(int WordBits, uint64_t D) {
  Builder B(WordBits, 2);
  dispatchWord(WordBits, [&]<typename UWord>() {
    emitDWordDivRemT<UWord>(B, static_cast<UWord>(D));
    return 0;
  });
  return B.take();
}

ir::Program codegen::genUnsignedDivWide(int OpBits, int MachineBits,
                                        uint64_t D,
                                        const GenOptions &Options) {
  Builder B(MachineBits, 1);
  const int N = B.arg(0);
  B.markResult(emitUnsignedDivWide(B, N, OpBits, D, Options), "q");
  return B.take();
}

int codegen::emitSignedDivWide(Builder &B, int N, int OpBits, int64_t D,
                               const GenOptions &Options) {
  switch (OpBits) {
  case 8:
    return emitSignedDivWideT<uint8_t>(B, N, D, Options);
  case 16:
    return emitSignedDivWideT<uint16_t>(B, N, D, Options);
  case 32:
    return emitSignedDivWideT<uint32_t>(B, N, D, Options);
  default:
    assert(false && "operation width must be 8, 16 or 32");
    return N;
  }
}

ir::Program codegen::genSignedDivWide(int OpBits, int MachineBits,
                                      int64_t D,
                                      const GenOptions &Options) {
  Builder B(MachineBits, 1);
  const int N = B.arg(0, "sign-extended OpBits dividend");
  B.markResult(emitSignedDivWide(B, N, OpBits, D, Options), "q");
  return B.take();
}

ir::Program codegen::genUnsignedDivRemWide(int OpBits, int MachineBits,
                                           uint64_t D,
                                           const GenOptions &Options) {
  Builder B(MachineBits, 1);
  const int N = B.arg(0);
  const int Q = emitUnsignedDivWide(B, N, OpBits, D, Options);
  const int R = B.sub(N, emitMulLConst(B, Q, D, Options), "r = n - q*d");
  B.markResult(Q, "q");
  B.markResult(R, "r");
  return B.take();
}
