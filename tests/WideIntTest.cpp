//===- tests/WideIntTest.cpp - UInt128/Int128 unit tests ------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "wideint/Int128.h"
#include "wideint/UInt128.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

using namespace gmdiv;

namespace {

#ifdef __SIZEOF_INT128__
using NativeU128 = unsigned __int128;

NativeU128 toNative(UInt128 Value) {
  return (static_cast<NativeU128>(Value.high64()) << 64) | Value.low64();
}

#endif

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x9e3779b97f4a7c15ull);
  return Generator;
}

/// Random 128-bit value with a random bit-length so small and large limbs
/// both get exercised.
UInt128 randomU128() {
  std::uniform_int_distribution<int> LenDist(0, 128);
  const int Len = LenDist(rng());
  if (Len == 0)
    return UInt128(0);
  UInt128 Value = UInt128::fromHalves(rng()(), rng()());
  if (Len < 128)
    Value = Value & (UInt128::pow2(Len) - UInt128(1));
  // Force the top bit of the chosen length half the time.
  if (Len > 0 && (rng()() & 1))
    Value = Value | UInt128::pow2(Len - 1);
  return Value;
}

TEST(UInt128, BasicConstructionAndAccessors) {
  const UInt128 Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.low64(), 0u);
  EXPECT_EQ(Zero.high64(), 0u);

  const UInt128 Small(42);
  EXPECT_TRUE(Small.fitsIn64());
  EXPECT_EQ(Small.low64(), 42u);

  const UInt128 Split = UInt128::fromHalves(7, 9);
  EXPECT_FALSE(Split.fitsIn64());
  EXPECT_EQ(Split.high64(), 7u);
  EXPECT_EQ(Split.low64(), 9u);
}

TEST(UInt128, Pow2AndBit) {
  for (int Exp = 0; Exp < 128; ++Exp) {
    const UInt128 Value = UInt128::pow2(Exp);
    for (int Bit = 0; Bit < 128; ++Bit)
      EXPECT_EQ(Value.bit(Bit), Bit == Exp) << "exp=" << Exp;
    EXPECT_EQ(Value.countLeadingZeros(), 127 - Exp);
    EXPECT_EQ(Value.countTrailingZeros(), Exp);
    EXPECT_EQ(Value.bitLength(), Exp + 1);
  }
  EXPECT_EQ(UInt128(0).countLeadingZeros(), 128);
  EXPECT_EQ(UInt128(0).countTrailingZeros(), 128);
  EXPECT_EQ(UInt128(0).bitLength(), 0);
}

TEST(UInt128, AdditionCarriesAcrossHalves) {
  const UInt128 AllLow = UInt128::fromHalves(0, ~uint64_t{0});
  const UInt128 Sum = AllLow + UInt128(1);
  EXPECT_EQ(Sum.high64(), 1u);
  EXPECT_EQ(Sum.low64(), 0u);
  EXPECT_EQ(Sum - UInt128(1), AllLow);
  // Wrap-around at 2^128.
  EXPECT_TRUE((UInt128::max() + UInt128(1)).isZero());
}

TEST(UInt128, ShiftEdgeCases) {
  const UInt128 One(1);
  EXPECT_EQ(One << 64, UInt128::fromHalves(1, 0));
  EXPECT_EQ(One << 127, UInt128::pow2(127));
  EXPECT_EQ(UInt128::pow2(127) >> 127, One);
  EXPECT_EQ(UInt128::pow2(64) >> 64, One);
  const UInt128 Mixed = UInt128::fromHalves(0x0123456789abcdefull,
                                            0xfedcba9876543210ull);
  EXPECT_EQ(Mixed << 0, Mixed);
  EXPECT_EQ(Mixed >> 0, Mixed);
  EXPECT_EQ((Mixed >> 4).low64(), 0xffedcba987654321ull);
}

#ifdef __SIZEOF_INT128__
TEST(UInt128, ArithmeticMatchesCompilerInt128) {
  for (int Iteration = 0; Iteration < 20000; ++Iteration) {
    const UInt128 A = randomU128();
    const UInt128 B = randomU128();
    const NativeU128 NA = toNative(A), NB = toNative(B);
    EXPECT_EQ(toNative(A + B), static_cast<NativeU128>(NA + NB));
    EXPECT_EQ(toNative(A - B), static_cast<NativeU128>(NA - NB));
    EXPECT_EQ(toNative(A * B), static_cast<NativeU128>(NA * NB));
    EXPECT_EQ(A < B, NA < NB);
    EXPECT_EQ(A == B, NA == NB);
    if (!B.isZero()) {
      auto [Quotient, Remainder] = UInt128::divMod(A, B);
      EXPECT_EQ(toNative(Quotient), static_cast<NativeU128>(NA / NB));
      EXPECT_EQ(toNative(Remainder), static_cast<NativeU128>(NA % NB));
    }
  }
}

TEST(UInt128, ShiftsMatchCompilerInt128) {
  for (int Iteration = 0; Iteration < 5000; ++Iteration) {
    const UInt128 A = randomU128();
    const int Count = static_cast<int>(rng()() % 128);
    EXPECT_EQ(toNative(A << Count),
              static_cast<NativeU128>(toNative(A) << Count));
    EXPECT_EQ(toNative(A >> Count),
              static_cast<NativeU128>(toNative(A) >> Count));
  }
}

TEST(Int128, ArithmeticMatchesCompilerInt128) {
  using NativeS128 = __int128;
  for (int Iteration = 0; Iteration < 20000; ++Iteration) {
    const Int128 A = Int128::fromBits(randomU128());
    const Int128 B = Int128::fromBits(randomU128());
    const NativeS128 NA = static_cast<NativeS128>(toNative(A.bits()));
    const NativeS128 NB = static_cast<NativeS128>(toNative(B.bits()));
    // Wrapping reference arithmetic in the unsigned type: the signed
    // __int128 operations overflow on random operands.
    const NativeU128 UA = static_cast<NativeU128>(NA);
    const NativeU128 UB = static_cast<NativeU128>(NB);
    EXPECT_EQ(toNative((A + B).bits()), UA + UB);
    EXPECT_EQ(toNative((A - B).bits()), UA - UB);
    EXPECT_EQ(toNative((A * B).bits()), UA * UB);
    EXPECT_EQ(A < B, NA < NB);
    if (!B.isZero() && !(A == Int128::min() && NB == -1)) {
      auto [Quotient, Remainder] = Int128::divMod(A, B);
      EXPECT_EQ(toNative(Quotient.bits()),
                static_cast<NativeU128>(NA / NB));
      EXPECT_EQ(toNative(Remainder.bits()),
                static_cast<NativeU128>(NA % NB));
    }
  }
}

TEST(Int128, ArithmeticShiftMatchesCompiler) {
  using NativeS128 = __int128;
  for (int Iteration = 0; Iteration < 5000; ++Iteration) {
    const Int128 A = Int128::fromBits(randomU128());
    const int Count = static_cast<int>(rng()() % 128);
    const NativeS128 NA = static_cast<NativeS128>(toNative(A.bits()));
    EXPECT_EQ(toNative((A >> Count).bits()),
              static_cast<NativeU128>(NA >> Count));
  }
}
#endif // __SIZEOF_INT128__

TEST(UInt128, DivModKnownValues) {
  // 2^96 / 10^9 — crosses both limbs.
  const UInt128 Dividend = UInt128::pow2(96);
  const UInt128 Divisor(1000000000);
  auto [Quotient, Remainder] = UInt128::divMod(Dividend, Divisor);
  EXPECT_EQ(Quotient.toString(), "79228162514264337593");
  EXPECT_EQ(Remainder.toString(), "543950336");
  // Divisor wider than 64 bits.
  const UInt128 WideDivisor = UInt128::fromHalves(1, 1);
  auto [Q2, R2] = UInt128::divMod(UInt128::max(), WideDivisor);
  EXPECT_EQ(Q2 * WideDivisor + R2, UInt128::max());
  EXPECT_TRUE(R2 < WideDivisor);
}

TEST(UInt128, DivModReconstruction) {
  for (int Iteration = 0; Iteration < 20000; ++Iteration) {
    const UInt128 A = randomU128();
    UInt128 B = randomU128();
    if (B.isZero())
      B = UInt128(1);
    auto [Quotient, Remainder] = UInt128::divMod(A, B);
    EXPECT_EQ(Quotient * B + Remainder, A);
    EXPECT_TRUE(Remainder < B);
  }
}

TEST(UInt128, DivModPow2MatchesDivMod) {
  for (int Exp = 0; Exp < 128; ++Exp) {
    UInt128 Divisor = randomU128();
    if (Divisor.isZero())
      Divisor = UInt128(3);
    auto [Q1, R1] = UInt128::divModPow2(Exp, Divisor);
    auto [Q2, R2] = UInt128::divMod(UInt128::pow2(Exp), Divisor);
    EXPECT_EQ(Q1, Q2) << "exp=" << Exp;
    EXPECT_EQ(R1, R2) << "exp=" << Exp;
  }
}

TEST(UInt128, DivModPow2FullExponent) {
  // 2^128 = q*d + r cases that exceed the representable numerator.
  for (uint64_t Divisor : {2ull, 3ull, 5ull, 7ull, 10ull, 641ull,
                           0xffffffffffffffffull}) {
    auto [Quotient, Remainder] = UInt128::divModPow2(128, UInt128(Divisor));
    // Verify q*d + r == 2^128 via wrap-around: q*d + r mod 2^128 == 0 and
    // q != 0.
    EXPECT_TRUE((Quotient * UInt128(Divisor) + Remainder).isZero());
    EXPECT_FALSE(Quotient.isZero());
    EXPECT_TRUE(Remainder < UInt128(Divisor));
  }
  // d = 274177 divides 2^64 + 1 (the paper's "rare case" divisor).
  auto [Q, R] = UInt128::divModPow2(128, UInt128(274177));
  EXPECT_TRUE(R < UInt128(274177));
}

TEST(UInt128, DivModKnuthAddBackCases) {
  // Algorithm D's rarely-taken D6 "add back" step fires when the
  // estimated quotient digit overshoots by one; classic triggers have
  // dividend limbs just below the divisor's pattern. Build operands
  // from boundary limbs so the step is exercised deterministically and
  // densely.
  const uint32_t Limbs[] = {0u,          1u,          2u,
                            0x7fffffffu, 0x80000000u, 0x80000001u,
                            0xfffffffeu, 0xffffffffu};
  auto Make = [](uint32_t L3, uint32_t L2, uint32_t L1, uint32_t L0) {
    return UInt128::fromHalves((uint64_t{L3} << 32) | L2,
                               (uint64_t{L1} << 32) | L0);
  };
  int Count = 0;
  for (uint32_t A3 : Limbs)
    for (uint32_t A2 : Limbs)
      for (uint32_t A1 : Limbs)
        for (uint32_t B1 : Limbs)
          for (uint32_t B0 : Limbs) {
            const UInt128 A = Make(A3, A2, A1, 0xffffffffu);
            const UInt128 B = Make(0, 0, B1, B0) |
                              UInt128::fromHalves(uint64_t{B1} << 32, 0);
            if (B.isZero())
              continue;
            auto [Quotient, Remainder] = UInt128::divMod(A, B);
            ASSERT_EQ(Quotient * B + Remainder, A)
                << A.toHexString() << " / " << B.toHexString();
            ASSERT_TRUE(Remainder < B);
            ++Count;
          }
  EXPECT_GT(Count, 30000);
#ifdef __SIZEOF_INT128__
  // The textbook add-back instance at base 2^32.
  const UInt128 A = Make(0x7fffffffu, 0x80000000u, 0, 0);
  const UInt128 B = Make(0, 0x80000000u, 0, 1);
  auto [Quotient, Remainder] = UInt128::divMod(A, B);
  const NativeU128 NA = toNative(A), NB = toNative(B);
  EXPECT_EQ(toNative(Quotient), NA / NB);
  EXPECT_EQ(toNative(Remainder), NA % NB);
#endif
}

TEST(UInt128, Formatting) {
  EXPECT_EQ(UInt128(0).toString(), "0");
  EXPECT_EQ(UInt128(12345).toString(), "12345");
  EXPECT_EQ(UInt128::max().toString(),
            "340282366920938463463374607431768211455");
  EXPECT_EQ(UInt128::pow2(64).toString(), "18446744073709551616");
  EXPECT_EQ(UInt128(0).toHexString(), "0x0");
  EXPECT_EQ(UInt128(0xdeadbeef).toHexString(), "0xdeadbeef");
  EXPECT_EQ(UInt128::pow2(64).toHexString(), "0x10000000000000000");
}

TEST(UInt128, FromStringRoundTrips) {
  for (int Iteration = 0; Iteration < 1000; ++Iteration) {
    const UInt128 Value = randomU128();
    EXPECT_EQ(UInt128::fromString(Value.toString()), Value);
  }
}

TEST(Int128, SignBasics) {
  EXPECT_TRUE(Int128(-1).isNegative());
  EXPECT_FALSE(Int128(0).isNegative());
  EXPECT_FALSE(Int128(1).isNegative());
  EXPECT_EQ(Int128(-1).bits(), UInt128::max());
  EXPECT_EQ(Int128::min().magnitude(), UInt128::pow2(127));
  EXPECT_EQ(Int128(-5).magnitude(), UInt128(5));
  EXPECT_EQ(Int128(-5).toString(), "-5");
  EXPECT_EQ(Int128::min().toString(),
            "-170141183460469231731687303715884105728");
}

TEST(Int128, DivModTruncatesTowardZero) {
  EXPECT_EQ(Int128::divMod(Int128(7), Int128(2)).first, Int128(3));
  EXPECT_EQ(Int128::divMod(Int128(-7), Int128(2)).first, Int128(-3));
  EXPECT_EQ(Int128::divMod(Int128(7), Int128(-2)).first, Int128(-3));
  EXPECT_EQ(Int128::divMod(Int128(-7), Int128(-2)).first, Int128(3));
  EXPECT_EQ(Int128::divMod(Int128(-7), Int128(2)).second, Int128(-1));
  EXPECT_EQ(Int128::divMod(Int128(7), Int128(-2)).second, Int128(1));
}

} // namespace
