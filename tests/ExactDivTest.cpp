//===- tests/ExactDivTest.cpp - §9 exact division tests -------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "core/ExactDiv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

using namespace gmdiv;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0xc0ac29b7c97c50ddull);
  return Generator;
}

//===----------------------------------------------------------------------===//
// Unsigned
//===----------------------------------------------------------------------===//

TEST(ExactUnsignedDivider, DivideExactExhaustive8) {
  for (unsigned D = 1; D < 256; ++D) {
    const ExactUnsignedDivider<uint8_t> Divider(static_cast<uint8_t>(D));
    for (unsigned Q = 0; Q * D < 256; ++Q)
      EXPECT_EQ(Divider.divideExact(static_cast<uint8_t>(Q * D)), Q)
          << "q=" << Q << " d=" << D;
  }
}

TEST(ExactUnsignedDivider, IsDivisibleExhaustive8) {
  for (unsigned D = 1; D < 256; ++D) {
    const ExactUnsignedDivider<uint8_t> Divider(static_cast<uint8_t>(D));
    for (unsigned N = 0; N < 256; ++N)
      EXPECT_EQ(Divider.isDivisible(static_cast<uint8_t>(N)), N % D == 0)
          << "n=" << N << " d=" << D;
  }
}

TEST(ExactUnsignedDivider, RemainderIsExhaustive8) {
  for (unsigned D = 2; D < 256; ++D) {
    const ExactUnsignedDivider<uint8_t> Divider(static_cast<uint8_t>(D));
    for (unsigned R = 0; R < D; ++R)
      for (unsigned N = 0; N < 256; ++N)
        ASSERT_EQ(Divider.remainderIs(static_cast<uint8_t>(N),
                                      static_cast<uint8_t>(R)),
                  N % D == R)
            << "n=" << N << " d=" << D << " r=" << R;
  }
}

TEST(ExactUnsignedDivider, IsDivisible16AllDividends) {
  for (unsigned D : {3u, 4u, 6u, 10u, 12u, 100u, 255u, 256u, 768u, 10000u,
                     32768u, 65535u}) {
    const ExactUnsignedDivider<uint16_t> Divider(static_cast<uint16_t>(D));
    for (unsigned N = 0; N <= 0xffff; ++N)
      ASSERT_EQ(Divider.isDivisible(static_cast<uint16_t>(N)), N % D == 0)
          << "n=" << N << " d=" << D;
  }
}

TEST(ExactUnsignedDivider, Random32) {
  for (int I = 0; I < 2000; ++I) {
    uint32_t D = static_cast<uint32_t>(rng()() >> (rng()() % 32));
    if (D == 0)
      D = 1;
    const ExactUnsignedDivider<uint32_t> Divider(D);
    for (int J = 0; J < 100; ++J) {
      const uint64_t QRange = 0xffffffffull / D + 1;
      const uint32_t Q = static_cast<uint32_t>(rng()() % QRange);
      ASSERT_EQ(Divider.divideExact(Q * D), Q) << "q=" << Q << " d=" << D;
      const uint32_t N = static_cast<uint32_t>(rng()());
      ASSERT_EQ(Divider.isDivisible(N), N % D == 0)
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(ExactUnsignedDivider, Random64) {
  for (int I = 0; I < 2000; ++I) {
    uint64_t D = rng()() >> (rng()() % 64);
    if (D == 0)
      D = 1;
    const ExactUnsignedDivider<uint64_t> Divider(D);
    for (int J = 0; J < 100; ++J) {
      const uint64_t QRange = ~uint64_t{0} / D; // Avoid +1 wrap at d = 1.
      const uint64_t Q = QRange == ~uint64_t{0}
                             ? rng()()
                             : rng()() % (QRange + 1);
      ASSERT_EQ(Divider.divideExact(Q * D), Q) << "q=" << Q << " d=" << D;
      const uint64_t N = rng()();
      ASSERT_EQ(Divider.isDivisible(N), N % D == 0)
          << "n=" << N << " d=" << D;
    }
  }
}

//===----------------------------------------------------------------------===//
// Signed
//===----------------------------------------------------------------------===//

TEST(ExactSignedDivider, DivideExactExhaustive8) {
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    const ExactSignedDivider<int8_t> Divider(static_cast<int8_t>(D));
    for (int N = -128; N < 128; ++N) {
      if (N % D != 0)
        continue;
      if (N == -128 && D == -1)
        continue; // Quotient unrepresentable.
      EXPECT_EQ(Divider.divideExact(static_cast<int8_t>(N)),
                static_cast<int8_t>(N / D))
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(ExactSignedDivider, IsDivisibleExhaustive8) {
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    const ExactSignedDivider<int8_t> Divider(static_cast<int8_t>(D));
    for (int N = -128; N < 128; ++N)
      EXPECT_EQ(Divider.isDivisible(static_cast<int8_t>(N)), N % D == 0)
          << "n=" << N << " d=" << D;
  }
}

TEST(ExactSignedDivider, RemainderIsExhaustive8) {
  // n rem d == r for 1 <= r < |d|; rem carries the dividend's sign, so
  // only nonnegative n can match a positive r.
  for (int D = 3; D < 128; ++D) {
    if ((D & (D - 1)) == 0)
      continue; // Power-of-two divisors use the low-bits test instead.
    const ExactSignedDivider<int8_t> Divider(static_cast<int8_t>(D));
    for (int R = 1; R < D; ++R)
      for (int N = -128; N < 128; ++N)
        ASSERT_EQ(Divider.remainderIs(static_cast<int8_t>(N),
                                      static_cast<int8_t>(R)),
                  N >= 0 && N % D == R)
            << "n=" << N << " d=" << D << " r=" << R;
  }
}

TEST(ExactSignedDivider, IsDivisible16AllDividends) {
  for (int D : {3, -3, 6, 10, -10, 100, -100, 255, 4096, -4096, 32767,
                -32768}) {
    const ExactSignedDivider<int16_t> Divider(static_cast<int16_t>(D));
    for (int N = -32768; N <= 32767; ++N)
      ASSERT_EQ(Divider.isDivisible(static_cast<int16_t>(N)), N % D == 0)
          << "n=" << N << " d=" << D;
  }
}

TEST(ExactSignedDivider, PaperDivisibleBy100Example) {
  // §9: d = 100, d_inv = (19*2^32+1)/25, q_max = (2^31-48)/25; check a
  // signed 32-bit value is divisible by 100 iff MULL(d_inv, n) is a
  // multiple of 4 in [-q_max, q_max].
  const ExactSignedDivider<int32_t> Divider(100);
  EXPECT_EQ(Divider.inverse(),
            static_cast<uint32_t>((19ull * (uint64_t{1} << 32) + 1) / 25));
  for (int32_t N : {0, 100, -100, 2147483600, -2147483600, 1, 50, 99, 101,
                    -99, -101, 2147483647,
                    std::numeric_limits<int32_t>::min()}) {
    EXPECT_EQ(Divider.isDivisible(N), N % 100 == 0) << N;
  }
  for (int I = 0; I < 100000; ++I) {
    const int32_t N = static_cast<int32_t>(rng()());
    ASSERT_EQ(Divider.isDivisible(N), N % 100 == 0) << N;
  }
}

TEST(ExactSignedDivider, PointerSubtractionUseCase) {
  // §9's motivating example: C pointer subtraction divides the byte
  // difference by the object size, which is known to divide exactly.
  struct Object {
    char Payload[48];
  };
  const ExactSignedDivider<int64_t> BySize(
      static_cast<int64_t>(sizeof(Object)));
  Object Array[1000];
  for (int I = 0; I < 1000; I += 37) {
    const int64_t ByteDiff =
        reinterpret_cast<const char *>(&Array[I]) -
        reinterpret_cast<const char *>(&Array[0]);
    EXPECT_EQ(BySize.divideExact(ByteDiff), I);
  }
}

TEST(ExactSignedDivider, Random64) {
  for (int I = 0; I < 2000; ++I) {
    int64_t D = static_cast<int64_t>(rng()()) >> (rng()() % 63);
    if (D == 0)
      D = 3;
    const ExactSignedDivider<int64_t> Divider(D);
    const uint64_t AbsD =
        D < 0 ? uint64_t{0} - static_cast<uint64_t>(D)
              : static_cast<uint64_t>(D);
    for (int J = 0; J < 100; ++J) {
      const int64_t QMax =
          static_cast<int64_t>(std::numeric_limits<int64_t>::max() /
                               static_cast<int64_t>(AbsD == 0 ? 1 : AbsD));
      if (QMax == 0)
        continue;
      // For |d| = 1, QMax + 1 would overflow; the whole draw is then in
      // range.
      const int64_t Draw = static_cast<int64_t>(rng()());
      const int64_t Q = QMax == std::numeric_limits<int64_t>::max()
                            ? Draw
                            : Draw % (QMax + 1);
      ASSERT_EQ(Divider.divideExact(Q * D), Q) << "q=" << Q << " d=" << D;
      const int64_t N = static_cast<int64_t>(rng()());
      ASSERT_EQ(Divider.isDivisible(N), N % D == 0)
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(ExactDividers, StrengthReducedLoopFromPaper) {
  // The §9 closing example: replace (i % 100 == 0) inside a loop with a
  // running test value updated by d_inv each iteration — no multiply or
  // divide remains in the loop body.
  const uint32_t DInv = static_cast<uint32_t>((19ull * (1ull << 32) + 1) / 25);
  const uint32_t QMax = static_cast<uint32_t>(((1ull << 31) - 48) / 25);
  uint32_t Test = QMax; // test = d_inv * i + q_max (mod 2^32) at i = 0.
  for (int32_t I = 0; I < 100000; ++I, Test += DInv) {
    const bool Divisible = Test <= 2 * QMax && (Test & 3) == 0;
    ASSERT_EQ(Divisible, I % 100 == 0) << I;
  }
}

} // namespace
