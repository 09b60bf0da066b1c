//===- tests/GeneralFloorDividerTest.cpp - (6.1)/(6.2) identity tests -----===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "core/DWordDivider.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>

using namespace gmdiv;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x9216d5d98979fb1bull);
  return Generator;
}

int64_t refFloorDiv(int64_t N, int64_t D) {
  const int64_t Quotient = N / D;
  if (N % D != 0 && ((N % D < 0) != (D < 0)))
    return Quotient - 1;
  return Quotient;
}

/// n - d*floor(n/d), the (6.2) modulo, computed in uint64_t: the
/// product d*floor(n/d) can leave int64_t even though the difference
/// cannot.
int64_t refFloorMod(int64_t N, int64_t D) {
  return static_cast<int64_t>(static_cast<uint64_t>(N) -
                              static_cast<uint64_t>(D) *
                                  static_cast<uint64_t>(refFloorDiv(N, D)));
}

TEST(GeneralFloorDivider, Exhaustive8) {
  for (int D = -128; D < 128; ++D) {
    if (D == 0)
      continue;
    const GeneralFloorDivider<int8_t> Divider(static_cast<int8_t>(D));
    for (int N = -128; N < 128; ++N) {
      if (N == -128 && D == -1)
        continue;
      EXPECT_EQ(Divider.divide(static_cast<int8_t>(N)),
                static_cast<int8_t>(refFloorDiv(N, D)))
          << "n=" << N << " d=" << D;
      const int Mod = static_cast<int>(N - D * refFloorDiv(N, D));
      EXPECT_EQ(Divider.modulo(static_cast<int8_t>(N)),
                static_cast<int8_t>(Mod))
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(GeneralFloorDivider, AgreesWithFloorDividerExhaustive16) {
  for (int D : {3, -3, 10, -10, 127, -127, 4096, -4096, 32767, -32768}) {
    const GeneralFloorDivider<int16_t> General(static_cast<int16_t>(D));
    const FloorDivider<int16_t> Floor(static_cast<int16_t>(D));
    for (int N = -32768; N <= 32767; ++N) {
      if (N == -32768 && D == -1)
        continue;
      ASSERT_EQ(General.divide(static_cast<int16_t>(N)),
                Floor.divide(static_cast<int16_t>(N)))
          << "n=" << N << " d=" << D;
      ASSERT_EQ(General.modulo(static_cast<int16_t>(N)),
                Floor.modulo(static_cast<int16_t>(N)))
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(GeneralFloorDivider, Random32And64) {
  for (int I = 0; I < 2000; ++I) {
    int64_t D = static_cast<int64_t>(rng()()) >> (rng()() % 63);
    if (D == 0)
      D = -9;
    const GeneralFloorDivider<int64_t> Divider(D);
    for (int J = 0; J < 100; ++J) {
      const int64_t N = static_cast<int64_t>(rng()()) >> (rng()() % 63);
      if (N == std::numeric_limits<int64_t>::min() && D == -1)
        continue;
      ASSERT_EQ(Divider.divide(N), refFloorDiv(N, D))
          << "n=" << N << " d=" << D;
      ASSERT_EQ(Divider.modulo(N), refFloorMod(N, D))
          << "n=" << N << " d=" << D;
    }
  }
  for (int I = 0; I < 2000; ++I) {
    int32_t D = static_cast<int32_t>(rng()()) >> (rng()() % 31);
    if (D == 0)
      D = 11;
    const GeneralFloorDivider<int32_t> Divider(D);
    for (int J = 0; J < 50; ++J) {
      const int32_t N = static_cast<int32_t>(rng()());
      if (N == std::numeric_limits<int32_t>::min() && D == -1)
        continue;
      ASSERT_EQ(Divider.divide(N),
                static_cast<int32_t>(refFloorDiv(N, D)))
          << "n=" << N << " d=" << D;
    }
  }
}

TEST(GeneralFloorDivider, NoOverflowAtExtremes) {
  // (6.1)'s "the new numerators never overflow": probe the corners.
  constexpr int32_t Min = std::numeric_limits<int32_t>::min();
  constexpr int32_t Max = std::numeric_limits<int32_t>::max();
  for (int32_t D : {2, -2, 3, -3, Max, -Max, Min}) {
    const GeneralFloorDivider<int32_t> Divider(D);
    for (int32_t N : {Min, Min + 1, -1, 0, 1, Max - 1, Max}) {
      ASSERT_EQ(Divider.divide(N), static_cast<int32_t>(refFloorDiv(N, D)))
          << "n=" << N << " d=" << D;
    }
  }
}

//===----------------------------------------------------------------------===//
// DWordDivider::divRemFull (the no-precondition 2N / N form).
//===----------------------------------------------------------------------===//

TEST(DWordDividerFull, Exhaustive8) {
  for (uint32_t D = 1; D < 256; ++D) {
    const DWordDivider<uint8_t> Divider(static_cast<uint8_t>(D));
    for (uint32_t N = 0; N <= 0xffff; N += 7) {
      const auto Full = Divider.divRemFull(static_cast<uint16_t>(N));
      const uint32_t Quotient =
          (static_cast<uint32_t>(Full.QuotientHigh) << 8) |
          Full.QuotientLow;
      ASSERT_EQ(Quotient, N / D) << "n=" << N << " d=" << D;
      ASSERT_EQ(Full.Remainder, N % D) << "n=" << N << " d=" << D;
    }
  }
}

TEST(DWordDividerFull, Random64AgainstUInt128) {
  for (int I = 0; I < 500; ++I) {
    uint64_t D = rng()() >> (rng()() % 64);
    if (D == 0)
      D = 1;
    const DWordDivider<uint64_t> Divider(D);
    for (int J = 0; J < 100; ++J) {
      const UInt128 N = UInt128::fromHalves(rng()(), rng()());
      const auto Full = Divider.divRemFull(N);
      auto [RefQ, RefR] = UInt128::divMod(N, UInt128(D));
      ASSERT_EQ(Full.QuotientHigh, RefQ.high64())
          << "n=" << N.toString() << " d=" << D;
      ASSERT_EQ(Full.QuotientLow, RefQ.low64())
          << "n=" << N.toString() << " d=" << D;
      ASSERT_EQ(Full.Remainder, RefR.low64())
          << "n=" << N.toString() << " d=" << D;
    }
  }
}

} // namespace
