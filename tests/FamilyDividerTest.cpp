//===- tests/FamilyDividerTest.cpp - Successor divider families -----------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the three successor divider families:
///
///   * FastModDivider (LKK direct remainder, arXiv:1902.01961) —
///     quotient/remainder/divisibility against hardware, signed
///     wrapper including the INT_MIN row.
///   * RoundUpDivider (round-up/increment at the Optimal Bounds
///     minimal shift, arXiv:2012.12369) — correctness, the exact
///     admissibility predicate's truth table, and minimality of the
///     chosen shift.
///   * NarrowDivider (Mitsunari–Hoshino 32-on-64) — one-multiply
///     quotients, known multiplier values, signed wrapper.
///
/// The exhaustive N = 16 sweeps live in Exhaustive16Test.cpp; the
/// oracle-backed property sweeps at N = 4..12 plus fuzzing at 16/32/64
/// run under verify/ (properties fastmod-*, roundup-*, narrow32-*).
///
//===----------------------------------------------------------------------===//

#include "core/Divider.h"
#include "core/FastModDivider.h"
#include "core/NarrowDivider.h"
#include "core/RoundUpDivider.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace gmdiv;

namespace {

std::vector<uint64_t> dividendGallery64(uint64_t D) {
  std::vector<uint64_t> Values = {0,
                                  1,
                                  2,
                                  D - 1,
                                  D,
                                  D + 1,
                                  2 * D - 1,
                                  2 * D,
                                  2 * D + 1,
                                  ~uint64_t{0} / 2,
                                  ~uint64_t{0} - 1,
                                  ~uint64_t{0}};
  std::mt19937_64 Rng(0x5eedf00dd15ea5e5ull);
  for (int I = 0; I < 300; ++I)
    Values.push_back(Rng());
  return Values;
}

const std::vector<uint64_t> &divisorGallery() {
  // Small odd, even (pre-shift), powers of two, 2^k +/- 1, the rare
  // 641, large divisors, and near-top values at each width.
  static const std::vector<uint64_t> Gallery = {
      1,       2,         3,          5,          6,          7,
      9,       10,        11,         12,         14,         25,
      60,      100,       125,        127,        128,        129,
      255,     256,       257,        641,        32767,      32768,
      32769,   65535,     0x7fffffff, 0x80000000, 0x80000001, 0xffffffff,
      uint64_t{1} << 62,  (uint64_t{1} << 62) - 1, ~uint64_t{0} - 1,
      ~uint64_t{0}};
  return Gallery;
}

//===----------------------------------------------------------------------===//
// fastmod (LKK)
//===----------------------------------------------------------------------===//

template <typename UWord> void fastModAgreesWithHardware() {
  for (uint64_t DRaw : divisorGallery()) {
    const UWord D = static_cast<UWord>(DRaw);
    if (D == 0)
      continue;
    const FastModDivider<UWord> Div(D);
    for (uint64_t NRaw : dividendGallery64(D)) {
      const UWord N = static_cast<UWord>(NRaw);
      const UWord Q = static_cast<UWord>(N / D);
      const UWord R = static_cast<UWord>(N % D);
      ASSERT_EQ(Div.divide(N), Q) << "d=" << uint64_t(D) << " n=" << uint64_t(N);
      ASSERT_EQ(Div.remainder(N), R)
          << "d=" << uint64_t(D) << " n=" << uint64_t(N);
      const auto QR = Div.divRem(N);
      ASSERT_EQ(QR.Quotient, Q);
      ASSERT_EQ(QR.Remainder, R);
      ASSERT_EQ(Div.isDivisible(N), R == 0)
          << "d=" << uint64_t(D) << " n=" << uint64_t(N);
    }
  }
}

TEST(FastModDivider, AgreesWithHardware8) { fastModAgreesWithHardware<uint8_t>(); }
TEST(FastModDivider, AgreesWithHardware16) {
  fastModAgreesWithHardware<uint16_t>();
}
TEST(FastModDivider, AgreesWithHardware32) {
  fastModAgreesWithHardware<uint32_t>();
}
TEST(FastModDivider, AgreesWithHardware64) {
  fastModAgreesWithHardware<uint64_t>();
}

TEST(FastModDivider, DivisibilityExhaustive8) {
  // The one-multiply-one-compare claim, proven over every (n, d) at
  // N = 8 right here (the verify harness repeats this at 4..12).
  for (uint32_t D = 2; D <= 0xff; ++D) {
    const FastModDivider<uint8_t> Div(static_cast<uint8_t>(D));
    for (uint32_t N = 0; N <= 0xff; ++N)
      ASSERT_EQ(Div.isDivisible(static_cast<uint8_t>(N)), N % D == 0)
          << "d=" << D << " n=" << N;
  }
}

TEST(FastModSignedDivider, SignCombinationsAndIntMin) {
  for (int64_t DRaw : {int64_t{1}, int64_t{-1}, int64_t{3}, int64_t{-3},
                       int64_t{7}, int64_t{-7}, int64_t{10}, int64_t{-10},
                       int64_t{INT32_MAX}, -int64_t{INT32_MAX},
                       int64_t{INT32_MIN}}) {
    const int32_t D = static_cast<int32_t>(DRaw);
    const FastModSignedDivider<int32_t> Div(D);
    for (int64_t NRaw :
         {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{100}, int64_t{-100},
          int64_t{INT32_MAX}, int64_t{INT32_MIN}, int64_t{INT32_MIN} + 1}) {
      const int32_t N = static_cast<int32_t>(NRaw);
      if (N == INT32_MIN && D == -1) {
        // Defined to wrap, matching the Oracle's overflow policy.
        EXPECT_EQ(Div.divide(N), INT32_MIN);
        EXPECT_EQ(Div.remainder(N), 0);
        continue;
      }
      ASSERT_EQ(Div.divide(N), N / D) << "d=" << D << " n=" << N;
      ASSERT_EQ(Div.remainder(N), N % D) << "d=" << D << " n=" << N;
      ASSERT_EQ(Div.isDivisible(N), N % D == 0) << "d=" << D << " n=" << N;
    }
  }
}

TEST(FastModDivider, KnownReciprocals) {
  // c = floor(2^64/d) + 1 at N = 32.
  const FastModDivider<uint32_t> Seven(7);
  EXPECT_EQ(Seven.magic(), ~uint64_t{0} / 7 + 1); // 0x2492492492492493
  const FastModDivider<uint32_t> Ten(10);
  EXPECT_EQ(Ten.magic(), ~uint64_t{0} / 10 + 1); // 0x199999999999999a
  // d = 1 bypasses the reciprocal entirely.
  const FastModDivider<uint32_t> One(1);
  EXPECT_EQ(One.magic(), 0u);
  EXPECT_EQ(One.divide(123u), 123u);
  EXPECT_TRUE(One.isDivisible(0xffffffffu));
}

//===----------------------------------------------------------------------===//
// roundup (Optimal Bounds)
//===----------------------------------------------------------------------===//

template <typename UWord> void roundUpAgreesWithHardware() {
  for (uint64_t DRaw : divisorGallery()) {
    const UWord D = static_cast<UWord>(DRaw);
    if (D == 0)
      continue;
    const RoundUpDivider<UWord> Div(D);
    for (uint64_t NRaw : dividendGallery64(D)) {
      const UWord N = static_cast<UWord>(NRaw);
      ASSERT_EQ(Div.divide(N), static_cast<UWord>(N / D))
          << Div.describe() << " n=" << uint64_t(N);
      ASSERT_EQ(Div.remainder(N), static_cast<UWord>(N % D))
          << Div.describe() << " n=" << uint64_t(N);
    }
  }
}

TEST(RoundUpDivider, AgreesWithHardware8) { roundUpAgreesWithHardware<uint8_t>(); }
TEST(RoundUpDivider, AgreesWithHardware16) {
  roundUpAgreesWithHardware<uint16_t>();
}
TEST(RoundUpDivider, AgreesWithHardware32) {
  roundUpAgreesWithHardware<uint32_t>();
}
TEST(RoundUpDivider, AgreesWithHardware64) {
  roundUpAgreesWithHardware<uint64_t>();
}

TEST(RoundUpDivider, PowersOfTwoUseShiftMode) {
  for (int K = 0; K < 32; ++K) {
    const RoundUpDivider<uint32_t> Div(uint32_t{1} << K);
    EXPECT_EQ(Div.mode(), RoundUpChoice<uint32_t>::Kind::Shift);
    EXPECT_EQ(Div.totalShift(), K);
  }
}

TEST(RoundUpDivider, PredicateTruthTable) {
  using Choice = RoundUpChoice<uint8_t>;
  // d = 7, N = 8: the exact predicate must accept the canonical
  // round-up multiplier at an admissible k and reject neighbors.
  // 2^10/7 = 146.29 => m_up = 147, e = 7*147 - 1024 = 5; worst dividend
  // n* = 251 (largest n = -1 mod 7 below 256): 5*251 = 1255 > 1024, so
  // k = 10 round-up is INADMISSIBLE; the increment form m = 146,
  // e' = 2, n0 = 252: 2*253 = 506 <= 1024 and the saturation row holds,
  // so increment at k = 10 is admissible.
  EXPECT_FALSE(checkRoundUpMultiplier<uint8_t>(7, 147, 10, false));
  EXPECT_TRUE(checkRoundUpMultiplier<uint8_t>(7, 146, 10, true));
  // Too-small and too-large multipliers are never admissible.
  EXPECT_FALSE(checkRoundUpMultiplier<uint8_t>(7, 0, 10, false));
  EXPECT_FALSE(checkRoundUpMultiplier<uint8_t>(7, 146, 10, false));
  EXPECT_FALSE(checkRoundUpMultiplier<uint8_t>(7, 256, 10, false));
  // Exact reciprocal: d | 2^k admits m = 2^k/d with e = 0.
  EXPECT_TRUE(checkRoundUpMultiplier<uint8_t>(4, 64, 8, false));
  // d = 2^N - 1 collides the n = d-1 and saturated-top rows in the
  // increment form: must be rejected no matter the multiplier.
  EXPECT_FALSE(checkRoundUpMultiplier<uint8_t>(255, 128, 15, true));
  // ...but the round-up form covers it (m = 129 at k = 15).
  EXPECT_TRUE(checkRoundUpMultiplier<uint8_t>(255, 129, 15, false));
  const RoundUpDivider<uint8_t> Top(255);
  EXPECT_NE(Top.mode(), Choice::Kind::Fixup);
}

TEST(RoundUpSignedDivider, SignCombinationsAndIntMin) {
  for (int64_t DRaw : {int64_t{1}, int64_t{-1}, int64_t{3}, int64_t{-3},
                       int64_t{7}, int64_t{-7}, int64_t{10}, int64_t{-10},
                       int64_t{INT32_MAX}, -int64_t{INT32_MAX},
                       int64_t{INT32_MIN}}) {
    const int32_t D = static_cast<int32_t>(DRaw);
    const RoundUpSignedDivider<int32_t> Div(D);
    EXPECT_EQ(Div.divisor(), D);
    for (int64_t NRaw :
         {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{100}, int64_t{-100},
          int64_t{INT32_MAX}, int64_t{INT32_MIN}, int64_t{INT32_MIN} + 1}) {
      const int32_t N = static_cast<int32_t>(NRaw);
      if (N == INT32_MIN && D == -1) {
        // Defined to wrap, matching the Oracle's overflow policy.
        EXPECT_EQ(Div.divide(N), INT32_MIN);
        EXPECT_EQ(Div.remainder(N), 0);
        continue;
      }
      ASSERT_EQ(Div.divide(N), N / D) << "d=" << D << " n=" << N;
      ASSERT_EQ(Div.remainder(N), N % D) << "d=" << D << " n=" << N;
      const auto Both = Div.divRem(N);
      ASSERT_EQ(Both.Quotient, N / D) << "d=" << D << " n=" << N;
      ASSERT_EQ(Both.Remainder, N % D) << "d=" << D << " n=" << N;
    }
  }
}

TEST(RoundUpSignedDivider, RandomAgainstHardware64) {
  std::mt19937_64 Rng(0xda3e39cb94b95bdbull);
  for (int64_t D : {int64_t{-3}, int64_t{-641}, int64_t{6700417},
                    int64_t{INT64_MIN}, int64_t{INT64_MAX}}) {
    const RoundUpSignedDivider<int64_t> Div(D);
    for (int Round = 0; Round < 4000; ++Round) {
      const int64_t N = static_cast<int64_t>(Rng());
      if (N == INT64_MIN && D == -1)
        continue;
      ASSERT_EQ(Div.divide(N), N / D) << "d=" << D << " n=" << N;
      ASSERT_EQ(Div.remainder(N), N % D) << "d=" << D << " n=" << N;
    }
  }
}

TEST(RoundUpDivider, ChosenShiftIsMinimal) {
  // Optimal Bounds: no k below the chosen one admits either variant.
  for (uint64_t DRaw : {uint64_t{3}, uint64_t{7}, uint64_t{10},
                        uint64_t{641}, uint64_t{0xffffffff}}) {
    const uint32_t D = static_cast<uint32_t>(DRaw);
    const RoundUpChoice<uint32_t> C = chooseRoundUpMultiplier(D);
    ASSERT_NE(C.Mode, RoundUpChoice<uint32_t>::Kind::Shift);
    ASSERT_NE(C.Mode, RoundUpChoice<uint32_t>::Kind::Fixup) << "d=" << D;
    for (int K = 32; K < C.TotalShift; ++K) {
      const auto QR = WordTraits<uint32_t>::udDivModPow2(K, uint64_t{D});
      EXPECT_FALSE(checkRoundUpMultiplier<uint32_t>(D, QR.first + 1, K, false))
          << "d=" << D << " k=" << K;
      EXPECT_FALSE(checkRoundUpMultiplier<uint32_t>(D, QR.first, K, true))
          << "d=" << D << " k=" << K;
    }
    // Word-sized by construction (that is what admissibility means).
    EXPECT_LE(C.MultiplierBits, 32);
  }
}

//===----------------------------------------------------------------------===//
// narrow (Mitsunari–Hoshino 32-on-64)
//===----------------------------------------------------------------------===//

template <typename UWord> void narrowAgreesWithHardware() {
  for (uint64_t DRaw : divisorGallery()) {
    const UWord D = static_cast<UWord>(DRaw);
    if (D == 0)
      continue;
    const NarrowDivider<UWord> Div(D);
    for (uint64_t NRaw : dividendGallery64(D)) {
      const UWord N = static_cast<UWord>(NRaw);
      ASSERT_EQ(Div.divide(N), static_cast<UWord>(N / D))
          << "d=" << uint64_t(D) << " n=" << uint64_t(N);
      const auto QR = Div.divRem(N);
      ASSERT_EQ(QR.Quotient, static_cast<UWord>(N / D));
      ASSERT_EQ(QR.Remainder, static_cast<UWord>(N % D));
    }
  }
}

TEST(NarrowDivider, AgreesWithHardware8) { narrowAgreesWithHardware<uint8_t>(); }
TEST(NarrowDivider, AgreesWithHardware16) { narrowAgreesWithHardware<uint16_t>(); }
TEST(NarrowDivider, AgreesWithHardware32) { narrowAgreesWithHardware<uint32_t>(); }

TEST(NarrowDivider, KnownMultipliers32) {
  // M = ceil(2^64/d) held in a uint64; on a 64-bit host the quotient is
  // literally MULUH64(M, n) — one multiply, no shift, no fixup.
  const Narrow32Divider Ten(10);
  EXPECT_EQ(Ten.magic(), 0x199999999999999aull);
  EXPECT_EQ(Ten.multiplierBits(), 61);
  const Narrow32Divider Seven(7);
  EXPECT_EQ(Seven.magic(), 0x2492492492492493ull);
  // Unconditional correctness: every divisor admits k = 2N, including
  // the ones GM needs the fixup for (d = 2^N - 1 and friends).
  const Narrow32Divider Top(0xffffffffu);
  EXPECT_EQ(Top.divide(0xffffffffu), 1u);
  EXPECT_EQ(Top.divide(0xfffffffeu), 0u);
}

TEST(NarrowSignedDivider, SignCombinationsAndIntMin) {
  for (int64_t DRaw : {int64_t{1}, int64_t{-1}, int64_t{7}, int64_t{-7},
                       int64_t{INT32_MAX}, int64_t{INT32_MIN}}) {
    const int32_t D = static_cast<int32_t>(DRaw);
    const Narrow32SignedDivider Div(D);
    for (int64_t NRaw : {int64_t{0}, int64_t{42}, int64_t{-42},
                         int64_t{INT32_MAX}, int64_t{INT32_MIN}}) {
      const int32_t N = static_cast<int32_t>(NRaw);
      if (N == INT32_MIN && D == -1) {
        EXPECT_EQ(Div.divide(N), INT32_MIN);
        EXPECT_EQ(Div.remainder(N), 0);
        continue;
      }
      ASSERT_EQ(Div.divide(N), N / D) << "d=" << D << " n=" << N;
      ASSERT_EQ(Div.remainder(N), N % D) << "d=" << D << " n=" << N;
    }
  }
}

} // namespace
