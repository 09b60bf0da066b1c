//===- tests/JitDividerTest.cpp - JIT front-end tests ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JitDivider, now a shim over the Figure 4.1/5.1 core dividers,
/// against native `/` and `%` across widths, signs, and the divisor
/// gallery.
///
//===----------------------------------------------------------------------===//

#include "jit/JitDivider.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

using namespace gmdiv;
using namespace gmdiv::jit;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x9e3779b97f4a7c15ull);
  return Generator;
}

template <typename T> void checkDivisor(T D) {
  const JitDivider<T> Div(D);
  EXPECT_EQ(Div.divisor(), D);
  EXPECT_FALSE(Div.usesJit()) << Div.describe();

  const auto CheckOne = [&](T N) {
    // Signed overflow (INT_MIN / -1) is UB in the C++ reference; the
    // core divider wraps, but skip the comparison.
    if (std::is_signed<T>::value && D == static_cast<T>(-1) &&
        N == std::numeric_limits<T>::min())
      return;
    const T Q = static_cast<T>(N / D);
    const T R = static_cast<T>(N % D);
    EXPECT_EQ(Div.divide(N), Q) << "n=" << +N << " d=" << +D;
    EXPECT_EQ(Div.remainder(N), R) << "n=" << +N << " d=" << +D;
    const auto [BothQ, BothR] = Div.divRem(N);
    EXPECT_EQ(BothQ, Q);
    EXPECT_EQ(BothR, R);
  };

  CheckOne(0);
  CheckOne(1);
  CheckOne(std::numeric_limits<T>::max());
  CheckOne(std::numeric_limits<T>::min());
  CheckOne(D);
  // d - 1 in the unsigned type: for d = INT_MIN the signed form overflows.
  CheckOne(static_cast<T>(static_cast<std::make_unsigned_t<T>>(D) - 1u));
  for (int Round = 0; Round < 2000; ++Round)
    CheckOne(static_cast<T>(rng()()));
}

TEST(JitDivider, Unsigned8) {
  for (uint8_t D : {1, 2, 3, 7, 10, 128, 255})
    checkDivisor<uint8_t>(D);
}

TEST(JitDivider, Unsigned16) {
  for (uint16_t D : {1, 3, 7, 641, 32768, 65535})
    checkDivisor<uint16_t>(D);
}

TEST(JitDivider, Unsigned32) {
  for (uint32_t D : {1u, 3u, 7u, 10u, 641u, 6700417u, 0x80000000u,
                     0xffffffffu})
    checkDivisor<uint32_t>(D);
}

TEST(JitDivider, Unsigned64) {
  for (uint64_t D :
       {1ull, 3ull, 7ull, 641ull, 1000000007ull, 0x8000000000000000ull,
        0xffffffffffffffffull})
    checkDivisor<uint64_t>(D);
}

TEST(JitDivider, Signed32) {
  for (int32_t D : {1, -1, 3, -3, 7, -13, 641, -1000000007,
                    std::numeric_limits<int32_t>::min()})
    checkDivisor<int32_t>(D);
}

TEST(JitDivider, Signed64) {
  for (int64_t D :
       {int64_t{1}, int64_t{-1}, int64_t{3}, int64_t{-7},
        int64_t{1000000007}, std::numeric_limits<int64_t>::min()})
    checkDivisor<int64_t>(D);
}

TEST(JitDivider, PowersOfTwo) {
  for (int Shift = 0; Shift < 32; Shift += 5)
    checkDivisor<uint32_t>(uint32_t{1} << Shift);
  for (int Shift = 1; Shift < 31; Shift += 7) {
    checkDivisor<int32_t>(int32_t{1} << Shift);
    checkDivisor<int32_t>(-(int32_t{1} << Shift));
  }
}

} // namespace
