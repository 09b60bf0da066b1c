//===- tests/DividerMatrixTest.cpp - Cross-implementation TEST_P matrix ---===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) pitting every
/// implementation of the same division against the hardware reference on
/// the same dividends: the Figure 4.1/5.1 dividers, the Figure 4.2/5.2/
/// 6.1 generated code run through the interpreter, the §7 float divider,
/// the §3-identity capability variants, and the wide (Alpha-style) form.
/// One divisor disagreement anywhere fails with the divisor in the test
/// name.
///
//===----------------------------------------------------------------------===//

#include "codegen/DivCodeGen.h"
#include "core/Divider.h"
#include "core/FastModDivider.h"
#include "core/FloatDiv.h"
#include "core/NarrowDivider.h"
#include "core/RoundUpDivider.h"
#include "ir/Interp.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace gmdiv;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0xd1cff191b3a8c1adull);
  return Generator;
}

std::vector<uint32_t> unsignedDividends(uint32_t D) {
  std::vector<uint32_t> Values = {0,          1,          2,
                                  D - 1,      D,          D + 1,
                                  2 * D,      0x7fffffffu, 0x80000000u,
                                  0xfffffffeu, 0xffffffffu};
  for (int I = 0; I < 200; ++I)
    Values.push_back(static_cast<uint32_t>(rng()()));
  return Values;
}

//===----------------------------------------------------------------------===//
// Unsigned matrix.
//===----------------------------------------------------------------------===//

class UnsignedDivisorMatrix : public ::testing::TestWithParam<uint32_t> {};

TEST_P(UnsignedDivisorMatrix, AllImplementationsAgree32) {
  const uint32_t D = GetParam();
  const UnsignedDivider<uint32_t> Divider(D);
  const FloatDivider<uint32_t> Float(D);
  const ir::Program Generated = codegen::genUnsignedDiv(32, D);
  codegen::GenOptions Power;
  Power.MulHigh = codegen::MulHighCapability::SignedOnly;
  const ir::Program SignedOnly = codegen::genUnsignedDiv(32, D, Power);
  const ir::Program Wide = codegen::genUnsignedDivWide(32, 64, D);
  codegen::GenOptions Expand;
  Expand.ExpandMulBelowCycles = 23;
  const ir::Program WideExpanded =
      codegen::genUnsignedDivWide(32, 64, D, Expand);

  for (uint32_t N : unsignedDividends(D)) {
    const uint32_t Expected = N / D;
    ASSERT_EQ(Divider.divide(N), Expected) << "Figure 4.1, n=" << N;
    ASSERT_EQ(Float.divide(N), Expected) << "§7 float, n=" << N;
    ASSERT_EQ(Float.divideViaReciprocal(N), Expected)
        << "§7 reciprocal, n=" << N;
    ASSERT_EQ(ir::run(Generated, {N})[0], Expected)
        << "Figure 4.2, n=" << N;
    ASSERT_EQ(ir::run(SignedOnly, {N})[0], Expected)
        << "§3 identity form, n=" << N;
    ASSERT_EQ(ir::run(Wide, {N})[0], Expected) << "wide form, n=" << N;
    ASSERT_EQ(ir::run(WideExpanded, {N})[0], Expected)
        << "wide expanded form, n=" << N;
  }
}

TEST_P(UnsignedDivisorMatrix, RemainderPathsAgree32) {
  const uint32_t D = GetParam();
  const UnsignedDivider<uint32_t> Divider(D);
  const ir::Program DivRem = codegen::genUnsignedDivRem(32, D);
  for (uint32_t N : unsignedDividends(D)) {
    auto [Quotient, Remainder] = Divider.divRem(N);
    const std::vector<uint64_t> QR = ir::run(DivRem, {N});
    ASSERT_EQ(Quotient, N / D);
    ASSERT_EQ(Remainder, N % D);
    ASSERT_EQ(QR[0], N / D);
    ASSERT_EQ(QR[1], N % D);
  }
}

TEST_P(UnsignedDivisorMatrix, SuccessorFamiliesAgree32) {
  // The successor families against the wide-integer Oracle AND the
  // paper's own Figure 4.1 divider, per (family, op) cell: fastmod on
  // divide/rem/divRem/isDivisible, roundup and narrow on divide/rem.
  const uint32_t D = GetParam();
  const verify::Oracle Ref(32, D, /*IsSigned=*/false);
  const UnsignedDivider<uint32_t> GM(D);
  const FastModDivider<uint32_t> FM(D);
  const RoundUpDivider<uint32_t> RU(D);
  const NarrowDivider<uint32_t> Nar(D);
  for (uint32_t N : unsignedDividends(D)) {
    const verify::DivRef R = Ref.ref(N);
    ASSERT_EQ(GM.divide(N), R.TruncQ) << "gm, n=" << N;
    ASSERT_EQ(FM.divide(N), R.TruncQ) << "fastmod, n=" << N;
    ASSERT_EQ(FM.remainder(N), R.TruncR) << "fastmod rem, n=" << N;
    ASSERT_EQ(FM.isDivisible(N), R.Divisible) << "fastmod divis, n=" << N;
    const auto QR = FM.divRem(N);
    ASSERT_EQ(QR.Quotient, GM.divide(N));
    ASSERT_EQ(QR.Remainder, GM.remainder(N));
    ASSERT_EQ(RU.divide(N), R.TruncQ) << RU.describe() << ", n=" << N;
    ASSERT_EQ(RU.remainder(N), GM.remainder(N)) << "roundup rem, n=" << N;
    ASSERT_EQ(Nar.divide(N), R.TruncQ) << "narrow, n=" << N;
    ASSERT_EQ(Nar.remainder(N), R.TruncR) << "narrow rem, n=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGallery, UnsignedDivisorMatrix,
    ::testing::Values(1u, 2u, 3u, 5u, 6u, 7u, 9u, 10u, 11u, 12u, 14u,
                      25u, 60u, 100u, 125u, 128u, 625u, 641u, 1000u,
                      65535u, 65536u, 1000003u, 0x7fffffffu, 0x80000000u,
                      0x80000001u, 0xfffffffeu, 0xffffffffu));

std::vector<uint32_t> randomUnsignedDivisors() {
  std::mt19937_64 Local(42);
  std::vector<uint32_t> Divisors;
  for (int I = 0; I < 48; ++I) {
    uint32_t D = static_cast<uint32_t>(Local() >> (Local() % 32));
    if (D == 0)
      D = 1;
    Divisors.push_back(D);
  }
  return Divisors;
}

INSTANTIATE_TEST_SUITE_P(RandomDivisors, UnsignedDivisorMatrix,
                         ::testing::ValuesIn(randomUnsignedDivisors()));

//===----------------------------------------------------------------------===//
// Signed matrix.
//===----------------------------------------------------------------------===//

class SignedDivisorMatrix : public ::testing::TestWithParam<int32_t> {};

/// K * D with two's-complement wrap, computed in uint32_t: 2 * D, -2 * D
/// and -D overflow int32_t for |D| >= 2^30 (and -D for INT_MIN).
int32_t wrapScale(int32_t K, int32_t D) {
  return static_cast<int32_t>(static_cast<uint32_t>(K) *
                              static_cast<uint32_t>(D));
}

std::vector<int32_t> signedDividends(int32_t D) {
  std::vector<int32_t> Values = {0,
                                 1,
                                 -1,
                                 D,
                                 wrapScale(-1, D),
                                 wrapScale(2, D),
                                 wrapScale(-2, D),
                                 0x7fffffff,
                                 static_cast<int32_t>(0x80000001),
                                 std::numeric_limits<int32_t>::min()};
  for (int I = 0; I < 200; ++I)
    Values.push_back(static_cast<int32_t>(rng()()));
  return Values;
}

TEST_P(SignedDivisorMatrix, AllImplementationsAgree32) {
  const int32_t D = GetParam();
  const SignedDivider<int32_t> Divider(D);
  const FloatDivider<int32_t> Float(D);
  const ir::Program Generated = codegen::genSignedDiv(32, D);
  codegen::GenOptions UOnly;
  UOnly.MulHigh = codegen::MulHighCapability::UnsignedOnly;
  const ir::Program UnsignedOnly = codegen::genSignedDiv(32, D, UOnly);

  const std::vector<int32_t> Dividends = signedDividends(D);

  for (int32_t N : Dividends) {
    if (N == std::numeric_limits<int32_t>::min() && D == -1)
      continue;
    const int32_t Expected =
        static_cast<int32_t>(static_cast<int64_t>(N) / D);
    ASSERT_EQ(Divider.divide(N), Expected) << "Figure 5.1, n=" << N;
    ASSERT_EQ(Float.divide(N), Expected) << "§7 float, n=" << N;
    const uint64_t Bits = static_cast<uint32_t>(N);
    ASSERT_EQ(static_cast<int32_t>(ir::run(Generated, {Bits})[0]),
              Expected)
        << "Figure 5.2, n=" << N;
    ASSERT_EQ(static_cast<int32_t>(ir::run(UnsignedOnly, {Bits})[0]),
              Expected)
        << "§3 identity form, n=" << N;
  }
}

TEST_P(SignedDivisorMatrix, FloorFamilyConsistent32) {
  const int32_t D = GetParam();
  const FloorDivider<int32_t> Floor(D);
  const GeneralFloorDivider<int32_t> General(D);
  const CeilDivider<int32_t> Ceil(D);
  std::vector<int32_t> Dividends = {0, 1, -1, D, wrapScale(-1, D),
                                    std::numeric_limits<int32_t>::min(),
                                    std::numeric_limits<int32_t>::max()};
  for (int I = 0; I < 200; ++I)
    Dividends.push_back(static_cast<int32_t>(rng()()));
  for (int32_t N : Dividends) {
    if (N == std::numeric_limits<int32_t>::min() && D == -1)
      continue;
    const int32_t FloorQ = Floor.divide(N);
    ASSERT_EQ(General.divide(N), FloorQ) << "(6.1) identity, n=" << N;
    // floor <= trunc <= ceil, and they differ by at most one.
    const int32_t CeilQ = Ceil.divide(N);
    ASSERT_LE(FloorQ, CeilQ);
    ASSERT_LE(CeilQ - FloorQ, 1);
    // Exact divisions collapse all three.
    if (static_cast<int64_t>(N) % D == 0) {
      ASSERT_EQ(FloorQ, CeilQ);
    }
    // Floor modulo has the divisor's sign.
    const int32_t Mod = Floor.modulo(N);
    if (Mod != 0) {
      ASSERT_EQ(Mod < 0, D < 0) << "n=" << N;
    }
    ASSERT_EQ(General.modulo(N), Mod) << "(6.2) identity, n=" << N;
  }
}

TEST_P(SignedDivisorMatrix, SuccessorFamiliesAgree32) {
  // The signed successor wrappers against the signed Oracle and the
  // Figure 5.1 divider — including the INT_MIN / -1 row, where all of
  // them follow the Oracle's documented wrap-to-INT_MIN policy.
  const int32_t D = GetParam();
  const verify::Oracle Ref(32, static_cast<uint32_t>(D), /*IsSigned=*/true);
  const SignedDivider<int32_t> GM(D);
  const FastModSignedDivider<int32_t> FM(D);
  const NarrowSignedDivider<int32_t> Nar(D);

  const std::vector<int32_t> Dividends = signedDividends(D);

  for (int32_t N : Dividends) {
    const verify::DivRef R = Ref.ref(static_cast<uint32_t>(N));
    const int32_t WantQ = static_cast<int32_t>(R.TruncQ);
    const int32_t WantR = static_cast<int32_t>(R.TruncR);
    // Figure 5.1 leaves INT_MIN / -1 unspecified; the successor
    // wrappers commit to the Oracle's wrap policy, so only the GM
    // comparison skips the overflow row.
    if (!R.Overflow) {
      ASSERT_EQ(GM.divide(N), WantQ) << "gm, n=" << N;
    }
    ASSERT_EQ(FM.divide(N), WantQ) << "fastmod-signed, n=" << N;
    ASSERT_EQ(FM.remainder(N), WantR) << "fastmod-signed rem, n=" << N;
    ASSERT_EQ(FM.isDivisible(N), R.Divisible)
        << "fastmod-signed divis, n=" << N;
    ASSERT_EQ(Nar.divide(N), WantQ) << "narrow-signed, n=" << N;
    ASSERT_EQ(Nar.remainder(N), WantR) << "narrow-signed rem, n=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGallery, SignedDivisorMatrix,
    ::testing::Values(1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 9, -9, 10, -10,
                      25, -25, 125, -125, 256, -256, 641, -641,
                      0x40000000, -0x40000000, 0x7fffffff, -0x7fffffff));

std::vector<int32_t> randomSignedDivisors() {
  std::mt19937_64 Local(43);
  std::vector<int32_t> Divisors;
  for (int I = 0; I < 48; ++I) {
    int32_t D = static_cast<int32_t>(Local()) >>
                static_cast<int>(Local() % 31);
    if (D == 0)
      D = 17;
    Divisors.push_back(D);
  }
  return Divisors;
}

INSTANTIATE_TEST_SUITE_P(RandomDivisors, SignedDivisorMatrix,
                         ::testing::ValuesIn(randomSignedDivisors()));

//===----------------------------------------------------------------------===//
// 64-bit matrix (no float divider: N > F - 3).
//===----------------------------------------------------------------------===//

class Unsigned64DivisorMatrix
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Unsigned64DivisorMatrix, AllImplementationsAgree64) {
  const uint64_t D = GetParam();
  const UnsignedDivider<uint64_t> Divider(D);
  const ir::Program Generated = codegen::genUnsignedDiv(64, D);
  codegen::GenOptions Power;
  Power.MulHigh = codegen::MulHighCapability::SignedOnly;
  const ir::Program SignedOnly = codegen::genUnsignedDiv(64, D, Power);
  std::vector<uint64_t> Dividends = {0, 1, D - 1, D, D + 1,
                                     ~uint64_t{0} - 1, ~uint64_t{0},
                                     uint64_t{1} << 63};
  for (int I = 0; I < 200; ++I)
    Dividends.push_back(rng()());
  for (uint64_t N : Dividends) {
    const uint64_t Expected = N / D;
    ASSERT_EQ(Divider.divide(N), Expected) << "Figure 4.1, n=" << N;
    ASSERT_EQ(ir::run(Generated, {N})[0], Expected)
        << "Figure 4.2, n=" << N;
    ASSERT_EQ(ir::run(SignedOnly, {N})[0], Expected)
        << "§3 identity form, n=" << N;
  }
}

TEST_P(Unsigned64DivisorMatrix, SuccessorFamiliesAgree64) {
  // At full 64-bit width fastmod and narrow run on the emulated 128-bit
  // doubleword (too slow to pay on a 64-bit host, LKK section 3, but the
  // templates still prove correct), roundup on the native word. All
  // three against the Oracle and Figure 4.1.
  const uint64_t D = GetParam();
  const verify::Oracle Ref(64, D, /*IsSigned=*/false);
  const UnsignedDivider<uint64_t> GM(D);
  const FastModDivider<uint64_t> FM(D);
  const RoundUpDivider<uint64_t> RU(D);
  const NarrowDivider<uint64_t> Nar(D);
  std::vector<uint64_t> Dividends = {0, 1, D - 1, D, D + 1,
                                     ~uint64_t{0} - 1, ~uint64_t{0},
                                     uint64_t{1} << 63};
  for (int I = 0; I < 200; ++I)
    Dividends.push_back(rng()());
  for (uint64_t N : Dividends) {
    const verify::DivRef R = Ref.ref(N);
    ASSERT_EQ(GM.divide(N), R.TruncQ) << "gm, n=" << N;
    ASSERT_EQ(FM.divide(N), R.TruncQ) << "fastmod, n=" << N;
    ASSERT_EQ(FM.remainder(N), R.TruncR) << "fastmod rem, n=" << N;
    ASSERT_EQ(FM.isDivisible(N), R.Divisible) << "fastmod divis, n=" << N;
    ASSERT_EQ(RU.divide(N), R.TruncQ) << RU.describe() << ", n=" << N;
    ASSERT_EQ(RU.remainder(N), R.TruncR) << "roundup rem, n=" << N;
    ASSERT_EQ(Nar.divide(N), R.TruncQ) << "narrow, n=" << N;
    ASSERT_EQ(Nar.remainder(N), R.TruncR) << "narrow rem, n=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGallery, Unsigned64DivisorMatrix,
    ::testing::Values(uint64_t{1}, uint64_t{3}, uint64_t{7}, uint64_t{10},
                      uint64_t{274177}, uint64_t{1} << 32,
                      (uint64_t{1} << 32) + 1, (uint64_t{1} << 63) - 1,
                      uint64_t{1} << 63, (uint64_t{1} << 63) + 1,
                      ~uint64_t{0} - 1, ~uint64_t{0}));

} // namespace
