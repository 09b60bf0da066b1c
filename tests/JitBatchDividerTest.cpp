//===- tests/JitBatchDividerTest.cpp - Batch divider under the JIT name ---===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JitBatchDivider, a shim over batch::BatchDivider, against the
/// static batch kernels and native arithmetic: the dispatch matrix
/// (lane type x divisor x count, including empty and ragged batches),
/// narrow lane types, exact aliasing and the backend name.
///
//===----------------------------------------------------------------------===//

#include "jit/JitBatchDivider.h"

#include "batch/BatchDivider.h"
#include "jit/JitCache.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <type_traits>
#include <vector>

using namespace gmdiv;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x2545f4914f6cdd1dull);
  return Generator;
}

/// Dividend buffer with the corner values pinned up front and random
/// fill behind, sized to leave a ragged tail on every vector width.
template <typename T> std::vector<T> dividends(T D, size_t Count) {
  using UT = std::make_unsigned_t<T>; // 2d wraps without signed overflow.
  std::vector<T> In(Count);
  for (T &Value : In)
    Value = static_cast<T>(rng()());
  const T Corners[] = {T(0), T(1), std::numeric_limits<T>::max(),
                       std::numeric_limits<T>::min(), D,
                       static_cast<T>(static_cast<UT>(D) * 2u)};
  for (size_t I = 0; I < sizeof(Corners) / sizeof(Corners[0]) && I < Count;
       ++I)
    In[I] = Corners[I];
  return In;
}

/// One (divisor, count) cell of the dispatch matrix: every public
/// operation against both the static kernels and a native-arithmetic
/// reference.
template <typename T> void checkCell(T D, size_t Count) {
  const jit::JitBatchDivider<T> Jit(D);
  const batch::BatchDivider<T> Static(D);
  EXPECT_EQ(Jit.divisor(), D);
  EXPECT_FALSE(Jit.usesJit());

  const std::vector<T> In = dividends(D, Count);
  std::vector<T> QJ(Count), RJ(Count), QS(Count), RS(Count);

  Jit.divRem(In.data(), QJ.data(), RJ.data(), Count);
  Static.divRem(In.data(), QS.data(), RS.data(), Count);
  for (size_t I = 0; I < Count; ++I) {
    ASSERT_EQ(QJ[I], QS[I]) << "divRem quot d=" << +D << " i=" << I;
    ASSERT_EQ(RJ[I], RS[I]) << "divRem rem d=" << +D << " i=" << I;
    // Native check, skipping the one UB cell (INT_MIN / -1 wraps in
    // both implementations, by the Oracle's overflow policy).
    if (std::is_signed<T>::value && D == static_cast<T>(-1) &&
        In[I] == std::numeric_limits<T>::min())
      continue;
    ASSERT_EQ(QJ[I], static_cast<T>(In[I] / D)) << "d=" << +D << " i=" << I;
    ASSERT_EQ(RJ[I], static_cast<T>(In[I] % D)) << "d=" << +D << " i=" << I;
  }

  Jit.divide(In.data(), QJ.data(), Count);
  Static.divide(In.data(), QS.data(), Count);
  ASSERT_EQ(QJ, QS) << "divide d=" << +D << " count=" << Count;

  Jit.remainder(In.data(), RJ.data(), Count);
  Static.remainder(In.data(), RS.data(), Count);
  ASSERT_EQ(RJ, RS) << "remainder d=" << +D << " count=" << Count;
}

// Counts straddle the vector geometry: below one vector (pure tail),
// whole vectors, and ragged sizes around both.
constexpr size_t Counts[] = {0, 1, 3, 7, 15, 16, 31, 32, 63, 64, 257, 1000};

TEST(JitBatchDivider, DispatchMatrixU32) {
  for (uint32_t D : {1u, 2u, 3u, 7u, 10u, 641u, 6700417u, 0x80000000u,
                     0xffffffffu})
    for (size_t Count : Counts)
      checkCell<uint32_t>(D, Count);
}

TEST(JitBatchDivider, DispatchMatrixI32) {
  for (int32_t D : {1, -1, 3, -3, 7, -7, 10, 641, INT32_MAX, INT32_MIN})
    for (size_t Count : Counts)
      checkCell<int32_t>(D, Count);
}

TEST(JitBatchDivider, DispatchMatrixU64) {
  for (uint64_t D : {uint64_t{1}, uint64_t{3}, uint64_t{7}, uint64_t{10},
                     uint64_t{1} << 32, uint64_t{0x100000001},
                     ~uint64_t{0}})
    for (size_t Count : Counts)
      checkCell<uint64_t>(D, Count);
}

TEST(JitBatchDivider, DispatchMatrixI64) {
  for (int64_t D : {int64_t{1}, int64_t{-1}, int64_t{7}, int64_t{-10},
                    int64_t{INT64_MAX}, int64_t{INT64_MIN}})
    for (size_t Count : Counts)
      checkCell<int64_t>(D, Count);
}

TEST(JitBatchDivider, NarrowLaneTypesDelegateWholesale) {
  for (size_t Count : Counts)
    checkCell<uint16_t>(uint16_t{641}, Count);
  for (size_t Count : Counts)
    checkCell<int8_t>(int8_t{-7}, Count);
}

TEST(JitBatchDivider, BackendNameMatchesPath) {
  // Every call runs the batch kernels, so backend() names the batch
  // backend, with or without a CodeCache argument, and the cache stays
  // empty.
  jit::CodeCache Cache(4, 64);
  const jit::JitBatchDivider<uint32_t> Div(7), Cached(7, Cache);
  const batch::BatchDivider<uint32_t> Static(7);
  EXPECT_STREQ(Div.backend(), batch::backendName(Static.backend()));
  EXPECT_STREQ(Cached.backend(), Div.backend());
  EXPECT_FALSE(Cached.usesJit());
  EXPECT_EQ(Cache.stats().Inserts, 0u);
}

TEST(JitBatchDivider, ExactAliasingInPlace) {
  // In == Out exact aliasing is part of the contract (same as the
  // static kernels).
  const uint32_t D = 10;
  const jit::JitBatchDivider<uint32_t> Jit(D);
  std::vector<uint32_t> Buf = dividends<uint32_t>(D, 1000);
  const std::vector<uint32_t> Orig = Buf;
  Jit.divide(Buf.data(), Buf.data(), Buf.size());
  for (size_t I = 0; I < Buf.size(); ++I)
    ASSERT_EQ(Buf[I], Orig[I] / D) << "i=" << I;
}

} // namespace
