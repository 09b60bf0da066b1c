//===- tests/JitBatchDividerTest.cpp - Jitted vector-loop front end -------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JitBatchDivider against the static batch kernels and native
/// arithmetic: the dispatch matrix (lane type x divisor x count,
/// including sub-vector batches and ragged tails), the total-fallback
/// contract on narrow lane types, exact aliasing, and the code-cache
/// property the header promises — constructing a second divider for the
/// same divisor maps no new executable memory.
///
/// Every test also runs meaningfully with the jit off (GMDIV_NO_JIT=1
/// or GMDIV_JIT_VECTOR=0 CI legs): the differential checks then prove
/// the fallback path is bit-for-bit the static kernels, and the
/// jit-specific assertions gate on vectorJitIsa(). The oracle-backed
/// sweeps (exhaustive N = 4..12, fuzzing at 16/32/64) run under
/// verify/ as the jit-batch-* properties.
///
//===----------------------------------------------------------------------===//

#include "jit/JitBatchDivider.h"

#include "batch/BatchDivider.h"
#include "core/Divider.h"
#include "ir/Builder.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

using namespace gmdiv;

namespace {

std::mt19937_64 &rng() {
  static std::mt19937_64 Generator(0x2545f4914f6cdd1dull);
  return Generator;
}

/// Whether this lane type should end up on the jitted path in this
/// process (narrower lanes always fall back; wider ones follow the
/// GMDIV_NO_JIT / GMDIV_JIT_VECTOR / CPUID gate).
template <typename T> bool expectJitted() {
  jit::VectorIsa Isa;
  return sizeof(T) >= 4 && jit::vectorJitIsa(Isa);
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
  EXPECT_EQ(Jit.usesJit(), expectJitted<T>()) << Jit.describe();

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

/// The §9 filter cell, unsigned lane types only.
template <typename T> void checkDivisibleCell(T D, size_t Count) {
  const jit::JitBatchDivider<T> Jit(D);
  const batch::BatchDivider<T> Static(D);
  const std::vector<T> In = dividends(D, Count);
  std::vector<uint8_t> FJ(Count, 0xaa), FS(Count, 0x55);
  Jit.divisible(In.data(), FJ.data(), Count);
  Static.divisible(In.data(), FS.data(), Count);
  for (size_t I = 0; I < Count; ++I) {
    ASSERT_EQ(FJ[I], FS[I]) << "divisible d=" << +D << " i=" << I;
    ASSERT_EQ(FJ[I], In[I] % D == 0 ? 1 : 0) << "d=" << +D << " i=" << I;
  }
}

// Counts straddle the vector geometry: below one vector (pure tail),
// exactly one unrolled stride, and ragged sizes around both.
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

TEST(JitBatchDivider, DivisibleMatrix) {
  for (uint32_t D : {1u, 3u, 7u, 10u, 641u, 0x80000000u})
    for (size_t Count : Counts)
      checkDivisibleCell<uint32_t>(D, Count);
  for (uint64_t D : {uint64_t{7}, uint64_t{10}, uint64_t{0x100000001}})
    for (size_t Count : Counts)
      checkDivisibleCell<uint64_t>(D, Count);
}

/// SltU/SltS vector loops against the interpreter on every ISA this
/// host can run, both operand orders, narrow and full widths. AVX2
/// compares with vpcmpgt; AVX-512 compares into k1 and widens it back
/// with vpmovm2d/q. The divider front ends reach only SltU (the §9
/// filter), so this is the one place SltS loops run.
TEST(JitBatchDivider, CompareLoopsMatchInterpreterOnEveryIsa) {
  for (jit::VectorIsa Isa : {jit::VectorIsa::Avx2, jit::VectorIsa::Avx512}) {
    if (!jit::enabled() || !jit::vectorHostSupported(Isa))
      continue;
    for (int W : {8, 13, 32, 64}) {
      const uint64_t Mask = W == 64 ? ~uint64_t{0} : (uint64_t{1} << W) - 1;
      const uint64_t SignBit = uint64_t{1} << (W - 1);
      for (uint64_t C :
           {uint64_t{1}, SignBit - 1, SignBit, Mask, uint64_t{0x5A} & Mask}) {
        ir::Builder B(W, 1);
        const int N0 = B.arg(0);
        const int K = B.constant(C);
        B.markResult(B.sltU(N0, K), "n <u c");
        B.markResult(B.sltS(K, N0), "c <s n");
        const ir::Program P = jit::prepareForJit(B.take());
        jit::VectorEmitOptions Opts;
        Opts.Isa = Isa;
        std::string Error;
        const auto Loop = jit::compileVectorLoop(P, Opts, {}, &Error);
        ASSERT_TRUE(Loop) << jit::vectorIsaName(Isa) << " W=" << W << ": "
                          << Error;

        std::vector<uint64_t> Ns = {0, 1, C, (C + 1) & Mask, (C - 1) & Mask,
                                    SignBit - 1, SignBit, Mask};
        const size_t Lanes = static_cast<size_t>(Loop->vectorShape().Lanes);
        while (Ns.size() % Lanes || Ns.size() < 4 * Lanes)
          Ns.push_back(rng()() & Mask);
        const auto Check = [&](auto Zero) {
          using Elem = decltype(Zero);
          std::vector<Elem> In(Ns.begin(), Ns.end()), Lt(Ns.size()),
              Gt(Ns.size());
          ASSERT_EQ(Loop->batchFn()(In.data(), Lt.data(), Gt.data(),
                                    In.size()),
                    In.size());
          for (size_t I = 0; I < Ns.size(); ++I) {
            const std::vector<uint64_t> Want = ir::run(P, {Ns[I]});
            ASSERT_EQ(Lt[I], Want[0]) << jit::vectorIsaName(Isa) << " W="
                                      << W << " c=" << C << " n=" << Ns[I];
            ASSERT_EQ(Gt[I], Want[1]) << jit::vectorIsaName(Isa) << " W="
                                      << W << " c=" << C << " n=" << Ns[I];
          }
        };
        if (W == 64)
          Check(uint64_t{0});
        else
          Check(uint32_t{0});
      }
    }
  }
}

TEST(JitBatchDivider, NarrowLaneTypesDelegateWholesale) {
  // 8/16-bit lanes have no 8/16-bit vector containers in the emitter;
  // the divider must be a transparent shim over the static kernels.
  const jit::JitBatchDivider<uint16_t> U16(7);
  EXPECT_FALSE(U16.usesJit());
  EXPECT_EQ(U16.lanes(), 0u);
  EXPECT_EQ(U16.compiledDivide(), nullptr);
  EXPECT_STREQ(U16.backend(), batch::backendName(U16.fallback().backend()));
  for (size_t Count : Counts)
    checkCell<uint16_t>(uint16_t{641}, Count);
  for (size_t Count : Counts)
    checkCell<int8_t>(int8_t{-7}, Count);
}

TEST(JitBatchDivider, BackendNameMatchesPath) {
  const jit::JitBatchDivider<uint32_t> Div(7);
  if (Div.usesJit()) {
    EXPECT_TRUE(std::string(Div.backend()).rfind("jit-", 0) == 0)
        << Div.backend();
    EXPECT_GT(Div.lanes(), 0u);
    EXPECT_NE(Div.compiledDivide(), nullptr);
    EXPECT_TRUE(Div.compiledDivide()->isVectorLoop());
  } else {
    EXPECT_EQ(Div.lanes(), 0u);
    EXPECT_EQ(Div.compiledDivide(), nullptr);
  }
  // describe() names the divisor and the backend either way.
  EXPECT_NE(Div.describe().find("n/u7"), std::string::npos)
      << Div.describe();
  EXPECT_NE(Div.describe().find(Div.backend()), std::string::npos)
      << Div.describe();
}

TEST(JitBatchDivider, ExactAliasingInPlace) {
  // In == Out exact aliasing is part of the contract (same as the
  // static kernels); the loop loads before it stores.
  const uint32_t D = 10;
  const jit::JitBatchDivider<uint32_t> Jit(D);
  std::vector<uint32_t> Buf = dividends<uint32_t>(D, 1000);
  const std::vector<uint32_t> Orig = Buf;
  Jit.divide(Buf.data(), Buf.data(), Buf.size());
  for (size_t I = 0; I < Buf.size(); ++I)
    ASSERT_EQ(Buf[I], Orig[I] / D) << "i=" << I;
}

TEST(JitBatchDivider, SecondConstructionIsAllCacheHits) {
  jit::VectorIsa Isa;
  if (!jit::vectorJitIsa(Isa))
    GTEST_SKIP() << "vector jit unavailable on this host/config";

  // A private cache isolates the counters from every other test.
  jit::CodeCache Cache(4, 64);
  const jit::JitBatchDivider<uint32_t> First(1234567, Cache);
  ASSERT_TRUE(First.usesJit());
  const cache::CacheStats After1 = Cache.formStats(cache::KernelForm::Vector);
  // div + rem + divRem + divisible, every one a fresh compile.
  EXPECT_EQ(After1.Misses, After1.Inserts);
  EXPECT_GE(After1.Inserts, 3u);
  EXPECT_EQ(After1.Hits, 0u);

  const jit::JitBatchDivider<uint32_t> Second(1234567, Cache);
  EXPECT_TRUE(Second.usesJit());
  const cache::CacheStats After2 = Cache.formStats(cache::KernelForm::Vector);
  // The headline property: no new compiles, no new executable mappings.
  EXPECT_EQ(After2.Inserts, After1.Inserts);
  EXPECT_EQ(After2.Misses, After1.Misses);
  EXPECT_EQ(After2.Hits, After1.Misses);
  // Same code, not merely equivalent code.
  EXPECT_EQ(Second.compiledDivide(), First.compiledDivide());

  // The scalar form's counters never moved: the two forms are split.
  const cache::CacheStats Scalar = Cache.formStats(cache::KernelForm::Scalar);
  EXPECT_EQ(Scalar.Hits + Scalar.Misses + Scalar.Inserts, 0u);
}

TEST(JitBatchDivider, SignedFloorCeilRouteToStaticKernels) {
  const jit::JitBatchDivider<int32_t> Jit(-7);
  const batch::BatchDivider<int32_t> Static(-7);
  const std::vector<int32_t> In = dividends<int32_t>(-7, 333);
  std::vector<int32_t> OutJ(In.size()), OutS(In.size());
  Jit.floorDivide(In.data(), OutJ.data(), In.size());
  Static.floorDivide(In.data(), OutS.data(), In.size());
  EXPECT_EQ(OutJ, OutS);
  Jit.ceilDivide(In.data(), OutJ.data(), In.size());
  Static.ceilDivide(In.data(), OutS.data(), In.size());
  EXPECT_EQ(OutJ, OutS);
}

} // namespace
