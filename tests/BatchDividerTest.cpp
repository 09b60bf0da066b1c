//===- tests/BatchDividerTest.cpp - Batch kernel correctness --------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Every compiled-in backend must agree bit-for-bit with the scalar
// dividers of core/Divider.h: exhaustively over the whole (n, d) space
// for 8-bit lanes, and over randomized + adversarial edge vectors for
// 16/32/64-bit lanes. The buffer sizes are deliberately not multiples
// of any vector width so the SIMD tails execute too, and one sweep runs
// every length 0..67, at offsets 0 and 1, so every tail length does.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"

#include "arch/Arch.h"
#include "arch/CostModel.h"
#include "core/ChooseMultiplier.h"
#include "core/Divider.h"
#include "core/ExactDiv.h"
#include "telemetry/Remarks.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::batch;

namespace {

std::vector<Backend> availableBackends() {
  std::vector<Backend> Result;
  for (Backend B : compiledBackends())
    if (backendAvailable(B))
      Result.push_back(B);
  return Result;
}

/// Deterministic xorshift; seeds the randomized vectors.
uint64_t nextRand(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

/// Dividend vector: every edge value, then deterministic randoms, with
/// a length (1031, prime) that leaves a tail on every vector width.
template <typename T> std::vector<T> makeInputs() {
  std::vector<T> In = {T(0), T(1), T(2), T(3),
                       std::numeric_limits<T>::max(),
                       T(std::numeric_limits<T>::max() - 1),
                       std::numeric_limits<T>::min(),
                       T(std::numeric_limits<T>::min() + 1),
                       T(std::numeric_limits<T>::max() / 2),
                       T(std::numeric_limits<T>::max() / 2 + 1)};
  // Unsigned arithmetic: P - 1 and -P wrap at the signed minimum.
  using U = std::make_unsigned_t<T>;
  for (int Bit = 0; Bit < static_cast<int>(sizeof(T) * 8); ++Bit) {
    const U P = static_cast<U>(U(1) << Bit);
    In.push_back(static_cast<T>(P));
    In.push_back(static_cast<T>(P - 1));
    In.push_back(static_cast<T>(U(0) - P));
  }
  uint64_t Seed = 0x9E3779B97F4A7C15ull ^ (sizeof(T) * 8);
  while (In.size() < 1031)
    In.push_back(static_cast<T>(nextRand(Seed)));
  return In;
}

/// Divisors: small, power-of-two, near-max, and (signed) negative and
/// minimum values — every special case of Figures 4.2/5.2. Unsigned,
/// they give every batch shape (7 long, 10 fits, 14 pre-shift), and the
/// even and odd d just above Max/2 + 1 have l = N, where 2^l is not a
/// word. The 64-bit extras sit on both sides of d = 2^32, where the
/// remainder's q·d switches between its two-product forms.
template <typename T> std::vector<T> makeDivisors() {
  constexpr T Max = std::numeric_limits<T>::max();
  std::vector<T> Ds = {T(1), T(2), T(3), T(5), T(7), T(10), T(11), T(14),
                       T(25), T(60), T(100), T(125), Max, T(Max - 1),
                       T(Max - 2), T(Max / 2), T(Max / 2 + 1), T(Max / 2 + 2),
                       T(Max / 2 + 3), T(Max / 2 + 4)};
  for (int Bit = 1; Bit < static_cast<int>(sizeof(T) * 8) - 1; ++Bit)
    Ds.push_back(static_cast<T>(typename std::make_unsigned<T>::type(1)
                                << Bit));
  if constexpr (sizeof(T) == 8)
    for (uint64_t D : {0xFFFFFFFFull, 0x100000001ull, 0xFFFFFFFEull,
                       0x1FFFFFFFEull, 0x300000000ull})
      Ds.push_back(static_cast<T>(D));
  if constexpr (std::is_signed_v<T>) {
    const size_t Positive = Ds.size();
    for (size_t I = 0; I < Positive; ++I)
      Ds.push_back(static_cast<T>(T(0) - Ds[I]));
    Ds.push_back(std::numeric_limits<T>::min()); // -2^(N-1).
  }
  std::sort(Ds.begin(), Ds.end());
  Ds.erase(std::unique(Ds.begin(), Ds.end()), Ds.end());
  Ds.erase(std::remove(Ds.begin(), Ds.end(), T(0)), Ds.end());
  return Ds;
}

//===----------------------------------------------------------------------===//
// Reference comparisons for one (divisor, backend) pair
//===----------------------------------------------------------------------===//

template <typename T>
void checkUnsigned(T D, Backend B, const std::vector<T> &In) {
  const BatchDivider<T> Batch(D, B);
  ASSERT_EQ(Batch.backend(), B) << Batch.describe();
  const UnsignedDivider<T> Ref(D);
  const size_t N = In.size();
  std::vector<T> Quot(N), Rem(N), Quot2(N), Rem2(N);
  std::vector<uint8_t> Div(N);

  Batch.divide(In.data(), Quot.data(), N);
  Batch.remainder(In.data(), Rem.data(), N);
  Batch.divRem(In.data(), Quot2.data(), Rem2.data(), N);
  Batch.divisible(In.data(), Div.data(), N);
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(Quot[I], Ref.divide(In[I]))
        << "divide n=" << uint64_t(In[I]) << " " << Batch.describe();
    ASSERT_EQ(Rem[I], Ref.remainder(In[I]))
        << "remainder n=" << uint64_t(In[I]) << " " << Batch.describe();
    ASSERT_EQ(Quot2[I], Quot[I]) << Batch.describe();
    ASSERT_EQ(Rem2[I], Rem[I]) << Batch.describe();
    ASSERT_EQ(Div[I], (In[I] % D) == 0 ? 1 : 0)
        << "divisible n=" << uint64_t(In[I]) << " " << Batch.describe();
  }

  // In-place (exact aliasing) must work too.
  std::vector<T> Alias = In;
  Batch.divide(Alias.data(), Alias.data(), N);
  ASSERT_EQ(Alias, Quot) << Batch.describe();
}

template <typename T>
void checkSigned(T D, Backend B, const std::vector<T> &In) {
  const BatchDivider<T> Batch(D, B);
  ASSERT_EQ(Batch.backend(), B) << Batch.describe();
  const SignedDivider<T> Ref(D);
  const FloorDivider<T> FloorRef(D);
  const CeilDivider<T> CeilRef(D);
  const size_t N = In.size();
  std::vector<T> Quot(N), Rem(N), Quot2(N), Rem2(N), Floor(N), Ceil(N);

  Batch.divide(In.data(), Quot.data(), N);
  Batch.remainder(In.data(), Rem.data(), N);
  Batch.divRem(In.data(), Quot2.data(), Rem2.data(), N);
  Batch.floorDivide(In.data(), Floor.data(), N);
  Batch.ceilDivide(In.data(), Ceil.data(), N);
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(Quot[I], Ref.divide(In[I]))
        << "divide n=" << int64_t(In[I]) << " " << Batch.describe();
    ASSERT_EQ(Rem[I], Ref.remainder(In[I]))
        << "remainder n=" << int64_t(In[I]) << " " << Batch.describe();
    ASSERT_EQ(Quot2[I], Quot[I]) << Batch.describe();
    ASSERT_EQ(Rem2[I], Rem[I]) << Batch.describe();
    ASSERT_EQ(Floor[I], FloorRef.divide(In[I]))
        << "floor n=" << int64_t(In[I]) << " " << Batch.describe();
    ASSERT_EQ(Ceil[I], CeilRef.divide(In[I]))
        << "ceil n=" << int64_t(In[I]) << " " << Batch.describe();
  }
}

//===----------------------------------------------------------------------===//
// Exhaustive 8-bit matrices: every (n, d), every backend
//===----------------------------------------------------------------------===//

TEST(BatchDivider, ExhaustiveUnsigned8AllBackends) {
  std::vector<uint8_t> In(256);
  for (int N0 = 0; N0 < 256; ++N0)
    In[size_t(N0)] = static_cast<uint8_t>(N0);
  for (Backend B : availableBackends())
    for (int D = 1; D < 256; ++D)
      checkUnsigned<uint8_t>(static_cast<uint8_t>(D), B, In);
}

TEST(BatchDivider, ExhaustiveSigned8AllBackends) {
  std::vector<int8_t> In(256);
  for (int N0 = -128; N0 < 128; ++N0)
    In[size_t(N0 + 128)] = static_cast<int8_t>(N0);
  for (Backend B : availableBackends())
    for (int D = -128; D < 128; ++D) {
      if (D == 0)
        continue;
      checkSigned<int8_t>(static_cast<int8_t>(D), B, In);
    }
}

//===----------------------------------------------------------------------===//
// Randomized + edge vectors for the wider lanes
//===----------------------------------------------------------------------===//

template <typename T> void runUnsignedSweep() {
  const std::vector<T> In = makeInputs<T>();
  for (Backend B : availableBackends())
    for (T D : makeDivisors<T>())
      checkUnsigned<T>(D, B, In);
}

template <typename T> void runSignedSweep() {
  const std::vector<T> In = makeInputs<T>();
  for (Backend B : availableBackends())
    for (T D : makeDivisors<T>())
      checkSigned<T>(D, B, In);
}

TEST(BatchDivider, Unsigned16Sweep) { runUnsignedSweep<uint16_t>(); }
TEST(BatchDivider, Unsigned32Sweep) { runUnsignedSweep<uint32_t>(); }
TEST(BatchDivider, Unsigned64Sweep) { runUnsignedSweep<uint64_t>(); }
TEST(BatchDivider, Signed16Sweep) { runSignedSweep<int16_t>(); }
TEST(BatchDivider, Signed32Sweep) { runSignedSweep<int32_t>(); }
TEST(BatchDivider, Signed64Sweep) { runSignedSweep<int64_t>(); }

// Exhaustive 16-bit dividends for a handful of divisors covering each
// Figure 4.1/5.1 shape (d=1, even, odd, pow2, near-max, negatives).
TEST(BatchDivider, Exhaustive16Dividends) {
  std::vector<uint16_t> UIn(65536);
  for (uint32_t N0 = 0; N0 < 65536; ++N0)
    UIn[N0] = static_cast<uint16_t>(N0);
  std::vector<int16_t> SIn(65536);
  std::memcpy(SIn.data(), UIn.data(), UIn.size() * sizeof(uint16_t));
  for (Backend B : availableBackends()) {
    for (uint16_t D : {1, 2, 7, 10, 641, 32768, 65535})
      checkUnsigned<uint16_t>(D, B, UIn);
    for (int D : {1, -1, 7, -7, 10, 641, -32768, 32767})
      checkSigned<int16_t>(static_cast<int16_t>(D), B, SIn);
  }
}

//===----------------------------------------------------------------------===//
// Dispatch: scalar and SIMD backends agree bit-for-bit
//===----------------------------------------------------------------------===//

/// Longest array the tail sweep runs: past two full AVX2 vectors of
/// 8-bit lanes, so every tail length on every vector width occurs.
constexpr size_t MaxTailSweepLength = 67;

/// Every available backend, pinned, over every length 0..67 at input
/// and output offsets 0 and 1: each operation must match the reference
/// element by element (hardware / and % for unsigned lanes, the core
/// dividers for signed ones) and must not write outside its lanes.
template <typename T> void checkBackendsMatchScalar() {
  constexpr T Canary = T(0x5A);
  const std::vector<T> Inputs = makeInputs<T>();
  for (T D : makeDivisors<T>()) {
    for (Backend B : availableBackends()) {
      const BatchDivider<T> Batch(D, B);
      ASSERT_EQ(Batch.backend(), B) << Batch.describe();
      for (size_t Off : {size_t{0}, size_t{1}})
        for (size_t Len = 0; Len <= MaxTailSweepLength; ++Len) {
          // Only evaluated when an assertion fails.
          const auto Where = [&](size_t I) {
            return "off=" + std::to_string(Off) +
                   " len=" + std::to_string(Len) + " i=" + std::to_string(I) +
                   " " + Batch.describe();
          };
          // Output buffers hold Len lanes at Off, between canaries.
          const auto Buffer = [&] {
            return std::vector<T>(Off + Len + 1, Canary);
          };
          const auto CanariesHold = [&](const auto &Out, auto Mark) {
            return Out[Off + Len] == Mark && (Off == 0 || Out[0] == Mark);
          };
          // A different window of the edge values and randoms per length.
          const T *In = Inputs.data() + Len * 14 + Off;
          std::vector<T> Quot = Buffer(), Rem = Buffer(), Quot2 = Buffer(),
                         Rem2 = Buffer();
          Batch.divide(In, Quot.data() + Off, Len);
          Batch.remainder(In, Rem.data() + Off, Len);
          Batch.divRem(In, Quot2.data() + Off, Rem2.data() + Off, Len);
          for (const std::vector<T> *Out : {&Quot, &Rem, &Quot2, &Rem2})
            ASSERT_TRUE(CanariesHold(*Out, Canary)) << Where(Len);
          if constexpr (std::is_signed_v<T>) {
            const SignedDivider<T> Ref(D);
            const FloorDivider<T> FloorRef(D);
            const CeilDivider<T> CeilRef(D);
            std::vector<T> Floor = Buffer(), Ceil = Buffer();
            Batch.floorDivide(In, Floor.data() + Off, Len);
            Batch.ceilDivide(In, Ceil.data() + Off, Len);
            ASSERT_TRUE(CanariesHold(Floor, Canary)) << Where(Len);
            ASSERT_TRUE(CanariesHold(Ceil, Canary)) << Where(Len);
            for (size_t I = 0; I < Len; ++I) {
              const auto [Q, R] = Ref.divRem(In[I]);
              ASSERT_EQ(Quot[Off + I], Q) << "divide " << Where(I);
              ASSERT_EQ(Rem[Off + I], R) << "remainder " << Where(I);
              ASSERT_EQ(Quot2[Off + I], Q) << "divRem " << Where(I);
              ASSERT_EQ(Rem2[Off + I], R) << "divRem " << Where(I);
              ASSERT_EQ(Floor[Off + I], FloorRef.divide(In[I]))
                  << "floor " << Where(I);
              ASSERT_EQ(Ceil[Off + I], CeilRef.divide(In[I]))
                  << "ceil " << Where(I);
            }
          } else {
            const ExactUnsignedDivider<T> ExactRef(D);
            std::vector<uint8_t> Div(Off + Len + 1, 0xA5);
            Batch.divisible(In, Div.data() + Off, Len);
            ASSERT_TRUE(CanariesHold(Div, uint8_t{0xA5})) << Where(Len);
            for (size_t I = 0; I < Len; ++I) {
              const T Q = static_cast<T>(In[I] / D);
              const T R = static_cast<T>(In[I] % D);
              ASSERT_EQ(Quot[Off + I], Q) << "divide " << Where(I);
              ASSERT_EQ(Rem[Off + I], R) << "remainder " << Where(I);
              ASSERT_EQ(Quot2[Off + I], Q) << "divRem " << Where(I);
              ASSERT_EQ(Rem2[Off + I], R) << "divRem " << Where(I);
              ASSERT_EQ(Div[Off + I], ExactRef.isDivisible(In[I]) ? 1 : 0)
                  << "divisible " << Where(I);
            }
          }
        }
    }
  }
}

TEST(BatchDispatch, AllBackendsMatchScalarBitForBit) {
  checkBackendsMatchScalar<uint8_t>();
  checkBackendsMatchScalar<uint16_t>();
  checkBackendsMatchScalar<uint32_t>();
  checkBackendsMatchScalar<uint64_t>();
  checkBackendsMatchScalar<int8_t>();
  checkBackendsMatchScalar<int16_t>();
  checkBackendsMatchScalar<int32_t>();
  checkBackendsMatchScalar<int64_t>();
}

TEST(BatchDispatch, ActiveBackendIsAvailable) {
  const Backend B = activeBackend();
  EXPECT_TRUE(backendAvailable(B)) << backendName(B);
  const std::vector<Backend> Compiled = compiledBackends();
  EXPECT_NE(std::find(Compiled.begin(), Compiled.end(), B), Compiled.end());
  // Scalar is always first in the compiled list and always available.
  ASSERT_FALSE(Compiled.empty());
  EXPECT_EQ(Compiled.front(), Backend::Scalar);
  EXPECT_TRUE(backendAvailable(Backend::Scalar));
}

TEST(BatchDispatch, PinningUnavailableBackendFallsBackToScalar) {
  // NEON has no kernels in any build, so it is never available.
  ASSERT_FALSE(backendAvailable(Backend::NEON));
  const BatchDivider<uint32_t> Div(7, Backend::NEON);
  EXPECT_EQ(Div.backend(), Backend::Scalar);
  uint32_t In = 63, Out = 0;
  Div.divide(&In, &Out, 1);
  EXPECT_EQ(Out, 9u);
}

TEST(BatchDispatch, BackendNamesAreStable) {
  EXPECT_STREQ(backendName(Backend::Scalar), "scalar");
  EXPECT_STREQ(backendName(Backend::SSE2), "sse2");
  EXPECT_STREQ(backendName(Backend::AVX2), "avx2");
  EXPECT_STREQ(backendName(Backend::NEON), "neon");
}

/// scalar() must be the same Figure 4.1/5.1 state a freshly built core
/// divider computes, on every backend the divisor is pinned to.
template <typename T> void checkScalarIsCoreDivider() {
  for (T D : makeDivisors<T>())
    for (Backend B : availableBackends()) {
      const BatchDivider<T> Batch(D, B);
      const auto &Core = Batch.scalar();
      EXPECT_EQ(Core.divisor(), D) << Batch.describe();
      if constexpr (std::is_signed_v<T>) {
        const SignedDivider<T> Fresh(D);
        EXPECT_EQ(Core.magic(), Fresh.magic()) << Batch.describe();
        EXPECT_EQ(Core.postShift(), Fresh.postShift()) << Batch.describe();
        EXPECT_EQ(Core.divisorSign(), Fresh.divisorSign())
            << Batch.describe();
      } else {
        const UnsignedDivider<T> Fresh(D);
        EXPECT_EQ(Core.magic(), Fresh.magic()) << Batch.describe();
        EXPECT_EQ(Core.preShift(), Fresh.preShift()) << Batch.describe();
        EXPECT_EQ(Core.postShift(), Fresh.postShift()) << Batch.describe();
      }
    }
}

TEST(BatchDivider, ScalarMatchesFreshCoreDivider) {
  checkScalarIsCoreDivider<uint8_t>();
  checkScalarIsCoreDivider<uint16_t>();
  checkScalarIsCoreDivider<uint32_t>();
  checkScalarIsCoreDivider<uint64_t>();
  checkScalarIsCoreDivider<int8_t>();
  checkScalarIsCoreDivider<int16_t>();
  checkScalarIsCoreDivider<int32_t>();
  checkScalarIsCoreDivider<int64_t>();
}

TEST(BatchDivider, DescribeMentionsBackendAndDivisor) {
  const BatchDivider<uint32_t> U(7, Backend::Scalar);
  EXPECT_NE(U.describe().find("u32 d=7"), std::string::npos);
  EXPECT_NE(U.describe().find("scalar"), std::string::npos);
  const BatchDivider<int32_t> S(-7, Backend::Scalar);
  EXPECT_NE(S.describe().find("i32 d=-7"), std::string::npos);
  // Unsigned lanes name their Figure 4.2 shape, and u64 its q·d form.
  const auto Text = [](auto D) {
    return BatchDivider<decltype(D)>(D, Backend::Scalar).describe();
  };
  EXPECT_NE(Text(uint32_t{10}).find("shape=fits m=0xcccccccd pre=0 post=3"),
            std::string::npos);
  EXPECT_NE(Text(uint32_t{14}).find("shape=pre-shift m=0x92492493 pre=1 "
                                    "post=2"),
            std::string::npos);
  EXPECT_NE(U.describe().find("shape=long"), std::string::npos);
  EXPECT_NE(Text(uint32_t{8}).find("shape=fits (power of two) m=0x20000000"),
            std::string::npos);
  EXPECT_EQ(U.describe().find("qd="), std::string::npos);
  EXPECT_NE(Text(uint64_t{7}).find("qd=2mul(d<2^32)"), std::string::npos);
  EXPECT_NE(Text(uint64_t{0x100000000ull}).find("qd=2mul(q<2^32)"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Figure 4.2 shapes: one loop per shape, picked once per divisor
//===----------------------------------------------------------------------===//

/// The shape and constants UnsignedBatchState derives from Figure 4.1's
/// m' must be what CHOOSE_MULTIPLIER (Figure 6.2) itself picks:
/// CHOOSE_MULTIPLIER(d, N) when that m < 2^N, else for even d
/// CHOOSE_MULTIPLIER(d >> e, N - e) with pre-shift e, else Figure 4.1.
template <typename T> void checkShapeIsFigure42(T D) {
  constexpr int N = static_cast<int>(sizeof(T) * 8);
  const UnsignedBatchState<T> S(D);
  const std::string Where = "d=" + std::to_string(uint64_t(D));
  if (D == 1) {
    EXPECT_EQ(S.Shape, UnsignedShape::Long) << Where;
  } else if (isPowerOf2(D)) {
    EXPECT_EQ(S.Shape, UnsignedShape::Fits) << Where;
    EXPECT_EQ(S.Magic, T(T(1) << (N - floorLog2(D)))) << Where;
    EXPECT_EQ(S.Pre, 0) << Where;
    EXPECT_EQ(S.Post, 0) << Where;
    return;
  } else if (const auto Info = chooseMultiplier<T>(D, N);
             Info.fitsInWord()) {
    EXPECT_EQ(S.Shape, UnsignedShape::Fits) << Where;
    EXPECT_EQ(S.Magic, Info.wordMultiplier()) << Where;
    EXPECT_EQ(S.Pre, 0) << Where;
    EXPECT_EQ(S.Post, Info.ShiftPost) << Where;
    return;
  } else if (D % 2 == 0) {
    const int E = countTrailingZeros(D);
    const auto Odd = chooseMultiplier<T>(T(D >> E), N - E);
    ASSERT_TRUE(Odd.fitsInWord()) << Where;
    EXPECT_EQ(S.Shape, UnsignedShape::PreShift) << Where;
    EXPECT_EQ(S.Magic, Odd.wordMultiplier()) << Where;
    EXPECT_EQ(S.Pre, E) << Where;
    EXPECT_EQ(S.Post, Odd.ShiftPost) << Where;
    return;
  }
  EXPECT_EQ(S.Shape, UnsignedShape::Long) << Where;
  EXPECT_EQ(S.Magic, S.Div.magic()) << Where;
  EXPECT_EQ(S.Pre, S.Div.preShift()) << Where;
  EXPECT_EQ(S.Post, S.Div.postShift()) << Where;
}

TEST(BatchShape, MatchesChooseMultiplierForEveryDivisor) {
  for (uint32_t D = 1; D < 256; ++D)
    checkShapeIsFigure42<uint8_t>(static_cast<uint8_t>(D));
  for (uint32_t D = 1; D < 65536; ++D)
    checkShapeIsFigure42<uint16_t>(static_cast<uint16_t>(D));
  uint64_t Seed = 0x2545F4914F6CDD1Dull;
  for (int I = 0; I < 20000; ++I) {
    const uint64_t R = nextRand(Seed);
    // Random magnitudes, so every l and every pre-shift e occurs.
    const uint64_t D64 = R >> (R % 64);
    const uint32_t D32 = static_cast<uint32_t>(R) >> (R % 32);
    if (D64 != 0)
      checkShapeIsFigure42<uint64_t>(D64);
    if (D32 != 0)
      checkShapeIsFigure42<uint32_t>(D32);
  }
  for (uint64_t D : makeDivisors<uint64_t>())
    checkShapeIsFigure42<uint64_t>(D);
  for (uint32_t D : makeDivisors<uint32_t>())
    checkShapeIsFigure42<uint32_t>(D);
}

/// One divisor pinned per shape at every unsigned width: 7 needs
/// Figure 4.1, 10's multiplier fits, 14 = 2 · 7 pre-shifts, and 8 is a
/// power of two. u64 remainders take q·d's cross term from q_hi·d_lo
/// below d = 2^32 and from q_lo·d_hi at and above it.
template <typename T> void checkPinnedShapes() {
  constexpr int N = static_cast<int>(sizeof(T) * 8);
  EXPECT_EQ(UnsignedBatchState<T>(7).Shape, UnsignedShape::Long) << N;
  EXPECT_EQ(UnsignedBatchState<T>(10).Shape, UnsignedShape::Fits) << N;
  EXPECT_EQ(UnsignedBatchState<T>(14).Shape, UnsignedShape::PreShift) << N;
  const UnsignedBatchState<T> Pow2(8);
  EXPECT_EQ(Pow2.Shape, UnsignedShape::Fits) << N;
  EXPECT_EQ(Pow2.Magic, T(T(1) << (N - 3))) << N;
  EXPECT_EQ(Pow2.Post, 0) << N;
  if constexpr (N == 64) {
    for (uint64_t D : {0xFFFFFFFFull, 0x100000000ull, 0x100000001ull}) {
      EXPECT_EQ(UnsignedBatchState<T>(D).CrossShift, D >> 32 == 0 ? 32 : 0)
          << D;
    }
  }
}

TEST(BatchShape, PinsOneDivisorPerShape) {
  checkPinnedShapes<uint8_t>();
  checkPinnedShapes<uint16_t>();
  checkPinnedShapes<uint32_t>();
  checkPinnedShapes<uint64_t>();
}

//===----------------------------------------------------------------------===//
// Telemetry: one "batch.backend" remark per selection
//===----------------------------------------------------------------------===//

TEST(BatchDispatch, SelectionEmitsBackendRemark) {
  telemetry::CollectingRemarkSink Sink;
  telemetry::ScopedRemarkSink Guard(&Sink);
  const BatchDivider<uint32_t> Div(7, Backend::Scalar);
  (void)Div;
  ASSERT_EQ(Sink.remarks().size(), 1u);
  const telemetry::Remark &R = Sink.remarks().front();
  EXPECT_EQ(R.Pass, "batch");
  EXPECT_EQ(R.Kind, "batch.backend");
  EXPECT_FALSE(R.HasDivisor);
  bool SawBackend = false;
  for (const auto &[Key, Value] : R.Details)
    if (Key == "backend") {
      SawBackend = true;
      EXPECT_EQ(Value, "scalar");
    }
  EXPECT_TRUE(SawBackend);
}

//===----------------------------------------------------------------------===//
// Cost model: scalar-vs-vector break-even
//===----------------------------------------------------------------------===//

TEST(BatchCostModel, VectorWinsOnWideVectorsAndLoses1Lane) {
  const arch::ArchProfile &P = arch::profileByName("PowerPC/MPC601");
  const arch::BatchCost C128 = arch::estimateBatchCost(32, P, 128);
  EXPECT_EQ(C128.Lanes, 4);
  EXPECT_GT(C128.speedup(), 1.0);
  EXPECT_GE(C128.breakEvenBatch(), 1u);
  // Amortizing one multiply over four lanes must beat one multiply per
  // element even with the even/odd emulation's second multiply.
  EXPECT_LT(C128.VectorCyclesPerElement, C128.ScalarCyclesPerElement);

  const arch::BatchCost C1 = arch::estimateBatchCost(32, P, 32);
  EXPECT_EQ(C1.Lanes, 1);
  EXPECT_EQ(C1.breakEvenBatch(), 0u); // Never beats itself.
  EXPECT_DOUBLE_EQ(C1.VectorCyclesPerElement, C1.ScalarCyclesPerElement);
}

TEST(BatchCostModel, SixteenBitLanesAmortizeBest) {
  // 16-bit lanes have a native vector mulhi (one multiply per 16
  // lanes on AVX2); 64-bit lanes need four multiplies for 4 lanes.
  const arch::ArchProfile &P = arch::profileByName("PowerPC/MPC601");
  const arch::BatchCost C16 = arch::estimateBatchCost(16, P, 256);
  const arch::BatchCost C64 = arch::estimateBatchCost(64, P, 256);
  EXPECT_GT(C16.speedup(), C64.speedup());
  EXPECT_GT(C16.Lanes, C64.Lanes);
}

} // namespace
