//===- tests/HistogramTest.cpp - Histograms vs. exact oracles -------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"
#include "telemetry/SampleStats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::telemetry;
using metrics::Histogram;

namespace {

/// Exact nearest-rank percentile over raw samples — the oracle the
/// bucketed histogram is checked against.
double oraclePercentile(std::vector<uint64_t> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  std::vector<double> Sorted(Samples.begin(), Samples.end());
  return percentileSorted(Sorted, P);
}

TEST(SampleStatsTest, MatchesHandComputedValues) {
  const SampleStats S = computeSampleStats({4, 1, 3, 2, 100});
  EXPECT_EQ(S.Count, 5u);
  EXPECT_DOUBLE_EQ(S.Min, 1);
  EXPECT_DOUBLE_EQ(S.Max, 100);
  EXPECT_DOUBLE_EQ(S.Median, 3);
  EXPECT_DOUBLE_EQ(S.Mean, 22);
  // Deviations from 3: {2, 1, 0, 1, 97} -> median 1.
  EXPECT_DOUBLE_EQ(S.Mad, 1);
  EXPECT_DOUBLE_EQ(S.Cv, 1.4826 * 1 / 3);
}

TEST(SampleStatsTest, EmptyAndSingleton) {
  EXPECT_EQ(computeSampleStats({}).Count, 0u);
  const SampleStats One = computeSampleStats({7});
  EXPECT_EQ(One.Count, 1u);
  EXPECT_DOUBLE_EQ(One.Median, 7);
  EXPECT_DOUBLE_EQ(One.Mad, 0);
  EXPECT_DOUBLE_EQ(One.Cv, 0);
}

TEST(SampleStatsTest, PercentileSortedNearestRank) {
  const std::vector<double> Sorted{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentileSorted(Sorted, 0), 10);
  EXPECT_DOUBLE_EQ(percentileSorted(Sorted, 100), 40);
  EXPECT_DOUBLE_EQ(percentileSorted(Sorted, 50), 20);
  EXPECT_DOUBLE_EQ(percentileSorted({}, 50), 0);
}

TEST(HistogramTest, BucketIndexIsMonotoneAndMidpointContained) {
  // Every bucket's midpoint must map back to that bucket, and indices
  // must be nondecreasing in the value.
  size_t Prev = 0;
  for (uint64_t V = 0; V < 4096; ++V) {
    const size_t Index = Histogram::bucketIndex(V);
    EXPECT_GE(Index, Prev) << "value " << V;
    EXPECT_LT(Index, Histogram::NumBuckets);
    Prev = Index;
  }
  for (const uint64_t V :
       {uint64_t{1} << 20, uint64_t{1} << 40, uint64_t{1} << 63,
        ~uint64_t{0}}) {
    const size_t Index = Histogram::bucketIndex(V);
    EXPECT_LT(Index, Histogram::NumBuckets);
    const double Mid = Histogram::bucketMidpoint(Index);
    EXPECT_EQ(Histogram::bucketIndex(static_cast<uint64_t>(Mid)),
              Index);
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram H;
  EXPECT_DOUBLE_EQ(H.percentile(50), 0);
  EXPECT_DOUBLE_EQ(H.mad(), 0);
  for (uint64_t V = 0; V < 16; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 16u);
  EXPECT_EQ(H.sum(), 120u);
  // Values < 16 occupy exact buckets, so percentiles are exact.
  EXPECT_DOUBLE_EQ(H.percentile(0), 0);
  EXPECT_DOUBLE_EQ(H.percentile(50), 7);
  EXPECT_DOUBLE_EQ(H.percentile(100), 15);
  // Deviations from 7 are {7, 6, ..., 1, 0, 1, ..., 8}: median 4.
  EXPECT_DOUBLE_EQ(H.mad(), 4);
}

TEST(HistogramTest, PercentilesTrackSortedVectorOracle) {
  Histogram H;
  std::mt19937_64 Rng(12345);
  std::vector<uint64_t> Samples;
  Samples.reserve(20000);
  // Log-uniform latencies spanning 1 ns .. ~1 s, the histogram's
  // intended regime.
  std::uniform_real_distribution<double> LogDist(0.0, 30.0);
  for (int I = 0; I < 20000; ++I) {
    const uint64_t V =
        static_cast<uint64_t>(std::exp2(LogDist(Rng)));
    Samples.push_back(V);
    H.record(V);
  }
  for (const double P : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double Exact = oraclePercentile(Samples, P);
    const double Approx = H.percentile(P);
    // The sub-bucket design bounds relative error at 1/32.
    EXPECT_NEAR(Approx, Exact, Exact / 32.0 + 1.0)
        << "p" << P << " exact=" << Exact << " approx=" << Approx;
  }
  // MAD: compare against the exact MAD with bucket-resolution slack.
  std::vector<uint64_t> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  const double Median = static_cast<double>(Sorted[Sorted.size() / 2]);
  std::vector<double> Dev;
  Dev.reserve(Sorted.size());
  for (const uint64_t V : Sorted)
    Dev.push_back(std::abs(static_cast<double>(V) - Median));
  std::sort(Dev.begin(), Dev.end());
  const double ExactMad = Dev[Dev.size() / 2];
  EXPECT_NEAR(H.mad(), ExactMad, ExactMad / 8.0 + 1.0);
}

} // namespace
