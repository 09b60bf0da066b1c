//===- telemetry/SampleStats.cpp - Robust sample statistics ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "telemetry/SampleStats.h"

#include <algorithm>
#include <cmath>

using namespace gmdiv;
using namespace gmdiv::telemetry;

double telemetry::percentileSorted(const std::vector<double> &Sorted,
                                   double P) {
  if (Sorted.empty())
    return 0.0;
  if (P <= 0)
    return Sorted.front();
  if (P >= 100)
    return Sorted.back();
  // Nearest-rank: the smallest element with cumulative share >= P.
  const size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
  return Sorted[Rank == 0 ? 0 : Rank - 1];
}

SampleStats telemetry::computeSampleStats(std::vector<double> Samples) {
  SampleStats S;
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Count = Samples.size();
  S.Min = Samples.front();
  S.Max = Samples.back();
  double Sum = 0;
  for (const double V : Samples)
    Sum += V;
  S.Mean = Sum / static_cast<double>(S.Count);
  S.Median = percentileSorted(Samples, 50);
  std::vector<double> Dev;
  Dev.reserve(Samples.size());
  for (const double V : Samples)
    Dev.push_back(std::fabs(V - S.Median));
  std::sort(Dev.begin(), Dev.end());
  S.Mad = percentileSorted(Dev, 50);
  S.Cv = S.Median != 0 ? 1.4826 * S.Mad / std::fabs(S.Median) : 0.0;
  return S;
}
