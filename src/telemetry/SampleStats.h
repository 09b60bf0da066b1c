//===- telemetry/SampleStats.h - Robust sample statistics -------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact robust statistics (median / MAD / robust CV / percentiles)
/// over small sample vectors, shared by the statistical bench runner
/// and bench-diff. Streaming latency distributions are
/// metrics::Histogram (metrics/Metrics.h).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_TELEMETRY_SAMPLESTATS_H
#define GMDIV_TELEMETRY_SAMPLESTATS_H

#include <cstddef>
#include <vector>

namespace gmdiv {
namespace telemetry {

/// Robust summary of a sample vector (bench repetitions, rep latencies).
struct SampleStats {
  size_t Count = 0;
  double Min = 0, Max = 0, Mean = 0;
  double Median = 0;
  /// Median absolute deviation from the median (raw, unscaled).
  double Mad = 0;
  /// Robust coefficient of variation: 1.4826 * MAD / |median| (the
  /// 1.4826 factor makes MAD estimate sigma under normality); 0 when
  /// the median is 0.
  double Cv = 0;
};

/// Exact percentile (nearest-rank) of an ascending-sorted vector;
/// P in [0, 100]. Returns 0 on an empty vector.
double percentileSorted(const std::vector<double> &Sorted, double P);

/// Computes SampleStats over \p Samples (copied and sorted internally).
SampleStats computeSampleStats(std::vector<double> Samples);

} // namespace telemetry
} // namespace gmdiv

#endif // GMDIV_TELEMETRY_SAMPLESTATS_H
