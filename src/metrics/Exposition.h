//===- metrics/Exposition.h - Prometheus / JSON snapshot writers -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializers for metrics::Snapshot: the Prometheus text exposition
/// format 0.0.4 (# HELP / # TYPE headers, histogram _bucket/_sum/_count
/// expansion with cumulative le bounds, label value escaping) and a JSON document built with telemetry/Json so
/// tests can validate it with the same parser that checks every other
/// telemetry artifact.
///
/// parsePrometheusText() is a strict reader of the same format — enough
/// of one to round-trip everything the writer emits — so the exposition
/// is validated by parsing, not by string comparison: names and labels
/// must lex, HELP/TYPE must precede their samples, series must be
/// unique, values must parse as floats.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_METRICS_EXPOSITION_H
#define GMDIV_METRICS_EXPOSITION_H

#include "metrics/Metrics.h"

#include <string>
#include <vector>

namespace gmdiv {
namespace metrics {

/// The snapshot in Prometheus text exposition format 0.0.4.
std::string prometheusText(const Snapshot &S);

/// The snapshot as one JSON document:
///   {"gmdiv_metrics":1,"unix_ms":...,"families":[
///     {"name":...,"kind":...,"help":...,"samples":[...]}]}
/// Counter/gauge samples carry {"labels":{...},"value":...}; histogram
/// samples add "buckets" ([le, cumulative] pairs), "sum" and "count".
std::string snapshotJson(const Snapshot &S);

/// One parsed sample line of an exposition.
struct ParsedSample {
  std::string Name; ///< Full series name, e.g. "foo_bucket".
  LabelSet Labels;  ///< Unescaped, in source order (le/quantile included).
  double Value = 0;
};

/// Strict parse of a 0.0.4 text exposition. On success fills \p Out
/// with every sample line; on failure returns false and, when given,
/// sets \p Error to "line N: what". Enforced: metric/label name syntax,
/// label escaping, float values (inf/nan accepted), at most one
/// HELP/TYPE per family and before its samples, unique series.
bool parsePrometheusText(const std::string &Text,
                         std::vector<ParsedSample> &Out,
                         std::string *Error = nullptr);

/// First parsed sample with \p Name and a label set containing every
/// pair in \p Labels (subset match); nullptr when absent.
const ParsedSample *findSample(const std::vector<ParsedSample> &Samples,
                               const std::string &Name,
                               const LabelSet &Labels = {});

} // namespace metrics
} // namespace gmdiv

#endif // GMDIV_METRICS_EXPOSITION_H
