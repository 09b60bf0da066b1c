//===- bench/e2e/Layers.h - Peel-off ledger and layer probes ----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's layer-by-layer half. Each layer is measured from
/// outside, by timing calls into its public functions on the caller
/// thread:
///
///  - the peel-off ledger replays the workload's own request stream with
///    one more layer removed at each step (registry + entry, entry on a
///    held handle, BatchDivider, JitBatchDivider, core Divider,
///    JitDivider, hardware division);
///  - probes time the same layers on long (16384-lane), short
///    (1..64-lane) and scalar calls over the workload's divisors, plus
///    admissions, entry builds, JIT compiles and core precompute;
///  - the host's own Table 1.1 row (dependent MULUH and DIV chains in
///    TSC ticks) prices every (lane, divisor) pair with the batch cost
///    models, whose predicted winner is compared with the measured one.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BENCH_E2E_LAYERS_H
#define GMDIV_BENCH_E2E_LAYERS_H

#include "Support.h"
#include "Workloads.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

/// TSC ticks per step of dependent add, MULUH and DIV chains (64-bit).
struct HostTicks {
  double Add = 0, MulHi = 0, Div = 0;
};
HostTicks measureHostTicks();

class Replay;

/// The layer-by-layer half of a traced run for one workload, measured
/// on the caller thread against \p Sys (set up, hot set resident).
/// \p BudgetSeconds bounds each repeated measurement.
class LayerBench {
public:
  LayerBench(Inputs &In, System &Sys, double BudgetSeconds, uint64_t Seed);
  ~LayerBench();
  LayerBench(const LayerBench &) = delete;
  LayerBench &operator=(const LayerBench &) = delete;

  /// The printable peel-off ledger. \p E2eNsPerUnit is the untraced
  /// end-to-end time per ledger unit (element for bulk, else request).
  std::string ledger(double E2eNsPerUnit);

  /// Runs the probes, stores their metrics by name in \p Metrics and
  /// returns the printable cost-model table. Admissions run last: at
  /// capacity (churn) they evict.
  std::string probes(const HostTicks &Ticks,
                     std::map<std::string, double> &Metrics);

private:
  std::unique_ptr<Replay> R;
  uint64_t Seed;
};

} // namespace e2e

#endif // GMDIV_BENCH_E2E_LAYERS_H
