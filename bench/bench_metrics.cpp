//===- bench/bench_metrics.cpp - Metrics hot-path cost --------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The price of instrumentation, measured. The metrics plane promises a
// wait-free hot path cheap enough to leave on in the JIT cache and the
// batch dispatcher; this suite pins that promise:
//
//   CounterInc     one striped increment, at 1/4/16 threads. The stripe
//                  design (64 cache-line-aligned lanes, thread-local
//                  index) should hold roughly flat ns/op as threads
//                  grow — the acceptance line is <= 10 ns/op at 16
//                  threads on contended hardware.
//   GaugeSet       one relaxed store of a packed double.
//   HistogramRecord two relaxed adds plus a bucket add (log-scaled).
//   RegistryLookup get-or-create by name: the cost a call site pays
//                  when it does NOT cache the instrument reference.
//   Snapshot       a full registry snapshot with collectors — the
//                  exporter-interval cost, not a hot-path cost.
//
// Reports to BENCH_metrics.json via bench_report.h.
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

using namespace gmdiv;

namespace {

//===----------------------------------------------------------------------===//
// Instrument hot paths
//===----------------------------------------------------------------------===//

// All threads hammer the SAME counter: this is the contended case the
// striping exists for. References are resolved outside the timed loop,
// the way instrumented call sites hold them.
void BM_CounterInc(benchmark::State &State) {
  metrics::Counter &C = metrics::Registry::global().counter(
      "gmdiv_bench_metrics_inc_total", "bench: contended increments");
  for (auto _ : State)
    C.inc();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CounterInc)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

void BM_CounterAdd(benchmark::State &State) {
  metrics::Counter &C = metrics::Registry::global().counter(
      "gmdiv_bench_metrics_add_total", "bench: batched adds");
  for (auto _ : State)
    C.add(64);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State &State) {
  metrics::Gauge &G = metrics::Registry::global().gauge(
      "gmdiv_bench_metrics_gauge", "bench: last-value-wins stores");
  double V = 0.0;
  for (auto _ : State)
    G.set(V += 0.5);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_GaugeSet)->Threads(1)->Threads(16)->UseRealTime();

void BM_HistogramRecord(benchmark::State &State) {
  metrics::Histogram &H = metrics::Registry::global().histogram(
      "gmdiv_bench_metrics_hist", "bench: log-scaled observations");
  uint64_t V = 1;
  for (auto _ : State) {
    H.record(V);
    V = V * 2862933555777941757ull + 3037000493ull; // Vary the bucket.
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(16)->UseRealTime();

//===----------------------------------------------------------------------===//
// Registry paths (not hot, but bounded)
//===----------------------------------------------------------------------===//

// Get-or-create of an existing series: one lock plus one map probe on
// the serialized (name, labels) key. Call sites in loops should cache
// the reference instead — this measures what skipping that costs.
void BM_RegistryLookup(benchmark::State &State) {
  metrics::Registry &R = metrics::Registry::global();
  R.counter("gmdiv_bench_metrics_lookup_total", "bench: lookup target");
  for (auto _ : State) {
    metrics::Counter &C =
        R.counter("gmdiv_bench_metrics_lookup_total");
    benchmark::DoNotOptimize(&C);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RegistryLookup);

void BM_RegistryLookupLabeled(benchmark::State &State) {
  metrics::Registry &R = metrics::Registry::global();
  const metrics::LabelSet Labels = {{"shard", "3"}, {"kind", "udiv"}};
  R.counter("gmdiv_bench_metrics_labeled_total", "bench: labeled target",
            Labels);
  for (auto _ : State) {
    metrics::Counter &C =
        R.counter("gmdiv_bench_metrics_labeled_total", "", Labels);
    benchmark::DoNotOptimize(&C);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RegistryLookupLabeled);

// Full snapshot: stripe merges, trace and remark accounting, every
// registered collector. This is the cost
// the exporter pays per interval and `gmdiv_tool metrics` pays per
// invocation — milliseconds-scale budgets, not nanoseconds.
void BM_Snapshot(benchmark::State &State) {
  metrics::Registry &R = metrics::Registry::global();
  R.counter("gmdiv_bench_metrics_snap_total", "bench: snapshot fodder")
      .inc();
  R.histogram("gmdiv_bench_metrics_snap_hist", "bench: snapshot fodder")
      .record(42);
  for (auto _ : State) {
    metrics::Snapshot S = R.snapshot();
    benchmark::DoNotOptimize(&S);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Snapshot);

} // namespace

GMDIV_BENCH_MAIN(metrics)
