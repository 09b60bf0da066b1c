//===- bench/bench_pipeline.cpp - Cost-model ablation ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the cost model itself: Table 1.1 annotates several
// machines 'P' ("pipelined implementation — independent instructions
// can execute simultaneously"). For those, the right per-division
// estimate is the dependence-chain critical path, not the serial sum.
// This binary prints both estimates (plus register pressure) for each
// generated sequence on each machine, showing how much the 'P'
// machines recover, then measures the host analog: dependent vs
// independent division streams.
//
//===----------------------------------------------------------------------===//

#include "arch/CostModel.h"
#include "codegen/DivCodeGen.h"
#include "codegen/DivisionLowering.h"
#include "core/Divider.h"
#include "ir/Builder.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace gmdiv;

namespace {

void printModelTable() {
  std::printf("\n=== sequential vs critical-path cost of q,r = n divrem 10 "
              "===\n");
  std::printf("%-24s %6s | %10s %12s %8s | %9s\n", "architecture", "P?",
              "serial cyc", "crit.path", "regs", "eff. speedup");
  const ir::Program P32 = codegen::genUnsignedDivRem(32, 10);
  codegen::GenOptions Expand;
  Expand.ExpandMulBelowCycles = 23;
  const ir::Program P64 = codegen::genUnsignedDivRemWide(32, 64, 10, Expand);
  for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
    const ir::Program &P = Profile.WordBits == 64 ? P64 : P32;
    const double Serial = arch::estimateCost(P, Profile).Cycles;
    const double Path = arch::estimateCriticalPathCycles(P, Profile);
    const double Effective = arch::estimateEffectiveCycles(P, Profile);
    std::printf("%-24s %6s | %10.1f %12.1f %8d | %8.1fx\n",
                Profile.Name.c_str(), Profile.isPipelined() ? "P" : "-",
                Serial, Path, arch::registerPressure(P),
                2 * Profile.divCycles() / Effective);
  }
  // Scheduler ablation: four independent div-by-constant computations
  // in one block (the §1 "graphics codes" shape) — source order vs the
  // list schedule, priced with the scoreboarded in-order model.
  std::printf("\n=== list-scheduler ablation: 4 independent divisions in "
              "one block ===\n");
  ir::Builder B(32, 4);
  std::vector<int> Quotients;
  for (int Arg = 0; Arg < 4; ++Arg)
    Quotients.push_back(codegen::emitUnsignedDiv(
        B, B.arg(Arg), 7 + 3 * static_cast<uint64_t>(Arg)));
  int Sum = Quotients[0];
  for (int QIndex = 1; QIndex < 4; ++QIndex)
    Sum = B.add(Sum, Quotients[QIndex]);
  B.markResult(Sum, "sum");
  const ir::Program Block = B.take();
  std::printf("%-24s %6s | %12s %12s %8s\n", "architecture", "P?",
              "src order", "scheduled", "gain");
  for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
    if (!Profile.isPipelined() || Profile.WordBits != 32)
      continue;
    const double Before = arch::estimateInOrderCycles(Block, Profile);
    const double After = arch::estimateInOrderCycles(
        arch::scheduleForProfile(Block, Profile), Profile);
    std::printf("%-24s %6s | %12.1f %12.1f %7.2fx\n",
                Profile.Name.c_str(), "P", Before, After, Before / After);
  }
  std::printf("\n=== host: dependent chain vs independent stream ===\n\n");
}

// Host analog of the same distinction: a dependent chain of divisions
// exposes latency; independent divisions over a buffer expose
// throughput (modern CPUs pipeline divides partially).

void BM_DividerLatencyChain(benchmark::State &State) {
  volatile uint32_t DVolatile = 10;
  const UnsignedDivider<uint32_t> Divider(DVolatile);
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = Divider.divide(X) + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_DividerLatencyChain);

void BM_DividerThroughputStream(benchmark::State &State) {
  volatile uint32_t DVolatile = 10;
  const UnsignedDivider<uint32_t> Divider(DVolatile);
  uint32_t Values[64];
  for (int I = 0; I < 64; ++I)
    Values[I] = 0x9e3779b9u * (I + 1);
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (uint32_t V : Values)
      Sum += Divider.divide(V);
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_DividerThroughputStream);

void BM_HardwareLatencyChain(benchmark::State &State) {
  volatile uint32_t DVolatile = 10;
  const uint32_t D = DVolatile;
  uint32_t X = 0xfffffff3u;
  for (auto _ : State) {
    X = X / D + 0xfffffff0u;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_HardwareLatencyChain);

void BM_HardwareThroughputStream(benchmark::State &State) {
  volatile uint32_t DVolatile = 10;
  const uint32_t D = DVolatile;
  uint32_t Values[64];
  for (int I = 0; I < 64; ++I)
    Values[I] = 0x9e3779b9u * (I + 1);
  for (auto _ : State) {
    uint32_t Sum = 0;
    for (uint32_t V : Values)
      Sum += V / D;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_HardwareThroughputStream);

} // namespace

GMDIV_BENCH_MAIN(pipeline, printModelTable)
