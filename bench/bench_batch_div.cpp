//===- bench/bench_batch_div.cpp - Batch kernel throughput ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Throughput of the src/batch array kernels per backend and lane width,
// swept over batch sizes 8..64k, against two baselines: the hardware
// divide instruction and a scalar loop over UnsignedDivider /
// SignedDivider (the paper's per-element sequence). The interesting
// quantities are elements/second at large batches — where the SIMD
// backends should win by roughly the lane count over the scalar loop —
// and the crossover batch size, which arch::estimateBatchCost predicts.
//
// Reports to BENCH_batch_div.json via bench_report.h.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"
#include "core/Divider.h"

#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::batch;

namespace {

/// Deterministic dividend buffer (xorshift).
template <typename T> std::vector<T> makeData(size_t Count) {
  std::vector<T> Data(Count);
  uint64_t State = 0x243F6A8885A308D3ull;
  for (T &Value : Data) {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    Value = static_cast<T>(State);
  }
  return Data;
}

//===----------------------------------------------------------------------===//
// Baselines
//===----------------------------------------------------------------------===//

template <typename T> void BM_HardwareDivLoop(benchmark::State &State) {
  const T D = static_cast<T>(7);
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<T> In = makeData<T>(N);
  std::vector<T> Out(N);
  for (auto _ : State) {
    for (size_t I = 0; I < N; ++I)
      Out[I] = static_cast<T>(In[I] / D);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
}

template <typename T> void BM_ScalarDividerLoop(benchmark::State &State) {
  const T D = static_cast<T>(7);
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<T> In = makeData<T>(N);
  std::vector<T> Out(N);
  using Divider =
      std::conditional_t<std::is_signed_v<T>, SignedDivider<T>,
                         UnsignedDivider<T>>;
  const Divider Div(D);
  for (auto _ : State) {
    for (size_t I = 0; I < N; ++I)
      Out[I] = Div.divide(In[I]);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
}

//===----------------------------------------------------------------------===//
// Batch kernels, one benchmark per (operation, backend, lane width)
//===----------------------------------------------------------------------===//

template <typename T, Backend B> void BM_BatchDivide(benchmark::State &State) {
  if (!backendAvailable(B)) {
    State.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const BatchDivider<T> Div(static_cast<T>(7), B);
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<T> In = makeData<T>(N);
  std::vector<T> Out(N);
  for (auto _ : State) {
    Div.divide(In.data(), Out.data(), N);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
}

template <typename T, Backend B> void BM_BatchDivRem(benchmark::State &State) {
  if (!backendAvailable(B)) {
    State.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const BatchDivider<T> Div(static_cast<T>(7), B);
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<T> In = makeData<T>(N);
  std::vector<T> Quot(N), Rem(N);
  for (auto _ : State) {
    Div.divRem(In.data(), Quot.data(), Rem.data(), N);
    benchmark::DoNotOptimize(Quot.data());
    benchmark::DoNotOptimize(Rem.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
}

template <typename T, Backend B>
void BM_BatchDivisible(benchmark::State &State) {
  if (!backendAvailable(B)) {
    State.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const BatchDivider<T> Div(static_cast<T>(7), B);
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<T> In = makeData<T>(N);
  std::vector<uint8_t> Out(N);
  for (auto _ : State) {
    Div.divisible(In.data(), Out.data(), N);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
}

// 8 -> 64k in 4x steps; 256 is the acceptance-criteria batch size.
#define GMDIV_BATCH_RANGE()                                                  \
  Arg(8)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)      \
      ->Arg(65536)

// Baselines per lane width.
BENCHMARK_TEMPLATE(BM_HardwareDivLoop, uint8_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_HardwareDivLoop, uint16_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_HardwareDivLoop, uint32_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_HardwareDivLoop, uint64_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_HardwareDivLoop, int32_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_ScalarDividerLoop, uint8_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_ScalarDividerLoop, uint16_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_ScalarDividerLoop, uint32_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_ScalarDividerLoop, uint64_t)->GMDIV_BATCH_RANGE();
BENCHMARK_TEMPLATE(BM_ScalarDividerLoop, int32_t)->GMDIV_BATCH_RANGE();

// Batch divide: every lane width on every backend. Unavailable backends
// report a skip, so the JSON records what this machine could run.
#define GMDIV_BENCH_ALL_BACKENDS(OP, T)                                      \
  BENCHMARK_TEMPLATE(OP, T, Backend::Scalar)->GMDIV_BATCH_RANGE();           \
  BENCHMARK_TEMPLATE(OP, T, Backend::SSE2)->GMDIV_BATCH_RANGE();             \
  BENCHMARK_TEMPLATE(OP, T, Backend::AVX2)->GMDIV_BATCH_RANGE()

GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, uint8_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, uint16_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, uint32_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, uint64_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, int8_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, int16_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, int32_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivide, int64_t);

// Fused div+mod and the §9 divisibility filter on the key widths.
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivRem, uint32_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivRem, int32_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivisible, uint32_t);
GMDIV_BENCH_ALL_BACKENDS(BM_BatchDivisible, uint64_t);

} // namespace

GMDIV_BENCH_MAIN(batch_div)
