//===- batch/BatchDispatch.cpp - Runtime backend selection ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Picks the widest kernel set the running CPU supports: compiled-in
// backends are probed via the null/non-null kernel-table pointers, and
// AVX2 additionally requires a CPUID check (__builtin_cpu_supports,
// which also verifies OS XSAVE state). Backend::NEON has no kernels and
// is never available. Every selection is reported through one
// "batch.backend" telemetry remark (see docs/OBSERVABILITY.md).
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"

#include "metrics/Metrics.h"
#include "telemetry/Remarks.h"

#include <atomic>

namespace gmdiv {
namespace batch {

const char *backendName(Backend B) {
  switch (B) {
  case Backend::Scalar:
    return "scalar";
  case Backend::SSE2:
    return "sse2";
  case Backend::AVX2:
    return "avx2";
  case Backend::NEON:
    return "neon";
  }
  return "scalar";
}

namespace {

/// The SIMD kernel table compiled in for \p B; null for Scalar and for
/// a backend this binary has no kernels for (NEON never has any).
const KernelTables *simdTables(Backend B) {
  switch (B) {
  case Backend::SSE2:
    return sse2Kernels();
  case Backend::AVX2:
    return avx2Kernels();
  case Backend::Scalar:
  case Backend::NEON:
    return nullptr;
  }
  return nullptr;
}

} // namespace

/// Internal: the kernel table backing \p B; scalar when \p B is not
/// available (callers should have checked backendAvailable).
const KernelTables &tablesForBackend(Backend B) {
  const KernelTables *Tables = simdTables(B);
  return Tables ? *Tables : scalarKernels();
}

std::vector<Backend> compiledBackends() {
  std::vector<Backend> Result{Backend::Scalar};
  for (Backend B : {Backend::SSE2, Backend::AVX2})
    if (simdTables(B))
      Result.push_back(B);
  return Result;
}

bool backendAvailable(Backend B) {
  if (B == Backend::Scalar)
    return true;
  if (!simdTables(B))
    return false;
  // SSE2 is baseline wherever its TU compiles; AVX2 needs the runtime
  // probe, which also verifies OS XSAVE state.
  if (B != Backend::AVX2)
    return true;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char *selectionSourceName(SelectionSource S) {
  switch (S) {
  case SelectionSource::Divider:
    return "divider";
  case SelectionSource::Autodetect:
    return "autodetect";
  case SelectionSource::Fallback:
    return "fallback";
  }
  return "divider";
}

/// Internal: counts every selection event — the process-wide default
/// resolution and every BatchDivider construction — and emits one
/// "batch.backend" remark per event. The remark is guarded by
/// remarksEnabled(), so the default (no sink) costs nothing.
void noteBackendSelected(Backend B, SelectionSource Source) {
  // Each (backend, source) series is resolved once: construction runs on
  // every registry admission, and the registry lookup takes the global
  // metrics mutex and builds a series key. Racing first uses resolve to
  // the same instrument, so a plain atomic publish suffices.
  static std::atomic<metrics::Counter *> Selected[4][3]; // [B][Source]
  std::atomic<metrics::Counter *> &Slot =
      Selected[static_cast<size_t>(B)][static_cast<size_t>(Source)];
  metrics::Counter *C = Slot.load(std::memory_order_acquire);
  if (!C) {
    C = &metrics::Registry::global().counter(
        "gmdiv_batch_backend_selected_total",
        "Batch backend selection events by backend and source",
        {{"backend", backendName(B)},
         {"source", selectionSourceName(Source)}});
    Slot.store(C, std::memory_order_release);
  }
  C->inc();
  if (!telemetry::remarksEnabled())
    return;
  telemetry::Remark R;
  R.Pass = "batch";
  R.Kind = "batch.backend";
  R.Figure = "Figure 4.1/5.1";
  R.CaseName = "batch backend selection";
  R.HasDivisor = false;
  R.Details.emplace_back("backend", backendName(B));
  R.Details.emplace_back("source", selectionSourceName(Source));
  telemetry::emitRemark(R);
}

/// Calls with fewer elements than this are routed "below break-even":
/// per §10 (and arch::estimateBatchCost) the vector setup cost has not
/// amortized yet and the scalar per-element API would have been at
/// least as fast. Matches the cost model's typical break-even batch for
/// 32-bit lanes.
constexpr size_t BreakEvenElements = 8;

void noteBatchCall(size_t Count) {
  auto &Reg = metrics::Registry::global();
  static metrics::Counter &Calls = Reg.counter(
      "gmdiv_batch_calls_total", "Batch kernel invocations");
  static metrics::Counter &Elements = Reg.counter(
      "gmdiv_batch_elements_total", "Elements processed by batch kernels");
  static metrics::Counter &BelowBreakEven = Reg.counter(
      "gmdiv_batch_calls_below_break_even_total",
      "Batch calls smaller than the break-even batch size");
  Calls.inc();
  Elements.add(Count);
  if (Count < BreakEvenElements)
    BelowBreakEven.inc();
}

Backend activeBackend() {
  static const Backend Resolved = [] {
    for (Backend B : {Backend::AVX2, Backend::SSE2}) {
      if (backendAvailable(B)) {
        noteBackendSelected(B, SelectionSource::Autodetect);
        return B;
      }
    }
    noteBackendSelected(Backend::Scalar, SelectionSource::Fallback);
    return Backend::Scalar;
  }();
  return Resolved;
}

} // namespace batch
} // namespace gmdiv
