//===- batch/BatchDivider.h - Array invariant-division kernels --*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput-oriented batch division: the paper's whole premise is
/// amortizing one divisor-dependent precomputation over many dividends,
/// and this facade takes that to its conclusion — array kernels that
/// divide N dividends per call, backed by interchangeable backends:
///
///   Scalar  portable C++ loop over the Figure 4.1/5.1 sequences, with
///           a SWAR fast path for 8-bit unsigned lanes.
///   SSE2    128-bit x86 vectors (baseline on x86-64).
///   AVX2    256-bit x86 vectors (own TU compiled with -mavx2, chosen
///           only after a runtime CPUID check).
///
/// A BatchDivider holds one precomputed object per divisor: the core
/// UnsignedDivider (plus ExactUnsignedDivider for §9) or SignedDivider.
/// The vector bodies broadcast its m' and shift counts, every scalar
/// tail calls it, and scalar() hands it to callers that divide one
/// element at a time.
///
/// The per-lane MULUH uses widening multiplies: even/odd
/// _mm*_mul_epu32 splits for 32/64-bit lanes, mulhi instructions for
/// 16-bit, a promote-multiply-narrow for 8-bit. All backends agree
/// bit-for-bit with UnsignedDivider / SignedDivider; the CPUID dispatch
/// emits one telemetry remark per backend selection (kind
/// "batch.backend", see docs/OBSERVABILITY.md).
///
/// Break-even guidance — the batch size at which a vector backend
/// overtakes the scalar loop on a given architecture profile — comes
/// from arch::estimateBatchCost (src/arch/CostModel.h).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BATCH_BATCHDIVIDER_H
#define GMDIV_BATCH_BATCHDIVIDER_H

#include "batch/BatchKernels.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace gmdiv {
namespace batch {

/// The interchangeable kernel implementations.
enum class Backend {
  Scalar, ///< Portable C++ / SWAR fallback; always available.
  SSE2,   ///< x86-64 baseline 128-bit vectors.
  AVX2,   ///< 256-bit vectors; requires runtime CPUID support.
  NEON,   ///< No kernels: never compiled in, so never available.
};

/// Stable lowercase slug: "scalar", "sse2", "avx2", "neon".
const char *backendName(Backend B);

/// All backends compiled into this binary (Scalar always included).
std::vector<Backend> compiledBackends();

/// True when \p B is compiled in and the running CPU supports it.
bool backendAvailable(Backend B);

/// The backend batch dividers use by default: the widest one the CPU
/// supports. Resolved once per process; the resolution emits one
/// "batch.backend" telemetry remark.
Backend activeBackend();

/// Internal: records one kernel call (call count, element count, and
/// gmdiv_batch_calls_below_break_even_total for calls under 8 elements)
/// in the metrics plane. Called by every BatchDivider array entry
/// point; a few ns against a whole-array kernel.
void noteBatchCall(size_t Count);

/// Internal: why a backend was selected — the "source" label of
/// gmdiv_batch_backend_selected_total.
enum class SelectionSource { Divider, Autodetect, Fallback };

/// Internal: counts one selection event and emits its "batch.backend"
/// remark (BatchDispatch.cpp).
void noteBackendSelected(Backend B, SelectionSource Source);

/// Divides many dividends by one invariant divisor. The constructor
/// runs the divisor-dependent precomputation once (building
/// UnsignedDivider / SignedDivider / ExactUnsignedDivider); every array
/// call then streams through the selected backend's kernels. Immutable
/// after construction and safe to share across threads.
///
/// T is one of {u,i}{8,16,32,64}. Unsigned instantiations additionally
/// provide the §9 divisibility filter; signed ones provide floor/ceil.
template <typename T> class BatchDivider {
public:
  static constexpr bool IsSigned = std::is_signed_v<T>;
  /// The core Figure 4.1 / 5.1 divider the kernels read.
  using ScalarDivider =
      std::conditional_t<IsSigned, SignedDivider<T>, UnsignedDivider<T>>;

  /// Precomputes state for \p Divisor (nonzero) on activeBackend().
  explicit BatchDivider(T Divisor);
  /// Same, pinning a specific backend (falls back to Scalar when \p B
  /// is unavailable at runtime) — used by tests and benchmarks.
  BatchDivider(T Divisor, Backend B);

  T divisor() const { return State.Div.divisor(); }
  Backend backend() const { return Selected; }
  /// The core divider for one-element calls; the same object whose
  /// state the array kernels broadcast.
  const ScalarDivider &scalar() const { return State.Div; }

  /// Out[i] = In[i] / d for i < Count (⌊n/d⌋ unsigned, trunc signed).
  /// In and Out may alias exactly (in-place) but not partially overlap.
  void divide(const T *In, T *Out, size_t Count) const {
    noteBatchCall(Count);
    Kernels.Divide(State, In, Out, Count);
  }

  /// Out[i] = In[i] rem d (unsigned mod; C `%` for signed).
  void remainder(const T *In, T *Out, size_t Count) const {
    noteBatchCall(Count);
    Kernels.Remainder(State, In, Out, Count);
  }

  /// Fused quotient+remainder: one multiply chain, two result streams.
  void divRem(const T *In, T *Quot, T *Rem, size_t Count) const {
    noteBatchCall(Count);
    Kernels.DivRem(State, In, Quot, Rem, Count);
  }

  /// §9 branch-free divisibility filter: Out[i] = 1 iff d | In[i].
  /// Unsigned lane types only.
  template <typename U = T,
            typename = std::enable_if_t<std::is_unsigned_v<U>>>
  void divisible(const T *In, uint8_t *Out, size_t Count) const {
    noteBatchCall(Count);
    Kernels.Divisible(State, In, Out, Count);
  }

  /// ⌊n/d⌋ per element. Signed lane types only.
  template <typename U = T, typename = std::enable_if_t<std::is_signed_v<U>>>
  void floorDivide(const T *In, T *Out, size_t Count) const {
    noteBatchCall(Count);
    Kernels.FloorDivide(State, In, Out, Count);
  }

  /// ⌈n/d⌉ per element. Signed lane types only.
  template <typename U = T, typename = std::enable_if_t<std::is_signed_v<U>>>
  void ceilDivide(const T *In, T *Out, size_t Count) const {
    noteBatchCall(Count);
    Kernels.CeilDivide(State, In, Out, Count);
  }

  /// Human-readable one-liner: divisor, backend, Figure 4.1/5.1 state.
  std::string describe() const;

private:
  using StateT = std::conditional_t<IsSigned, SignedBatchState<T>,
                                    UnsignedBatchState<T>>;
  using KernelsT =
      std::conditional_t<IsSigned, SignedKernels<T>, UnsignedKernels<T>>;

  StateT State;
  KernelsT Kernels;
  Backend Selected;
};

extern template class BatchDivider<uint8_t>;
extern template class BatchDivider<uint16_t>;
extern template class BatchDivider<uint32_t>;
extern template class BatchDivider<uint64_t>;
extern template class BatchDivider<int8_t>;
extern template class BatchDivider<int16_t>;
extern template class BatchDivider<int32_t>;
extern template class BatchDivider<int64_t>;

} // namespace batch
} // namespace gmdiv

#endif // GMDIV_BATCH_BATCHDIVIDER_H
