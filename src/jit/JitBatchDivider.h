//===- jit/JitBatchDivider.h - Batch divider under the JIT name -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JitBatchDivider<T> is a shim over batch::BatchDivider<T>, the static
/// SIMD kernels that receive the paper's precomputed Figure 4.1/5.1
/// state (m', sh) as arguments. There is no array JIT: the static
/// kernels serve every array call, on every lane type, with no code
/// generated at run time. The name stays only because the bench/e2e
/// ledger constructs it; the CodeCache argument is ignored, usesJit()
/// is always false, and backend() names the batch backend.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JITBATCHDIVIDER_H
#define GMDIV_JIT_JITBATCHDIVIDER_H

#include "batch/BatchDivider.h"

#include <cstddef>

namespace gmdiv {
namespace jit {

class CodeCache;

template <typename T> class JitBatchDivider {
public:
  explicit JitBatchDivider(T Divisor) : Div(Divisor) {}
  JitBatchDivider(T Divisor, CodeCache &) : Div(Divisor) {}

  T divisor() const { return Div.divisor(); }
  bool usesJit() const { return false; }
  const char *backend() const { return batch::backendName(Div.backend()); }

  /// Out[i] = In[i] / d; In and Out may alias exactly (BatchDivider's
  /// contract).
  void divide(const T *In, T *Out, size_t Count) const {
    Div.divide(In, Out, Count);
  }
  void remainder(const T *In, T *Out, size_t Count) const {
    Div.remainder(In, Out, Count);
  }
  void divRem(const T *In, T *Quot, T *Rem, size_t Count) const {
    Div.divRem(In, Quot, Rem, Count);
  }

private:
  batch::BatchDivider<T> Div;
};

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JITBATCHDIVIDER_H
