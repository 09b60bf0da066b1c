//===- jit/JitDivider.h - Core divider under the JIT name -------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JitDivider<T> is a shim over the paper's Figure 4.1/5.1 runtime
/// divider (core/Divider.h), the object registry entries run. Scalar
/// division has no JIT: that precomputed multiply–shift beats a jitted
/// Figure 4.2/5.2 sequence on every bench/e2e workload. The name stays
/// only because the bench/e2e ledger constructs it; the CodeCache
/// argument is ignored, usesJit() is always false, and backend() names
/// "core". JitBatchDivider is the same kind of shim for arrays.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JITDIVIDER_H
#define GMDIV_JIT_JITDIVIDER_H

#include "core/Divider.h"

#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

namespace gmdiv {
namespace jit {

class CodeCache;

template <typename T> class JitDivider {
  using Core = std::conditional_t<std::is_signed_v<T>, SignedDivider<T>,
                                  UnsignedDivider<T>>;

public:
  explicit JitDivider(T Divisor) : Div(Divisor) {}
  JitDivider(T Divisor, CodeCache &) : Div(Divisor) {}

  T divisor() const { return Div.divisor(); }
  bool usesJit() const { return false; }
  const char *backend() const { return "core"; }

  /// trunc(n / d) (⌊n/d⌋ for unsigned T).
  T divide(T N0) const { return Div.divide(N0); }
  /// n % d (sign of the dividend for signed T).
  T remainder(T N0) const { return Div.remainder(N0); }
  std::pair<T, T> divRem(T N0) const { return Div.divRem(N0); }

  std::string describe() const {
    std::ostringstream Out;
    Out << "n" << (std::is_signed_v<T> ? "/" : "/u")
        << static_cast<int64_t>(divisor()) << " at N=" << sizeof(T) * 8
        << " via " << backend();
    return Out.str();
  }

private:
  Core Div;
};

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JITDIVIDER_H
