//===- jit/JitBatchDivider.h - Array division via jitted loops --*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch counterpart of JitDivider: where batch::BatchDivider runs
/// *static* SIMD kernels that receive the precomputed (m, sh) state as
/// function arguments, JitBatchDivider compiles a fresh AVX2/AVX-512
/// loop per (kind, width, divisor) triple with every constant folded
/// into the instruction stream — no state loads, no post-shift
/// dispatch, the Figure 4.2/5.2 special cases (power of two, pre-shift,
/// sh1/sh2) resolved at emission time instead of per element.
///
///   JitBatchDivider<uint32_t> Div(7);
///   Div.divide(In, Out, Count);        // jitted loop + static tail
///   Div.backend();                     // "jit-avx2" | static name
///
/// Fallback is total and bit-for-bit: non-x86-64 hosts, CPUs without
/// AVX2, GMDIV_NO_JIT=1, GMDIV_JIT_VECTOR=0, 8/16-bit lane types, and
/// emitter bails (e.g. a sequence that runs out of registers) all route
/// every element through the owned batch::BatchDivider — the same
/// kernels, the same dispatch, the same answers, proven by the
/// jit-batch-* properties in src/verify. The jitted loop processes a
/// multiple of the lane count and returns how many elements it handled;
/// the remainder tail always runs through the static kernels.
///
/// Compiled loops live in the same process-wide jit::CodeCache as the
/// scalar kernels, keyed with KernelForm::Vector, so constructing many
/// batch dividers for one divisor maps executable memory exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JITBATCHDIVIDER_H
#define GMDIV_JIT_JITBATCHDIVIDER_H

#include "batch/BatchDivider.h"
#include "jit/JitDivider.h"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <type_traits>
#include <utility>

namespace gmdiv {
namespace jit {

/// Array division by a run-time invariant divisor through
/// runtime-emitted vector loops. T is one of {u,i}{8,16,32,64}; only
/// the 32/64-bit lane types are jittable (the vector emitter's memory
/// containers are 32/64-bit), narrower types delegate wholesale to the
/// static kernels. Immutable after construction; safe to share across
/// threads (the code is read-only, the ABI pure).
template <typename T> class JitBatchDivider {
  static_assert(std::is_integral<T>::value && !std::is_same<T, bool>::value,
                "JitBatchDivider requires a native integer type");

public:
  using UWord = typename std::make_unsigned<T>::type;
  static constexpr bool IsSigned = std::is_signed<T>::value;
  static constexpr int N = static_cast<int>(sizeof(T) * 8);
  /// Lane types the vector emitter can load/store directly.
  static constexpr bool Jittable = sizeof(T) >= 4;

  /// Precompiles divide/remainder/divRem loops (plus the §9 filter for
  /// unsigned T) for \p Divisor (nonzero); compilation is shared
  /// through \p Cache. Falls back per operation when any loop bails.
  explicit JitBatchDivider(T Divisor, CodeCache &Cache = CodeCache::global())
      : Fallback(Divisor) {
    if (!Jittable || !vectorJitIsa(Isa))
      return;
    const uint64_t Bits = static_cast<uint64_t>(static_cast<UWord>(Divisor));
    const uint8_t W = static_cast<uint8_t>(N);
    VectorEmitOptions Opts;
    Opts.Isa = Isa;
    const SeqKind DivKind = IsSigned ? SeqKind::SDiv : SeqKind::UDiv;
    const SeqKind RemKind = IsSigned ? SeqKind::SRem : SeqKind::URem;
    const SeqKind BothKind = IsSigned ? SeqKind::SDivRem : SeqKind::UDivRem;
    DivSeq = compileVectorCached(
        Cache, {DivKind, W, Bits, cache::KernelForm::Vector}, Opts);
    RemSeq = compileVectorCached(
        Cache, {RemKind, W, Bits, cache::KernelForm::Vector}, Opts);
    BothSeq = compileVectorCached(
        Cache, {BothKind, W, Bits, cache::KernelForm::Vector}, Opts);
    if (!IsSigned) {
      VectorEmitOptions ByteOpts = Opts;
      ByteOpts.ByteResult0 = true; // Out0 is a uint8_t 0/1 stream.
      DivisibleSeq = compileVectorCached(
          Cache, {SeqKind::UDivisible, W, Bits, cache::KernelForm::Vector},
          ByteOpts);
    }
  }

  T divisor() const { return Fallback.divisor(); }

  /// True when at least the divide loop runs native vector code.
  bool usesJit() const { return DivSeq != nullptr; }
  /// "jit-avx2" / "jit-avx512" on the jitted path, otherwise the static
  /// backend's own name ("avx2", "sse2", ...).
  const char *backend() const {
    if (usesJit())
      return Isa == VectorIsa::Avx512 ? "jit-avx512" : "jit-avx2";
    return batch::backendName(Fallback.backend());
  }

  /// Out[i] = In[i] / d (⌊n/d⌋ unsigned, trunc signed). In and Out may
  /// alias exactly but not partially overlap — same contract as the
  /// static kernels.
  void divide(const T *In, T *Out, size_t Count) const {
    const size_t Done = runLoop(DivSeq, In, Out, nullptr, Count);
    if (Done < Count)
      Fallback.divide(In + Done, Out + Done, Count - Done);
  }

  /// Out[i] = In[i] rem d (unsigned mod; C `%` for signed).
  void remainder(const T *In, T *Out, size_t Count) const {
    const size_t Done = runLoop(RemSeq, In, Out, nullptr, Count);
    if (Done < Count)
      Fallback.remainder(In + Done, Out + Done, Count - Done);
  }

  /// Fused quotient+remainder, two result streams from one multiply
  /// chain (§1).
  void divRem(const T *In, T *Quot, T *Rem, size_t Count) const {
    const size_t Done = runLoop(BothSeq, In, Quot, Rem, Count);
    if (Done < Count)
      Fallback.divRem(In + Done, Quot + Done, Rem + Done, Count - Done);
  }

  /// §9 branch-free divisibility filter: Out[i] = 1 iff d | In[i].
  /// Unsigned lane types only.
  template <typename U = T,
            typename = std::enable_if_t<std::is_unsigned_v<U>>>
  void divisible(const T *In, uint8_t *Out, size_t Count) const {
    const size_t Done = runLoop(DivisibleSeq, In, Out, nullptr, Count);
    if (Done < Count)
      Fallback.divisible(In + Done, Out + Done, Count - Done);
  }

  /// ⌊n/d⌋ / ⌈n/d⌉ per element (signed lane types only). These route to
  /// the static kernels: floor/ceil sequences carry an extra adjustment
  /// chain whose jitted win has not been measured, so they stay on the
  /// proven path.
  template <typename U = T, typename = std::enable_if_t<std::is_signed_v<U>>>
  void floorDivide(const T *In, T *Out, size_t Count) const {
    Fallback.floorDivide(In, Out, Count);
  }
  template <typename U = T, typename = std::enable_if_t<std::is_signed_v<U>>>
  void ceilDivide(const T *In, T *Out, size_t Count) const {
    Fallback.ceilDivide(In, Out, Count);
  }

  /// The static divider every non-jitted element runs through.
  const batch::BatchDivider<T> &fallback() const { return Fallback; }
  /// Compiled divide loop (null on fallback); the tool uses it for
  /// annotated listings.
  const CompiledSequence *compiledDivide() const { return DivSeq.get(); }
  /// Elements per vector iteration on the jitted path (0 on fallback).
  size_t lanes() const {
    return DivSeq ? static_cast<size_t>(DivSeq->vectorShape().Lanes) : 0;
  }

  std::string describe() const {
    std::ostringstream Out;
    Out << "batch n" << (IsSigned ? "/" : "/u")
        << static_cast<int64_t>(divisor()) << " at N=" << N << " via "
        << backend();
    if (DivSeq)
      Out << " (" << DivSeq->vectorShape().Lanes << " lanes x"
          << DivSeq->vectorShape().Unroll << " unroll, "
          << DivSeq->codeSize() << " code bytes)";
    return Out.str();
  }

private:
  /// Runs \p Seq over the leading Count-rounded-down-to-lanes elements;
  /// returns how many it handled (0 when the loop is absent or the
  /// batch is shorter than one vector). Each nonempty jitted call is
  /// accounted like any other batch kernel call.
  size_t runLoop(const std::shared_ptr<const CompiledSequence> &Seq,
                 const void *In, void *Out0, void *Out1,
                 size_t Count) const {
    if (!Seq || Count < static_cast<size_t>(Seq->vectorShape().Lanes))
      return 0;
    const size_t Done = Seq->batchFn()(In, Out0, Out1, Count);
    if (Done)
      batch::noteBatchCall(Done);
    return Done;
  }

  batch::BatchDivider<T> Fallback;
  VectorIsa Isa = VectorIsa::Avx2;
  std::shared_ptr<const CompiledSequence> DivSeq, RemSeq, BothSeq,
      DivisibleSeq;
};

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JITBATCHDIVIDER_H
