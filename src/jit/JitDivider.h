//===- jit/JitDivider.h - Invariant division via JIT-compiled IR -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end front-end the paper implies: take a constant divisor,
/// run the *compiler's* pipeline — DivCodeGen (Figures 4.2/5.2),
/// Peephole cleanup, latency-aware scheduling — and then actually
/// execute the resulting sequence as native code. Where
/// core/Divider.h hand-implements Figure 4.1/5.1 in C++, JitDivider
/// demonstrates that the *generated* sequences themselves run at
/// hardware speed.
///
///   JitDivider<uint32_t> Div(7);
///   uint32_t Q = Div.divide(N);        // native code, or ir::Interp
///   bool Jitted = Div.usesJit();       // on hosts without the backend
///
/// Compiled code is shared through the process-wide sharded
/// jit::CodeCache, so constructing many dividers for the same divisor
/// compiles once, across threads. On non-x86-64 hosts, or with
/// GMDIV_NO_JIT=1, every call transparently runs the same prepared
/// program through the interpreter — bit-for-bit identical results,
/// proven by the differential harness (src/verify).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JITDIVIDER_H
#define GMDIV_JIT_JITDIVIDER_H

#include "codegen/DivCodeGen.h"
#include "ir/Interp.h"
#include "ir/Peephole.h"
#include "ir/Scheduler.h"
#include "jit/Jit.h"
#include "jit/JitCache.h"
#include "ops/Bits.h"

#include <cstdint>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

namespace gmdiv {
namespace jit {

/// Latency model for scheduling JIT-bound sequences: multiplies are the
/// long pole (3 cycles on most Table 1.1 pipelined machines), leaves
/// are free.
inline double jitScheduleLatency(const ir::Instr &I) {
  switch (I.Op) {
  case ir::Opcode::MulL:
  case ir::Opcode::MulUH:
  case ir::Opcode::MulSH:
    return 3.0;
  case ir::Opcode::Arg:
  case ir::Opcode::Const:
    return 0.0;
  default:
    return 1.0;
  }
}

/// Copy of \p P keeping only result \p Which (Peephole then drops the
/// now-dead instructions). Used to carve a remainder-only program out
/// of a divRem generator.
inline ir::Program selectResult(const ir::Program &P, size_t Which) {
  ir::Program Out(P.wordBits(), P.numArgs());
  for (const ir::Instr &I : P.instrs())
    Out.append(I);
  Out.markResult(P.results()[Which], P.resultNames()[Which]);
  return Out;
}

/// The full pre-JIT pipeline: peephole cleanup, then critical-path
/// scheduling. Both preserve results exactly.
inline ir::Program prepareForJit(const ir::Program &P) {
  return ir::scheduleProgram(ir::optimize(P), jitScheduleLatency);
}

/// Generates the (unprepared) program for one cache key. DivisorBits is
/// the divisor's two's-complement bit pattern at \p WordBits.
inline ir::Program genSequence(SeqKind Kind, int WordBits,
                               uint64_t DivisorBits) {
  const uint64_t U = DivisorBits & maskFor(WordBits);
  // Sign-extend the pattern for the signed generators.
  const int64_t S = signExtend64(DivisorBits, WordBits);
  switch (Kind) {
  case SeqKind::UDiv:
    return codegen::genUnsignedDiv(WordBits, U);
  case SeqKind::URem:
    return selectResult(codegen::genUnsignedDivRem(WordBits, U), 1);
  case SeqKind::UDivRem:
    return codegen::genUnsignedDivRem(WordBits, U);
  case SeqKind::SDiv:
    return codegen::genSignedDiv(WordBits, S);
  case SeqKind::SRem:
    return selectResult(codegen::genSignedDivRem(WordBits, S), 1);
  case SeqKind::SDivRem:
    return codegen::genSignedDivRem(WordBits, S);
  case SeqKind::FloorDiv:
    return codegen::genFloorDiv(WordBits, S);
  case SeqKind::FloorMod:
    return selectResult(codegen::genFloorDivMod(WordBits, S), 1);
  case SeqKind::FloorDivMod:
    return codegen::genFloorDivMod(WordBits, S);
  case SeqKind::UDivisible:
    return codegen::genDivisibilityTestUnsigned(WordBits, U);
  }
  return ir::Program(WordBits, 1);
}

/// Prepares and compiles the sequence for \p Key through \p Cache
/// (compile-once per key). Also returns the prepared program through
/// \p PreparedOut when non-null, for interpreter fallback.
inline std::shared_ptr<const CompiledSequence>
compileCached(CodeCache &Cache, const CacheKey &Key,
              ir::Program *PreparedOut = nullptr) {
  ir::Program Prepared =
      prepareForJit(genSequence(Key.Kind, Key.WordBits, Key.Divisor));
  std::shared_ptr<const CompiledSequence> Seq =
      Cache.getOrCompile(Key, [&] {
        CompileInfo Info;
        Info.CaseName = seqKindName(Key.Kind);
        Info.DivisorBits = Key.Divisor;
        Info.IsSigned = isSignedKind(Key.Kind);
        Info.HasDivisor = true;
        return compile(Prepared, Info);
      });
  if (PreparedOut)
    *PreparedOut = std::move(Prepared);
  return Seq;
}

/// Vector-loop sibling of compileCached: \p Key must carry
/// Form == KernelForm::Vector so the entry never collides with the
/// scalar kernel for the same triple. The prepared program is the same
/// scheduled sequence the scalar path runs — the vector emitter
/// re-lowers it per lane.
inline std::shared_ptr<const CompiledSequence>
compileVectorCached(CodeCache &Cache, const CacheKey &Key,
                    const VectorEmitOptions &Opts) {
  return Cache.getOrCompile(Key, [&] {
    CompileInfo Info;
    Info.CaseName = std::string("vec-") + seqKindName(Key.Kind);
    Info.DivisorBits = Key.Divisor;
    Info.IsSigned = isSignedKind(Key.Kind);
    Info.HasDivisor = true;
    return compileVectorLoop(
        prepareForJit(genSequence(Key.Kind, Key.WordBits, Key.Divisor)),
        Opts, Info);
  });
}

/// Division by a run-time invariant divisor through the generated-code
/// pipeline. T is any native integer type; signedness picks the
/// Figure 4.2 or Figure 5.2 generator (C trunc semantics, like
/// SignedDivider).
template <typename T> class JitDivider {
  static_assert(std::is_integral<T>::value && !std::is_same<T, bool>::value,
                "JitDivider requires a native integer type");

public:
  using UWord = typename std::make_unsigned<T>::type;
  static constexpr bool IsSigned = std::is_signed<T>::value;
  static constexpr int N = static_cast<int>(sizeof(T) * 8);

  /// Precompiles divide, remainder and divRem sequences for \p Divisor
  /// (nonzero). Compilation is shared through \p Cache.
  explicit JitDivider(T Divisor, CodeCache &Cache = CodeCache::global())
      : Divisor(Divisor) {
    const uint64_t Bits = static_cast<uint64_t>(static_cast<UWord>(Divisor));
    const SeqKind DivKind = IsSigned ? SeqKind::SDiv : SeqKind::UDiv;
    const SeqKind RemKind = IsSigned ? SeqKind::SRem : SeqKind::URem;
    const SeqKind BothKind = IsSigned ? SeqKind::SDivRem : SeqKind::UDivRem;
    DivSeq = compileCached(Cache, {DivKind, N, Bits}, &DivProgram);
    RemSeq = compileCached(Cache, {RemKind, N, Bits}, &RemProgram);
    BothSeq = compileCached(Cache, {BothKind, N, Bits}, &BothProgram);
  }

  T divisor() const { return Divisor; }

  /// True when calls run native code (all three sequences compiled).
  bool usesJit() const { return DivSeq && RemSeq && BothSeq; }
  const char *backend() const { return usesJit() ? "jit" : "interp"; }

  /// trunc(n / d) (⌊n/d⌋ for unsigned T).
  T divide(T N0) const {
    if (DivSeq)
      return fromBits(DivSeq->fn()(toBits(N0), 0, nullptr));
    return fromBits(interpOne(DivProgram, toBits(N0)));
  }

  /// n % d (sign of the dividend for signed T).
  T remainder(T N0) const {
    if (RemSeq)
      return fromBits(RemSeq->fn()(toBits(N0), 0, nullptr));
    return fromBits(interpOne(RemProgram, toBits(N0)));
  }

  /// Quotient and remainder from the shared sequence (§1: one extra
  /// MULL and subtract).
  std::pair<T, T> divRem(T N0) const {
    if (BothSeq) {
      uint64_t Extra[1] = {0};
      const uint64_t Q = BothSeq->fn()(toBits(N0), 0, Extra);
      return {fromBits(Q), fromBits(Extra[0])};
    }
    thread_local std::vector<uint64_t> Args, Scratch, Results;
    Args.assign(1, toBits(N0));
    ir::runScratch(BothProgram, Args, Scratch, Results);
    return {fromBits(Results[0]), fromBits(Results[1])};
  }

  /// Compiled divide sequence (null on the interpreter fallback); the
  /// tool uses it for listings.
  const CompiledSequence *compiledDiv() const { return DivSeq.get(); }

  std::string describe() const {
    std::ostringstream Out;
    Out << "n" << (IsSigned ? "/" : "/u") << static_cast<int64_t>(Divisor)
        << " at N=" << N << " via " << backend();
    if (DivSeq)
      Out << " (" << DivSeq->codeSize() << " code bytes, "
          << DivProgram.operationCount() << " IR ops)";
    else
      Out << " (" << DivProgram.operationCount() << " IR ops)";
    return Out.str();
  }

private:
  static uint64_t toBits(T Value) {
    return static_cast<uint64_t>(static_cast<UWord>(Value));
  }
  static T fromBits(uint64_t Bits) {
    return static_cast<T>(static_cast<UWord>(Bits));
  }

  static uint64_t interpOne(const ir::Program &P, uint64_t Arg) {
    thread_local std::vector<uint64_t> Args, Scratch, Results;
    Args.assign(1, Arg);
    ir::runScratch(P, Args, Scratch, Results);
    return Results[0];
  }

  T Divisor;
  ir::Program DivProgram{N, 1}, RemProgram{N, 1}, BothProgram{N, 1};
  std::shared_ptr<const CompiledSequence> DivSeq, RemSeq, BothSeq;
};

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JITDIVIDER_H
