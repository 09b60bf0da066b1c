//===- jit/Jit.h - Compile IR sequences to callable code --------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable end of the JIT backend: compileVectorLoop() runs the
/// X86VectorEmitter over a program, places the bytes in a W^X
/// ExecBuffer, and wraps the entry point in a CompiledSequence callable
/// with the batch ABI
///
///   uint64_t fn(const void *In, void *Out0, void *Out1, uint64_t Count);
///
/// Backend selection lives here and only here (no target #ifdef leaks
/// into other public headers):
///
///   vectorHostSupported(Isa) — x86-64 build, executable memory, CPUID
///   vectorJitIsa(Isa)        — the above under the GMDIV_JIT_VECTOR knob
///
/// Every successful compilation emits one "jit.compile-vector"
/// telemetry remark (bytes emitted, lanes, instruction counts), bumps
/// the gmdiv_jit_vector_* counters, and is wrapped in a ("jit",
/// "compile-vector") trace span. Callers that want caching go through
/// jit::CodeCache (JitCache.h) instead of compiling directly.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JIT_H
#define GMDIV_JIT_JIT_H

#include "ir/IR.h"
#include "jit/ExecMemory.h"
#include "jit/X86VectorEmitter.h"

#include <cstdint>
#include <memory>
#include <string>

namespace gmdiv {
namespace jit {

/// True when vector loops emitted for \p Isa can run here: x86-64
/// build, executable memory, and the CPUID feature bit (AVX2, or
/// AVX-512 F/DQ/BW/VL for the 512-bit emitter).
bool vectorHostSupported(VectorIsa Isa);

/// Resolves the GMDIV_JIT_VECTOR policy against the host, once.
/// Returns true and sets \p IsaOut when vector compilation should be
/// attempted; false when vetoed (GMDIV_JIT_VECTOR=0) or the host
/// cannot run the result. Knob values: "0"/"off" disable,
/// "avx512" pins the 512-bit emitter, "avx2" pins 256-bit; unset (or
/// anything else) auto-selects AVX2 — 512-bit stays opt-in so shared
/// hosts do not pay license-based frequency throttling unasked.
bool vectorJitIsa(VectorIsa &IsaOut);

/// One compiled vector loop. Immutable after construction; safe to
/// call concurrently from any number of threads (the code is read-only
/// and the ABI is pure).
class CompiledSequence {
public:
  /// fn(In, Out0, Out1, Count) -> elements processed (a multiple of the
  /// lane count; the caller handles the tail).
  using BatchFn = uint64_t (*)(const void *, void *, void *, uint64_t);

  CompiledSequence(ExecBuffer Buffer, VectorLoopShape Shape)
      : Buffer(std::move(Buffer)), Shape(Shape) {}

  size_t codeSize() const { return Buffer.codeSize(); }

  BatchFn batchFn() const {
    return reinterpret_cast<BatchFn>(const_cast<void *>(Buffer.entry()));
  }
  /// Lane geometry of the loop (isa, container bits, lanes, unroll).
  const VectorLoopShape &vectorShape() const { return Shape; }

private:
  ExecBuffer Buffer;
  VectorLoopShape Shape;
};

/// Optional context for the "jit.compile-vector" remark; all fields may be
/// left defaulted when the caller has no divisor in hand.
struct CompileInfo {
  std::string CaseName;      ///< e.g. "unsigned-div", "floor-mod".
  uint64_t DivisorBits = 0;
  bool IsSigned = false;
  bool HasDivisor = false;
};

/// Compiles \p P into a full array-division loop (X86VectorEmitter):
/// divisor constants folded into the instruction stream, unrolled main
/// loop, batchFn() entry. Null on bail — the emitter rejects the
/// program shape, the host lacks the ISA, or executable memory is
/// refused; callers fall back to the static src/batch kernels (the same
/// speed class). Bails/compiles/bytes are exported as
/// gmdiv_jit_vector_*_total.
std::shared_ptr<const CompiledSequence>
compileVectorLoop(const ir::Program &P, const VectorEmitOptions &Opts,
                  const CompileInfo &Info = CompileInfo(),
                  std::string *Error = nullptr);

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JIT_H
