//===- jit/X86VectorEmitter.h - IR to AVX2/AVX-512 array loops --*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates a straight-line ir::Program into a full x86-64 SIMD *loop*
/// over contiguous arrays — the fusion of the scalar JIT (src/jit) with
/// the static batch kernels (src/batch). Where X86Emitter compiles one
/// call per dividend, this emitter compiles
///
///   uint64_t fn(const void *In  /*rdi*/, void *Out0 /*rsi*/,
///               void *Out1 /*rdx*/, uint64_t Count /*rcx*/);
///
/// an unrolled main loop plus a single-vector cleanup loop that together
/// process the largest multiple of the vector lane count <= Count and
/// return that element count in rax. The caller (JitBatchDivider) runs
/// the remaining tail through the static batch kernels, which match the
/// reference sequences bit for bit.
///
/// Because the divisor is invariant, every constant the sequence needs —
/// the Figure 4.1/5.1 multiplier, the §9 modular inverse, emulation
/// masks — is broadcast into a dedicated vector register once, in the
/// prologue, and every shift count is an *immediate*: the specialization
/// the static kernels (which load state from memory and use
/// runtime-count shifts) cannot do. Divisor-specialized IR compounds the
/// win: a power of two compiles to a bare shift loop, a word-sized
/// multiplier skips the n - t1 fixup dance entirely.
///
/// Lane containers follow the interpreter's canonical N-bit patterns:
/// word widths 2..32 run in 32-bit lanes, width 64 in 64-bit lanes
/// (widths 33..63 bail). That makes the verify harness's exhaustive
/// N = 4..12 sweeps exercise this emitter's real code paths, not a
/// stand-in.
///
/// Like X86Emitter, emission is portable C++ and never throws; it bails
/// (Ok == false, no partial code) on programs it does not handle, and
/// callers treat a bail as "use the static kernels".
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_X86VECTOREMITTER_H
#define GMDIV_JIT_X86VECTOREMITTER_H

#include "ir/IR.h"
#include "jit/X86Emitter.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gmdiv {
namespace jit {

/// Vector instruction set the loop targets. Avx512 uses 512-bit zmm
/// registers with EVEX encoding (registers 0-15, no masking). Its
/// SltU/SltS compares write k1 and widen it back with vpmovm2d/q
/// (AVX-512DQ), and byte-packed results store with vpmovdb/vpmovqb.
enum class VectorIsa : uint8_t { Avx2, Avx512 };

const char *vectorIsaName(VectorIsa Isa); ///< "avx2" / "avx512"

struct VectorEmitOptions {
  VectorIsa Isa = VectorIsa::Avx2;
  /// Vector bodies per main-loop iteration. The bodies reuse the same
  /// registers (out-of-order renaming provides the parallelism) with
  /// different memory offsets, so unrolling costs no register pressure.
  int Unroll = 4;
  /// Store result 0 as one *byte* per element (0/1 flags packed with
  /// vpackssdw/vpackuswb/vpermd on AVX2, truncated by vpmovdb/vpmovqb
  /// on AVX-512) — the §9 divisibility filter's output convention.
  bool ByteResult0 = false;
};

/// Geometry of an emitted loop, for cost accounting and listings.
struct VectorLoopShape {
  VectorIsa Isa = VectorIsa::Avx2;
  int ContainerBits = 32; ///< Memory element width (32 or 64).
  int Lanes = 0;          ///< Elements per vector.
  int Unroll = 1;         ///< Bodies in the main loop.
  bool ByteResult0 = false;
};

struct VectorEmitResult {
  bool Ok = false;
  std::string Error;          ///< Bail reason when !Ok.
  std::vector<uint8_t> Code;  ///< Complete function incl. ret.
  std::vector<AsmLine> Lines; ///< Annotated listing of Code.
  VectorLoopShape Shape;
};

/// Emits \p P as an x86-64 vector loop. Never throws; inspect Ok/Error.
/// Requirements: one argument, one or two results (one with
/// ByteResult0), word width in [2,32] or exactly 64, no runtime
/// division opcodes.
VectorEmitResult emitX86VectorLoop(const ir::Program &P,
                                   const VectorEmitOptions &Opts);

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_X86VECTOREMITTER_H
