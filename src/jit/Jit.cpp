//===- jit/Jit.cpp - Compile IR sequences to callable code ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "metrics/Metrics.h"
#include "telemetry/Remarks.h"
#include "trace/Trace.h"

#include <cstdlib>
#include <string>

using namespace gmdiv;
using namespace gmdiv::jit;

namespace {
// Vector-compile outcome counters. Registered directly rather than via
// GMDIV_STAT so they keep counting under GMDIV_NO_TELEMETRY, and named
// apart from the scalar gmdiv_jit_compile* family.
metrics::Counter &vectorCompilesCounter() {
  static metrics::Counter &C = metrics::Registry::global().counter(
      "gmdiv_jit_vector_compiles_total",
      "Vector (AVX2/AVX-512) division loops compiled");
  return C;
}
metrics::Counter &vectorBailsCounter() {
  static metrics::Counter &C = metrics::Registry::global().counter(
      "gmdiv_jit_vector_bails_total",
      "Vector loop compilations that bailed to the static batch kernels");
  return C;
}
metrics::Counter &vectorBytesCounter() {
  static metrics::Counter &C = metrics::Registry::global().counter(
      "gmdiv_jit_vector_bytes_total",
      "Machine-code bytes emitted for vector division loops");
  return C;
}
} // namespace

bool gmdiv::jit::hostSupported() {
#if defined(__x86_64__) || defined(_M_X64)
  return execMemorySupported();
#else
  return false;
#endif
}

bool gmdiv::jit::enabled() {
  static const bool Enabled = [] {
    if (!hostSupported())
      return false;
    const char *Off = std::getenv("GMDIV_NO_JIT");
    return !(Off && Off[0] == '1');
  }();
  return Enabled;
}

bool gmdiv::jit::vectorHostSupported(VectorIsa Isa) {
#if (defined(__x86_64__) || defined(_M_X64)) &&                              \
    (defined(__GNUC__) || defined(__clang__))
  if (!execMemorySupported())
    return false;
  if (Isa == VectorIsa::Avx512)
    // The 512-bit emitter's compares widen k1 with vpmovm2d/q (DQ); gate
    // on the server-class quartet so future ops (vpmullq) do not
    // silently require a wider check.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl");
  return __builtin_cpu_supports("avx2");
#else
  (void)Isa;
  return false;
#endif
}

bool gmdiv::jit::vectorJitIsa(VectorIsa &IsaOut) {
  struct Policy {
    bool On;
    VectorIsa Isa;
  };
  // Read once, like enabled(): the knob is a process-level policy, and
  // per-call getenv would put a libc lock on the divider-construction
  // path.
  static const Policy P = [] {
    Policy Out{false, VectorIsa::Avx2};
    if (!enabled())
      return Out;
    const char *Env = std::getenv("GMDIV_JIT_VECTOR");
    const std::string Val = Env ? Env : "";
    if (Val == "0" || Val == "off")
      return Out;
    if (Val == "avx512") {
      if (vectorHostSupported(VectorIsa::Avx512))
        Out = {true, VectorIsa::Avx512};
      return Out;
    }
    if (vectorHostSupported(VectorIsa::Avx2))
      Out = {true, VectorIsa::Avx2};
    return Out;
  }();
  IsaOut = P.Isa;
  return P.On;
}

std::shared_ptr<const CompiledSequence>
gmdiv::jit::compile(const ir::Program &P, const CompileInfo &Info,
                    std::string *Error) {
  GMDIV_TRACE_SPAN("jit", "compile", static_cast<uint64_t>(P.wordBits()));
  if (!enabled()) {
    GMDIV_STAT(jit, fallback_interp);
    if (Error)
      *Error = hostSupported() ? "JIT disabled (GMDIV_NO_JIT=1)"
                               : "host is not x86-64";
    return nullptr;
  }

  EmitResult Emitted = emitX86(P);
  if (!Emitted.Ok) {
    GMDIV_STAT(jit, emit_bails);
    GMDIV_STAT(jit, fallback_interp);
    if (Error)
      *Error = Emitted.Error;
    return nullptr;
  }

  std::string AllocError;
  ExecBuffer Buffer = ExecBuffer::allocateExec(
      Emitted.Code.data(), Emitted.Code.size(), &AllocError);
  if (!Buffer.valid()) {
    GMDIV_STAT(jit, fallback_interp);
    if (Error)
      *Error = AllocError;
    return nullptr;
  }

  GMDIV_STAT(jit, compiles);
  GMDIV_STAT_ADD(jit, compile_bytes, Emitted.Code.size());

  if (telemetry::remarksEnabled()) {
    telemetry::Remark R;
    R.Pass = "jit";
    R.Kind = "jit.compile";
    R.CaseName = Info.CaseName.empty() ? "sequence" : Info.CaseName;
    R.WordBits = P.wordBits();
    R.DivisorBits = Info.DivisorBits;
    R.IsSigned = Info.IsSigned;
    R.HasDivisor = Info.HasDivisor;
    R.Details.emplace_back("bytes", std::to_string(Emitted.Code.size()));
    R.Details.emplace_back("ir_ops", std::to_string(P.operationCount()));
    R.Details.emplace_back("x86_instrs",
                           std::to_string(Emitted.Lines.size()));
    telemetry::emitRemark(R);
  }

  return std::make_shared<const CompiledSequence>(
      std::move(Buffer), P.numArgs(),
      static_cast<int>(P.results().size()), std::move(Emitted.Lines));
}

std::shared_ptr<const CompiledSequence>
gmdiv::jit::compileVectorLoop(const ir::Program &P,
                              const VectorEmitOptions &Opts,
                              const CompileInfo &Info, std::string *Error) {
  GMDIV_TRACE_SPAN("jit", "compile-vector",
                   static_cast<uint64_t>(P.wordBits()));
  if (!enabled() || !vectorHostSupported(Opts.Isa)) {
    vectorBailsCounter().inc();
    if (Error)
      *Error = !hostSupported() ? "host is not x86-64"
               : !enabled()     ? "JIT disabled (GMDIV_NO_JIT=1)"
                                : "host CPU lacks the requested vector ISA";
    return nullptr;
  }

  VectorEmitResult Emitted = emitX86VectorLoop(P, Opts);
  if (!Emitted.Ok) {
    vectorBailsCounter().inc();
    if (Error)
      *Error = Emitted.Error;
    return nullptr;
  }

  std::string AllocError;
  ExecBuffer Buffer = ExecBuffer::allocateExec(
      Emitted.Code.data(), Emitted.Code.size(), &AllocError);
  if (!Buffer.valid()) {
    vectorBailsCounter().inc();
    if (Error)
      *Error = AllocError;
    return nullptr;
  }

  vectorCompilesCounter().inc();
  vectorBytesCounter().add(static_cast<uint64_t>(Emitted.Code.size()));

  if (telemetry::remarksEnabled()) {
    telemetry::Remark R;
    R.Pass = "jit";
    R.Kind = "jit.compile-vector";
    R.CaseName = Info.CaseName.empty() ? "vector-loop" : Info.CaseName;
    R.WordBits = P.wordBits();
    R.DivisorBits = Info.DivisorBits;
    R.IsSigned = Info.IsSigned;
    R.HasDivisor = Info.HasDivisor;
    R.Details.emplace_back("isa", vectorIsaName(Emitted.Shape.Isa));
    R.Details.emplace_back("lanes", std::to_string(Emitted.Shape.Lanes));
    R.Details.emplace_back("unroll", std::to_string(Emitted.Shape.Unroll));
    R.Details.emplace_back("bytes", std::to_string(Emitted.Code.size()));
    R.Details.emplace_back("ir_ops", std::to_string(P.operationCount()));
    R.Details.emplace_back("x86_instrs",
                           std::to_string(Emitted.Lines.size()));
    telemetry::emitRemark(R);
  }

  return std::make_shared<const CompiledSequence>(
      std::move(Buffer), P.numArgs(),
      static_cast<int>(P.results().size()), std::move(Emitted.Lines),
      Emitted.Shape);
}
