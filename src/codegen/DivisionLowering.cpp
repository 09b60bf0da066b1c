//===- codegen/DivisionLowering.cpp - The §10 compiler pass ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "codegen/DivisionLowering.h"

#include "codegen/MulByConst.h"
#include "ir/Builder.h"
#include "metrics/Metrics.h"
#include "ops/Bits.h"
#include "telemetry/Remarks.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::codegen;
using namespace gmdiv::ir;

namespace {

/// q*d, honoring the multiply-expansion option.
int emitQuotientTimesDivisor(Builder &B, int Q, uint64_t D,
                             const GenOptions &Options) {
  if (Options.ExpandMulBelowCycles >= 0 &&
      shouldExpandMultiply(D, B.wordBits(), Options.ExpandMulBelowCycles))
    return emitMulByConst(B, Q, D);
  return B.mulL(Q, B.constant(D), "q * d");
}

/// Re-emits a non-division instruction through the Builder.
int reEmit(Builder &B, const Instr &I, int Lhs, int Rhs) {
  switch (I.Op) {
  case Opcode::Arg:
    return B.arg(static_cast<int>(I.Imm), I.Comment);
  case Opcode::Const:
    return B.constant(I.Imm, I.Comment);
  case Opcode::Add:
    return B.add(Lhs, Rhs, I.Comment);
  case Opcode::Sub:
    return B.sub(Lhs, Rhs, I.Comment);
  case Opcode::Neg:
    return B.neg(Lhs, I.Comment);
  case Opcode::MulL:
    return B.mulL(Lhs, Rhs, I.Comment);
  case Opcode::MulUH:
    return B.mulUH(Lhs, Rhs, I.Comment);
  case Opcode::MulSH:
    return B.mulSH(Lhs, Rhs, I.Comment);
  case Opcode::And:
    return B.and_(Lhs, Rhs, I.Comment);
  case Opcode::Or:
    return B.or_(Lhs, Rhs, I.Comment);
  case Opcode::Eor:
    return B.eor(Lhs, Rhs, I.Comment);
  case Opcode::Not:
    return B.not_(Lhs, I.Comment);
  case Opcode::Sll:
    return B.sll(Lhs, static_cast<int>(I.Imm), I.Comment);
  case Opcode::Srl:
    return B.srl(Lhs, static_cast<int>(I.Imm), I.Comment);
  case Opcode::Sra:
    return B.sra(Lhs, static_cast<int>(I.Imm), I.Comment);
  case Opcode::Ror:
    return B.ror(Lhs, static_cast<int>(I.Imm), I.Comment);
  case Opcode::Xsign:
    return B.xsign(Lhs, I.Comment);
  case Opcode::SltS:
    return B.sltS(Lhs, Rhs, I.Comment);
  case Opcode::SltU:
    return B.sltU(Lhs, Rhs, I.Comment);
  case Opcode::DivU:
    return B.divU(Lhs, Rhs, I.Comment);
  case Opcode::DivS:
    return B.divS(Lhs, Rhs, I.Comment);
  case Opcode::RemU:
    return B.remU(Lhs, Rhs, I.Comment);
  case Opcode::RemS:
    return B.remS(Lhs, Rhs, I.Comment);
  }
  assert(false && "unknown opcode");
  return Lhs;
}

/// The one lowering decision the per-divisor emitters never see: a
/// remainder by a power of two needs no quotient at all, so the pass
/// reports it here rather than in DivCodeGen.
void remarkRemPow2Mask(int WordBits, uint64_t D) {
  if (!telemetry::remarksEnabled())
    return;
  telemetry::Remark R;
  R.Pass = "lowering";
  R.Kind = "unsigned-rem-pow2-mask";
  R.Figure = "§10";
  R.CaseName = "remainder by a power of two is one AND";
  R.WordBits = WordBits;
  R.DivisorBits = D;
  R.IsSigned = false;
  telemetry::emitRemark(R);
}

void remarkLoweringSummary(int WordBits, const LoweringStats &S) {
  if (!telemetry::remarksEnabled())
    return;
  telemetry::Remark R;
  R.Pass = "lowering";
  R.Kind = "summary";
  R.Figure = "§10";
  R.CaseName = "pass summary";
  R.WordBits = WordBits;
  R.HasDivisor = false;
  R.Details = {
      {"unsigned_divs", std::to_string(S.UnsignedDivsLowered)},
      {"signed_divs", std::to_string(S.SignedDivsLowered)},
      {"unsigned_rems", std::to_string(S.UnsignedRemsLowered)},
      {"signed_rems", std::to_string(S.SignedRemsLowered)},
      {"runtime_kept", std::to_string(S.RuntimeDivisorsKept)},
  };
  telemetry::emitRemark(R);
}

} // namespace

Program codegen::lowerDivisions(const Program &P, const GenOptions &Options,
                                LoweringStats *Stats) {
  GMDIV_TRACE_SPAN("codegen", "lowerDivisions",
                   static_cast<uint64_t>(P.size()));
  LoweringStats Local;
  Builder B(P.wordBits(), P.numArgs());
  std::vector<int> Remap(static_cast<size_t>(P.size()), -1);

  for (int Index = 0; Index < P.size(); ++Index) {
    const Instr &I = P.instr(Index);
    const int Lhs =
        opcodeIsLeaf(I.Op) ? -1 : Remap[static_cast<size_t>(I.Lhs)];
    const int Rhs = (opcodeIsLeaf(I.Op) || opcodeIsUnary(I.Op))
                        ? -1
                        : Remap[static_cast<size_t>(I.Rhs)];

    const bool IsDivision = I.Op == Opcode::DivU || I.Op == Opcode::DivS ||
                            I.Op == Opcode::RemU || I.Op == Opcode::RemS;
    uint64_t DivisorBits = 0;
    const bool ConstDivisor =
        IsDivision && B.program().instr(Rhs).Op == Opcode::Const &&
        (DivisorBits = B.program().instr(Rhs).Imm) != 0;

    int NewIndex;
    if (!ConstDivisor) {
      if (IsDivision) {
        GMDIV_STAT(lowering, runtime_divisor_kept);
        ++Local.RuntimeDivisorsKept;
      }
      NewIndex = reEmit(B, I, Lhs, Rhs);
    } else {
      switch (I.Op) {
      case Opcode::DivU:
        GMDIV_STAT(lowering, unsigned_div);
        NewIndex = emitUnsignedDiv(B, Lhs, DivisorBits, Options);
        ++Local.UnsignedDivsLowered;
        break;
      case Opcode::DivS:
        GMDIV_STAT(lowering, signed_div);
        NewIndex = emitSignedDiv(
            B, Lhs, signExtend64(DivisorBits, P.wordBits()), Options);
        ++Local.SignedDivsLowered;
        break;
      case Opcode::RemU: {
        GMDIV_STAT(lowering, unsigned_rem);
        if ((DivisorBits & (DivisorBits - 1)) == 0) {
          // Power of two: one AND.
          GMDIV_STAT(lowering, unsigned_rem_pow2_mask);
          remarkRemPow2Mask(P.wordBits(), DivisorBits);
          NewIndex = B.and_(Lhs, B.constant(DivisorBits - 1),
                            "r = n & (2^k - 1)");
        } else {
          const int Q = emitUnsignedDiv(B, Lhs, DivisorBits, Options);
          NewIndex = B.sub(Lhs, emitQuotientTimesDivisor(
                                    B, Q, DivisorBits, Options),
                           "r = n - q*d");
        }
        ++Local.UnsignedRemsLowered;
        break;
      }
      case Opcode::RemS: {
        GMDIV_STAT(lowering, signed_rem);
        const int Q = emitSignedDiv(
            B, Lhs, signExtend64(DivisorBits, P.wordBits()), Options);
        NewIndex = B.sub(Lhs, emitQuotientTimesDivisor(B, Q, DivisorBits,
                                                       Options),
                         "r = n - q*d");
        ++Local.SignedRemsLowered;
        break;
      }
      default:
        NewIndex = reEmit(B, I, Lhs, Rhs); // Unreachable by construction.
        break;
      }
    }
    Remap[static_cast<size_t>(Index)] = NewIndex;
  }

  for (size_t ResultIndex = 0; ResultIndex < P.results().size();
       ++ResultIndex)
    B.markResult(Remap[static_cast<size_t>(P.results()[ResultIndex])],
                 P.resultNames()[ResultIndex]);
  remarkLoweringSummary(P.wordBits(), Local);
  if (Stats)
    *Stats = Local;
  return B.take();
}
