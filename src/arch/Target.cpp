//===- arch/Target.cpp - Toy target backends for Table 11.1 ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "arch/Target.h"

#include "ir/Interp.h"
#include "ops/Bits.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

using namespace gmdiv;
using namespace gmdiv::target;
using gmdiv::ir::Opcode;

const TargetDesc &target::targetDesc(TargetKind Kind) {
  static const TargetDesc Mips = {TargetKind::Mips, "mips", 32, 24,
                                  /*MulHighViaSpecial=*/true,
                                  /*HasScaledAdd=*/false, "$"};
  static const TargetDesc Sparc = {TargetKind::Sparc, "sparc", 32, 24,
                                   true, false, "%r"};
  static const TargetDesc Alpha = {TargetKind::Alpha, "alpha", 64, 28,
                                   false, true, "$"};
  static const TargetDesc Power = {TargetKind::Power, "power", 32, 28,
                                   false, false, "r"};
  switch (Kind) {
  case TargetKind::Mips:
    return Mips;
  case TargetKind::Sparc:
    return Sparc;
  case TargetKind::Alpha:
    return Alpha;
  case TargetKind::Power:
    return Power;
  }
  assert(false && "unknown target");
  return Mips;
}

namespace {

/// Per-target mnemonics for the plain IR operations.
std::string mnemonicFor(Opcode Op, const TargetDesc &Target) {
  switch (Op) {
  case Opcode::Add:
    return Target.Kind == TargetKind::Alpha
               ? "addq"
               : (Target.Kind == TargetKind::Power ? "a" : "add");
  case Opcode::Sub:
    return Target.Kind == TargetKind::Alpha
               ? "subq"
               : (Target.Kind == TargetKind::Power ? "sf" : "sub");
  case Opcode::Neg:
    return "neg";
  case Opcode::MulL:
    return Target.Kind == TargetKind::Alpha ? "mulq" : "mul";
  case Opcode::MulUH:
    return Target.Kind == TargetKind::Alpha ? "umulh" : "mulhwu";
  case Opcode::MulSH:
    return Target.Kind == TargetKind::Alpha ? "smulh" // pseudo
           : Target.Kind == TargetKind::Power ? "mul" // RIOS high word
                                              : "mulhw";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return Target.Kind == TargetKind::Power ? "oril" : "or";
  case Opcode::Eor:
    return "xor";
  case Opcode::Not:
    return "not";
  case Opcode::Sll:
    return Target.Kind == TargetKind::Alpha ? "sll" : "sll";
  case Opcode::Srl:
    return Target.Kind == TargetKind::Alpha ? "srl" : "srl";
  case Opcode::Sra:
    return "sra";
  case Opcode::Ror:
    return "ror";
  case Opcode::Xsign:
    return "sra"; // Rendered as an N-1 arithmetic shift.
  case Opcode::SltS:
    return "slt";
  case Opcode::SltU:
    return "sltu";
  case Opcode::DivU:
    return "divu";
  case Opcode::DivS:
    return "div";
  case Opcode::RemU:
    return "remu";
  case Opcode::RemS:
    return "rem";
  case Opcode::Arg:
  case Opcode::Const:
    break;
  }
  assert(false && "no mnemonic for leaf opcodes");
  return "?";
}

/// Selection context: IR value index -> vreg, plus single-use shift
/// fusion bookkeeping for the Alpha.
class Selector {
public:
  Selector(const ir::Program &P, const TargetDesc &Target)
      : P(P), Target(Target) {
    MF.Target = &Target;
    MF.NumArgs = P.numArgs();
    MF.NumVRegs = P.numArgs(); // vregs [0, numArgs) hold the arguments.
    ValueToVReg.assign(static_cast<size_t>(P.size()), -1);
    UseCount.assign(static_cast<size_t>(P.size()), 0);
    UniqueUser.assign(static_cast<size_t>(P.size()), -1);
    for (int Index = 0; Index < P.size(); ++Index) {
      const ir::Instr &I = P.instr(Index);
      if (ir::opcodeIsLeaf(I.Op))
        continue;
      noteUse(I.Lhs, Index);
      if (!ir::opcodeIsUnary(I.Op))
        noteUse(I.Rhs, Index);
    }
    for (int Result : P.results())
      noteUse(Result, -2); // Results are "used" beyond the last instr.
  }

  MachineFunction select() {
    for (int Index = 0; Index < P.size(); ++Index)
      selectOne(Index);
    for (size_t ResultIndex = 0; ResultIndex < P.results().size();
         ++ResultIndex) {
      MF.ResultRegs.push_back(
          vregOf(P.results()[ResultIndex]));
      MF.ResultNames.push_back(P.resultNames()[ResultIndex]);
    }
    return std::move(MF);
  }

private:
  void noteUse(int Value, int User) {
    ++UseCount[static_cast<size_t>(Value)];
    UniqueUser[static_cast<size_t>(Value)] =
        UseCount[static_cast<size_t>(Value)] == 1 ? User : -1;
  }

  int freshVReg() { return MF.NumVRegs++; }

  int vregOf(int Value) {
    const int VReg = ValueToVReg[static_cast<size_t>(Value)];
    assert(VReg >= 0 && "value not yet selected");
    return VReg;
  }

  /// True if IR value \p Index is an SLL by 2 or 3 whose only user is
  /// \p User — fusable into a scaled add/sub on the Alpha.
  bool fusableShift(int Index, int User) const {
    if (!Target.HasScaledAdd)
      return false;
    const ir::Instr &I = P.instr(Index);
    return I.Op == Opcode::Sll && (I.Imm == 2 || I.Imm == 3) &&
           UniqueUser[static_cast<size_t>(Index)] == User;
  }

  void selectOne(int Index) {
    const ir::Instr &I = P.instr(Index);
    switch (I.Op) {
    case Opcode::Arg:
      ValueToVReg[static_cast<size_t>(Index)] = static_cast<int>(I.Imm);
      return;
    case Opcode::Const:
      selectConstant(Index, I.Imm);
      return;
    case Opcode::Sll:
      if (fusableShift(Index, UniqueUser[static_cast<size_t>(Index)]) &&
          UniqueUser[static_cast<size_t>(Index)] >= 0) {
        const ir::Instr &User =
            P.instr(UniqueUser[static_cast<size_t>(Index)]);
        if (User.Op == Opcode::Add ||
            (User.Op == Opcode::Sub && User.Lhs == Index)) {
          // Deferred: the consumer emits the fused form.
          ValueToVReg[static_cast<size_t>(Index)] = -1;
          Deferred[Index] = true;
          return;
        }
      }
      selectSimple(Index, I);
      return;
    case Opcode::Add:
    case Opcode::Sub:
      if (trySelectScaled(Index, I))
        return;
      selectSimple(Index, I);
      return;
    case Opcode::MulUH:
    case Opcode::MulSH:
      if (Target.MulHighViaSpecial) {
        // multu/umul writes HI (%y); mfhi/rd reads it back.
        MachineInstr Pair;
        Pair.Mnemonic = Target.Kind == TargetKind::Mips
                            ? (I.Op == Opcode::MulUH ? "multu" : "mult")
                            : (I.Op == Opcode::MulUH ? "umul" : "smul");
        Pair.Sem = MachineSem::MulHiPair;
        Pair.IrSem = I.Op;
        Pair.UseA = vregOf(I.Lhs);
        Pair.UseB = vregOf(I.Rhs);
        Pair.Comment = I.Comment;
        MF.Instrs.push_back(std::move(Pair));
        MachineInstr Read;
        Read.Mnemonic = Target.Kind == TargetKind::Mips ? "mfhi" : "rd %y,";
        Read.Sem = MachineSem::ReadHi;
        Read.Def = freshVReg();
        MF.Instrs.push_back(Read);
        ValueToVReg[static_cast<size_t>(Index)] = MF.Instrs.back().Def;
        return;
      }
      selectSimple(Index, I);
      return;
    default:
      selectSimple(Index, I);
      return;
    }
  }

  bool trySelectScaled(int Index, const ir::Instr &I) {
    if (!Target.HasScaledAdd)
      return false;
    // ADD: either operand may be the fusable shift. SUB: only the
    // minuend ((a << k) - b maps to s4subq a, b).
    int ShiftValue = -1, OtherValue = -1;
    if (Deferred.count(I.Lhs) && fusableShift(I.Lhs, Index)) {
      ShiftValue = I.Lhs;
      OtherValue = I.Rhs;
    } else if (I.Op == Opcode::Add && Deferred.count(I.Rhs) &&
               fusableShift(I.Rhs, Index)) {
      ShiftValue = I.Rhs;
      OtherValue = I.Lhs;
    }
    if (ShiftValue < 0)
      return false;
    const ir::Instr &Shift = P.instr(ShiftValue);
    MachineInstr Fused;
    Fused.Scale = static_cast<int>(Shift.Imm);
    Fused.Sem = I.Op == Opcode::Add ? MachineSem::ScaledAdd
                                    : MachineSem::ScaledSub;
    Fused.Mnemonic = std::string("s") + (Fused.Scale == 2 ? "4" : "8") +
                     (I.Op == Opcode::Add ? "addq" : "subq");
    Fused.UseA = vregOf(Shift.Lhs);
    Fused.UseB = vregOf(OtherValue);
    Fused.Def = freshVReg();
    Fused.Comment = I.Comment;
    MF.Instrs.push_back(std::move(Fused));
    ValueToVReg[static_cast<size_t>(Index)] = MF.Instrs.back().Def;
    return true;
  }

  void selectConstant(int Index, uint64_t Value) {
    // MIPS/SPARC build wide constants in two halves (lui/ori,
    // sethi/or), as the Table 11.1 listings show; Alpha and POWER get a
    // single load here (the toy simplification is noted in Target.h).
    const bool TwoPiece =
        (Target.Kind == TargetKind::Mips ||
         Target.Kind == TargetKind::Sparc) &&
        Value > 0xffff;
    if (!TwoPiece) {
      MachineInstr Load;
      Load.Mnemonic = Target.Kind == TargetKind::Mips    ? "li"
                      : Target.Kind == TargetKind::Sparc ? "set"
                      : Target.Kind == TargetKind::Alpha ? "lda"
                                                         : "cal";
      Load.Sem = MachineSem::LoadImm;
      Load.Imm = Value;
      Load.HasImm = true;
      Load.Def = freshVReg();
      MF.Instrs.push_back(std::move(Load));
      ValueToVReg[static_cast<size_t>(Index)] = MF.Instrs.back().Def;
      return;
    }
    // High piece.
    MachineInstr High;
    High.Mnemonic = Target.Kind == TargetKind::Mips ? "lui" : "sethi";
    High.Sem = MachineSem::LoadImm;
    High.Imm = Value & ~uint64_t{0xffff};
    High.HasImm = true;
    High.Def = freshVReg();
    MF.Instrs.push_back(std::move(High));
    const int HighReg = MF.Instrs.back().Def;
    // Low piece ORed in.
    MachineInstr Low;
    Low.Mnemonic = Target.Kind == TargetKind::Mips ? "ori" : "or";
    Low.Sem = MachineSem::IrOp;
    Low.IrSem = Opcode::Or;
    Low.UseA = HighReg;
    Low.Imm = Value & 0xffff;
    Low.HasImm = true;
    Low.Def = freshVReg();
    MF.Instrs.push_back(std::move(Low));
    ValueToVReg[static_cast<size_t>(Index)] = MF.Instrs.back().Def;
  }

  void selectSimple(int Index, const ir::Instr &I) {
    MachineInstr M;
    M.Mnemonic = mnemonicFor(I.Op, Target);
    M.Sem = MachineSem::IrOp;
    M.IrSem = I.Op;
    M.UseA = vregOf(I.Lhs);
    if (ir::opcodeHasImmOperand(I.Op)) {
      M.Imm = I.Imm;
      M.HasImm = true;
    } else if (I.Op == Opcode::Xsign) {
      // Rendered as SRA by N-1.
      M.IrSem = Opcode::Sra;
      M.Imm = static_cast<uint64_t>(Target.WordBits - 1);
      M.HasImm = true;
    } else if (!ir::opcodeIsUnary(I.Op)) {
      M.UseB = vregOf(I.Rhs);
    }
    M.Comment = I.Comment;
    M.Def = freshVReg();
    MF.Instrs.push_back(std::move(M));
    ValueToVReg[static_cast<size_t>(Index)] = MF.Instrs.back().Def;
  }

  const ir::Program &P;
  const TargetDesc &Target;
  MachineFunction MF;
  std::vector<int> ValueToVReg;
  std::vector<int> UseCount;
  std::vector<int> UniqueUser;
  std::map<int, bool> Deferred;
};

} // namespace

MachineFunction target::selectInstructions(const ir::Program &P,
                                           TargetKind Kind) {
  const TargetDesc &Target = targetDesc(Kind);
  assert(P.wordBits() == Target.WordBits &&
         "program width must match the target word size");
  Selector S(P, Target);
  return S.select();
}

void target::allocateRegisters(MachineFunction &MF) {
  assert(!MF.Allocated && "already allocated");
  // Last use (instruction index) of each vreg; results live to the end.
  const int End = static_cast<int>(MF.Instrs.size());
  std::vector<int> LastUse(static_cast<size_t>(MF.NumVRegs), -1);
  for (int Index = 0; Index < End; ++Index) {
    const MachineInstr &I = MF.Instrs[static_cast<size_t>(Index)];
    if (I.UseA >= 0)
      LastUse[static_cast<size_t>(I.UseA)] = Index;
    if (I.UseB >= 0)
      LastUse[static_cast<size_t>(I.UseB)] = Index;
  }
  for (int Result : MF.ResultRegs)
    LastUse[static_cast<size_t>(Result)] = End;
  // Arguments are live from entry.
  std::vector<int> Assignment(static_cast<size_t>(MF.NumVRegs), -1);
  std::vector<bool> InUse(static_cast<size_t>(MF.Target->NumRegs), false);
  int Live = 0;
  auto Acquire = [&](int VReg) {
    for (int Phys = 0; Phys < MF.Target->NumRegs; ++Phys) {
      if (!InUse[static_cast<size_t>(Phys)]) {
        InUse[static_cast<size_t>(Phys)] = true;
        Assignment[static_cast<size_t>(VReg)] = Phys;
        ++Live;
        MF.PeakRegisters = std::max(MF.PeakRegisters, Live);
        return;
      }
    }
    assert(false && "ran out of registers (no spilling in the toy RA)");
  };
  auto ReleaseDeadAt = [&](int Index) {
    for (int VReg = 0; VReg < MF.NumVRegs; ++VReg) {
      const int Phys = Assignment[static_cast<size_t>(VReg)];
      if (Phys >= 0 && LastUse[static_cast<size_t>(VReg)] == Index) {
        InUse[static_cast<size_t>(Phys)] = false;
        Assignment[static_cast<size_t>(VReg)] = -2; // Retired.
        --Live;
      }
    }
  };
  for (int Arg = 0; Arg < MF.NumArgs; ++Arg) {
    if (LastUse[static_cast<size_t>(Arg)] >= 0)
      Acquire(Arg);
  }
  for (int Index = 0; Index < End; ++Index) {
    MachineInstr &I = MF.Instrs[static_cast<size_t>(Index)];
    if (I.UseA >= 0)
      I.UseA = Assignment[static_cast<size_t>(I.UseA)];
    if (I.UseB >= 0)
      I.UseB = Assignment[static_cast<size_t>(I.UseB)];
    assert(I.UseA != -2 && I.UseB != -2 && "use after retirement");
    ReleaseDeadAt(Index);
    if (I.Def >= 0) {
      const int VReg = I.Def;
      if (LastUse[static_cast<size_t>(VReg)] < 0) {
        // Dead definition: give it a register anyway (kept simple).
        Acquire(VReg);
      } else {
        Acquire(VReg);
      }
      I.Def = Assignment[static_cast<size_t>(VReg)];
    }
  }
  for (int &Result : MF.ResultRegs) {
    Result = Assignment[static_cast<size_t>(Result)];
    assert(Result >= 0 && "result register retired");
  }
  MF.Allocated = true;
}

std::string target::emitAssembly(const MachineFunction &MF) {
  const TargetDesc &Target = *MF.Target;
  const bool DstFirst =
      Target.Kind == TargetKind::Mips || Target.Kind == TargetKind::Power;
  std::ostringstream Out;
  auto Reg = [&](int Index) {
    return Target.RegPrefix + std::to_string(Index + 2); // r0/r1 reserved.
  };
  for (const MachineInstr &I : MF.Instrs) {
    std::ostringstream Line;
    Line << "  " << I.Mnemonic << " ";
    std::vector<std::string> Operands;
    if (I.Sem == MachineSem::LoadImm) {
      std::ostringstream Imm;
      Imm << "0x" << std::hex << I.Imm;
      if (DstFirst)
        Operands = {Reg(I.Def), Imm.str()};
      else
        Operands = {Imm.str(), Reg(I.Def)};
    } else {
      std::vector<std::string> Sources;
      if (I.UseA >= 0)
        Sources.push_back(Reg(I.UseA));
      if (I.UseB >= 0)
        Sources.push_back(Reg(I.UseB));
      if (I.HasImm && I.Sem == MachineSem::IrOp) {
        std::ostringstream Imm;
        if (I.Imm < 64) // Shift counts and small constants in decimal.
          Imm << I.Imm;
        else
          Imm << "0x" << std::hex << I.Imm;
        Sources.push_back(Imm.str());
      }
      if (I.Def >= 0) {
        if (DstFirst) {
          Operands.push_back(Reg(I.Def));
          Operands.insert(Operands.end(), Sources.begin(), Sources.end());
        } else {
          Operands = Sources;
          Operands.push_back(Reg(I.Def));
        }
      } else {
        Operands = Sources;
      }
    }
    for (size_t OpIndex = 0; OpIndex < Operands.size(); ++OpIndex) {
      if (OpIndex)
        Line << ", ";
      Line << Operands[OpIndex];
    }
    std::string Text = Line.str();
    if (!I.Comment.empty()) {
      if (Text.size() < 32)
        Text.append(32 - Text.size(), ' ');
      Text += "; " + I.Comment;
    }
    Out << Text << "\n";
  }
  for (size_t ResultIndex = 0; ResultIndex < MF.ResultRegs.size();
       ++ResultIndex)
    Out << "  ; result "
        << (MF.ResultNames[ResultIndex].empty()
                ? "r" + std::to_string(ResultIndex)
                : MF.ResultNames[ResultIndex])
        << " in " << Reg(MF.ResultRegs[ResultIndex]) << "\n";
  return Out.str();
}

std::vector<uint64_t> target::runMachine(const MachineFunction &MF,
                                         const std::vector<uint64_t> &Args) {
  const int Bits = MF.Target->WordBits;
  const uint64_t Mask = maskFor(Bits);
  assert(static_cast<int>(Args.size()) == MF.NumArgs &&
         "argument count mismatch");
  const int RegCount =
      MF.Allocated ? MF.Target->NumRegs : std::max(MF.NumVRegs, MF.NumArgs);
  std::vector<uint64_t> Regs(static_cast<size_t>(RegCount) + 1, 0);
  uint64_t Hi = 0;
  // Arguments: vregs 0..n-1 before allocation; after allocation the
  // allocator assigned them the first physical registers in order.
  for (int Arg = 0; Arg < MF.NumArgs; ++Arg)
    Regs[static_cast<size_t>(Arg)] = Args[static_cast<size_t>(Arg)] & Mask;
  for (const MachineInstr &I : MF.Instrs) {
    uint64_t Value = 0;
    const uint64_t A = I.UseA >= 0 ? Regs[static_cast<size_t>(I.UseA)] : 0;
    const uint64_t B = I.HasImm
                           ? I.Imm
                           : (I.UseB >= 0 ? Regs[static_cast<size_t>(I.UseB)]
                                          : 0);
    switch (I.Sem) {
    case MachineSem::LoadImm:
      Value = I.Imm & Mask;
      break;
    case MachineSem::IrOp:
      if (ir::opcodeHasImmOperand(I.IrSem) || I.IrSem == Opcode::Sra)
        Value = ir::evalOp(I.IrSem, Bits, A, 0,
                           I.HasImm ? I.Imm : 0);
      else
        Value = ir::evalOp(I.IrSem, Bits, A, B, 0);
      break;
    case MachineSem::MulHiPair:
      Hi = ir::evalOp(I.IrSem, Bits, A,
                      I.UseB >= 0 ? Regs[static_cast<size_t>(I.UseB)] : 0,
                      0);
      break;
    case MachineSem::ReadHi:
      Value = Hi;
      break;
    case MachineSem::ScaledAdd:
      Value = (((A << I.Scale) & Mask) + B) & Mask;
      break;
    case MachineSem::ScaledSub:
      Value = (((A << I.Scale) & Mask) - B) & Mask;
      break;
    }
    if (I.Def >= 0)
      Regs[static_cast<size_t>(I.Def)] = Value & Mask;
  }
  std::vector<uint64_t> Results;
  for (int Result : MF.ResultRegs)
    Results.push_back(Regs[static_cast<size_t>(Result)]);
  return Results;
}
