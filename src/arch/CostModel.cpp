//===- arch/CostModel.cpp - Sequence cost estimation ----------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "arch/CostModel.h"

#include "ir/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace gmdiv;
using namespace gmdiv::arch;

SequenceCost arch::estimateCost(const ir::Program &P,
                                const ArchProfile &Profile) {
  SequenceCost Cost;
  for (const ir::Instr &I : P.instrs()) {
    switch (I.Op) {
    case ir::Opcode::Arg:
    case ir::Opcode::Const:
      break; // Implicit per §3.
    case ir::Opcode::MulL:
    case ir::Opcode::MulUH:
    case ir::Opcode::MulSH:
      ++Cost.Multiplies;
      Cost.Cycles += Profile.mulCycles();
      break;
    case ir::Opcode::DivU:
    case ir::Opcode::DivS:
    case ir::Opcode::RemU:
    case ir::Opcode::RemS:
      // Un-lowered division: the divide instruction itself.
      ++Cost.Divides;
      Cost.Cycles += Profile.divCycles();
      break;
    default:
      ++Cost.SimpleOps;
      Cost.Cycles += Profile.SimpleOpCycles;
      break;
    }
  }
  return Cost;
}

double arch::estimateSpeedup(const ir::Program &P,
                             const ArchProfile &Profile) {
  const SequenceCost Cost = estimateCost(P, Profile);
  assert(Cost.Cycles > 0 && "empty sequence");
  return Profile.divCycles() / Cost.Cycles;
}

namespace {

double instrLatency(const ir::Instr &I, const ArchProfile &Profile) {
  switch (I.Op) {
  case ir::Opcode::Arg:
  case ir::Opcode::Const:
    return 0;
  case ir::Opcode::MulL:
  case ir::Opcode::MulUH:
  case ir::Opcode::MulSH:
    return Profile.mulCycles();
  case ir::Opcode::DivU:
  case ir::Opcode::DivS:
  case ir::Opcode::RemU:
  case ir::Opcode::RemS:
    return Profile.divCycles();
  default:
    return Profile.SimpleOpCycles;
  }
}

} // namespace

double arch::estimateCriticalPathCycles(const ir::Program &P,
                                        const ArchProfile &Profile) {
  std::vector<double> Depth(static_cast<size_t>(P.size()), 0);
  double Longest = 0;
  for (int Index = 0; Index < P.size(); ++Index) {
    const ir::Instr &I = P.instr(Index);
    double OperandReady = 0;
    if (!ir::opcodeIsLeaf(I.Op)) {
      OperandReady = Depth[static_cast<size_t>(I.Lhs)];
      if (!ir::opcodeIsUnary(I.Op))
        OperandReady =
            std::max(OperandReady, Depth[static_cast<size_t>(I.Rhs)]);
    }
    const double Done = OperandReady + instrLatency(I, Profile);
    Depth[static_cast<size_t>(Index)] = Done;
    Longest = std::max(Longest, Done);
  }
  return Longest;
}

double arch::estimateEffectiveCycles(const ir::Program &P,
                                     const ArchProfile &Profile) {
  if (Profile.isPipelined())
    return estimateCriticalPathCycles(P, Profile);
  return estimateCost(P, Profile).Cycles;
}

ir::Program arch::scheduleForProfile(const ir::Program &P,
                                     const ArchProfile &Profile) {
  return ir::scheduleProgram(P, [&Profile](const ir::Instr &I) {
    return instrLatency(I, Profile);
  });
}

double arch::estimateInOrderCycles(const ir::Program &P,
                                   const ArchProfile &Profile) {
  std::vector<double> Done(static_cast<size_t>(P.size()), 0);
  double IssueClock = 0;
  double Finish = 0;
  for (int Index = 0; Index < P.size(); ++Index) {
    const ir::Instr &I = P.instr(Index);
    const double Latency = instrLatency(I, Profile);
    if (Latency == 0) {
      Done[static_cast<size_t>(Index)] = 0; // Leaves are free.
      continue;
    }
    double Start = IssueClock;
    if (!ir::opcodeIsLeaf(I.Op)) {
      Start = std::max(Start, Done[static_cast<size_t>(I.Lhs)]);
      if (!ir::opcodeIsUnary(I.Op))
        Start = std::max(Start, Done[static_cast<size_t>(I.Rhs)]);
    }
    Done[static_cast<size_t>(Index)] = Start + Latency;
    IssueClock = Start + 1; // One issue slot per cycle.
    Finish = std::max(Finish, Done[static_cast<size_t>(Index)]);
  }
  return Finish;
}

int arch::registerPressure(const ir::Program &P) {
  // A value is live from its definition to its last use (or to the end
  // if it is a result).
  std::vector<int> LastUse(static_cast<size_t>(P.size()), -1);
  for (int Index = 0; Index < P.size(); ++Index) {
    const ir::Instr &I = P.instr(Index);
    if (ir::opcodeIsLeaf(I.Op))
      continue;
    LastUse[static_cast<size_t>(I.Lhs)] = Index;
    if (!ir::opcodeIsUnary(I.Op))
      LastUse[static_cast<size_t>(I.Rhs)] = Index;
  }
  for (int Result : P.results())
    LastUse[static_cast<size_t>(Result)] = P.size();

  int Live = 0, Peak = 0;
  std::vector<int> ExpiringAt(static_cast<size_t>(P.size()) + 1, 0);
  for (int Index = 0; Index < P.size(); ++Index) {
    if (LastUse[static_cast<size_t>(Index)] < 0)
      continue; // Dead value: never occupies a register past creation.
    ++Live;
    Peak = std::max(Peak, Live);
    ++ExpiringAt[static_cast<size_t>(LastUse[static_cast<size_t>(Index)])];
    // Release values whose last use is this instruction.
    Live -= ExpiringAt[static_cast<size_t>(Index)];
  }
  return Peak;
}

size_t BatchCost::breakEvenBatch() const {
  if (VectorCyclesPerElement >= ScalarCyclesPerElement)
    return 0; // Vector path never catches up.
  const double PerElementGain =
      ScalarCyclesPerElement - VectorCyclesPerElement;
  const double Batch = SetupCycles / PerElementGain;
  size_t Result = static_cast<size_t>(Batch);
  if (static_cast<double>(Result) < Batch)
    ++Result;
  return Result < 1 ? 1 : Result;
}

BatchCost arch::estimateBatchCost(int WordBits, const ArchProfile &Profile,
                                  int VectorBits) {
  assert((WordBits == 8 || WordBits == 16 || WordBits == 32 ||
          WordBits == 64) &&
         "batch kernels cover 8/16/32/64-bit lanes");
  assert(VectorBits >= WordBits && "vector must hold at least one lane");
  BatchCost Cost;
  Cost.Lanes = VectorBits / WordBits;

  // Scalar Figure 4.1: MULUH + {sub, srl, add, srl}.
  Cost.ScalarCyclesPerElement = Profile.mulCycles() + 4 * Profile.SimpleOpCycles;

  // Vector Figure 4.1 per vector: the same four simple ops (now on full
  // vectors), plus the MULUH emulation priced per the kernels'
  // instruction counts (src/batch/BatchX86Kernels.h):
  //   16-bit  native vector mulhi               -> 1 mul + 0 fixups
  //   8-bit   two 16-bit MULLOs + mask/combine  -> 2 mul + 4 fixups
  //   32-bit  even/odd widening mul + combine   -> 2 mul + 4 fixups
  //   64-bit  four widening muls + carry sums   -> 4 mul + 7 fixups
  int VectorMuls;
  int FixupOps;
  switch (WordBits) {
  case 16:
    VectorMuls = 1;
    FixupOps = 0;
    break;
  case 8:
  case 32:
    VectorMuls = 2;
    FixupOps = 4;
    break;
  default: // 64
    VectorMuls = 4;
    FixupOps = 7;
    break;
  }
  if (Cost.Lanes == 1) {
    // Degenerate "vector" of one lane: the scalar loop itself.
    Cost.VectorCyclesPerElement = Cost.ScalarCyclesPerElement;
    Cost.SetupCycles = 0;
    return Cost;
  }
  const double PerVector = VectorMuls * Profile.mulCycles() +
                           (4 + FixupOps) * Profile.SimpleOpCycles;
  Cost.VectorCyclesPerElement = PerVector / Cost.Lanes;
  // Per-call overhead: broadcasting m'/shift state into vector
  // registers, the dispatch indirection, and up to one partial vector
  // handled by the scalar tail.
  Cost.SetupCycles = 4 * Profile.SimpleOpCycles +
                     (Cost.Lanes / 2.0) * Cost.ScalarCyclesPerElement;
  return Cost;
}

BatchCost arch::estimateJitBatchCost(int WordBits, const ArchProfile &Profile,
                                     int VectorBits, uint64_t) {
  return estimateBatchCost(WordBits, Profile, VectorBits);
}
