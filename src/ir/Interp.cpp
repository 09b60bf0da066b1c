//===- ir/Interp.cpp - Exact N-bit IR interpreter -------------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

#include "ops/Ops.h"

using namespace gmdiv;
using namespace gmdiv::ir;

namespace {

template <typename UWord>
uint64_t evalOpT(Opcode Op, uint64_t A64, uint64_t B64, uint64_t Imm) {
  using SWord = typename WordTraits<UWord>::SWord;
  constexpr int Bits = WordTraits<UWord>::Bits;
  const UWord A = static_cast<UWord>(A64);
  const UWord B = static_cast<UWord>(B64);
  const int Amount = static_cast<int>(Imm);
  switch (Op) {
  case Opcode::Add:
    return static_cast<UWord>(A + B);
  case Opcode::Sub:
    return static_cast<UWord>(A - B);
  case Opcode::Neg:
    return static_cast<UWord>(UWord{0} - A);
  case Opcode::MulL:
    return mulL(A, B);
  case Opcode::MulUH:
    return mulUH(A, B);
  case Opcode::MulSH:
    return static_cast<UWord>(
        mulSH(static_cast<SWord>(A), static_cast<SWord>(B)));
  case Opcode::And:
    return static_cast<UWord>(A & B);
  case Opcode::Or:
    return static_cast<UWord>(A | B);
  case Opcode::Eor:
    return static_cast<UWord>(A ^ B);
  case Opcode::Not:
    return static_cast<UWord>(~A);
  case Opcode::Sll:
    return sll(A, Amount);
  case Opcode::Srl:
    return srl(A, Amount);
  case Opcode::Sra:
    return static_cast<UWord>(sra(static_cast<SWord>(A), Amount));
  case Opcode::Ror:
    if (Amount == 0)
      return A;
    return static_cast<UWord>(srl(A, Amount) | sll(A, Bits - Amount));
  case Opcode::Xsign:
    return static_cast<UWord>(xsign(static_cast<SWord>(A)));
  case Opcode::SltS:
    return static_cast<SWord>(A) < static_cast<SWord>(B) ? 1 : 0;
  case Opcode::SltU:
    return A < B ? 1 : 0;
  case Opcode::DivU:
    assert(B != 0 && "division by zero");
    return B == 0 ? UWord{0} : static_cast<UWord>(A / B);
  case Opcode::RemU:
    assert(B != 0 && "division by zero");
    return B == 0 ? A : static_cast<UWord>(A % B);
  case Opcode::DivS: {
    assert(B != 0 && "division by zero");
    if (B == 0)
      return 0;
    const SWord SA = static_cast<SWord>(A), SB = static_cast<SWord>(B);
    // Hardware-style wrap: INT_MIN / -1 = INT_MIN (as Figure 5.1 also
    // returns); computed via unsigned magnitudes to avoid UB.
    const UWord MA = SA < 0 ? static_cast<UWord>(UWord{0} - A) : A;
    const UWord MB = SB < 0 ? static_cast<UWord>(UWord{0} - B) : B;
    const UWord MQ = static_cast<UWord>(MA / MB);
    return (SA < 0) != (SB < 0) ? static_cast<UWord>(UWord{0} - MQ) : MQ;
  }
  case Opcode::RemS: {
    assert(B != 0 && "division by zero");
    if (B == 0)
      return A;
    const SWord SA = static_cast<SWord>(A), SB = static_cast<SWord>(B);
    const UWord MA = SA < 0 ? static_cast<UWord>(UWord{0} - A) : A;
    const UWord MB = SB < 0 ? static_cast<UWord>(UWord{0} - B) : B;
    const UWord MR = static_cast<UWord>(MA % MB);
    return SA < 0 ? static_cast<UWord>(UWord{0} - MR) : MR;
  }
  case Opcode::Arg:
  case Opcode::Const:
    break;
  }
  assert(false && "leaf opcode has no operands to evaluate");
  return 0;
}

/// Evaluates instructions [0, Limit] and returns all their values.
std::vector<uint64_t> evalPrefix(const Program &P,
                                 const std::vector<uint64_t> &Args,
                                 int Limit) {
  assert(static_cast<int>(Args.size()) == P.numArgs() &&
         "argument count mismatch");
  const uint64_t Mask = maskFor(P.wordBits());
  std::vector<uint64_t> Values(static_cast<size_t>(Limit) + 1);
  for (int Index = 0; Index <= Limit; ++Index) {
    const Instr &I = P.instr(Index);
    uint64_t Value = 0;
    switch (I.Op) {
    case Opcode::Arg:
      Value = Args[static_cast<size_t>(I.Imm)] & Mask;
      break;
    case Opcode::Const:
      Value = I.Imm & Mask;
      break;
    default: {
      const uint64_t A = Values[static_cast<size_t>(I.Lhs)];
      const uint64_t B =
          opcodeIsUnary(I.Op) ? 0 : Values[static_cast<size_t>(I.Rhs)];
      Value = evalOp(I.Op, P.wordBits(), A, B, I.Imm);
      break;
    }
    }
    Values[static_cast<size_t>(Index)] = Value & Mask;
  }
  return Values;
}

} // namespace

uint64_t ir::evalOpGeneric(Opcode Op, int WordBits, uint64_t A, uint64_t B,
                           uint64_t Imm) {
  assert(WordBits >= 2 && WordBits <= 64 && "unsupported word width");
  const uint64_t Mask = maskFor(WordBits);
  const int Amount = static_cast<int>(Imm);
  switch (Op) {
  case Opcode::Add:
    return (A + B) & Mask;
  case Opcode::Sub:
    return (A - B) & Mask;
  case Opcode::Neg:
    return (0 - A) & Mask;
  case Opcode::MulL:
    return (A * B) & Mask;
  case Opcode::MulUH: {
    // High WordBits bits of the 2*WordBits-bit product: assembled from
    // the full 128-bit product (for WordBits up to 64 the operands can
    // still overflow a 64-bit low half).
    const uint64_t Low = A * B;
    const uint64_t High = mulUH<uint64_t>(A, B);
    if (WordBits == 64)
      return High;
    return ((Low >> WordBits) | (High << (64 - WordBits))) & Mask;
  }
  case Opcode::MulSH: {
    // §3 identity run in reverse: MULSH = MULUH - (a<0 ? b : 0)
    //                                          - (b<0 ? a : 0)  (mod 2^N).
    uint64_t High = evalOpGeneric(Opcode::MulUH, WordBits, A, B, 0);
    if (signExtend64(A, WordBits) < 0)
      High -= B;
    if (signExtend64(B, WordBits) < 0)
      High -= A;
    return High & Mask;
  }
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Eor:
    return A ^ B;
  case Opcode::Not:
    return ~A & Mask;
  case Opcode::Sll:
    assert(Amount >= 0 && Amount < WordBits && "shift amount out of range");
    return (A << Amount) & Mask;
  case Opcode::Srl:
    assert(Amount >= 0 && Amount < WordBits && "shift amount out of range");
    return A >> Amount;
  case Opcode::Sra:
    assert(Amount >= 0 && Amount < WordBits && "shift amount out of range");
    return static_cast<uint64_t>(signExtend64(A, WordBits) >> Amount) & Mask;
  case Opcode::Ror:
    assert(Amount >= 0 && Amount < WordBits && "rotate amount out of range");
    if (Amount == 0)
      return A;
    return ((A >> Amount) | (A << (WordBits - Amount))) & Mask;
  case Opcode::Xsign:
    return signExtend64(A, WordBits) < 0 ? Mask : 0;
  case Opcode::SltS:
    return signExtend64(A, WordBits) < signExtend64(B, WordBits) ? 1 : 0;
  case Opcode::SltU:
    return A < B ? 1 : 0;
  case Opcode::DivU:
    assert(B != 0 && "division by zero");
    return B == 0 ? 0 : A / B;
  case Opcode::RemU:
    assert(B != 0 && "division by zero");
    return B == 0 ? A : A % B;
  case Opcode::DivS: {
    assert(B != 0 && "division by zero");
    if (B == 0)
      return 0;
    const int64_t SA = signExtend64(A, WordBits);
    const int64_t SB = signExtend64(B, WordBits);
    // Hardware-style wrap, as in the word-typed evaluator: magnitudes
    // are computed mod 2^N, so INT_MIN / -1 wraps back to INT_MIN.
    const uint64_t MA = SA < 0 ? (0 - A) & Mask : A;
    const uint64_t MB = SB < 0 ? (0 - B) & Mask : B;
    const uint64_t MQ = MA / MB;
    return (SA < 0) != (SB < 0) ? (0 - MQ) & Mask : MQ;
  }
  case Opcode::RemS: {
    assert(B != 0 && "division by zero");
    if (B == 0)
      return A;
    const int64_t SA = signExtend64(A, WordBits);
    const int64_t SB = signExtend64(B, WordBits);
    const uint64_t MA = SA < 0 ? (0 - A) & Mask : A;
    const uint64_t MB = SB < 0 ? (0 - B) & Mask : B;
    const uint64_t MR = MA % MB;
    return SA < 0 ? (0 - MR) & Mask : MR;
  }
  case Opcode::Arg:
  case Opcode::Const:
    break;
  }
  assert(false && "leaf opcode has no operands to evaluate");
  return 0;
}

uint64_t ir::evalOp(Opcode Op, int WordBits, uint64_t A, uint64_t B,
                    uint64_t Imm) {
  switch (WordBits) {
  case 8:
    return evalOpT<uint8_t>(Op, A, B, Imm);
  case 16:
    return evalOpT<uint16_t>(Op, A, B, Imm);
  case 32:
    return evalOpT<uint32_t>(Op, A, B, Imm);
  case 64:
    return evalOpT<uint64_t>(Op, A, B, Imm);
  default:
    return evalOpGeneric(Op, WordBits, A, B, Imm);
  }
}

std::vector<uint64_t> ir::run(const Program &P,
                              const std::vector<uint64_t> &Args) {
  if (P.size() == 0)
    return {};
  const std::vector<uint64_t> Values = evalPrefix(P, Args, P.size() - 1);
  std::vector<uint64_t> Results;
  Results.reserve(P.results().size());
  for (int ResultIndex : P.results())
    Results.push_back(Values[static_cast<size_t>(ResultIndex)]);
  return Results;
}

uint64_t ir::runValue(const Program &P, const std::vector<uint64_t> &Args,
                      int ValueIndex) {
  assert(ValueIndex >= 0 && ValueIndex < P.size() && "no such value");
  return evalPrefix(P, Args, ValueIndex)[static_cast<size_t>(ValueIndex)];
}

void ir::runScratch(const Program &P, const std::vector<uint64_t> &Args,
                    std::vector<uint64_t> &Scratch,
                    std::vector<uint64_t> &Results) {
  assert(static_cast<int>(Args.size()) == P.numArgs() &&
         "argument count mismatch");
  const uint64_t Mask = maskFor(P.wordBits());
  Scratch.resize(static_cast<size_t>(P.size()));
  for (int Index = 0; Index < P.size(); ++Index) {
    const Instr &I = P.instr(Index);
    uint64_t Value = 0;
    switch (I.Op) {
    case Opcode::Arg:
      Value = Args[static_cast<size_t>(I.Imm)] & Mask;
      break;
    case Opcode::Const:
      Value = I.Imm & Mask;
      break;
    default: {
      const uint64_t A = Scratch[static_cast<size_t>(I.Lhs)];
      const uint64_t B =
          opcodeIsUnary(I.Op) ? 0 : Scratch[static_cast<size_t>(I.Rhs)];
      Value = evalOp(I.Op, P.wordBits(), A, B, I.Imm);
      break;
    }
    }
    Scratch[static_cast<size_t>(Index)] = Value & Mask;
  }
  Results.clear();
  Results.reserve(P.results().size());
  for (int ResultIndex : P.results())
    Results.push_back(Scratch[static_cast<size_t>(ResultIndex)]);
}
