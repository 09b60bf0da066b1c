//===- ir/Builder.h - IR builder with folding and CSE -----------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds IR programs while performing the "obvious simplifications" §3
/// asks of the optimizer — SRL(x, 0) => x, x - 0 => x, additions of 2^N
/// are no-ops by construction — plus constant folding and local common
/// subexpression elimination (the paper's Table 11.1 relies on GCC's CSE
/// to share the quotient computation between quotient and remainder).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_IR_BUILDER_H
#define GMDIV_IR_BUILDER_H

#include "ir/IR.h"
#include "ops/Bits.h"

#include <map>
#include <tuple>

namespace gmdiv {
namespace ir {

/// Convenience builder over a Program. All emit methods return the value
/// index of the (possibly folded or reused) result.
class Builder {
public:
  Builder(int WordBits, int NumArgs) : P(WordBits, NumArgs) {}

  Program take() {
    P.verify();
    return std::move(P);
  }
  Program &program() { return P; }
  int wordBits() const { return P.wordBits(); }

  /// The N-bit mask 2^N - 1 for this program's width.
  uint64_t wordMask() const { return maskFor(P.wordBits()); }

  int arg(int Index, std::string Comment = "");
  int constant(uint64_t Value, std::string Comment = "");

  int add(int Lhs, int Rhs, std::string Comment = "");
  int sub(int Lhs, int Rhs, std::string Comment = "");
  int neg(int Lhs, std::string Comment = "");
  int mulL(int Lhs, int Rhs, std::string Comment = "");
  int mulUH(int Lhs, int Rhs, std::string Comment = "");
  int mulSH(int Lhs, int Rhs, std::string Comment = "");
  int and_(int Lhs, int Rhs, std::string Comment = "");
  int or_(int Lhs, int Rhs, std::string Comment = "");
  int eor(int Lhs, int Rhs, std::string Comment = "");
  int not_(int Lhs, std::string Comment = "");
  int sll(int Lhs, int Amount, std::string Comment = "");
  int srl(int Lhs, int Amount, std::string Comment = "");
  int sra(int Lhs, int Amount, std::string Comment = "");
  int ror(int Lhs, int Amount, std::string Comment = "");
  int xsign(int Lhs, std::string Comment = "");
  int sltS(int Lhs, int Rhs, std::string Comment = "");
  int sltU(int Lhs, int Rhs, std::string Comment = "");
  int divU(int Lhs, int Rhs, std::string Comment = "");
  int divS(int Lhs, int Rhs, std::string Comment = "");
  int remU(int Lhs, int Rhs, std::string Comment = "");
  int remS(int Lhs, int Rhs, std::string Comment = "");

  void markResult(int ValueIndex, std::string Name = "") {
    P.markResult(ValueIndex, std::move(Name));
  }

private:
  /// Emits after folding/CSE; the workhorse behind the public methods.
  int emit(Opcode Op, int Lhs, int Rhs, uint64_t Imm, std::string Comment);

  /// Returns the constant value of a program value, if it is a Const.
  bool matchConstant(int Index, uint64_t &Value) const;

  Program P;
  using CseKey = std::tuple<Opcode, int, int, uint64_t>;
  std::map<CseKey, int> CseMap;
};

} // namespace ir
} // namespace gmdiv

#endif // GMDIV_IR_BUILDER_H
