//===- jit/X86Emitter.cpp - IR to x86-64 machine code ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Register discipline: rax and rdx are permanent scratch (recipes
/// compute into rax, widening multiplies use rdx:rax); every other GPR
/// except rsp can be a value home. rdi/rsi hold the incoming arguments
/// and become the homes of the Arg values, masked in place; the Extra
/// result pointer (rdx) is spilled to the red zone at entry when the
/// program has more than one result. Callee-saved homes are pushed and
/// popped only when actually allocated — the common division sequences
/// fit comfortably in the caller-saved set, so the fast path is a leaf
/// function that never touches memory.
///
//===----------------------------------------------------------------------===//

#include "jit/X86Emitter.h"

#include "ops/Bits.h"

#include <cinttypes>
#include <climits>
#include <cstdio>

using namespace gmdiv;
using namespace gmdiv::jit;
using gmdiv::ir::Instr;
using gmdiv::ir::Opcode;
using gmdiv::ir::Program;

namespace {

enum Reg : int {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

const char *const RegName64[16] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp",
                                   "rsi", "rdi", "r8",  "r9",  "r10", "r11",
                                   "r12", "r13", "r14", "r15"};
const char *const RegName32[16] = {"eax",  "ecx",  "edx",  "ebx", "esp",
                                   "ebp",  "esi",  "edi",  "r8d", "r9d",
                                   "r10d", "r11d", "r12d", "r13d", "r14d",
                                   "r15d"};

std::string hexImm(uint64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%" PRIx64, Value);
  return Buf;
}

bool isCalleeSaved(int R) {
  return R == RBX || R == RBP || (R >= R12 && R <= R15);
}

uint8_t modrm(int Mod, int RegField, int Rm) {
  return static_cast<uint8_t>((Mod << 6) | ((RegField & 7) << 3) | (Rm & 7));
}

/// Byte buffer plus the annotated listing. Every public emit method
/// appends exactly one x86 instruction and one AsmLine.
class Asm {
public:
  std::vector<uint8_t> Code;
  std::vector<AsmLine> Lines;
  int CurIr = -1; ///< IR value index attributed to emitted lines.

  void note(std::string Text) {
    Lines.push_back({CurIr, Code.size(), 0, std::move(Text)});
  }

  // mov dst, src (64-bit).
  void movRR(int Dst, int Src) {
    begin();
    rexW(Src, Dst);
    byte(0x89);
    byte(modrm(3, Src, Dst));
    end(std::string("mov ") + RegName64[Dst] + ", " + RegName64[Src]);
  }

  // mov dst32, src32 — zero-extends into the full register.
  void movRR32(int Dst, int Src) {
    begin();
    rex32(Src, Dst);
    byte(0x89);
    byte(modrm(3, Src, Dst));
    end(std::string("mov ") + RegName32[Dst] + ", " + RegName32[Src]);
  }

  // mov reg, imm — picks the shortest zero-extending encoding.
  void movImm(int Dst, uint64_t Imm) {
    begin();
    if (Imm <= UINT32_MAX) {
      if (Dst >= 8)
        byte(0x41);
      byte(static_cast<uint8_t>(0xB8 | (Dst & 7)));
      imm32(static_cast<uint32_t>(Imm));
    } else {
      rexW(0, Dst); // REX.B only; reg field unused by B8+rd.
      byte(static_cast<uint8_t>(0xB8 | (Dst & 7)));
      imm64(Imm);
    }
    end(std::string("mov ") + RegName64[Dst] + ", " + hexImm(Imm));
  }

  enum AluOp { Add = 0x01, Or = 0x09, And = 0x21, Sub = 0x29, Xor = 0x31,
               Cmp = 0x39 };

  // op dst, src (64-bit r/m64, r64 forms).
  void aluRR(AluOp Op, int Dst, int Src) {
    begin();
    rexW(Src, Dst);
    byte(static_cast<uint8_t>(Op));
    byte(modrm(3, Src, Dst));
    end(std::string(aluName(Op)) + " " + RegName64[Dst] + ", " +
        RegName64[Src]);
  }

  // and dst32, imm32 — zero-extends, used for masks below 2^31.
  void andImm32(int Dst, uint32_t Imm) {
    begin();
    if (Dst == RAX) {
      byte(0x25);
    } else {
      rex32(0, Dst);
      byte(0x81);
      byte(modrm(3, 4, Dst));
    }
    imm32(Imm);
    end(std::string("and ") + RegName32[Dst] + ", " + hexImm(Imm));
  }

  // imul dst, src (two-operand: low 64 bits of the product).
  void imulRR(int Dst, int Src) {
    begin();
    rexW(Dst, Src);
    byte(0x0F);
    byte(0xAF);
    byte(modrm(3, Dst, Src));
    end(std::string("imul ") + RegName64[Dst] + ", " + RegName64[Src]);
  }

  // One-operand F7 group: rdx:rax = rax * reg, or not/neg reg.
  void mulWide(int Src) { f7(4, Src, "mul"); }
  void imulWide(int Src) { f7(5, Src, "imul"); }
  void notR(int Reg) { f7(2, Reg, "not"); }
  void negR(int Reg) { f7(3, Reg, "neg"); }

  enum ShiftOp { Rol = 0, Ror = 1, Shl = 4, Shr = 5, Sar = 7 };

  void shiftImm(ShiftOp Op, int Reg, int Amount) {
    if (Amount == 0)
      return;
    begin();
    rexW(0, Reg);
    byte(0xC1);
    byte(modrm(3, Op, Reg));
    byte(static_cast<uint8_t>(Amount));
    end(std::string(shiftName(Op)) + " " + RegName64[Reg] + ", " +
        std::to_string(Amount));
  }

  // movsx/movsxd rax- or rdx-class sign extension from the low N bits.
  void signExtend(int Reg, int WordBits) {
    if (WordBits == 64)
      return;
    if (WordBits == 8) {
      begin();
      rexW(Reg, Reg);
      byte(0x0F);
      byte(0xBE);
      byte(modrm(3, Reg, Reg));
      end(std::string("movsx ") + RegName64[Reg] + ", " +
          low8Name(Reg));
    } else if (WordBits == 16) {
      begin();
      rexW(Reg, Reg);
      byte(0x0F);
      byte(0xBF);
      byte(modrm(3, Reg, Reg));
      end(std::string("movsx ") + RegName64[Reg] + ", " + low16Name(Reg));
    } else if (WordBits == 32) {
      begin();
      rexW(Reg, Reg);
      byte(0x63);
      byte(modrm(3, Reg, Reg));
      end(std::string("movsxd ") + RegName64[Reg] + ", " + RegName32[Reg]);
    } else {
      shiftImm(Shl, Reg, 64 - WordBits);
      shiftImm(Sar, Reg, 64 - WordBits);
    }
  }

  // setl/setb al; movzx eax, al.
  void setccThenZext(bool SignedLess) {
    begin();
    byte(0x0F);
    byte(SignedLess ? 0x9C : 0x92);
    byte(0xC0);
    end(SignedLess ? "setl al" : "setb al");
    begin();
    byte(0x0F);
    byte(0xB6);
    byte(0xC0);
    end("movzx eax, al");
  }

  // mov [base+disp8], src (64-bit store).
  void store(int Base, int Disp, int Src) {
    begin();
    rexW(Src, Base);
    byte(0x89);
    byte(modrm(1, Src, Base));
    if ((Base & 7) == RSP)
      byte(0x24); // SIB: base=rsp, no index.
    byte(static_cast<uint8_t>(Disp));
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "mov [%s%+d], %s", RegName64[Base], Disp,
                  RegName64[Src]);
    end(Buf);
  }

  // mov dst, [base+disp8] (64-bit load).
  void load(int Dst, int Base, int Disp) {
    begin();
    rexW(Dst, Base);
    byte(0x8B);
    byte(modrm(1, Dst, Base));
    if ((Base & 7) == RSP)
      byte(0x24);
    byte(static_cast<uint8_t>(Disp));
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "mov %s, [%s%+d]", RegName64[Dst],
                  RegName64[Base], Disp);
    end(Buf);
  }

  void push(int Reg) {
    begin();
    if (Reg >= 8)
      byte(0x41);
    byte(static_cast<uint8_t>(0x50 | (Reg & 7)));
    end(std::string("push ") + RegName64[Reg]);
  }

  void pop(int Reg) {
    begin();
    if (Reg >= 8)
      byte(0x41);
    byte(static_cast<uint8_t>(0x58 | (Reg & 7)));
    end(std::string("pop ") + RegName64[Reg]);
  }

  void ret() {
    begin();
    byte(0xC3);
    end("ret");
  }

  /// Appends another buffer's code and lines, shifting line offsets.
  void append(const Asm &Other) {
    const size_t Shift = Code.size();
    Code.insert(Code.end(), Other.Code.begin(), Other.Code.end());
    for (AsmLine Line : Other.Lines) {
      Line.Offset += Shift;
      Lines.push_back(std::move(Line));
    }
  }

private:
  size_t Start = 0;

  void begin() { Start = Code.size(); }
  void end(std::string Text) {
    Lines.push_back({CurIr, Start, Code.size() - Start, std::move(Text)});
  }
  void byte(uint8_t B) { Code.push_back(B); }
  void imm32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void imm64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  // REX.W with R = regField>=8, B = rm>=8.
  void rexW(int RegField, int Rm) {
    byte(static_cast<uint8_t>(0x48 | (RegField >= 8 ? 4 : 0) |
                              (Rm >= 8 ? 1 : 0)));
  }
  // Optional REX (no W) for 32-bit forms; emitted only when needed.
  void rex32(int RegField, int Rm) {
    if (RegField >= 8 || Rm >= 8)
      byte(static_cast<uint8_t>(0x40 | (RegField >= 8 ? 4 : 0) |
                                (Rm >= 8 ? 1 : 0)));
  }
  void f7(int Ext, int Reg, const char *Name) {
    begin();
    rexW(0, Reg);
    byte(0xF7);
    byte(modrm(3, Ext, Reg));
    end(std::string(Name) + " " + RegName64[Reg]);
  }
  static const char *aluName(AluOp Op) {
    switch (Op) {
    case Add:
      return "add";
    case Or:
      return "or";
    case And:
      return "and";
    case Sub:
      return "sub";
    case Xor:
      return "xor";
    case Cmp:
      return "cmp";
    }
    return "?";
  }
  static const char *shiftName(ShiftOp Op) {
    switch (Op) {
    case Rol:
      return "rol";
    case Ror:
      return "ror";
    case Shl:
      return "shl";
    case Shr:
      return "shr";
    case Sar:
      return "sar";
    }
    return "?";
  }
  static std::string low8Name(int Reg) {
    static const char *const Names[16] = {"al",   "cl",   "dl",   "bl",
                                          "spl",  "bpl",  "sil",  "dil",
                                          "r8b",  "r9b",  "r10b", "r11b",
                                          "r12b", "r13b", "r14b", "r15b"};
    return Names[Reg & 15];
  }
  static std::string low16Name(int Reg) {
    static const char *const Names[16] = {"ax",   "cx",   "dx",   "bx",
                                          "sp",   "bp",   "si",   "di",
                                          "r8w",  "r9w",  "r10w", "r11w",
                                          "r12w", "r13w", "r14w", "r15w"};
    return Names[Reg & 15];
  }
};

/// Home-register allocator over the non-scratch GPRs.
class Homes {
public:
  Homes() {
    // Back of the vector is allocated first: caller-saved before
    // callee-saved, rcx most preferred.
    static const int Order[] = {R15, R14, R13, R12, RBP, RBX,
                                R11, R10, R9,  R8,  RCX};
    for (int R : Order)
      Free.push_back(R);
  }

  void addFree(int R) { Free.push_back(R); }

  int alloc() {
    if (Free.empty())
      return -1;
    const int R = Free.back();
    Free.pop_back();
    if (isCalleeSaved(R))
      UsedCallee[R] = true;
    return R;
  }

  void release(int R) { Free.push_back(R); }

  std::vector<int> usedCalleeSaved() const {
    std::vector<int> Out;
    for (int R = 0; R < 16; ++R)
      if (UsedCallee[R])
        Out.push_back(R);
    return Out;
  }

private:
  std::vector<int> Free;
  bool UsedCallee[16] = {};
};

class FunctionEmitter {
public:
  explicit FunctionEmitter(const Program &P) : P(P), N(P.wordBits()),
                                               Mask(maskFor(N)) {}

  EmitResult run() {
    EmitResult Result;
    if (P.results().empty())
      return bail(Result, "program marks no results");
    if (!computeLiveness(Result))
      return Result;

    HomeOf.assign(static_cast<size_t>(P.size()), -1);
    const bool NeedExtra = P.results().size() > 1;
    if (NeedExtra) {
      Body.CurIr = -1;
      Body.store(RSP, -8, RDX); // Spill Extra to the red zone.
    }

    for (int Index = 0; Index < P.size(); ++Index) {
      if (!Live[static_cast<size_t>(Index)])
        continue;
      Body.CurIr = Index;
      if (!emitInstr(Index, Result))
        return Result;
    }

    // Epilogue (still in the body buffer): extra-result stores, then
    // the primary result into rax.
    Body.CurIr = -1;
    if (NeedExtra) {
      Body.load(RDX, RSP, -8);
      for (size_t I = 1; I < P.results().size(); ++I) {
        const int Home = HomeOf[static_cast<size_t>(P.results()[I])];
        const int Disp = static_cast<int>(8 * (I - 1));
        if (Disp > 127)
          return bail(Result, "too many results");
        Body.store(RDX, Disp, Home);
      }
    }
    const int Home0 = HomeOf[static_cast<size_t>(P.results()[0])];
    if (Home0 != RAX)
      Body.movRR(RAX, Home0);

    // Assemble: callee-saved pushes, body, pops, ret.
    Asm Final;
    Final.CurIr = -1;
    const std::vector<int> Callee = Pool.usedCalleeSaved();
    for (int R : Callee)
      Final.push(R);
    Final.append(Body);
    Final.CurIr = -1;
    for (auto It = Callee.rbegin(); It != Callee.rend(); ++It)
      Final.pop(*It);
    Final.ret();

    Result.Ok = true;
    Result.Code = std::move(Final.Code);
    Result.Lines = std::move(Final.Lines);
    return Result;
  }

private:
  const Program &P;
  const int N;
  const uint64_t Mask;
  Asm Body;
  Homes Pool;
  std::vector<char> Live;
  std::vector<int> LastUse;
  std::vector<int> HomeOf;

  static EmitResult &bail(EmitResult &Result, std::string Why) {
    Result.Ok = false;
    Result.Error = std::move(Why);
    return Result;
  }

  bool computeLiveness(EmitResult &Result) {
    Live.assign(static_cast<size_t>(P.size()), 0);
    LastUse.assign(static_cast<size_t>(P.size()), -1);
    for (int R : P.results()) {
      Live[static_cast<size_t>(R)] = 1;
      LastUse[static_cast<size_t>(R)] = INT_MAX;
    }
    for (int Index = P.size() - 1; Index >= 0; --Index) {
      if (!Live[static_cast<size_t>(Index)])
        continue;
      const Instr &I = P.instr(Index);
      if (ir::opcodeIsLeaf(I.Op))
        continue;
      Live[static_cast<size_t>(I.Lhs)] = 1;
      if (!ir::opcodeIsUnary(I.Op) && !ir::opcodeHasImmOperand(I.Op))
        Live[static_cast<size_t>(I.Rhs)] = 1;
    }
    for (int Index = 0; Index < P.size(); ++Index) {
      if (!Live[static_cast<size_t>(Index)])
        continue;
      const Instr &I = P.instr(Index);
      if (ir::opcodeIsLeaf(I.Op))
        continue;
      if (LastUse[static_cast<size_t>(I.Lhs)] < Index)
        LastUse[static_cast<size_t>(I.Lhs)] = Index;
      if (!ir::opcodeIsUnary(I.Op) && !ir::opcodeHasImmOperand(I.Op) &&
          LastUse[static_cast<size_t>(I.Rhs)] < Index)
        LastUse[static_cast<size_t>(I.Rhs)] = Index;
    }

    // Claim rdi/rsi for the Arg values; unreferenced argument registers
    // join the free pool (most preferred: caller-saved, already live).
    ArgValue[0] = ArgValue[1] = -1;
    for (int Index = 0; Index < P.size(); ++Index) {
      if (!Live[static_cast<size_t>(Index)])
        continue;
      const Instr &I = P.instr(Index);
      if (I.Op != Opcode::Arg)
        continue;
      if (I.Imm >= 2) {
        bail(Result, "more than two arguments");
        return false;
      }
      if (ArgValue[I.Imm] != -1) {
        bail(Result, "duplicate Arg instruction");
        return false;
      }
      ArgValue[I.Imm] = Index;
    }
    if (ArgValue[0] == -1)
      Pool.addFree(RDI);
    if (ArgValue[1] == -1)
      Pool.addFree(RSI);
    return true;
  }

  /// Masks rax down to the canonical N-bit pattern (clobbers rdx for
  /// 32 < N < 64).
  void maskRax() {
    if (N == 64)
      return;
    if (N == 32) {
      Body.movRR32(RAX, RAX);
    } else if (N < 32) {
      Body.andImm32(RAX, static_cast<uint32_t>(Mask));
    } else {
      Body.movImm(RDX, Mask);
      Body.aluRR(Asm::And, RAX, RDX);
    }
  }

  /// Masks an arbitrary home register in place (clobbers rax for
  /// 32 < N < 64).
  void maskReg(int Reg) {
    if (N == 64)
      return;
    if (N == 32) {
      Body.movRR32(Reg, Reg);
    } else if (N < 32) {
      Body.andImm32(Reg, static_cast<uint32_t>(Mask));
    } else {
      Body.movImm(RAX, Mask);
      Body.aluRR(Asm::And, Reg, RAX);
    }
  }

  void freeDyingOperands(int Index) {
    const Instr &I = P.instr(Index);
    if (ir::opcodeIsLeaf(I.Op))
      return;
    const int Ops[2] = {I.Lhs,
                        (!ir::opcodeIsUnary(I.Op) &&
                         !ir::opcodeHasImmOperand(I.Op))
                            ? I.Rhs
                            : -1};
    for (int Op : Ops) {
      if (Op < 0)
        continue;
      int &Home = HomeOf[static_cast<size_t>(Op)];
      if (LastUse[static_cast<size_t>(Op)] == Index && Home >= 0) {
        Pool.release(Home);
        Home = -1;
      }
    }
  }

  bool assignHomeFromRax(int Index, EmitResult &Result) {
    freeDyingOperands(Index);
    const int Home = Pool.alloc();
    if (Home < 0) {
      bail(Result, "register pool exhausted");
      return false;
    }
    HomeOf[static_cast<size_t>(Index)] = Home;
    Body.movRR(Home, RAX);
    return true;
  }

  bool emitInstr(int Index, EmitResult &Result) {
    const Instr &I = P.instr(Index);
    const int A = ir::opcodeIsLeaf(I.Op) ? -1
                                         : HomeOf[static_cast<size_t>(I.Lhs)];
    const bool HasRhs =
        !ir::opcodeIsLeaf(I.Op) && !ir::opcodeIsUnary(I.Op) &&
        !ir::opcodeHasImmOperand(I.Op);
    const int B = HasRhs ? HomeOf[static_cast<size_t>(I.Rhs)] : -1;
    const int Amount = static_cast<int>(I.Imm);

    switch (I.Op) {
    case Opcode::Arg: {
      const int Reg = I.Imm == 0 ? RDI : RSI;
      HomeOf[static_cast<size_t>(Index)] = Reg;
      if (N == 64)
        Body.note(std::string("; arg") + std::to_string(Amount) + " in " +
                  RegName64[Reg]);
      else
        maskReg(Reg);
      return true;
    }
    case Opcode::Const: {
      const int Home = Pool.alloc();
      if (Home < 0) {
        bail(Result, "register pool exhausted");
        return false;
      }
      HomeOf[static_cast<size_t>(Index)] = Home;
      Body.movImm(Home, I.Imm & Mask);
      return true;
    }
    case Opcode::Add:
      Body.movRR(RAX, A);
      Body.aluRR(Asm::Add, RAX, B);
      maskRax();
      break;
    case Opcode::Sub:
      Body.movRR(RAX, A);
      Body.aluRR(Asm::Sub, RAX, B);
      maskRax();
      break;
    case Opcode::Neg:
      Body.movRR(RAX, A);
      Body.negR(RAX);
      maskRax();
      break;
    case Opcode::MulL:
      Body.movRR(RAX, A);
      Body.imulRR(RAX, B);
      maskRax();
      break;
    case Opcode::MulUH:
      Body.movRR(RAX, A);
      if (N == 64) {
        Body.mulWide(B);
        Body.movRR(RAX, RDX);
      } else if (N <= 32) {
        // Both operands are < 2^32, so the exact product fits 64 bits
        // and the two-operand form avoids tying up rdx.
        Body.imulRR(RAX, B);
        Body.shiftImm(Asm::Shr, RAX, N);
      } else {
        Body.mulWide(B); // rdx:rax = full product; high N bits span both.
        Body.shiftImm(Asm::Shr, RAX, N);
        Body.shiftImm(Asm::Shl, RDX, 64 - N);
        Body.aluRR(Asm::Or, RAX, RDX);
        maskRax();
      }
      break;
    case Opcode::MulSH:
      Body.movRR(RAX, A);
      Body.signExtend(RAX, N);
      Body.movRR(RDX, B);
      Body.signExtend(RDX, N);
      if (N == 64) {
        Body.imulWide(RDX);
        Body.movRR(RAX, RDX);
      } else if (N <= 32) {
        Body.imulRR(RAX, RDX); // Exact signed product in 64 bits.
        Body.shiftImm(Asm::Sar, RAX, N);
        maskRax();
      } else {
        Body.imulWide(RDX); // rdx:rax = 128-bit signed product.
        Body.shiftImm(Asm::Shr, RAX, N);
        Body.shiftImm(Asm::Shl, RDX, 64 - N);
        Body.aluRR(Asm::Or, RAX, RDX);
        maskRax();
      }
      break;
    case Opcode::And:
      Body.movRR(RAX, A);
      Body.aluRR(Asm::And, RAX, B);
      break;
    case Opcode::Or:
      Body.movRR(RAX, A);
      Body.aluRR(Asm::Or, RAX, B);
      break;
    case Opcode::Eor:
      Body.movRR(RAX, A);
      Body.aluRR(Asm::Xor, RAX, B);
      break;
    case Opcode::Not:
      Body.movRR(RAX, A);
      Body.notR(RAX);
      maskRax();
      break;
    case Opcode::Sll:
      Body.movRR(RAX, A);
      if (Amount != 0) {
        Body.shiftImm(Asm::Shl, RAX, Amount);
        maskRax();
      }
      break;
    case Opcode::Srl:
      Body.movRR(RAX, A);
      Body.shiftImm(Asm::Shr, RAX, Amount);
      break;
    case Opcode::Sra:
      Body.movRR(RAX, A);
      if (Amount != 0) {
        Body.signExtend(RAX, N);
        Body.shiftImm(Asm::Sar, RAX, Amount);
        maskRax();
      }
      break;
    case Opcode::Ror:
      Body.movRR(RAX, A);
      if (Amount != 0) {
        if (N == 64) {
          Body.shiftImm(Asm::Ror, RAX, Amount);
        } else {
          Body.movRR(RDX, RAX);
          Body.shiftImm(Asm::Shr, RAX, Amount);
          Body.shiftImm(Asm::Shl, RDX, N - Amount);
          Body.aluRR(Asm::Or, RAX, RDX);
          maskRax();
        }
      }
      break;
    case Opcode::Xsign:
      Body.movRR(RAX, A);
      Body.signExtend(RAX, N);
      Body.shiftImm(Asm::Sar, RAX, 63);
      maskRax();
      break;
    case Opcode::SltS:
      Body.movRR(RAX, A);
      Body.signExtend(RAX, N);
      Body.movRR(RDX, B);
      Body.signExtend(RDX, N);
      Body.aluRR(Asm::Cmp, RAX, RDX);
      Body.setccThenZext(/*SignedLess=*/true);
      break;
    case Opcode::SltU:
      Body.movRR(RAX, A);
      Body.aluRR(Asm::Cmp, RAX, B);
      Body.setccThenZext(/*SignedLess=*/false);
      break;
    case Opcode::DivU:
    case Opcode::DivS:
    case Opcode::RemU:
    case Opcode::RemS:
      bail(Result, std::string("runtime division opcode ") +
                       ir::opcodeName(I.Op) + " is not JIT-compiled");
      return false;
    }
    return assignHomeFromRax(Index, Result);
  }

  int ArgValue[2] = {-1, -1};
};

} // namespace

EmitResult gmdiv::jit::emitX86(const Program &P) {
  return FunctionEmitter(P).run();
}
