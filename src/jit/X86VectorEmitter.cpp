//===- jit/X86VectorEmitter.cpp - IR to AVX2/AVX-512 array loops ----------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Register discipline: vector constants (the broadcast multiplier, masks,
/// pack shuffles) are allocated from ymm/zmm15 downward and live for the
/// whole function; per-element values and recipe temporaries are allocated
/// from ymm/zmm0 upward and reset at every unrolled body, so unrolling
/// costs no registers — the bodies reuse the same names at different
/// memory offsets and out-of-order renaming provides the parallelism.
/// GPRs: rdi/rsi/rdx/rcx are the ABI arguments (In, Out0, Out1, Count),
/// rax is the running element index (and the return value), r8 the
/// end-of-chunk probe, r11 scratch for constant materialization.
///
/// Emission is two-pass: a discovery pass runs every recipe against a
/// throwaway buffer to collect the constant pool (recipes request
/// constants lazily — e.g. the signed-high multiply wants the *sign
/// extended* image of a Const operand), then registers are assigned and
/// the real pass emits prologue + loops. Both passes execute identical
/// recipe code, so the pool is deterministic.
///
//===----------------------------------------------------------------------===//

#include "jit/X86VectorEmitter.h"

#include "ops/Bits.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <tuple>

using namespace gmdiv;
using namespace gmdiv::jit;
using gmdiv::ir::Instr;
using gmdiv::ir::Opcode;
using gmdiv::ir::Program;

namespace {

enum Gpr : int {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R11 = 11,
};

std::string hexImm(uint64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%" PRIx64, Value);
  return Buf;
}

uint8_t modrm(int Mod, int RegField, int Rm) {
  return static_cast<uint8_t>((Mod << 6) | ((RegField & 7) << 3) | (Rm & 7));
}

uint8_t sib(int ScaleLog2, int Index, int Base) {
  return static_cast<uint8_t>((ScaleLog2 << 6) | ((Index & 7) << 3) |
                              (Base & 7));
}

/// [Base + rax*Scale + Disp] — the only addressing shape the loops use.
struct MemRef {
  int Base;
  int Scale; // 1, 4 or 8
  int32_t Disp;
};

/// Fixed encoding facts for a three-operand vector instruction. MM selects
/// the opcode map (1 = 0F, 2 = 0F38, 3 = 0F3A), PP the mandatory prefix
/// (1 = 66, 2 = F3), W the EVEX element-width bit (VEX mostly ignores it).
struct VOp {
  const char *Name;
  int MM;
  int PP;
  uint8_t Opc;
  int W;
};

const VOp VPADDD{"vpaddd", 1, 1, 0xFE, 0};
const VOp VPADDQ{"vpaddq", 1, 1, 0xD4, 1};
const VOp VPSUBD{"vpsubd", 1, 1, 0xFA, 0};
const VOp VPSUBQ{"vpsubq", 1, 1, 0xFB, 1};
const VOp VPMULUDQ{"vpmuludq", 1, 1, 0xF4, 1};
const VOp VPMULDQ{"vpmuldq", 2, 1, 0x28, 1};
const VOp VPMULLD{"vpmulld", 2, 1, 0x40, 0};
const VOp VPAND{"vpand", 1, 1, 0xDB, 0};
const VOp VPOR{"vpor", 1, 1, 0xEB, 0};
const VOp VPXOR{"vpxor", 1, 1, 0xEF, 0};
const VOp VPCMPGTD{"vpcmpgtd", 1, 1, 0x66, 0}; // AVX2 only (EVEX writes k).
const VOp VPCMPGTQ{"vpcmpgtq", 2, 1, 0x37, 1}; // AVX2 only.
const VOp VPACKSSDW{"vpackssdw", 1, 1, 0x6B, 0};
const VOp VPACKUSWB{"vpackuswb", 1, 1, 0x67, 0};
const VOp VPACKUSDW{"vpackusdw", 2, 1, 0x2B, 0};
const VOp VPERMD{"vpermd", 2, 1, 0x36, 0}; // vvvv = index, rm = source.

/// Byte buffer plus annotated listing, mirroring the scalar emitter's Asm.
/// Evex switches every width-following emitter between VEX.256/ymm and
/// EVEX.512/zmm; the VEX.128 helpers (constant materialization, pack
/// stores) stay VEX — 128-bit VEX ops zero bits 128..MAXVL, so mixing
/// them with EVEX state is safe.
class VecAsm {
public:
  std::vector<uint8_t> Code;
  std::vector<AsmLine> Lines;
  int CurIr = -1;
  bool Evex = false;

  int vecBytes() const { return Evex ? 64 : 32; }

  std::string vr(int R) const {
    char Buf[8];
    std::snprintf(Buf, sizeof(Buf), "%cmm%d", Evex ? 'z' : 'y', R);
    return Buf;
  }
  static std::string xr(int R) {
    char Buf[8];
    std::snprintf(Buf, sizeof(Buf), "xmm%d", R);
    return Buf;
  }
  static const char *gr(int R) {
    static const char *const Names[16] = {"rax", "rcx", "rdx", "rbx",
                                          "rsp", "rbp", "rsi", "rdi",
                                          "r8",  "r9",  "r10", "r11",
                                          "r12", "r13", "r14", "r15"};
    return Names[R];
  }

  void note(std::string Text) {
    Lines.push_back({CurIr, Code.size(), 0, std::move(Text)});
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

  void begin() { Start = Code.size(); }
  void end(std::string Text) {
    Lines.push_back({CurIr, Start, Code.size() - Start, std::move(Text)});
  }

  // VEX three-byte form (C4). P0 carries inverted R/X/B plus the map;
  // P1 carries W, inverted vvvv, vector length and the prefix.
  void vexPfx(int MM, int PP, int W, int Vvvv, int L, bool R, bool X, bool B) {
    byte(0xC4);
    byte(static_cast<uint8_t>((R ? 0 : 0x80) | (X ? 0 : 0x40) |
                              (B ? 0 : 0x20) | MM));
    byte(static_cast<uint8_t>((W << 7) | ((~Vvvv & 0xF) << 3) | (L << 2) |
                              PP));
  }

  // EVEX (62). Fixed fourth byte 0x48: 512-bit, no masking, no broadcast,
  // registers 0-15 only (R' and V' stay inverted-set via P0/P1 bits).
  void evexPfx(int MM, int PP, int W, int Vvvv, bool R, bool X, bool B) {
    byte(0x62);
    byte(static_cast<uint8_t>((R ? 0 : 0x80) | (X ? 0 : 0x40) |
                              (B ? 0 : 0x20) | 0x10 | MM));
    byte(static_cast<uint8_t>((W << 7) | ((~Vvvv & 0xF) << 3) | 0x04 | PP));
    byte(0x48);
  }

  void widePfx(int MM, int PP, int W, int Vvvv, bool R, bool X, bool B) {
    if (Evex)
      evexPfx(MM, PP, W, Vvvv, R, X, B);
    else
      vexPfx(MM, PP, W, Vvvv, 1, R, X, B);
  }

  std::string memText(const MemRef &M) const {
    char Buf[48];
    if (M.Scale == 1 && M.Disp == 0)
      std::snprintf(Buf, sizeof(Buf), "[%s + rax]", gr(M.Base));
    else if (M.Disp == 0)
      std::snprintf(Buf, sizeof(Buf), "[%s + rax*%d]", gr(M.Base), M.Scale);
    else
      std::snprintf(Buf, sizeof(Buf), "[%s + rax*%d + %d]", gr(M.Base),
                    M.Scale, M.Disp);
    return Buf;
  }

  // ModRM memory operand: always SIB with index rax. Zero displacements
  // use mod=00 (the bases are rdi/rsi/rdx, never rbp-coded); nonzero use
  // mod=10 disp32, sidestepping EVEX disp8 compression entirely.
  void memOp(int RegField, const MemRef &M) {
    int Mod = M.Disp == 0 ? 0 : 2;
    byte(modrm(Mod, RegField, 4));
    int ScaleLog2 = M.Scale == 1 ? 0 : M.Scale == 4 ? 2 : 3;
    byte(sib(ScaleLog2, RAX, M.Base));
    if (Mod == 2)
      imm32(static_cast<uint32_t>(M.Disp));
  }

  /// dst = op(src1, src2), full vector width.
  void vop(const VOp &Op, int Dst, int Src1, int Src2) {
    begin();
    widePfx(Op.MM, Op.PP, Op.W, Src1, Dst >= 8, false, Src2 >= 8);
    byte(Op.Opc);
    byte(modrm(3, Dst, Src2));
    end(std::string(Op.Name) + " " + vr(Dst) + ", " + vr(Src1) + ", " +
        vr(Src2));
  }

  /// Register-to-register copy at full width (vpor a, a — cheap and legal
  /// under both encodings).
  void vcopy(int Dst, int Src) {
    if (Dst != Src)
      vop(VPOR, Dst, Src, Src);
  }

  /// Immediate shift (groups 12/13): GroupOpc 0x72 for dword forms, 0x73
  /// for qword; the sub-opcode digit rides ModRM.reg and the destination
  /// rides vvvv. EVEX vpsraq is the one oddball: 0x72 /4 with W=1.
  void vshift(const char *Name, uint8_t GroupOpc, int Digit, int W, int Dst,
              int Src, int Imm) {
    begin();
    widePfx(1, 1, W, Dst, false, false, Src >= 8);
    byte(GroupOpc);
    byte(modrm(3, Digit, Src));
    byte(static_cast<uint8_t>(Imm));
    end(std::string(Name) + " " + vr(Dst) + ", " + vr(Src) + ", " +
        std::to_string(Imm));
  }

  void vpslld(int Dst, int Src, int Imm) {
    vshift("vpslld", 0x72, 6, 0, Dst, Src, Imm);
  }
  void vpsrld(int Dst, int Src, int Imm) {
    vshift("vpsrld", 0x72, 2, 0, Dst, Src, Imm);
  }
  void vpsrad(int Dst, int Src, int Imm) {
    vshift("vpsrad", 0x72, 4, 0, Dst, Src, Imm);
  }
  void vpsllq(int Dst, int Src, int Imm) {
    vshift("vpsllq", 0x73, 6, 1, Dst, Src, Imm);
  }
  void vpsrlq(int Dst, int Src, int Imm) {
    vshift("vpsrlq", 0x73, 2, 1, Dst, Src, Imm);
  }
  void vpsraq512(int Dst, int Src, int Imm) { // EVEX only.
    vshift("vpsraq", 0x72, 4, 1, Dst, Src, Imm);
  }

  /// Full-width unaligned load/store. EVEX spells them vmovdqu32/64 with
  /// W selecting the element width; VEX is the classic F3 0F 6F/7F.
  void vload(int Dst, const MemRef &M, int W) {
    begin();
    widePfx(1, 2, Evex ? W : 0, 0, Dst >= 8, false, M.Base >= 8);
    byte(0x6F);
    memOp(Dst, M);
    end("vmovdqu " + vr(Dst) + ", " + memText(M));
  }
  void vstore(const MemRef &M, int Src, int W) {
    begin();
    widePfx(1, 2, Evex ? W : 0, 0, Src >= 8, false, M.Base >= 8);
    byte(0x7F);
    memOp(Src, M);
    end("vmovdqu " + memText(M) + ", " + vr(Src));
  }

  // ---- VEX.128 constant-materialization and pack-store helpers ----

  /// vmovq/vmovd xmm, gpr.
  void vmovGprToXmm(int Xmm, int Gpr, int W) {
    begin();
    vexPfx(1, 1, W, 0, 0, Xmm >= 8, false, Gpr >= 8);
    byte(0x6E);
    byte(modrm(3, Xmm, Gpr));
    end(std::string(W ? "vmovq " : "vmovd ") + xr(Xmm) + ", " + gr(Gpr));
  }

  /// Broadcast xmm lane 0 across the full vector. VEX spells both
  /// broadcasts W0 (the opcode alone selects the width); only EVEX wants
  /// the W bit.
  void vbroadcast(int Dst, int SrcXmm, int W) {
    begin();
    widePfx(2, 1, Evex ? W : 0, 0, Dst >= 8, false, SrcXmm >= 8);
    byte(static_cast<uint8_t>(W ? 0x59 : 0x58));
    byte(modrm(3, Dst, SrcXmm));
    end(std::string(W ? "vpbroadcastq " : "vpbroadcastd ") + vr(Dst) + ", " +
        xr(SrcXmm));
  }

  /// vpunpcklqdq xmm — glues two 64-bit halves into one 128-bit lane.
  void vpunpcklqdq128(int Dst, int Src1, int Src2) {
    begin();
    vexPfx(1, 1, 1, Src1, 0, Dst >= 8, false, Src2 >= 8);
    byte(0x6C);
    byte(modrm(3, Dst, Src2));
    end("vpunpcklqdq " + xr(Dst) + ", " + xr(Src1) + ", " + xr(Src2));
  }

  /// 8-byte / 4-byte stores from xmm lane 0 (the packed 0/1 flag bytes).
  void vmovqStore(const MemRef &M, int Xmm) {
    begin();
    vexPfx(1, 1, 0, 0, 0, Xmm >= 8, false, M.Base >= 8);
    byte(0xD6);
    memOp(Xmm, M);
    end("vmovq " + memText(M) + ", " + xr(Xmm));
  }
  void vmovdStore(const MemRef &M, int Xmm) {
    begin();
    vexPfx(1, 1, 0, 0, 0, Xmm >= 8, false, M.Base >= 8);
    byte(0x7E);
    memOp(Xmm, M);
    end("vmovd " + memText(M) + ", " + xr(Xmm));
  }

  // ---- EVEX-only mask compare and narrowing store ----

  /// k1 = (A < B) per lane: vpcmp[u]{d,q} k1, A, B, 1 (LT). EVEX integer
  /// compares write a mask register, never a vector.
  void vpcmpLtK1(bool Signed, int W, int SrcA, int SrcB) {
    begin();
    evexPfx(3, 1, W, SrcA, false, false, SrcB >= 8);
    byte(Signed ? 0x1F : 0x1E);
    byte(modrm(3, 1, SrcB));
    byte(1);
    end(std::string(Signed ? "vpcmp" : "vpcmpu") + (W ? "q" : "d") +
        " k1, " + vr(SrcA) + ", " + vr(SrcB) + ", 1");
  }
  /// Dst lanes = all-ones where k1 is set: vpmovm2{d,q} Dst, k1.
  void vpmovm2K1(int W, int Dst) {
    begin();
    evexPfx(2, 2, W, 0, Dst >= 8, false, false);
    byte(0x38);
    byte(modrm(3, Dst, 1));
    end(std::string("vpmovm2") + (W ? "q " : "d ") + vr(Dst) + ", k1");
  }
  /// Truncating one-byte-per-lane store: vpmov{d,q}b [M], Src.
  void vpmovByteStore(int W, const MemRef &M, int Src) {
    begin();
    evexPfx(2, 2, 0, 0, Src >= 8, false, M.Base >= 8);
    byte(W ? 0x32 : 0x31);
    memOp(Src, M);
    end(std::string("vpmov") + (W ? "qb " : "db ") + memText(M) + ", " +
        vr(Src));
  }

  // ---- GPR loop scaffolding ----

  void xorEaxEax() {
    begin();
    byte(0x31);
    byte(0xC0);
    end("xor eax, eax");
  }
  void movR11Imm(uint64_t Imm) {
    begin();
    byte(0x49);
    byte(0xBB);
    imm64(Imm);
    end("mov r11, " + hexImm(Imm));
  }
  void leaR8RaxPlus(int32_t Disp) {
    begin();
    byte(0x4C);
    byte(0x8D);
    byte(modrm(2, R8, RAX));
    imm32(static_cast<uint32_t>(Disp));
    end("lea r8, [rax + " + std::to_string(Disp) + "]");
  }
  void cmpR8Rcx() {
    begin();
    byte(0x49);
    byte(0x39);
    byte(modrm(3, RCX, R8));
    end("cmp r8, rcx");
  }
  /// ja rel32 with the target patched later; returns the rel32 site.
  size_t jaPatchable(const char *Label) {
    begin();
    byte(0x0F);
    byte(0x87);
    size_t Site = Code.size();
    imm32(0);
    end(std::string("ja ") + Label);
    return Site;
  }
  void movRaxR8() {
    begin();
    byte(0x4C);
    byte(0x89);
    byte(modrm(3, R8, RAX));
    end("mov rax, r8");
  }
  void jmpTo(size_t Target, const char *Label) {
    begin();
    byte(0xE9);
    imm32(static_cast<uint32_t>(Target - (Code.size() + 4)));
    end(std::string("jmp ") + Label);
  }
  void patch32(size_t Site, size_t Target) {
    uint32_t Rel = static_cast<uint32_t>(Target - (Site + 4));
    for (int I = 0; I < 4; ++I)
      Code[Site + static_cast<size_t>(I)] =
          static_cast<uint8_t>(Rel >> (8 * I));
  }
  void vzeroupper() {
    begin();
    byte(0xC5);
    byte(0xF8);
    byte(0x77);
    end("vzeroupper");
  }
  void ret() {
    begin();
    byte(0xC3);
    end("ret");
  }

private:
  size_t Start = 0;
};

} // namespace

namespace {

/// One prologue-materialized vector constant. B32/B64 broadcast a lane
/// value across the vector; Raw64/Raw128 place exact bytes in lane 0
/// only (the vpermd pack indices).
struct ConstDef {
  enum Kind : uint8_t { B32, B64, Raw64, Raw128 };
  Kind K;
  uint64_t Lo;
  uint64_t Hi;
  std::string Name;
  int Reg = -1;
};

class LoopEmitter {
public:
  LoopEmitter(const Program &P, const VectorEmitOptions &Opts)
      : P(P), Opts(Opts), N(P.wordBits()), CBits(N == 64 ? 64 : 32) {
    this->Opts.Unroll = std::min(std::max(this->Opts.Unroll, 1), 8);
  }

  VectorEmitResult run();

private:
  const Program &P;
  VectorEmitOptions Opts;
  int N;
  int CBits; ///< Lane container width: 32 for N in [2,32], 64 for N == 64.

  VecAsm A;
  bool Discover = false;
  bool Failed = false;
  std::string Err;

  std::map<std::tuple<int, uint64_t, uint64_t>, int> ConstIx;
  std::vector<ConstDef> Consts;
  int FirstConstReg = 16; ///< Value/temp pool is [0, FirstConstReg).

  std::vector<int> ValReg;
  std::vector<int> LastUse;
  std::vector<bool> Live;
  bool RegBusy[16] = {};

  int cbytes() const { return CBits / 8; }
  int wmem() const { return CBits == 64 ? 1 : 0; }
  int lanes() const { return A.vecBytes() * 8 / CBits; }

  void fail(std::string Msg) {
    if (!Failed) {
      Failed = true;
      Err = std::move(Msg);
    }
  }

  bool isConst(int V) const { return P.instr(V).Op == Opcode::Const; }
  uint64_t constVal(int V) const { return P.instr(V).Imm & maskFor(N); }

  /// Deduplicating constant-pool lookup. The discovery pass creates
  /// entries; the real pass resolves them to their assigned registers.
  int constReg(ConstDef::Kind K, uint64_t Lo, uint64_t Hi, const char *Name) {
    auto Key = std::make_tuple(static_cast<int>(K), Lo, Hi);
    auto It = ConstIx.find(Key);
    int Idx;
    if (It != ConstIx.end()) {
      Idx = It->second;
    } else if (Discover) {
      Idx = static_cast<int>(Consts.size());
      ConstIx.emplace(Key, Idx);
      Consts.push_back({K, Lo, Hi, Name, -1});
    } else {
      fail("constant pool mismatch between passes");
      return 15;
    }
    return Discover ? 15 : Consts[static_cast<size_t>(Idx)].Reg;
  }

  /// Broadcast of the N-bit all-ones mask (lane-container width).
  int maskConst() {
    if (CBits == 64)
      return constReg(ConstDef::B64, maskFor(N), 0, "mask");
    return constReg(ConstDef::B32, maskFor(N), 0, "mask");
  }
  /// Broadcast 1, for turning compare masks into 0/1 values.
  int oneConst() {
    if (CBits == 64)
      return constReg(ConstDef::B64, 1, 0, "one");
    return constReg(ConstDef::B32, 1, 0, "one");
  }

  int allocReg() {
    for (int R = 0; R < FirstConstReg; ++R)
      if (!RegBusy[R]) {
        RegBusy[R] = true;
        return R;
      }
    fail("out of vector registers");
    return 0;
  }
  void freeReg(int R) {
    if (R >= 0 && R < FirstConstReg)
      RegBusy[R] = false;
  }
  void freeValueIfDead(int V, int Pos) {
    if (V >= 0 && LastUse[static_cast<size_t>(V)] == Pos) {
      freeReg(ValReg[static_cast<size_t>(V)]);
      ValReg[static_cast<size_t>(V)] = -1;
    }
  }

  void resetBodyState() {
    ValReg.assign(static_cast<size_t>(P.size()), -1);
    for (bool &B : RegBusy)
      B = false;
  }

  bool validate();
  void computeLiveness();
  void emitPrologue();
  void emitOneBody(int Slot);
  void emitInstr(int V, int Slot);
  void emitInstr32(int V, const Instr &I);
  void emitInstr64(int V, const Instr &I);
  void storeResults(int Slot);
  void packBytes(int SrcReg, int Slot);

  /// AVX-512 Slt: compare into k1, widen the mask back to all-ones
  /// lanes, AND down to 0/1.
  void evexLessThan(int Dst, int Ra, int Rb, bool Signed) {
    A.vpcmpLtK1(Signed, wmem(), Ra, Rb);
    A.vpmovm2K1(wmem(), Dst);
    A.vop(VPAND, Dst, Dst, oneConst());
  }

  /// dst &= mask, for narrow lanes only — N == container width is already
  /// canonical after dword/qword ops.
  void maskNarrow(int R) {
    if (N < CBits)
      A.vop(VPAND, R, R, maskConst());
  }

  /// Returns a register whose dwords hold the operand sign-extended to 32
  /// bits. Consts come pre-extended from the pool; N == 32 values are
  /// already exact; narrow values get the shift-pair. Temp is returned in
  /// TempOut for the caller to free (-1 when none was needed).
  int sext32Operand(int V, int &TempOut) {
    TempOut = -1;
    if (isConst(V)) {
      uint32_t Val = static_cast<uint32_t>(constVal(V));
      uint32_t Se = N == 32 ? Val
                            : static_cast<uint32_t>(
                                  static_cast<int32_t>(Val << (32 - N)) >>
                                  (32 - N));
      return constReg(ConstDef::B32, Se, 0, "sext const");
    }
    int R = ValReg[static_cast<size_t>(V)];
    if (N == 32)
      return R;
    TempOut = allocReg();
    A.vpslld(TempOut, R, 32 - N);
    A.vpsrad(TempOut, TempOut, 32 - N);
    return TempOut;
  }

  /// Operand register usable as the *odd-lane* input of vpmuludq/vpmuldq
  /// (odd dwords moved to even slots). Broadcast constants are uniform
  /// across dwords, so they serve both roles without a shift.
  int oddLanes(int V, int EvenReg, int &TempOut) {
    TempOut = -1;
    if (isConst(V))
      return EvenReg;
    TempOut = allocReg();
    A.vpsrlq(TempOut, EvenReg, 32);
    return TempOut;
  }

  /// Register whose qwords' low dwords hold the operand's high 32 bits
  /// (the other vpmuludq input for 64-bit multiword multiplies).
  int hiHalf64(int V, int &TempOut) {
    TempOut = -1;
    if (isConst(V))
      return constReg(ConstDef::B64, constVal(V) >> 32, 0, "hi half");
    TempOut = allocReg();
    A.vpsrlq(TempOut, ValReg[static_cast<size_t>(V)], 32);
    return TempOut;
  }

  /// Dst = qword sign mask of Src (-1 / 0). EVEX has vpsraq; AVX2 uses
  /// the sign-bit trick (srl 63; x^1 - 1 maps 1 -> all-ones, 0 -> 0).
  void xsign64Into(int Dst, int Src) {
    if (A.Evex) {
      A.vpsraq512(Dst, Src, 63);
      return;
    }
    int One = oneConst();
    A.vpsrlq(Dst, Src, 63);
    A.vop(VPXOR, Dst, Dst, One);
    A.vop(VPSUBQ, Dst, Dst, One);
  }
};

} // namespace

namespace {

bool LoopEmitter::validate() {
  if (N > 32 && N != 64) {
    fail("word width " + std::to_string(N) + " has no lane container");
    return false;
  }
  size_t NumResults = P.results().size();
  if (NumResults < 1 || NumResults > 2) {
    fail("need one or two results, have " + std::to_string(NumResults));
    return false;
  }
  if (Opts.ByteResult0 && NumResults != 1) {
    fail("byte-packed result requires exactly one result");
    return false;
  }
  for (int V = 0; V < P.size(); ++V) {
    const Instr &I = P.instr(V);
    switch (I.Op) {
    case Opcode::DivU:
    case Opcode::DivS:
    case Opcode::RemU:
    case Opcode::RemS:
      fail("runtime division opcode — lower with §10 first");
      return false;
    case Opcode::Arg:
      if (I.Imm != 0) {
        fail("vector loops take exactly one input array");
        return false;
      }
      break;
    default:
      break;
    }
  }
  return true;
}

void LoopEmitter::computeLiveness() {
  size_t Size = static_cast<size_t>(P.size());
  Live.assign(Size, false);
  LastUse.assign(Size, -1);
  for (int R : P.results()) {
    Live[static_cast<size_t>(R)] = true;
    LastUse[static_cast<size_t>(R)] = P.size();
  }
  for (int V = P.size() - 1; V >= 0; --V) {
    if (!Live[static_cast<size_t>(V)])
      continue;
    const Instr &I = P.instr(V);
    for (int Opnd : {I.Lhs, I.Rhs}) {
      if (Opnd < 0)
        continue;
      Live[static_cast<size_t>(Opnd)] = true;
      LastUse[static_cast<size_t>(Opnd)] =
          std::max(LastUse[static_cast<size_t>(Opnd)], V);
    }
  }
}

// Materialize the constant pool into its home registers, high to low.
void LoopEmitter::emitPrologue() {
  A.CurIr = -1;
  for (const ConstDef &C : Consts) {
    switch (C.K) {
    case ConstDef::B32:
      A.note("; " + A.vr(C.Reg) + " = broadcast32 " + hexImm(C.Lo) + " (" +
             C.Name + ")");
      A.movR11Imm(C.Lo);
      A.vmovGprToXmm(C.Reg, R11, 0);
      A.vbroadcast(C.Reg, C.Reg, 0);
      break;
    case ConstDef::B64:
      A.note("; " + A.vr(C.Reg) + " = broadcast64 " + hexImm(C.Lo) + " (" +
             C.Name + ")");
      A.movR11Imm(C.Lo);
      A.vmovGprToXmm(C.Reg, R11, 1);
      A.vbroadcast(C.Reg, C.Reg, 1);
      break;
    case ConstDef::Raw64:
      A.note("; " + VecAsm::xr(C.Reg) + " = raw64 " + hexImm(C.Lo) + " (" +
             C.Name + ")");
      A.movR11Imm(C.Lo);
      A.vmovGprToXmm(C.Reg, R11, 1);
      break;
    case ConstDef::Raw128:
      // Assembled from two 64-bit halves through value-pool register 0,
      // which is free until the first loop body runs.
      A.note("; " + VecAsm::xr(C.Reg) + " = raw128 " + hexImm(C.Hi) + ":" +
             hexImm(C.Lo) + " (" + C.Name + ")");
      A.movR11Imm(C.Lo);
      A.vmovGprToXmm(C.Reg, R11, 1);
      A.movR11Imm(C.Hi);
      A.vmovGprToXmm(0, R11, 1);
      A.vpunpcklqdq128(C.Reg, C.Reg, 0);
      break;
    }
  }
}

void LoopEmitter::emitOneBody(int Slot) {
  resetBodyState();
  for (int V = 0; V < P.size() && !Failed; ++V) {
    if (!Live[static_cast<size_t>(V)])
      continue;
    emitInstr(V, Slot);
    const Instr &I = P.instr(V);
    freeValueIfDead(I.Lhs, V);
    if (I.Rhs != I.Lhs)
      freeValueIfDead(I.Rhs, V);
  }
  if (!Failed)
    storeResults(Slot);
}

void LoopEmitter::emitInstr(int V, int Slot) {
  const Instr &I = P.instr(V);
  A.CurIr = V;
  switch (I.Op) {
  case Opcode::Arg: {
    int Dst = allocReg();
    A.vload(Dst, {RDI, cbytes(), Slot * A.vecBytes()}, wmem());
    ValReg[static_cast<size_t>(V)] = Dst;
    return;
  }
  case Opcode::Const: {
    ValReg[static_cast<size_t>(V)] =
        CBits == 64 ? constReg(ConstDef::B64, constVal(V), 0, "const")
                    : constReg(ConstDef::B32, constVal(V), 0, "const");
    return;
  }
  // Bitwise ops are width-agnostic and operands are canonical, so the
  // dword forms serve both containers with no masking.
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Eor: {
    int Dst = allocReg();
    const VOp &Op = I.Op == Opcode::And ? VPAND
                    : I.Op == Opcode::Or ? VPOR
                                         : VPXOR;
    A.vop(Op, Dst, ValReg[static_cast<size_t>(I.Lhs)],
          ValReg[static_cast<size_t>(I.Rhs)]);
    ValReg[static_cast<size_t>(V)] = Dst;
    return;
  }
  case Opcode::Not: {
    // x ^ maskN is the canonical N-bit complement.
    int Dst = allocReg();
    A.vop(VPXOR, Dst, ValReg[static_cast<size_t>(I.Lhs)], maskConst());
    ValReg[static_cast<size_t>(V)] = Dst;
    return;
  }
  default:
    break;
  }
  if (CBits == 64)
    emitInstr64(V, I);
  else
    emitInstr32(V, I);
}

void LoopEmitter::emitInstr32(int V, const Instr &I) {
  int Ra = I.Lhs >= 0 ? ValReg[static_cast<size_t>(I.Lhs)] : -1;
  int Rb = I.Rhs >= 0 ? ValReg[static_cast<size_t>(I.Rhs)] : -1;
  int Dst = allocReg();
  ValReg[static_cast<size_t>(V)] = Dst;
  int Sh = static_cast<int>(I.Imm);
  switch (I.Op) {
  case Opcode::Add:
    A.vop(VPADDD, Dst, Ra, Rb);
    maskNarrow(Dst);
    break;
  case Opcode::Sub:
    A.vop(VPSUBD, Dst, Ra, Rb);
    maskNarrow(Dst);
    break;
  case Opcode::Neg:
    A.vop(VPXOR, Dst, Dst, Dst);
    A.vop(VPSUBD, Dst, Dst, Ra);
    maskNarrow(Dst);
    break;
  case Opcode::MulL:
    A.vop(VPMULLD, Dst, Ra, Rb);
    maskNarrow(Dst);
    break;
  case Opcode::MulUH: {
    // Even-lane products via vpmuludq, odd lanes shifted down and
    // multiplied the same way, the two N-shifted halves re-interleaved.
    // Each qword product is < 2^(2N), so product >> N fits its dword and
    // the OR merge needs no mask.
    int Pe = allocReg(), Po = allocReg();
    A.vop(VPMULUDQ, Pe, Ra, Rb);
    int Ta, Tb;
    int Ao = oddLanes(I.Lhs, Ra, Ta);
    int Bo = oddLanes(I.Rhs, Rb, Tb);
    A.vop(VPMULUDQ, Po, Ao, Bo);
    freeReg(Ta);
    freeReg(Tb);
    A.vpsrlq(Pe, Pe, N);
    A.vpsrlq(Po, Po, N);
    A.vpsllq(Po, Po, 32);
    A.vop(VPOR, Dst, Pe, Po);
    freeReg(Pe);
    freeReg(Po);
    break;
  }
  case Opcode::MulSH: {
    // Same even/odd split over vpmuldq with both operands sign-extended
    // to full dwords; bits N..2N-1 of each signed product are the N-bit
    // high half, extracted with a qword shift + qword mask.
    int Ta, Tb;
    int Ase = sext32Operand(I.Lhs, Ta);
    int Bse = sext32Operand(I.Rhs, Tb);
    int Pe = allocReg(), Po = allocReg();
    A.vop(VPMULDQ, Pe, Ase, Bse);
    int Toa, Tob;
    int Ao = oddLanes(I.Lhs, Ase, Toa);
    int Bo = oddLanes(I.Rhs, Bse, Tob);
    A.vop(VPMULDQ, Po, Ao, Bo);
    freeReg(Toa);
    freeReg(Tob);
    freeReg(Ta);
    freeReg(Tb);
    int LowMask = constReg(ConstDef::B64, maskFor(N), 0, "qword mask");
    A.vpsrlq(Pe, Pe, N);
    A.vop(VPAND, Pe, Pe, LowMask);
    A.vpsrlq(Po, Po, N);
    A.vop(VPAND, Po, Po, LowMask);
    A.vpsllq(Po, Po, 32);
    A.vop(VPOR, Dst, Pe, Po);
    freeReg(Pe);
    freeReg(Po);
    break;
  }
  case Opcode::Sll:
    A.vpslld(Dst, Ra, Sh);
    maskNarrow(Dst);
    break;
  case Opcode::Srl:
    A.vpsrld(Dst, Ra, Sh);
    break;
  case Opcode::Sra:
    if (N == 32) {
      A.vpsrad(Dst, Ra, Sh);
    } else {
      // Position bit N-1 at bit 31, then one arithmetic shift does both
      // the extension and the requested distance (total stays <= 31).
      A.vpslld(Dst, Ra, 32 - N);
      A.vpsrad(Dst, Dst, 32 - N + Sh);
      maskNarrow(Dst);
    }
    break;
  case Opcode::Ror:
    if (Sh == 0) {
      A.vcopy(Dst, Ra);
    } else {
      int T = allocReg();
      A.vpsrld(T, Ra, Sh);
      A.vpslld(Dst, Ra, N - Sh);
      A.vop(VPOR, Dst, Dst, T);
      maskNarrow(Dst);
      freeReg(T);
    }
    break;
  case Opcode::Xsign:
    if (N == 32) {
      A.vpsrad(Dst, Ra, 31);
    } else {
      A.vpslld(Dst, Ra, 32 - N);
      A.vpsrad(Dst, Dst, 31);
      maskNarrow(Dst);
    }
    break;
  case Opcode::SltU:
    if (A.Evex) {
      evexLessThan(Dst, Ra, Rb, false);
    } else if (N <= 31) {
      // Below 2^31 unsigned and signed orders agree.
      A.vop(VPCMPGTD, Dst, Rb, Ra);
      A.vop(VPAND, Dst, Dst, oneConst());
    } else {
      int SignBit = constReg(ConstDef::B32, 0x80000000u, 0, "sign bias");
      int Ta = allocReg(), Tb = allocReg();
      A.vop(VPXOR, Ta, Ra, SignBit);
      A.vop(VPXOR, Tb, Rb, SignBit);
      A.vop(VPCMPGTD, Dst, Tb, Ta);
      A.vop(VPAND, Dst, Dst, oneConst());
      freeReg(Ta);
      freeReg(Tb);
    }
    break;
  case Opcode::SltS: {
    int Ta, Tb;
    int Ase = sext32Operand(I.Lhs, Ta);
    int Bse = sext32Operand(I.Rhs, Tb);
    if (A.Evex) {
      evexLessThan(Dst, Ase, Bse, true);
    } else {
      A.vop(VPCMPGTD, Dst, Bse, Ase);
      A.vop(VPAND, Dst, Dst, oneConst());
    }
    freeReg(Ta);
    freeReg(Tb);
    break;
  }
  default:
    fail(std::string("unhandled opcode ") + ir::opcodeName(I.Op));
    break;
  }
}

} // namespace

namespace {

void LoopEmitter::emitInstr64(int V, const Instr &I) {
  int Ra = I.Lhs >= 0 ? ValReg[static_cast<size_t>(I.Lhs)] : -1;
  int Rb = I.Rhs >= 0 ? ValReg[static_cast<size_t>(I.Rhs)] : -1;
  int Dst = allocReg();
  ValReg[static_cast<size_t>(V)] = Dst;
  int Sh = static_cast<int>(I.Imm);

  // 64x64->high-64 via four vpmuludq partials with 32-bit carries folded
  // in (the textbook multiword schoolbook sum). Shared by MulUH/MulSH.
  auto mulUH64Into = [&](int DstR) {
    int Ta, Tb;
    int Ah = hiHalf64(I.Lhs, Ta);
    int Bh = hiHalf64(I.Rhs, Tb);
    int Ll = allocReg(), Lh = allocReg(), Hl = allocReg();
    A.vop(VPMULUDQ, Ll, Ra, Rb);
    A.vop(VPMULUDQ, Lh, Ra, Bh);
    A.vop(VPMULUDQ, Hl, Ah, Rb);
    A.vop(VPMULUDQ, DstR, Ah, Bh);
    freeReg(Ta);
    freeReg(Tb);
    int M32 = constReg(ConstDef::B64, 0xFFFFFFFFull, 0, "low32 mask");
    int T = allocReg();
    A.vpsrlq(Ll, Ll, 32);
    A.vop(VPAND, T, Lh, M32);
    A.vop(VPADDQ, Ll, Ll, T);
    A.vop(VPAND, T, Hl, M32);
    A.vop(VPADDQ, Ll, Ll, T); // middle column incl. ll carry
    A.vpsrlq(Lh, Lh, 32);
    A.vop(VPADDQ, DstR, DstR, Lh);
    A.vpsrlq(Hl, Hl, 32);
    A.vop(VPADDQ, DstR, DstR, Hl);
    A.vpsrlq(Ll, Ll, 32);
    A.vop(VPADDQ, DstR, DstR, Ll); // middle-column carry
    freeReg(T);
    freeReg(Ll);
    freeReg(Lh);
    freeReg(Hl);
  };

  switch (I.Op) {
  case Opcode::Add:
    A.vop(VPADDQ, Dst, Ra, Rb);
    break;
  case Opcode::Sub:
    A.vop(VPSUBQ, Dst, Ra, Rb);
    break;
  case Opcode::Neg:
    A.vop(VPXOR, Dst, Dst, Dst);
    A.vop(VPSUBQ, Dst, Dst, Ra);
    break;
  case Opcode::MulL: {
    // low64 = lo*lo + ((lo*hi + hi*lo) << 32).
    int Ta, Tb;
    int Ah = hiHalf64(I.Lhs, Ta);
    int Bh = hiHalf64(I.Rhs, Tb);
    int T1 = allocReg(), T2 = allocReg();
    A.vop(VPMULUDQ, T1, Ah, Rb);
    A.vop(VPMULUDQ, T2, Ra, Bh);
    A.vop(VPADDQ, T1, T1, T2);
    A.vpsllq(T1, T1, 32);
    A.vop(VPMULUDQ, Dst, Ra, Rb);
    A.vop(VPADDQ, Dst, Dst, T1);
    freeReg(T1);
    freeReg(T2);
    freeReg(Ta);
    freeReg(Tb);
    break;
  }
  case Opcode::MulUH:
    mulUH64Into(Dst);
    break;
  case Opcode::MulSH: {
    // mulsh = muluh - (a < 0 ? b : 0) - (b < 0 ? a : 0); constant
    // operands (the Figure 5.1 multiplier) resolve their branch at
    // emission time.
    mulUH64Into(Dst);
    auto signCorrect = [&](int OpndV, int OpndReg, int OtherReg) {
      if (isConst(OpndV)) {
        if (static_cast<int64_t>(constVal(OpndV)) < 0)
          A.vop(VPSUBQ, Dst, Dst, OtherReg);
        return;
      }
      int S = allocReg();
      xsign64Into(S, OpndReg);
      A.vop(VPAND, S, S, OtherReg);
      A.vop(VPSUBQ, Dst, Dst, S);
      freeReg(S);
    };
    signCorrect(I.Lhs, Ra, Rb);
    signCorrect(I.Rhs, Rb, Ra);
    break;
  }
  case Opcode::Sll:
    A.vpsllq(Dst, Ra, Sh);
    break;
  case Opcode::Srl:
    A.vpsrlq(Dst, Ra, Sh);
    break;
  case Opcode::Sra:
    if (A.Evex) {
      A.vpsraq512(Dst, Ra, Sh);
    } else if (Sh == 0) {
      A.vcopy(Dst, Ra);
    } else {
      // (x >>u s ^ m) - m with m = sign bit's post-shift position.
      int Bias = constReg(ConstDef::B64, uint64_t{1} << (63 - Sh), 0,
                          "sra bias");
      A.vpsrlq(Dst, Ra, Sh);
      A.vop(VPXOR, Dst, Dst, Bias);
      A.vop(VPSUBQ, Dst, Dst, Bias);
    }
    break;
  case Opcode::Ror:
    if (Sh == 0) {
      A.vcopy(Dst, Ra);
    } else {
      int T = allocReg();
      A.vpsrlq(T, Ra, Sh);
      A.vpsllq(Dst, Ra, 64 - Sh);
      A.vop(VPOR, Dst, Dst, T);
      freeReg(T);
    }
    break;
  case Opcode::Xsign:
    xsign64Into(Dst, Ra);
    break;
  case Opcode::SltU: {
    if (A.Evex) {
      evexLessThan(Dst, Ra, Rb, false);
      break;
    }
    // Bias both sides by the sign bit so the signed qword compare
    // computes the unsigned order.
    int Bias = constReg(ConstDef::B64, uint64_t{1} << 63, 0, "sign bias");
    int Ta = allocReg(), Tb = allocReg();
    A.vop(VPXOR, Ta, Ra, Bias);
    A.vop(VPXOR, Tb, Rb, Bias);
    A.vop(VPCMPGTQ, Dst, Tb, Ta);
    A.vop(VPAND, Dst, Dst, oneConst());
    freeReg(Ta);
    freeReg(Tb);
    break;
  }
  case Opcode::SltS:
    if (A.Evex) {
      evexLessThan(Dst, Ra, Rb, true);
    } else {
      A.vop(VPCMPGTQ, Dst, Rb, Ra);
      A.vop(VPAND, Dst, Dst, oneConst());
    }
    break;
  default:
    fail(std::string("unhandled opcode ") + ir::opcodeName(I.Op));
    break;
  }
}

void LoopEmitter::storeResults(int Slot) {
  const std::vector<int> &Res = P.results();
  for (size_t J = 0; J < Res.size(); ++J) {
    int R = ValReg[static_cast<size_t>(Res[J])];
    A.CurIr = Res[J];
    if (Opts.ByteResult0 && J == 0) {
      packBytes(R, Slot);
    } else {
      int Base = J == 0 ? RSI : RDX;
      A.vstore({Base, cbytes(), Slot * A.vecBytes()}, R, wmem());
    }
  }
}

void LoopEmitter::packBytes(int SrcReg, int Slot) {
  if (A.Evex) {
    // vpmovdb / vpmovqb truncate every lane to its low byte on the way
    // to memory; truncation is identity on 0/1 flags.
    A.vpmovByteStore(wmem(), {RSI, 1, Slot * lanes()}, SrcReg);
    return;
  }
  int T = allocReg();
  if (CBits == 32) {
    // 8 dword 0/1 flags -> 8 bytes: two in-lane packs leave each 128-bit
    // lane's four flag bytes in its dword 0; vpermd dwords {0,4} collect
    // them adjacently for one 8-byte store. Saturation is identity on
    // 0/1 values.
    A.vop(VPACKSSDW, T, SrcReg, SrcReg);
    A.vop(VPACKUSWB, T, T, T);
    int Idx =
        constReg(ConstDef::Raw64, 0x0000000400000000ull, 0, "pack index");
    A.vop(VPERMD, T, Idx, T);
    A.vmovqStore({RSI, 1, Slot * lanes()}, T);
  } else {
    // 4 qword flags: gather their low dwords {0,2,4,6} into lane 0 first,
    // then pack twice and store the low 4 bytes.
    int Idx = constReg(ConstDef::Raw128, 0x0000000200000000ull,
                       0x0000000600000004ull, "pack index");
    A.vop(VPERMD, T, Idx, SrcReg);
    A.vop(VPACKUSDW, T, T, T);
    A.vop(VPACKUSWB, T, T, T);
    A.vmovdStore({RSI, 1, Slot * lanes()}, T);
  }
  freeReg(T);
}

VectorEmitResult LoopEmitter::run() {
  VectorEmitResult R;
  A.Evex = Opts.Isa == VectorIsa::Avx512;
  R.Shape.Isa = Opts.Isa;
  R.Shape.ContainerBits = CBits;
  R.Shape.ByteResult0 = Opts.ByteResult0;
  if (!validate()) {
    R.Error = Err;
    return R;
  }
  computeLiveness();

  // Discovery pass: one body into a throwaway buffer fixes the constant
  // pool, after which registers can be assigned.
  Discover = true;
  emitOneBody(0);
  A.Code.clear();
  A.Lines.clear();
  if (Failed) {
    R.Error = Err;
    return R;
  }
  FirstConstReg = 16 - static_cast<int>(Consts.size());
  for (size_t Ix = 0; Ix < Consts.size(); ++Ix)
    Consts[Ix].Reg = 15 - static_cast<int>(Ix);
  if (FirstConstReg < 2) {
    R.Error = "constant pool leaves too few value registers";
    return R;
  }
  Discover = false;

  int L = lanes();
  int U = Opts.Unroll;
  R.Shape.Lanes = L;
  R.Shape.Unroll = U;

  emitPrologue();
  A.CurIr = -1;
  A.xorEaxEax();
  if (U > 1) {
    A.note("main: ; " + std::to_string(U) + " x " + std::to_string(L) +
           " elements per iteration");
    size_t MainTop = A.Code.size();
    A.leaR8RaxPlus(L * U);
    A.cmpR8Rcx();
    size_t JaMain = A.jaPatchable("tail");
    for (int K = 0; K < U && !Failed; ++K)
      emitOneBody(K);
    A.CurIr = -1;
    A.movRaxR8();
    A.jmpTo(MainTop, "main");
    A.patch32(JaMain, A.Code.size());
  }
  A.note("tail: ; one vector at a time");
  size_t TailTop = A.Code.size();
  A.leaR8RaxPlus(L);
  A.cmpR8Rcx();
  size_t JaDone = A.jaPatchable("done");
  emitOneBody(0);
  A.CurIr = -1;
  A.movRaxR8();
  A.jmpTo(TailTop, "tail");
  A.patch32(JaDone, A.Code.size());
  A.note("done:");
  A.vzeroupper();
  A.ret();

  if (Failed) {
    R.Error = Err;
    return R;
  }
  R.Ok = true;
  R.Code = std::move(A.Code);
  R.Lines = std::move(A.Lines);
  return R;
}

} // namespace

const char *gmdiv::jit::vectorIsaName(VectorIsa Isa) {
  return Isa == VectorIsa::Avx512 ? "avx512" : "avx2";
}

VectorEmitResult gmdiv::jit::emitX86VectorLoop(const Program &P,
                                               const VectorEmitOptions &Opts) {
  LoopEmitter E(P, Opts);
  return E.run();
}
