//===- bench/bench_table_11_1.cpp - Table 11.1 reproduction ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Table 11.1 shows the code GCC generates for the Figure 11.1 radix-
// conversion loop body (q = x/10, r = x%10, unsigned 32-bit) on Alpha,
// MIPS, POWER and SPARC. This binary regenerates the listings from our
// own code generator:
//
//   * MIPS/POWER/SPARC: 32-bit machines with a usable MULUH — the
//     multiply-high sequence with multiplier (2^34+1)/5 and shift 3,
//     plus the MULL/subtract remainder (shared via CSE, as the paper
//     notes GCC's CSE pass did).
//   * Alpha: a 64-bit machine whose 23-cycle mulq loses to shifts and
//     adds, so the multiplies are strength-reduced (the paper prints the
//     expansion 4*[(2^16+1)*(2^8+1)*(4*[4*(4*0-x)+x]-x)]+x).
//
// We verify each printed sequence over a dividend sweep before printing
// and report its cost on the matching Table 1.1 profile. Absolute
// instruction counts differ from the paper's hand-listed assembler
// (register moves, addressing), but the operation mix — which multiplier,
// which shifts, multiply vs shift/add — is the reproducible content.
//
//===----------------------------------------------------------------------===//

#include "bench_report.h"

#include "arch/CostModel.h"
#include "arch/Target.h"
#include "codegen/DivCodeGen.h"
#include "ir/AsmPrinter.h"
#include "ir/Interp.h"

#include <cstdio>
#include <cstdlib>

using namespace gmdiv;

namespace {

void verifyDivRemBy10(const ir::Program &P) {
  for (uint64_t N = 0; N <= 0xffffffffull; N += 99991) {
    const std::vector<uint64_t> QR = ir::run(P, {N});
    if (QR[0] != N / 10 || QR[1] != N % 10) {
      std::printf("VERIFICATION FAILED at n=%llu\n",
                  static_cast<unsigned long long>(N));
      std::exit(1);
    }
  }
  const std::vector<uint64_t> QR = ir::run(P, {0xffffffffull});
  if (QR[0] != 0xffffffffull / 10) {
    std::printf("VERIFICATION FAILED at n=2^32-1\n");
    std::exit(1);
  }
}

void printFor(const char *ArchName, const ir::Program &P,
              target::TargetKind Kind) {
  const arch::ArchProfile &Profile = arch::profileByName(ArchName);
  verifyDivRemBy10(P);
  const arch::SequenceCost Cost = arch::estimateCost(P, Profile);
  std::printf("--- %s (mul %s cycles, divide %s cycles) ---\n", ArchName,
              Profile.MulHigh.toString().c_str(),
              Profile.Divide.toString().c_str());
  // Through the backend: instruction selection (mult/mfhi pairs,
  // sethi/or constants, scaled adds) + register allocation.
  target::MachineFunction MF = target::selectInstructions(P, Kind);
  target::allocateRegisters(MF);
  // The machine code must still divide correctly after allocation.
  for (uint64_t N = 0; N <= 0xffffffffull; N += 990001) {
    const std::vector<uint64_t> QR = target::runMachine(MF, {N});
    if (QR[0] != N / 10 || QR[1] != N % 10) {
      std::printf("MACHINE-CODE VERIFICATION FAILED at n=%llu\n",
                  static_cast<unsigned long long>(N));
      std::exit(1);
    }
  }
  std::printf("%s", target::emitAssembly(MF).c_str());
  std::printf("cost: %.0f cycles (%d multiplies, %d simple ops), "
              "%d registers; two divides would cost %.0f => "
              "speedup %.1fx\n\n",
              Cost.Cycles, Cost.Multiplies, Cost.SimpleOps,
              MF.PeakRegisters, 2 * Profile.divCycles(),
              2 * Profile.divCycles() / Cost.Cycles);
}

void printTable() {
  std::printf("=== Table 11.1: generated code for the radix-conversion "
              "loop body ===\n");
  std::printf("(q = x / 10, r = x %% 10, unsigned 32-bit x; verified over "
              "a 2^32 sweep)\n\n");

  // 32-bit machines keep the MULUH.
  const ir::Program P32 = codegen::genUnsignedDivRem(32, 10);
  printFor("MIPS R3000", P32, target::TargetKind::Mips);
  printFor("SPARC Viking", P32, target::TargetKind::Sparc);

  // POWER/RIOS I only has the *signed* multiply (Table 1.1: "signed
  // only"), so the unsigned MULUH is synthesized via the §3 identity —
  // visible in the listing as the extra AND/XSIGN corrections.
  codegen::GenOptions PowerOptions;
  PowerOptions.MulHigh = codegen::MulHighCapability::SignedOnly;
  const ir::Program PPower = codegen::genUnsignedDivRem(32, 10, PowerOptions);
  printFor("POWER/RIOS I", PPower, target::TargetKind::Power);

  // Alpha: 64-bit registers; expand multiplies cheaper than 23 cycles.
  codegen::GenOptions AlphaOptions;
  AlphaOptions.ExpandMulBelowCycles =
      arch::profileByName("DEC Alpha 21064").mulCycles();
  const ir::Program PAlpha =
      codegen::genUnsignedDivRemWide(32, 64, 10, AlphaOptions);
  printFor("DEC Alpha 21064", PAlpha, target::TargetKind::Alpha);

  std::printf("notes: the Alpha listing is multiply-free, matching the "
              "paper's shift/add expansion of (2^34+1)/5;\n"
              "MIPS/SPARC use MULUH(0xcccccccd) >> 3 exactly as their "
              "Table 11.1 columns do; POWER, whose multiply is signed-"
              "only,\nsynthesizes MULUH with the §3 identity "
              "corrections.\n");
}

} // namespace

GMDIV_BENCH_MAIN(table_11_1, printTable)
