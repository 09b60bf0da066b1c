//===- arch/FamilySelect.cpp - cross-family auto-selection ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "arch/FamilySelect.h"

#include "core/ChooseMultiplier.h"
#include "core/FastModDivider.h"
#include "core/NarrowDivider.h"
#include "core/RoundUpDivider.h"
#include "ops/Ops.h"

#include <cassert>

namespace gmdiv {
namespace arch {

const char *divOpName(DivOp Op) {
  switch (Op) {
  case DivOp::Divide:
    return "divide";
  case DivOp::Remainder:
    return "rem";
  case DivOp::DivRem:
    return "divrem";
  case DivOp::Divisibility:
    return "divisible";
  }
  return "?";
}

const char *familyName(Family F) {
  switch (F) {
  case Family::GM:
    return "gm";
  case Family::FastMod:
    return "fastmod";
  case Family::RoundUp:
    return "roundup";
  case Family::Narrow:
    return "narrow";
  case Family::HardwareDiv:
    return "hwdiv";
  }
  return "?";
}

bool parseDivOp(const std::string &Text, DivOp &Out) {
  if (Text == "divide" || Text == "div") {
    Out = DivOp::Divide;
    return true;
  }
  if (Text == "rem" || Text == "mod" || Text == "remainder") {
    Out = DivOp::Remainder;
    return true;
  }
  if (Text == "divrem" || Text == "divmod") {
    Out = DivOp::DivRem;
    return true;
  }
  if (Text == "divisible" || Text == "divis") {
    Out = DivOp::Divisibility;
    return true;
  }
  return false;
}

const FamilyCandidate &FamilyChoice::chosen() const { return candidate(Chosen); }

const FamilyCandidate &FamilyChoice::candidate(Family F) const {
  for (const FamilyCandidate &C : Candidates)
    if (C.Fam == F)
      return C;
  assert(false && "family missing from candidate list");
  return Candidates.front();
}

namespace {

/// Abstract operation counts for one call, priced against a profile the
/// way the paper's own Section 7 arguments do: high multiplies at the
/// Table 1.1 MULUH latency, every add/sub/shift/compare at
/// SimpleOpCycles, a hardware divide at its full latency.
struct OpCost {
  double Muls = 0;
  double Simples = 0;
  double Divides = 0;

  double on(const ArchProfile &P) const {
    return Muls * P.mulCycles() + Simples * P.SimpleOpCycles +
           Divides * P.divCycles();
  }
};

OpCost operator+(OpCost A, OpCost B) {
  return {A.Muls + B.Muls, A.Simples + B.Simples, A.Divides + B.Divides};
}

constexpr int NumFamilies = 5;
constexpr Family FamilyOrder[NumFamilies] = {
    Family::GM, Family::FastMod, Family::RoundUp, Family::Narrow,
    Family::HardwareDiv};

/// The width-dependent facts: per-call operation counts and the
/// multiplier width each family wants for this divisor. Indexed in
/// FamilyOrder. Computed through the real divider classes, so the
/// numbers reflect what would actually run (whether GM's m fits a word,
/// which mode the Optimal Bounds scan picks, ...).
struct WidthPlan {
  OpCost PerOp[NumFamilies];
  OpCost Setup[NumFamilies];
  int MultiplierBits[NumFamilies] = {0, 0, 0, 0, 0};
};

/// rem = divide + MULL + subtract; divrem shares the quotient, so it
/// costs the same as rem; divisibility adds a compare on top of rem.
/// Every family except fastmod (which has direct forms) follows this.
OpCost derivedCost(DivOp Op, OpCost Divide) {
  switch (Op) {
  case DivOp::Divide:
    return Divide;
  case DivOp::Remainder:
  case DivOp::DivRem:
    return Divide + OpCost{1, 1, 0};
  case DivOp::Divisibility:
    return Divide + OpCost{1, 2, 0};
  }
  return Divide;
}

template <typename UWord> WidthPlan planWidth(DivOp Op, uint64_t Divisor) {
  using Traits = WordTraits<UWord>;
  constexpr int N = Traits::Bits;
  const UWord D = static_cast<UWord>(Divisor);
  const bool Pow2 = isPowerOf2(D);

  WidthPlan Plan;
  // One-time precompute, also in abstract ops: each family's setup is
  // dominated by one wide division (two for the round-up k-scan, which
  // probes both candidate multipliers) plus bookkeeping.
  Plan.Setup[0] = {0, 10, 1}; // gm: CHOOSE_MULTIPLIER
  Plan.Setup[1] = {0, 10, 1}; // fastmod: c = floor(2^2N/d) + 1
  Plan.Setup[2] = {0, 20, 2}; // roundup: minimal-k scan
  Plan.Setup[3] = {0, 10, 1}; // narrow: M = ceil(2^2N/d)
  Plan.Setup[4] = {0, 0, 0};  // hwdiv: nothing to precompute

  // gm — Figure 4.1: shift for powers of two, MULUH + shift when m fits
  // a word, the full t1/sub/shift/add/shift form otherwise.
  {
    OpCost Div;
    if (Pow2) {
      Div = {0, 1, 0};
    } else {
      const MultiplierInfo<UWord> Info = chooseMultiplier<UWord>(D, N);
      Div = Info.fitsInWord() ? OpCost{1, 1, 0} : OpCost{1, 4, 0};
      Plan.MultiplierBits[0] = floorLog2(Info.Multiplier) + 1;
    }
    Plan.PerOp[0] = derivedCost(Op, Div);
  }

  // fastmod — LKK direct forms. The 2N-bit multiplies count as single
  // machine multiplies; that is exactly what the half-width eligibility
  // rule guarantees.
  //   divide:  MULUH(c, n) + extract          1 mul + 1 simple
  //   rem:     MULL(c, n), MULUH(frac, d)     2 mul + 1 simple
  //   divrem:  all three multiplies           3 mul + 2 simple
  //   divis:   MULL(c, n) + compare           1 mul + 1 simple
  {
    const FastModDivider<UWord> FM(D);
    if (D != static_cast<UWord>(1))
      Plan.MultiplierBits[1] = floorLog2(FM.magic()) + 1;
    switch (Op) {
    case DivOp::Divide:
      Plan.PerOp[1] = {1, 1, 0};
      break;
    case DivOp::Remainder:
      Plan.PerOp[1] = {2, 1, 0};
      break;
    case DivOp::DivRem:
      Plan.PerOp[1] = {3, 2, 0};
      break;
    case DivOp::Divisibility:
      Plan.PerOp[1] = {1, 1, 0};
      break;
    }
  }

  // roundup — cost depends on the mode the minimal-k scan lands on.
  {
    const RoundUpChoice<UWord> Choice = chooseRoundUpMultiplier(D);
    using Kind = typename RoundUpChoice<UWord>::Kind;
    OpCost Div;
    switch (Choice.Mode) {
    case Kind::Shift:
      Div = {0, 1, 0};
      break;
    case Kind::RoundUp:
      Div = {1, 1, 0};
      Plan.MultiplierBits[2] = Choice.MultiplierBits;
      break;
    case Kind::Increment:
      Div = {1, 2, 0};
      Plan.MultiplierBits[2] = Choice.MultiplierBits;
      break;
    case Kind::Fixup:
      Div = {1, 4, 0}; // embedded GM Figure 4.1 long sequence
      Plan.MultiplierBits[2] = N + 1;
      break;
    }
    Plan.PerOp[2] = derivedCost(Op, Div);
  }

  // narrow — one 2N-bit high multiply, no shift, no fixup.
  {
    const NarrowDivider<UWord> Nar(D);
    Plan.MultiplierBits[3] = Nar.multiplierBits();
    Plan.PerOp[3] = derivedCost(Op, OpCost{1, 0, 0});
  }

  // hwdiv — the machine instruction; divrem/divisibility add the MULL
  // or compare the instruction set typically requires.
  switch (Op) {
  case DivOp::Divide:
  case DivOp::Remainder:
    Plan.PerOp[4] = {0, 0, 1};
    break;
  case DivOp::DivRem:
  case DivOp::Divisibility:
    Plan.PerOp[4] = {0, 1, 1};
    break;
  }

  return Plan;
}

} // namespace

namespace {

/// Per-call surcharge for signed operands, in abstract ops. GM lowers
/// signed division natively (Figure 5.2: MULSH, SRA, and the
/// sign-of-n/sign-of-q fixups — about two extra simple ops over the
/// unsigned form). The fastmod / roundup / narrow families divide
/// magnitudes and restore the sign afterward (the
/// *SignedDivider wrappers): abs(n) is a three-op mask chain and the
/// sign restore two more, except divisibility, which needs no restore.
/// The hardware divide instruction is signed natively.
OpCost signedSurcharge(Family F, DivOp Op) {
  switch (F) {
  case Family::GM:
    return {0, 2, 0};
  case Family::FastMod:
  case Family::RoundUp:
  case Family::Narrow:
    return Op == DivOp::Divisibility ? OpCost{0, 3, 0} : OpCost{0, 5, 0};
  case Family::HardwareDiv:
    return {0, 0, 0};
  }
  return {0, 0, 0};
}

} // namespace

FamilyChoice selectFamily(DivOp Op, int WidthBits, uint64_t Divisor,
                          const ArchProfile &Target, uint64_t BatchSize,
                          bool SignedOperands) {
  assert((WidthBits == 8 || WidthBits == 16 || WidthBits == 32 ||
          WidthBits == 64) &&
         "operand width must be 8/16/32/64");
  assert(Divisor != 0 && "divisor must be nonzero");
  assert((WidthBits == 64 ||
          Divisor < (uint64_t{1} << WidthBits)) &&
         "divisor does not fit the operand width");

  // With signed operands the plan is computed on |d| — that is the
  // divisor the magnitude-based families actually precompute for, and
  // GM's signed multiplier choice matches the unsigned one for |d|.
  if (SignedOperands) {
    const uint64_t SignBit = uint64_t{1} << (WidthBits - 1);
    if (Divisor & SignBit) {
      Divisor = (~Divisor + 1) & maskFor(WidthBits);
      if (Divisor == 0)
        Divisor = SignBit; // INT_MIN: |d| wraps to itself
    }
  }

  WidthPlan Plan;
  switch (WidthBits) {
  case 8:
    Plan = planWidth<uint8_t>(Op, Divisor);
    break;
  case 16:
    Plan = planWidth<uint16_t>(Op, Divisor);
    break;
  case 32:
    Plan = planWidth<uint32_t>(Op, Divisor);
    break;
  default:
    Plan = planWidth<uint64_t>(Op, Divisor);
    break;
  }

  FamilyChoice Out;
  Out.Candidates.resize(NumFamilies);
  const double Batch = BatchSize < 1 ? 1.0 : double(BatchSize);

  for (int I = 0; I < NumFamilies; ++I) {
    FamilyCandidate &C = Out.Candidates[I];
    C.Fam = FamilyOrder[I];
    C.MultiplierBits = Plan.MultiplierBits[I];

    // Eligibility. The multiplicative families need their products to
    // fit the machine: GM and roundup work at the full word, while
    // fastmod and narrow form 2N-bit products and therefore require the
    // operand width to be at most half the host word (LKK section 3 —
    // the remainder/fraction arithmetic lives in one 2N-bit register).
    switch (C.Fam) {
    case Family::GM:
    case Family::RoundUp:
      C.Eligible = WidthBits <= Target.WordBits;
      if (!C.Eligible)
        C.Reason = "operand wider than the machine word";
      break;
    case Family::FastMod:
    case Family::Narrow:
      C.Eligible = 2 * WidthBits <= Target.WordBits;
      if (!C.Eligible)
        C.Reason = "needs 2N-bit products in one word (LKK sec. 3): 2*" +
                   std::to_string(WidthBits) + " > " +
                   std::to_string(Target.WordBits) + "-bit host";
      break;
    case Family::HardwareDiv:
      C.Eligible = Target.HasDivide && WidthBits <= Target.WordBits;
      if (!C.Eligible)
        C.Reason = Target.HasDivide ? "operand wider than the machine word"
                                    : "no hardware divide instruction";
      break;
    }

    if (!C.Eligible)
      continue;
    OpCost PerOp = Plan.PerOp[I];
    if (SignedOperands)
      PerOp = PerOp + signedSurcharge(C.Fam, Op);
    C.CyclesPerOp = PerOp.on(Target);
    C.SetupCycles = Plan.Setup[I].on(Target);
    C.EffectiveCycles = C.CyclesPerOp + C.SetupCycles / Batch;
  }

  // Cheapest eligible family wins; ties break toward the earlier entry
  // (GM first — the paper's own sequences are the conservative default).
  int Best = -1;
  for (int I = 0; I < NumFamilies; ++I) {
    const FamilyCandidate &C = Out.Candidates[I];
    if (!C.Eligible)
      continue;
    if (Best < 0 || C.EffectiveCycles < Out.Candidates[Best].EffectiveCycles)
      Best = I;
  }
  // A target narrower than the operand leaves nothing eligible; report
  // GM (the portable reference) so callers always get an answer.
  Out.Chosen = Best < 0 ? Family::GM : Out.Candidates[Best].Fam;
  return Out;
}

} // namespace arch
} // namespace gmdiv
