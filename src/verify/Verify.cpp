//===- verify/Verify.cpp - Differential verification driver ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Layout: a fixed table of named properties, a Reporter that tallies
// comparisons (and turns mismatches into repro strings, statistics and
// telemetry remarks), and one DivisorChecker<UWord> template that owns
// every divider and generated program for a single (width, d) and runs
// all per-dividend comparisons. verifyWidth / checkOne / the fuzzer all
// drive the same checker, so an exhaustive pass, a fuzz round and a
// repro replay cannot drift apart.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "batch/BatchDivider.h"
#include "codegen/DivCodeGen.h"
#include "core/AlversonDivider.h"
#include "core/ChooseMultiplier.h"
#include "core/DWordDivider.h"
#include "core/Divider.h"
#include "core/ExactDiv.h"
#include "core/FastModDivider.h"
#include "core/FloatDiv.h"
#include "core/NarrowDivider.h"
#include "core/RoundUpDivider.h"
#include "core/MultiPrecision.h"
#include "core/RemModSemantics.h"
#include "ir/Interp.h"
#include "jit/JitBatchDivider.h"
#include "jit/JitDivider.h"
#include "metrics/Metrics.h"
#include "ops/SmallWord.h"
#include "telemetry/Json.h"
#include "telemetry/Remarks.h"
#include "trace/Trace.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <type_traits>

using namespace gmdiv;
using namespace gmdiv::verify;

namespace json = gmdiv::telemetry::json;

//===----------------------------------------------------------------------===//
// Property table
//===----------------------------------------------------------------------===//

namespace {

struct PropertyInfo {
  const char *Name;
  bool IsSigned; ///< Repro strings print signed decimals.
  bool HasN2;    ///< Uses the n2 operand (doubleword high part).
  /// Divider family the property exercises. "gm" (the paper's own
  /// algorithms) is the default and is omitted from repro strings; the
  /// successor families tag their repros with ":f=<family>" so a replay
  /// targets the exact implementation that produced the mismatch.
  const char *Family = "gm";
};

enum Property : int {
  PChooseU,
  POracleU,
  PUDiv,
  PAlverson,
  PExactU,
  PFloatU,
  PDWord,
  PCodegenU,
  PCodegenAlverson,
  PCodegenExactU,
  PCodegenDivisU,
  PCodegenRemTestU,
  PCodegenDWord,
  PCodegenWideU,
  PBatchU,
  PJitU,
  PFastModU,
  PFastModDivis,
  PRoundUpU,
  PRoundUpBounds,
  PNarrowU,
  PChooseS,
  POracleS,
  PSDiv,
  PFloorDiv,
  PGeneralFloor,
  PCeilDiv,
  PConvention,
  PExactS,
  PFloatS,
  PCodegenS,
  PCodegenFloor,
  PCodegenExactS,
  PCodegenDivisS,
  PCodegenRemTestS,
  PCodegenFloorRt,
  PCodegenWideS,
  PBatchS,
  PJitS,
  PJitFloor,
  PFastModS,
  PNarrowS,
  PJitBatchU,
  PJitBatchS,
  PJitBatchDivis,
  PropertyEnd,
};

constexpr PropertyInfo PropertyTable[PropertyEnd] = {
    {"choose-multiplier-unsigned", false, false},
    {"oracle-unsigned", false, false},
    {"unsigned-divider", false, false},
    {"alverson-divider", false, false},
    {"exact-unsigned", false, false},
    {"float-unsigned", false, false},
    {"dword-divider", false, true},
    {"codegen-unsigned", false, false},
    {"codegen-alverson", false, false},
    {"codegen-exact-unsigned", false, false},
    {"codegen-divisibility-unsigned", false, false},
    {"codegen-remtest-unsigned", false, false},
    {"codegen-dword", false, true},
    {"codegen-wide-unsigned", false, false},
    {"batch-unsigned", false, false},
    {"jit-unsigned", false, false},
    {"fastmod-unsigned", false, false, "fastmod"},
    {"fastmod-divisible", false, false, "fastmod"},
    {"roundup-unsigned", false, false, "roundup"},
    {"roundup-bounds", false, false, "roundup"},
    {"narrow32-unsigned", false, false, "narrow32"},
    {"choose-multiplier-signed", true, false},
    {"oracle-signed", true, false},
    {"signed-divider", true, false},
    {"floor-divider", true, false},
    {"general-floor-divider", true, false},
    {"ceil-divider", true, false},
    {"convention-divider", true, false},
    {"exact-signed", true, false},
    {"float-signed", true, false},
    {"codegen-signed", true, false},
    {"codegen-floor", true, false},
    {"codegen-exact-signed", true, false},
    {"codegen-divisibility-signed", true, false},
    {"codegen-remtest-signed", true, false},
    {"codegen-floor-runtime", true, false},
    {"codegen-wide-signed", true, false},
    {"batch-signed", true, false},
    {"jit-signed", true, false},
    {"jit-floor", true, false},
    {"fastmod-signed", true, false, "fastmod"},
    {"narrow32-signed", true, false, "narrow32"},
    // Runtime-emitted vector batch loops (jit::JitBatchDivider's
    // kernels), appended so existing repro strings keep their indices.
    {"jit-batch-unsigned", false, false},
    {"jit-batch-signed", true, false},
    {"jit-batch-divisible", false, false},
};

int propertyIndex(const std::string &Name) {
  for (int I = 0; I < PropertyEnd; ++I)
    if (Name == PropertyTable[I].Name)
      return I;
  return -1;
}

uint64_t maskFor(int WordBits) {
  return WordBits == 64 ? ~uint64_t{0} : (uint64_t{1} << WordBits) - 1;
}

int64_t signExtend64(uint64_t Value, int WordBits) {
  const uint64_t SignBit = uint64_t{1} << (WordBits - 1);
  return static_cast<int64_t>(((Value & maskFor(WordBits)) ^ SignBit) -
                              SignBit);
}

std::string decString(uint64_t Bits, int WordBits, bool IsSigned) {
  if (IsSigned)
    return std::to_string(signExtend64(Bits, WordBits));
  return std::to_string(Bits & maskFor(WordBits));
}

//===----------------------------------------------------------------------===//
// Injection hook (harness self-test)
//===----------------------------------------------------------------------===//

std::atomic<uint64_t> InjectedPeriod{0};
std::atomic<uint64_t> InjectionCounter{0};

/// Remark suppression for replays (checkOne): a failure found by a
/// sweep emits exactly one remark; re-running it for minimization or
/// diagnosis must not emit more.
std::atomic<int> RemarkSuppression{0};

struct ScopedRemarkSuppression {
  ScopedRemarkSuppression() {
    RemarkSuppression.fetch_add(1, std::memory_order_relaxed);
  }
  ~ScopedRemarkSuppression() {
    RemarkSuppression.fetch_sub(1, std::memory_order_relaxed);
  }
};

//===----------------------------------------------------------------------===//
// Reporter
//===----------------------------------------------------------------------===//

/// Tallies comparisons per property; a mismatch becomes (at most once per
/// distinct input tuple) a repro string, a verify.mismatch remark and a
/// statistics bump.
class Reporter {
public:
  explicit Reporter(int WordBits) : W(WordBits) {}

  bool check(Property P, uint64_t Expected, uint64_t Actual, uint64_t DBits,
             uint64_t NBits) {
    return checkImpl(P, Expected, Actual, DBits, NBits, 0, false);
  }
  bool check2(Property P, uint64_t Expected, uint64_t Actual, uint64_t DBits,
              uint64_t NBits, uint64_t N2Bits) {
    return checkImpl(P, Expected, Actual, DBits, NBits, N2Bits, true);
  }

  /// Builds the report and flushes the bulk checks counter into the
  /// metrics registry.
  VerifyReport take() {
    VerifyReport Report;
    Report.WordBits = W;
    Report.Properties.reserve(PropertyEnd);
    uint64_t Total = 0;
    for (int I = 0; I < PropertyEnd; ++I) {
      Report.Properties.push_back(Counts[I]);
      Report.Properties.back().Name = PropertyTable[I].Name;
      Total += Counts[I].Checks;
    }
    Report.Failures = std::move(Failures);
    Failures.clear();
    // Registered directly rather than via GMDIV_STAT so the exposition
    // keeps counting under GMDIV_NO_TELEMETRY.
    static metrics::Counter &ChecksMetric = metrics::Registry::global().counter(
        "gmdiv_verify_checks_total", "Differential properties checked");
    ChecksMetric.add(Total - Flushed);
    Flushed = Total;
    return Report;
  }

private:
  bool checkImpl(Property P, uint64_t Expected, uint64_t Actual,
                 uint64_t DBits, uint64_t NBits, uint64_t N2Bits,
                 bool HasN2) {
    ++Counts[P].Checks;
    const uint64_t Period = InjectedPeriod.load(std::memory_order_relaxed);
    if (Period != 0 &&
        InjectionCounter.fetch_add(1, std::memory_order_relaxed) % Period ==
            Period - 1)
      Actual ^= 1;
    if (Expected == Actual)
      return true;
    ++Counts[P].Mismatches;
    static metrics::Counter &MismatchMetric =
        metrics::Registry::global().counter("gmdiv_verify_mismatches_total",
                                            "Differential mismatches found");
    MismatchMetric.inc();
    recordFailure(P, Expected, Actual, DBits, NBits, N2Bits, HasN2);
    return false;
  }

  void recordFailure(Property P, uint64_t Expected, uint64_t Actual,
                     uint64_t DBits, uint64_t NBits, uint64_t N2Bits,
                     bool HasN2) {
    Repro Rep;
    Rep.Property = PropertyTable[P].Name;
    Rep.WordBits = W;
    Rep.DBits = DBits;
    Rep.NBits = NBits;
    Rep.N2Bits = N2Bits;
    Rep.HasN2 = HasN2;
    Rep.Family = PropertyTable[P].Family;
    const std::string Text = reproString(Rep);
    if (std::find(Failures.begin(), Failures.end(), Text) != Failures.end())
      return; // Same input already recorded (a sibling comparison).
    if (Failures.size() >= FailureCap)
      return;
    Failures.push_back(Text);
    if (telemetry::remarksEnabled() &&
        RemarkSuppression.load(std::memory_order_relaxed) == 0) {
      telemetry::Remark R;
      R.Pass = "verify";
      R.Kind = "verify.mismatch";
      R.CaseName = PropertyTable[P].Name;
      R.WordBits = W;
      R.DivisorBits = DBits;
      R.IsSigned = PropertyTable[P].IsSigned;
      R.Details.emplace_back(
          "n", decString(NBits, W, PropertyTable[P].IsSigned));
      if (HasN2)
        R.Details.emplace_back("n2", decString(N2Bits, W, false));
      R.Details.emplace_back("expected", std::to_string(Expected));
      R.Details.emplace_back("actual", std::to_string(Actual));
      R.Details.emplace_back("repro", Text);
      telemetry::emitRemark(R);
    }
  }

  int W;
  PropertyCount Counts[PropertyEnd];
  std::vector<std::string> Failures;
  uint64_t Flushed = 0;
};

//===----------------------------------------------------------------------===//
// Width dispatch
//===----------------------------------------------------------------------===//

/// Runs \p Fn with the word type for \p WordBits: the native types at
/// 8/16/32/64, SmallUWord elsewhere in [4, 12].
template <typename F> void withUWord(int WordBits, F &&Fn) {
  switch (WordBits) {
  case 4:
    return Fn.template operator()<SmallUWord<4>>();
  case 5:
    return Fn.template operator()<SmallUWord<5>>();
  case 6:
    return Fn.template operator()<SmallUWord<6>>();
  case 7:
    return Fn.template operator()<SmallUWord<7>>();
  case 8:
    return Fn.template operator()<uint8_t>();
  case 9:
    return Fn.template operator()<SmallUWord<9>>();
  case 10:
    return Fn.template operator()<SmallUWord<10>>();
  case 11:
    return Fn.template operator()<SmallUWord<11>>();
  case 12:
    return Fn.template operator()<SmallUWord<12>>();
  case 16:
    return Fn.template operator()<uint16_t>();
  case 32:
    return Fn.template operator()<uint32_t>();
  case 64:
    return Fn.template operator()<uint64_t>();
  default:
    assert(false && "no word family for this verification width");
  }
}

bool widthSupported(int WordBits) {
  return (WordBits >= 4 && WordBits <= 12) || WordBits == 16 ||
         WordBits == 32 || WordBits == 64;
}

//===----------------------------------------------------------------------===//
// DivisorChecker
//===----------------------------------------------------------------------===//

/// Everything the harness knows how to check for one (width, divisor):
/// scalar dividers, generated sequences through the IR interpreter, and
/// (native widths) the batch backends — all against the Oracle.
template <typename UWordT> class DivisorChecker {
public:
  using UWord = UWordT;
  using Traits = WordTraits<UWord>;
  using SWord = typename Traits::SWord;
  using UDWord = typename Traits::UDWord;
  static constexpr int W = Traits::Bits;
  static constexpr bool Native = std::is_integral_v<UWord>;

  DivisorChecker(Reporter &R, uint64_t DivisorBits)
      : R(R), Mask(maskFor(W)), DBits(DivisorBits & Mask),
        DSigned(signExtend64(DBits, W)),
        AbsD(DSigned < 0 ? 0 - static_cast<uint64_t>(DSigned)
                         : static_cast<uint64_t>(DSigned)),
        DU(static_cast<UWord>(DBits)), DS(static_cast<SWord>(DSigned)),
        OU(W, DBits, /*IsSigned=*/false), OS(W, DBits, /*IsSigned=*/true),
        UDiv(DU), Alv(DU), ExactU(DU), DWord(DU), SDiv(DS), Floor(DS),
        GFloor(DS), Ceil(DS), ConvTrunc(DS, RemainderConvention::Truncated),
        ConvFloor(DS, RemainderConvention::Floored),
        ConvEuclid(DS, RemainderConvention::Euclidean), ExactS(DS),
        FMU(DU), FMS(DS), RUp(DU), Nar(DU), NarS(DS),
        PUDivRem(codegen::genUnsignedDivRem(W, DBits)),
        PAlv(codegen::genUnsignedDivAlverson(W, DBits)),
        ProgExactU(codegen::genExactUnsignedDiv(W, DBits)),
        PDivisU(codegen::genDivisibilityTestUnsigned(W, DBits)),
        PDword(codegen::genDWordDivRem(W, DBits)),
        PSDivRem(codegen::genSignedDivRem(W, DSigned)),
        ProgExactS(codegen::genExactSignedDiv(W, DSigned)),
        PDivisS(codegen::genDivisibilityTestSigned(W, DSigned)),
        PFloorRt(codegen::genFloorDivModRuntime(W)), Args1(1), Args2(2) {
    assert(DBits != 0 && "divisor must be nonzero");
    RemR0 = DBits >= 2 ? DBits / 2 : 0;
    PRemTest0.emplace(codegen::genRemainderTestUnsigned(W, DBits, RemR0));
    if (DBits >= 2) {
      RemR1 = DBits - 1;
      PRemTest1.emplace(codegen::genRemainderTestUnsigned(W, DBits, RemR1));
    }
    if (DSigned > 0)
      PFloorMod.emplace(codegen::genFloorDivMod(W, DSigned));
    if (DSigned >= 2 && (AbsD & (AbsD - 1)) != 0) {
      RemS1 = 1;
      RemS2 = DSigned - 1;
      PRemTestS1.emplace(codegen::genRemainderTestSigned(W, DSigned, RemS1));
      PRemTestS2.emplace(codegen::genRemainderTestSigned(W, DSigned, RemS2));
    }
    if constexpr (Native && W < 64) {
      PWideU.emplace(codegen::genUnsignedDivWide(W, 64, DBits));
      PWideS.emplace(codegen::genSignedDivWide(W, 64, DSigned));
    }
    if constexpr (Native && sizeof(UWord) <= 4) {
      FloatU.emplace(DU);
      FloatS.emplace(DS);
    }
    // JIT-executed sequences: the same generated programs, compiled to
    // native code through the full Peephole + Scheduler + emitter
    // pipeline. On hosts without the backend (or GMDIV_NO_JIT=1) the
    // handles stay null and the jit-* properties record zero checks —
    // the interpreter comparisons above still cover the sequences.
    if (jit::enabled()) {
      jit::CompileInfo Info;
      Info.DivisorBits = DBits;
      Info.HasDivisor = true;
      Info.CaseName = "verify-unsigned";
      JitU = jit::compile(jit::prepareForJit(PUDivRem), Info);
      Info.CaseName = "verify-signed";
      Info.IsSigned = true;
      JitS = jit::compile(jit::prepareForJit(PSDivRem), Info);
      if (PFloorMod) {
        Info.CaseName = "verify-floor";
        JitFloor = jit::compile(jit::prepareForJit(*PFloorMod), Info);
      }
    }
  }

  /// Per-divisor checks: CHOOSE_MULTIPLIER against Theorem 4.2 / §5, plus
  /// sampled doubleword divisions.
  void checkDivisorOnce() {
    // Unsigned: prec = N (Figure 4.2's call).
    const MultiplierInfo<UWord> InfoN = chooseMultiplier<UWord>(DU, W);
    uint64_t Lo = 0, Hi = 0;
    udHalves(InfoN.Multiplier, Lo, Hi);
    const MultiplierCheck CkN =
        checkMultiplier(W, W, DBits, Lo, Hi, InfoN.ShiftPost, InfoN.Log2Ceil);
    R.check(PChooseU, 1, CkN.ok() ? 1 : 0, DBits, 0);

    // prec = N-1: §5 guarantees m < 2^N for every d >= 2 (d = 1 yields
    // m = 2^N + 2, which the figure's callers never request).
    const MultiplierInfo<UWord> Info1 = chooseMultiplier<UWord>(DU, W - 1);
    udHalves(Info1.Multiplier, Lo, Hi);
    const MultiplierCheck Ck1 = checkMultiplier(W, W - 1, DBits, Lo, Hi,
                                                Info1.ShiftPost,
                                                Info1.Log2Ceil);
    R.check(PChooseU, 1, Ck1.ok() ? 1 : 0, DBits, 1);
    R.check(PChooseU, 1, (DBits == 1 || Ck1.FitsWord) ? 1 : 0, DBits, 2);

    // Signed: prec = N-1 over |d| (Figure 5.2's call).
    const MultiplierInfo<UWord> InfoS =
        chooseMultiplier<UWord>(static_cast<UWord>(AbsD), W - 1);
    udHalves(InfoS.Multiplier, Lo, Hi);
    const MultiplierCheck CkS = checkMultiplier(W, W - 1, AbsD, Lo, Hi,
                                                InfoS.ShiftPost,
                                                InfoS.Log2Ceil);
    R.check(PChooseS, 1, CkS.ok() ? 1 : 0, DBits, 0);
    R.check(PChooseS, 1, (AbsD == 1 || CkS.FitsWord) ? 1 : 0, DBits, 1);

    // Optimal Bounds certificate for the round-up family: the chosen
    // (mode, m, k) must satisfy the exact arXiv:2412.03680 predicate,
    // fit a word, and be k-minimal — no admissible multiplier of either
    // variant exists at any smaller shift (probe indices in the n slot,
    // mirroring the choose-multiplier checks above).
    {
      using Choice = RoundUpChoice<UWord>;
      const Choice &C = RUp.choice();
      const UDWord One = Traits::udFromWord(static_cast<UWord>(1));
      const auto AdmissibleAt = [&](int K, bool Inc) {
        const auto QR = Traits::udDivModPow2(K, Traits::udFromWord(DU));
        const UDWord M = Inc ? QR.first : static_cast<UDWord>(QR.first + One);
        return checkRoundUpMultiplier(DU, M, K, Inc);
      };
      switch (C.Mode) {
      case Choice::Kind::Shift:
        R.check(PRoundUpBounds, 1, isPowerOf2(DU) ? 1 : 0, DBits, 0);
        break;
      case Choice::Kind::RoundUp:
      case Choice::Kind::Increment: {
        const bool Inc = C.Mode == Choice::Kind::Increment;
        R.check(PRoundUpBounds, 1,
                checkRoundUpMultiplier(DU, C.Multiplier, C.TotalShift, Inc)
                    ? 1
                    : 0,
                DBits, 0);
        R.check(PRoundUpBounds, 1, C.MultiplierBits <= W ? 1 : 0, DBits, 1);
        bool SmallerWorks = false;
        for (int K = W; K < C.TotalShift && !SmallerWorks; ++K)
          SmallerWorks = AdmissibleAt(K, false) || AdmissibleAt(K, true);
        R.check(PRoundUpBounds, 0, SmallerWorks ? 1 : 0, DBits, 2);
        if (Inc) // round-up is preferred at equal k, so it must not fit
          R.check(PRoundUpBounds, 0,
                  AdmissibleAt(C.TotalShift, false) ? 1 : 0, DBits, 3);
        break;
      }
      case Choice::Kind::Fixup: {
        // GM fallback is only legitimate when no k in [N, 2N-1] admits a
        // word-sized multiplier of either variant.
        bool AnyWorks = false;
        for (int K = W; K <= 2 * W - 1 && !AnyWorks; ++K)
          AnyWorks = AdmissibleAt(K, false) || AdmissibleAt(K, true);
        R.check(PRoundUpBounds, 0, AnyWorks ? 1 : 0, DBits, 0);
        break;
      }
      }
    }

    // §8 doubleword division, sampled over boundary high/low halves.
    const uint64_t HighProbe[] = {0, 1, DBits / 2, DBits - 1};
    const uint64_t LowProbe[] = {0,
                                 1,
                                 2,
                                 Mask,
                                 Mask - 1,
                                 (Mask >> 1) + 1,
                                 0x5555555555555555ull & Mask,
                                 (DBits - 1) & Mask};
    uint64_t Done[4];
    int DoneCount = 0;
    for (uint64_t High : HighProbe) {
      if (High >= DBits)
        continue;
      bool Seen = false;
      for (int I = 0; I < DoneCount; ++I)
        Seen |= Done[I] == High;
      if (Seen)
        continue;
      Done[DoneCount++] = High;
      for (uint64_t Low : LowProbe)
        checkDwordPair(High, Low);
    }
  }

  /// Doubleword (High:Low) / d against 128-bit-exact reference values.
  /// Requires High < d (the §8 precondition).
  void checkDwordPair(uint64_t HighBits, uint64_t LowBits) {
    HighBits &= Mask;
    LowBits &= Mask;
    assert(HighBits < DBits && "dword dividend high part must be < d");
    uint64_t RefQ = 0, RefR = 0;
    if (W <= 32) {
      const uint64_t Value = (HighBits << W) | LowBits;
      RefQ = Value / DBits;
      RefR = Value % DBits;
    } else {
      // Up to 128-bit dividend: divide limb-wise through the (already
      // hardware-cross-checked) multi-precision kernel.
      std::vector<uint64_t> Limbs = {LowBits, HighBits};
      const DWordDivider<uint64_t> ByD(DBits);
      RefR = multiprecision::divModInPlace(Limbs, ByD);
      assert(Limbs.size() < 2 || Limbs[1] == 0);
      RefQ = Limbs[0];
    }

    const UDWord N0 = makeUDWord(HighBits, LowBits);
    const auto [Q, Rm] = DWord.divRem(N0);
    R.check2(PDWord, RefQ, ubits(Q), DBits, LowBits, HighBits);
    R.check2(PDWord, RefR, ubits(Rm), DBits, LowBits, HighBits);

    Args2[0] = HighBits;
    Args2[1] = LowBits;
    ir::runScratch(PDword, Args2, Scratch, Results);
    R.check2(PCodegenDWord, RefQ, Results[0], DBits, LowBits, HighBits);
    R.check2(PCodegenDWord, RefR, Results[1], DBits, LowBits, HighBits);
  }

  /// Every per-dividend property for dividend bit pattern \p NBits.
  void checkN(uint64_t NBits) {
    NBits &= Mask;
    const DivRef RU = OU.ref(NBits);
    const DivRef RS = OS.ref(NBits);
    const UWord NU = static_cast<UWord>(NBits);
    const int64_t NSigned = signExtend64(NBits, W);
    const SWord NS = static_cast<SWord>(NSigned);

    // Oracle vs. hardware: the oracle's derived quotients must agree
    // with plain 64-bit machine division (the third independent path).
    R.check(POracleU, (NBits / DBits) & Mask, RU.TruncQ, DBits, NBits);
    R.check(POracleU, (NBits % DBits) & Mask, RU.TruncR, DBits, NBits);
    if (!RS.Overflow) {
      R.check(POracleS, static_cast<uint64_t>(NSigned / DSigned) & Mask,
              RS.TruncQ, DBits, NBits);
      R.check(POracleS, static_cast<uint64_t>(NSigned % DSigned) & Mask,
              RS.TruncR, DBits, NBits);
    } else {
      // INT_MIN / -1: the documented policy is wrap-to-INT_MIN, r = 0.
      R.check(POracleS, (uint64_t{1} << (W - 1)) & Mask, RS.TruncQ, DBits,
              NBits);
      R.check(POracleS, 0, RS.TruncR, DBits, NBits);
    }

    // Figure 4.1/4.2 scalar divider.
    R.check(PUDiv, RU.TruncQ, ubits(UDiv.divide(NU)), DBits, NBits);
    R.check(PUDiv, RU.TruncR, ubits(UDiv.remainder(NU)), DBits, NBits);
    {
      const auto [Q, Rm] = UDiv.divRem(NU);
      R.check(PUDiv, RU.TruncQ, ubits(Q), DBits, NBits);
      R.check(PUDiv, RU.TruncR, ubits(Rm), DBits, NBits);
    }
    R.check(PUDiv, RU.CeilQ, ubits(UDiv.divideCeil(NU)), DBits, NBits);

    // Alverson baseline.
    R.check(PAlverson, RU.TruncQ, ubits(Alv.divide(NU)), DBits, NBits);
    R.check(PAlverson, RU.TruncR, ubits(Alv.remainder(NU)), DBits, NBits);

    // Successor families (docs/FAMILIES.md). LKK fastmod: quotient,
    // direct remainder, and the one-multiply divisibility test.
    R.check(PFastModU, RU.TruncQ, ubits(FMU.divide(NU)), DBits, NBits);
    R.check(PFastModU, RU.TruncR, ubits(FMU.remainder(NU)), DBits, NBits);
    {
      const auto [Q, Rm] = FMU.divRem(NU);
      R.check(PFastModU, RU.TruncQ, ubits(Q), DBits, NBits);
      R.check(PFastModU, RU.TruncR, ubits(Rm), DBits, NBits);
    }
    R.check(PFastModDivis, RU.Divisible ? 1 : 0, FMU.isDivisible(NU) ? 1 : 0,
            DBits, NBits);

    // Round-up / optimal-bounds variant (fixup-free where a word-sized
    // multiplier exists; GM fallback otherwise — both paths must agree).
    R.check(PRoundUpU, RU.TruncQ, ubits(RUp.divide(NU)), DBits, NBits);
    R.check(PRoundUpU, RU.TruncR, ubits(RUp.remainder(NU)), DBits, NBits);

    // Narrow (Mitsunari–Hoshino 32-on-64 style) form: one doubleword
    // multiply, no shift, no fixup.
    R.check(PNarrowU, RU.TruncQ, ubits(Nar.divide(NU)), DBits, NBits);
    R.check(PNarrowU, RU.TruncR, ubits(Nar.remainder(NU)), DBits, NBits);

    // §9 exact division and remainder filters.
    R.check(PExactU, RU.Divisible ? 1 : 0, ExactU.isDivisible(NU) ? 1 : 0,
            DBits, NBits);
    if (RU.Divisible)
      R.check(PExactU, RU.TruncQ, ubits(ExactU.divideExact(NU)), DBits,
              NBits);
    if (DBits >= 2) {
      R.check(PExactU, 1,
              ExactU.remainderIs(NU, static_cast<UWord>(RU.TruncR)) ? 1 : 0,
              DBits, NBits);
      const uint64_t Wrong = (RU.TruncR + 1) % DBits;
      R.check(PExactU, 0,
              ExactU.remainderIs(NU, static_cast<UWord>(Wrong)) ? 1 : 0,
              DBits, NBits);
    }

    // §7 float division (double mantissa covers N <= 32 only).
    if constexpr (Native && sizeof(UWord) <= 4) {
      R.check(PFloatU, RU.TruncQ, ubits(FloatU->divide(NU)), DBits, NBits);
      R.check(PFloatU, RU.TruncQ, ubits(FloatU->divideViaReciprocal(NU)),
              DBits, NBits);
      if (!RS.Overflow) {
        R.check(PFloatS, RS.TruncQ, sbits(FloatS->divide(NS)), DBits, NBits);
        R.check(PFloatS, RS.TruncQ, sbits(FloatS->divideViaReciprocal(NS)),
                DBits, NBits);
      }
    }

    // Generated unsigned sequences, through the IR interpreter.
    Args1[0] = NBits;
    ir::runScratch(PUDivRem, Args1, Scratch, Results);
    R.check(PCodegenU, RU.TruncQ, Results[0], DBits, NBits);
    R.check(PCodegenU, RU.TruncR, Results[1], DBits, NBits);
    ir::runScratch(PAlv, Args1, Scratch, Results);
    R.check(PCodegenAlverson, RU.TruncQ, Results[0], DBits, NBits);
    if (RU.Divisible) {
      ir::runScratch(ProgExactU, Args1, Scratch, Results);
      R.check(PCodegenExactU, RU.TruncQ, Results[0], DBits, NBits);
    }
    ir::runScratch(PDivisU, Args1, Scratch, Results);
    R.check(PCodegenDivisU, RU.Divisible ? 1 : 0, Results[0], DBits, NBits);
    if (PRemTest0) {
      ir::runScratch(*PRemTest0, Args1, Scratch, Results);
      R.check(PCodegenRemTestU, NBits % DBits == RemR0 ? 1 : 0, Results[0],
              DBits, NBits);
    }
    if (PRemTest1) {
      ir::runScratch(*PRemTest1, Args1, Scratch, Results);
      R.check(PCodegenRemTestU, NBits % DBits == RemR1 ? 1 : 0, Results[0],
              DBits, NBits);
    }
    if (PWideU) {
      ir::runScratch(*PWideU, Args1, Scratch, Results);
      R.check(PCodegenWideU, NBits / DBits, Results[0], DBits, NBits);
    }

    // The same unsigned divRem sequence, JIT-executed: native code must
    // agree with the Oracle (and hence with the interpreter runs above).
    if (JitU) {
      JitU->callAll(NBits, 0, Results);
      R.check(PJitU, RU.TruncQ, Results[0], DBits, NBits);
      R.check(PJitU, RU.TruncR, Results[1], DBits, NBits);
    }

    // Figure 5.1/5.2 scalar divider (trunc), with the overflow check.
    R.check(PSDiv, RS.TruncQ, sbits(SDiv.divide(NS)), DBits, NBits);
    {
      bool Overflow = false;
      const SWord Q = SDiv.divideChecked(NS, Overflow);
      R.check(PSDiv, RS.Overflow ? 1 : 0, Overflow ? 1 : 0, DBits, NBits);
      R.check(PSDiv, RS.TruncQ, sbits(Q), DBits, NBits);
    }
    R.check(PSDiv, RS.TruncR, sbits(SDiv.remainder(NS)), DBits, NBits);
    {
      const auto [Q, Rm] = SDiv.divRem(NS);
      R.check(PSDiv, RS.TruncQ, sbits(Q), DBits, NBits);
      R.check(PSDiv, RS.TruncR, sbits(Rm), DBits, NBits);
    }

    // Signed successor families: |n|,|d| through the unsigned cores with
    // the EOR/subtract sign patch-up; the INT_MIN / -1 wrap is covered
    // because the Oracle's overflow policy matches.
    R.check(PFastModS, RS.TruncQ, sbits(FMS.divide(NS)), DBits, NBits);
    R.check(PFastModS, RS.TruncR, sbits(FMS.remainder(NS)), DBits, NBits);
    R.check(PFastModS, RS.Divisible ? 1 : 0, FMS.isDivisible(NS) ? 1 : 0,
            DBits, NBits);
    R.check(PNarrowS, RS.TruncQ, sbits(NarS.divide(NS)), DBits, NBits);
    R.check(PNarrowS, RS.TruncR, sbits(NarS.remainder(NS)), DBits, NBits);

    // §6 floor/ceil dividers and the §2 convention matrix.
    R.check(PFloorDiv, RS.FloorQ, sbits(Floor.divide(NS)), DBits, NBits);
    R.check(PFloorDiv, RS.FloorR, sbits(Floor.modulo(NS)), DBits, NBits);
    R.check(PGeneralFloor, RS.FloorQ, sbits(GFloor.divide(NS)), DBits,
            NBits);
    R.check(PGeneralFloor, RS.FloorR, sbits(GFloor.modulo(NS)), DBits,
            NBits);
    R.check(PCeilDiv, RS.CeilQ, sbits(Ceil.divide(NS)), DBits, NBits);
    {
      const auto [Q, Rm] = ConvTrunc.quotRem(NS);
      R.check(PConvention, RS.TruncQ, sbits(Q), DBits, NBits);
      R.check(PConvention, RS.TruncR, sbits(Rm), DBits, NBits);
    }
    {
      const auto [Q, Rm] = ConvFloor.quotRem(NS);
      R.check(PConvention, RS.FloorQ, sbits(Q), DBits, NBits);
      R.check(PConvention, RS.FloorR, sbits(Rm), DBits, NBits);
    }
    {
      // Euclidean: r in [0, |d|), i.e. floor for d > 0, ceil for d < 0.
      const auto [Q, Rm] = ConvEuclid.quotRem(NS);
      R.check(PConvention, DSigned > 0 ? RS.FloorQ : RS.CeilQ, sbits(Q),
              DBits, NBits);
      R.check(PConvention, DSigned > 0 ? RS.FloorR : RS.CeilR, sbits(Rm),
              DBits, NBits);
    }

    // §9 signed exact division.
    R.check(PExactS, RS.Divisible ? 1 : 0, ExactS.isDivisible(NS) ? 1 : 0,
            DBits, NBits);
    if (RS.Divisible)
      R.check(PExactS, RS.TruncQ, sbits(ExactS.divideExact(NS)), DBits,
              NBits);
    if (AbsD >= 3 && (AbsD & (AbsD - 1)) != 0) {
      const int64_t TruncR = signExtend64(RS.TruncR, W);
      for (const int64_t Probe : {int64_t{1}, static_cast<int64_t>(AbsD) - 1}) {
        R.check(PExactS, TruncR == Probe ? 1 : 0,
                ExactS.remainderIs(NS, static_cast<SWord>(Probe)) ? 1 : 0,
                DBits, NBits);
      }
    }

    // Generated signed sequences.
    ir::runScratch(PSDivRem, Args1, Scratch, Results);
    R.check(PCodegenS, RS.TruncQ, Results[0], DBits, NBits);
    R.check(PCodegenS, RS.TruncR, Results[1], DBits, NBits);
    if (PFloorMod) {
      ir::runScratch(*PFloorMod, Args1, Scratch, Results);
      R.check(PCodegenFloor, RS.FloorQ, Results[0], DBits, NBits);
      R.check(PCodegenFloor, RS.FloorR, Results[1], DBits, NBits);
    }
    if (RS.Divisible) {
      ir::runScratch(ProgExactS, Args1, Scratch, Results);
      R.check(PCodegenExactS, RS.TruncQ, Results[0], DBits, NBits);
    }
    ir::runScratch(PDivisS, Args1, Scratch, Results);
    R.check(PCodegenDivisS, RS.Divisible ? 1 : 0, Results[0], DBits, NBits);
    if (PRemTestS1) {
      const int64_t TruncR = signExtend64(RS.TruncR, W);
      ir::runScratch(*PRemTestS1, Args1, Scratch, Results);
      R.check(PCodegenRemTestS, TruncR == RemS1 ? 1 : 0, Results[0], DBits,
              NBits);
      ir::runScratch(*PRemTestS2, Args1, Scratch, Results);
      R.check(PCodegenRemTestS, TruncR == RemS2 ? 1 : 0, Results[0], DBits,
              NBits);
    }
    if (!RS.Overflow) {
      // Identity (6.1) with both operands at run time (the sequence
      // carries a real DivS, which would trap on the overflow pair).
      Args2[0] = NBits;
      Args2[1] = DBits;
      ir::runScratch(PFloorRt, Args2, Scratch, Results);
      R.check(PCodegenFloorRt, RS.FloorQ, Results[0], DBits, NBits);
      R.check(PCodegenFloorRt, RS.FloorR, Results[1], DBits, NBits);
    }
    if (PWideS && !RS.Overflow) {
      Args1[0] = static_cast<uint64_t>(NSigned);
      ir::runScratch(*PWideS, Args1, Scratch, Results);
      R.check(PCodegenWideS, static_cast<uint64_t>(NSigned / DSigned),
              Results[0], DBits, NBits);
      Args1[0] = NBits;
    }

    // JIT-executed signed and floor sequences.
    if (JitS) {
      JitS->callAll(NBits, 0, Results);
      R.check(PJitS, RS.TruncQ, Results[0], DBits, NBits);
      R.check(PJitS, RS.TruncR, Results[1], DBits, NBits);
    }
    if (JitFloor) {
      JitFloor->callAll(NBits, 0, Results);
      R.check(PJitFloor, RS.FloorQ, Results[0], DBits, NBits);
      R.check(PJitFloor, RS.FloorR, Results[1], DBits, NBits);
    }
  }

  /// Batch backends over \p Ns (bit patterns), native widths only; every
  /// compiled-in backend is swept so the scalar fallback and any SIMD
  /// paths are compared against the same oracle.
  void checkBatch(const std::vector<uint64_t> &Ns) {
    if constexpr (Native) {
      using SInt = std::make_signed_t<UWord>;
      const size_t Count = Ns.size();
      std::vector<UWord> In(Count);
      std::vector<SInt> SIn(Count);
      for (size_t I = 0; I < Count; ++I) {
        In[I] = static_cast<UWord>(Ns[I] & Mask);
        SIn[I] = static_cast<SInt>(In[I]);
      }
      std::vector<UWord> Q(Count), Rm(Count);
      std::vector<SInt> SQ(Count), SR(Count);
      std::vector<uint8_t> Flags(Count);
      for (const batch::Backend B : batch::compiledBackends()) {
        if (!batch::backendAvailable(B))
          continue;
        const batch::BatchDivider<UWord> BU(static_cast<UWord>(DBits), B);
        BU.divRem(In.data(), Q.data(), Rm.data(), Count);
        BU.divisible(In.data(), Flags.data(), Count);
        for (size_t I = 0; I < Count; ++I) {
          const DivRef Ref = OU.ref(Ns[I] & Mask);
          R.check(PBatchU, Ref.TruncQ, ubits(Q[I]), DBits, Ns[I] & Mask);
          R.check(PBatchU, Ref.TruncR, ubits(Rm[I]), DBits, Ns[I] & Mask);
          R.check(PBatchU, Ref.Divisible ? 1 : 0, Flags[I] ? 1 : 0, DBits,
                  Ns[I] & Mask);
        }
        const batch::BatchDivider<SInt> BS(static_cast<SInt>(DSigned), B);
        BS.divRem(SIn.data(), SQ.data(), SR.data(), Count);
        for (size_t I = 0; I < Count; ++I) {
          const DivRef Ref = OS.ref(Ns[I] & Mask);
          R.check(PBatchS, Ref.TruncQ, sbits(static_cast<SWord>(SQ[I])),
                  DBits, Ns[I] & Mask);
          R.check(PBatchS, Ref.TruncR, sbits(static_cast<SWord>(SR[I])),
                  DBits, Ns[I] & Mask);
        }
        BS.floorDivide(SIn.data(), SQ.data(), Count);
        BS.ceilDivide(SIn.data(), SR.data(), Count);
        for (size_t I = 0; I < Count; ++I) {
          const DivRef Ref = OS.ref(Ns[I] & Mask);
          R.check(PBatchS, Ref.FloorQ, sbits(static_cast<SWord>(SQ[I])),
                  DBits, Ns[I] & Mask);
          R.check(PBatchS, Ref.CeilQ, sbits(static_cast<SWord>(SR[I])),
                  DBits, Ns[I] & Mask);
        }
      }
    } else {
      (void)Ns;
    }
  }

  /// The runtime-emitted vector loops (the kernels behind
  /// jit::JitBatchDivider) against the Oracle. Unlike checkBatch this
  /// runs at *every* emittable width, not just native ones: any N in
  /// [2, 32] maps onto 32-bit memory lanes, N = 64 onto 64-bit lanes —
  /// so the exhaustive N = 4..12 sweeps drive the real AVX2/AVX-512
  /// recipes over every (n, d) pair, and the fuzzer reuses the same
  /// path at 16/32/64. Inputs are padded to a whole number of vectors
  /// so the loop (not the fallback tail) covers every real element;
  /// outputs are pre-poisoned so a short-running loop shows up as a
  /// mismatch rather than silence. Zero checks when the host lacks the
  /// ISA or GMDIV_JIT_VECTOR=0 — the same policy the divider obeys.
  void checkJitBatch(const std::vector<uint64_t> &Ns) {
    jit::VectorIsa Isa;
    if (Ns.empty() || !jit::vectorJitIsa(Isa))
      return;
    if constexpr (W > 32 && W != 64)
      return;
    using Elem = std::conditional_t<W == 64, uint64_t, uint32_t>;

    const auto CompileLoop = [&](jit::SeqKind Kind, bool ByteResult) {
      jit::VectorEmitOptions Opts;
      Opts.Isa = Isa;
      Opts.ByteResult0 = ByteResult;
      jit::CompileInfo Info;
      Info.CaseName = std::string("verify-vec-") + jit::seqKindName(Kind);
      Info.DivisorBits = DBits;
      Info.HasDivisor = true;
      Info.IsSigned = Kind == jit::SeqKind::SDivRem;
      return jit::compileVectorLoop(
          jit::prepareForJit(jit::genSequence(Kind, W, DBits)), Opts, Info);
    };
    const auto UBoth = CompileLoop(jit::SeqKind::UDivRem, false);
    const auto SBoth = CompileLoop(jit::SeqKind::SDivRem, false);
    const auto UDivis = CompileLoop(jit::SeqKind::UDivisible, true);
    if (!UBoth && !SBoth && !UDivis)
      return;

    const size_t Count = Ns.size();
    std::vector<Elem> In(Count);
    for (size_t I = 0; I < Count; ++I)
      In[I] = static_cast<Elem>(Ns[I] & Mask);
    const auto PadTo = [&](size_t Lanes) {
      std::vector<Elem> Out = In;
      while (Out.size() % Lanes)
        Out.push_back(0);
      return Out;
    };
    constexpr Elem Poison = static_cast<Elem>(~Elem{0});

    if (UBoth) {
      std::vector<Elem> PIn = PadTo(UBoth->vectorShape().Lanes);
      std::vector<Elem> Q(PIn.size(), Poison), Rm(PIn.size(), Poison);
      UBoth->batchFn()(PIn.data(), Q.data(), Rm.data(), PIn.size());
      for (size_t I = 0; I < Count; ++I) {
        const DivRef Ref = OU.ref(Ns[I] & Mask);
        R.check(PJitBatchU, Ref.TruncQ, static_cast<uint64_t>(Q[I]) & Mask,
                DBits, Ns[I] & Mask);
        R.check(PJitBatchU, Ref.TruncR, static_cast<uint64_t>(Rm[I]) & Mask,
                DBits, Ns[I] & Mask);
      }
    }
    if (SBoth) {
      std::vector<Elem> PIn = PadTo(SBoth->vectorShape().Lanes);
      std::vector<Elem> Q(PIn.size(), Poison), Rm(PIn.size(), Poison);
      SBoth->batchFn()(PIn.data(), Q.data(), Rm.data(), PIn.size());
      for (size_t I = 0; I < Count; ++I) {
        const DivRef Ref = OS.ref(Ns[I] & Mask);
        R.check(PJitBatchS, Ref.TruncQ, static_cast<uint64_t>(Q[I]) & Mask,
                DBits, Ns[I] & Mask);
        R.check(PJitBatchS, Ref.TruncR, static_cast<uint64_t>(Rm[I]) & Mask,
                DBits, Ns[I] & Mask);
      }
    }
    if (UDivis) {
      std::vector<Elem> PIn = PadTo(UDivis->vectorShape().Lanes);
      std::vector<uint8_t> Flags(PIn.size(), 0xAA);
      UDivis->batchFn()(PIn.data(), Flags.data(), nullptr, PIn.size());
      for (size_t I = 0; I < Count; ++I) {
        const DivRef Ref = OU.ref(Ns[I] & Mask);
        R.check(PJitBatchDivis, Ref.Divisible ? 1 : 0, Flags[I], DBits,
                Ns[I] & Mask);
      }
    }
  }

  uint64_t divisorBits() const { return DBits; }

private:
  uint64_t ubits(UWord Value) const {
    return static_cast<uint64_t>(Value) & Mask;
  }
  uint64_t sbits(SWord Value) const {
    return static_cast<uint64_t>(Value) & Mask;
  }
  static void udHalves(UDWord Value, uint64_t &Lo, uint64_t &Hi) {
    if constexpr (W == 64) {
      Lo = Value.low64();
      Hi = Value.high64();
    } else {
      Lo = static_cast<uint64_t>(Value);
      Hi = 0;
    }
  }
  static UDWord makeUDWord(uint64_t HighBits, uint64_t LowBits) {
    if constexpr (W == 64)
      return UInt128::fromHalves(HighBits, LowBits);
    else
      return static_cast<UDWord>((HighBits << W) | LowBits);
  }

  Reporter &R;
  uint64_t Mask;
  uint64_t DBits;
  int64_t DSigned;
  uint64_t AbsD;
  UWord DU;
  SWord DS;
  Oracle OU, OS;
  UnsignedDivider<UWord> UDiv;
  AlversonDivider<UWord> Alv;
  ExactUnsignedDivider<UWord> ExactU;
  DWordDivider<UWord> DWord;
  SignedDivider<SWord> SDiv;
  FloorDivider<SWord> Floor;
  GeneralFloorDivider<SWord> GFloor;
  CeilDivider<SWord> Ceil;
  ConventionDivider<SWord> ConvTrunc, ConvFloor, ConvEuclid;
  ExactSignedDivider<SWord> ExactS;
  FastModDivider<UWord> FMU;
  FastModSignedDivider<SWord> FMS;
  RoundUpDivider<UWord> RUp;
  NarrowDivider<UWord> Nar;
  NarrowSignedDivider<SWord> NarS;
  ir::Program PUDivRem, PAlv, ProgExactU, PDivisU, PDword, PSDivRem,
      ProgExactS, PDivisS, PFloorRt;
  std::optional<ir::Program> PRemTest0, PRemTest1, PFloorMod, PRemTestS1,
      PRemTestS2, PWideU, PWideS;
  std::optional<FloatDivider<UWord>> FloatU;
  std::optional<FloatDivider<SWord>> FloatS;
  std::shared_ptr<const jit::CompiledSequence> JitU, JitS, JitFloor;
  uint64_t RemR0 = 0, RemR1 = 0;
  int64_t RemS1 = 0, RemS2 = 0;
  std::vector<uint64_t> Args1, Args2, Scratch, Results;
};

} // namespace

//===----------------------------------------------------------------------===//
// VerifyReport
//===----------------------------------------------------------------------===//

uint64_t VerifyReport::checks() const {
  uint64_t Total = 0;
  for (const PropertyCount &P : Properties)
    Total += P.Checks;
  return Total;
}

uint64_t VerifyReport::mismatches() const {
  uint64_t Total = 0;
  for (const PropertyCount &P : Properties)
    Total += P.Mismatches;
  return Total;
}

uint64_t VerifyReport::mismatches(const std::string &Property) const {
  for (const PropertyCount &P : Properties)
    if (P.Name == Property)
      return P.Mismatches;
  return 0;
}

void VerifyReport::merge(const VerifyReport &Other) {
  if (Properties.empty()) {
    *this = Other;
    return;
  }
  assert(Properties.size() == Other.Properties.size() &&
         "merging reports with different property layouts");
  for (size_t I = 0; I < Properties.size(); ++I) {
    Properties[I].Checks += Other.Properties[I].Checks;
    Properties[I].Mismatches += Other.Properties[I].Mismatches;
  }
  for (const std::string &F : Other.Failures) {
    if (Failures.size() >= FailureCap)
      break;
    if (std::find(Failures.begin(), Failures.end(), F) == Failures.end())
      Failures.push_back(F);
  }
}

void verify::reportJsonInto(json::Writer &Wr, const VerifyReport &Report) {
  Wr.beginObject()
      .key("word_bits")
      .value(Report.WordBits)
      .key("checks")
      .value(Report.checks())
      .key("mismatches")
      .value(Report.mismatches())
      .key("clean")
      .value(Report.clean())
      .key("properties")
      .beginArray();
  for (const PropertyCount &P : Report.Properties) {
    if (P.Checks == 0 && P.Mismatches == 0)
      continue;
    Wr.beginObject()
        .key("name")
        .value(P.Name)
        .key("checks")
        .value(P.Checks)
        .key("mismatches")
        .value(P.Mismatches)
        .endObject();
  }
  Wr.endArray().key("failures").beginArray();
  for (const std::string &F : Report.Failures)
    Wr.value(F);
  Wr.endArray().endObject();
}

std::string verify::reportJson(const VerifyReport &Report) {
  json::Writer Wr;
  reportJsonInto(Wr, Report);
  return Wr.str();
}

//===----------------------------------------------------------------------===//
// Repro strings
//===----------------------------------------------------------------------===//

std::string verify::reproString(const Repro &R) {
  const int Index = propertyIndex(R.Property);
  const bool IsSigned = Index >= 0 && PropertyTable[Index].IsSigned;
  std::string Text = "gmdiv:v1:";
  Text += R.Property;
  Text += ":N=" + std::to_string(R.WordBits);
  Text += ":d=" + decString(R.DBits, R.WordBits, IsSigned);
  Text += ":n=" + decString(R.NBits, R.WordBits, IsSigned);
  if (R.HasN2)
    Text += ":n2=" + decString(R.N2Bits, R.WordBits, false);
  // Family tag: explicit tag wins, else the property's registered
  // family; the default "gm" stays implicit so pre-existing repro
  // strings remain byte-identical.
  std::string Family = R.Family;
  if (Family.empty() && Index >= 0)
    Family = PropertyTable[Index].Family;
  if (!Family.empty() && Family != "gm")
    Text += ":f=" + Family;
  return Text;
}

namespace {

/// Splits on ':' (values never contain one: property slugs are
/// kebab-case, numbers are decimal with an optional leading minus).
std::vector<std::string> splitColons(const std::string &Text) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    const size_t Pos = Text.find(':', Start);
    if (Pos == std::string::npos) {
      Parts.push_back(Text.substr(Start));
      return Parts;
    }
    Parts.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool parseField(const std::string &Part, const char *Key, uint64_t &Out,
                int WordBits) {
  const std::string Prefix = std::string(Key) + "=";
  if (Part.compare(0, Prefix.size(), Prefix) != 0)
    return false;
  const std::string Value = Part.substr(Prefix.size());
  if (Value.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  if (Value[0] == '-') {
    const long long Parsed = std::strtoll(Value.c_str(), &End, 10);
    if (errno != 0 || End == nullptr || *End != '\0')
      return false;
    Out = static_cast<uint64_t>(Parsed) & maskFor(WordBits);
  } else {
    const unsigned long long Parsed = std::strtoull(Value.c_str(), &End, 10);
    if (errno != 0 || End == nullptr || *End != '\0')
      return false;
    Out = static_cast<uint64_t>(Parsed) & maskFor(WordBits);
  }
  return true;
}

} // namespace

bool verify::parseRepro(const std::string &Text, Repro &Out) {
  const std::vector<std::string> Parts = splitColons(Text);
  if (Parts.size() < 6 || Parts.size() > 8)
    return false;
  if (Parts[0] != "gmdiv" || Parts[1] != "v1")
    return false;
  Repro R;
  R.Property = Parts[2];
  uint64_t Bits = 0;
  if (!parseField(Parts[3], "N", Bits, 64))
    return false;
  R.WordBits = static_cast<int>(Bits);
  if (R.WordBits < 2 || R.WordBits > 64)
    return false;
  if (!parseField(Parts[4], "d", R.DBits, R.WordBits))
    return false;
  if (!parseField(Parts[5], "n", R.NBits, R.WordBits))
    return false;
  size_t Next = 6;
  if (Next < Parts.size() && Parts[Next].compare(0, 3, "n2=") == 0) {
    if (!parseField(Parts[Next], "n2", R.N2Bits, R.WordBits))
      return false;
    R.HasN2 = true;
    ++Next;
  }
  if (Next < Parts.size()) {
    // Optional trailing family tag, always last.
    if (Parts[Next].compare(0, 2, "f=") != 0)
      return false;
    R.Family = Parts[Next].substr(2);
    if (R.Family.empty())
      return false;
    ++Next;
  }
  if (Next != Parts.size())
    return false;
  Out = R;
  return true;
}

//===----------------------------------------------------------------------===//
// Drivers
//===----------------------------------------------------------------------===//

void verify::setInjectedMismatchPeriod(uint64_t Period) {
  InjectedPeriod.store(Period, std::memory_order_relaxed);
  InjectionCounter.store(0, std::memory_order_relaxed);
}

VerifyReport verify::verifyWidth(int WordBits) {
  assert(WordBits >= 4 && WordBits <= 12 &&
         "exhaustive verification is sized for N in [4, 12]");
  GMDIV_TRACE_SPAN("verify", "verifyWidth",
                   static_cast<uint64_t>(WordBits));
  Reporter R(WordBits);
  withUWord(WordBits, [&]<typename UWord>() {
    const uint64_t Mask = maskFor(WordBits);
    std::vector<uint64_t> AllN;
    AllN.reserve(static_cast<size_t>(Mask) + 1);
    for (uint64_t N = 0; N <= Mask; ++N)
      AllN.push_back(N);
    for (uint64_t D = 1; D <= Mask; ++D) {
      DivisorChecker<UWord> Checker(R, D);
      Checker.checkDivisorOnce();
      for (uint64_t N = 0; N <= Mask; ++N)
        Checker.checkN(N);
      Checker.checkBatch(AllN);
      Checker.checkJitBatch(AllN);
    }
  });
  return R.take();
}

VerifyReport verify::checkDivisor(
    int WordBits, uint64_t DBits, const std::vector<uint64_t> &Ns,
    const std::vector<std::pair<uint64_t, uint64_t>> &DwordPairs) {
  assert(widthSupported(WordBits) && "unsupported verification width");
  const uint64_t Mask = maskFor(WordBits);
  assert((DBits & Mask) != 0 && "divisor must be nonzero");
  Reporter R(WordBits);
  withUWord(WordBits, [&]<typename UWord>() {
    DivisorChecker<UWord> Checker(R, DBits & Mask);
    Checker.checkDivisorOnce();
    for (const uint64_t N : Ns)
      Checker.checkN(N);
    for (const auto &[High, Low] : DwordPairs)
      if ((High & Mask) < Checker.divisorBits())
        Checker.checkDwordPair(High & Mask, Low & Mask);
    Checker.checkBatch(Ns);
    Checker.checkJitBatch(Ns);
  });
  return R.take();
}

bool verify::checkOne(const Repro &R, std::string *DetailOut) {
  const ScopedRemarkSuppression Silence;
  const int Index = propertyIndex(R.Property);
  const uint64_t Mask = maskFor(R.WordBits);
  const uint64_t DBits = R.DBits & Mask;
  if (Index < 0 || !widthSupported(R.WordBits) || DBits == 0) {
    if (DetailOut)
      *DetailOut = "invalid repro: unknown property, width or zero divisor";
    return false;
  }
  if (PropertyTable[Index].HasN2 && (R.N2Bits & Mask) >= DBits) {
    if (DetailOut)
      *DetailOut = "invalid repro: dword high part must be below the divisor";
    return false;
  }
  if (!R.Family.empty() && R.Family != PropertyTable[Index].Family) {
    if (DetailOut)
      *DetailOut = "invalid repro: family tag '" + R.Family +
                   "' does not match property " + R.Property + " (family " +
                   PropertyTable[Index].Family + ")";
    return false;
  }
  Reporter Rep(R.WordBits);
  withUWord(R.WordBits, [&]<typename UWord>() {
    DivisorChecker<UWord> Checker(Rep, DBits);
    if (PropertyTable[Index].HasN2) {
      Checker.checkDwordPair(R.N2Bits & Mask, R.NBits & Mask);
    } else {
      Checker.checkDivisorOnce();
      Checker.checkN(R.NBits & Mask);
      if (R.Property == "batch-unsigned" || R.Property == "batch-signed")
        Checker.checkBatch({R.NBits & Mask});
      if (R.Property.compare(0, 10, "jit-batch-") == 0)
        Checker.checkJitBatch({R.NBits & Mask});
    }
  });
  const VerifyReport Report = Rep.take();
  const uint64_t Bad = Report.mismatches(R.Property);
  const bool Pass = Bad == 0;
  if (DetailOut) {
    *DetailOut = R.Property + " at N=" + std::to_string(R.WordBits) +
                 " d=" + decString(DBits, R.WordBits,
                                   PropertyTable[Index].IsSigned) +
                 " n=" + decString(R.NBits, R.WordBits,
                                   PropertyTable[Index].IsSigned) +
                 (R.HasN2 ? " n2=" + decString(R.N2Bits, R.WordBits, false)
                          : std::string()) +
                 (Pass ? ": PASS" : ": FAIL (" + std::to_string(Bad) +
                                        " mismatching comparisons)");
  }
  return Pass;
}
