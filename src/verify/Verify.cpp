//===- verify/Verify.cpp - Differential verification driver ---------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Layout: one table of named properties, each row naming the checker
// pass that runs it; a Reporter that tallies comparisons (and turns
// mismatches into repro strings, statistics and telemetry remarks); and
// one DivisorChecker<UWord> template that owns every divider and
// generated program for a single (width, d) and checks them in three
// generic shapes: scalar dividers, generated programs and array kernels.
// verifyWidth, the fuzzer and checkOne all
// run the checker's passes, so they cannot drift apart.
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
#include "metrics/Metrics.h"
#include "ops/Bits.h"
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
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>
#include <type_traits>

using namespace gmdiv;
using namespace gmdiv::verify;

namespace json = gmdiv::telemetry::json;

//===----------------------------------------------------------------------===//
// Property table
//===----------------------------------------------------------------------===//

namespace {

/// The DivisorChecker pass that runs a property — and so the pass a
/// replay of one of its repros re-runs.
enum class Pass : uint8_t {
  Divisor,  ///< Once per divisor (multiplier certificates).
  Dividend, ///< Once per dividend n.
  Dword,    ///< Once per doubleword dividend n2:n, n2 < d (§8).
  Array,    ///< Once per array of dividends (batch and vector kernels).
};

struct PropertyRow {
  const char *Name;
  bool IsSigned; ///< Signed Oracle; repro strings print signed decimals.
  Pass Runs;
  /// Divider family the property exercises. "gm" (the paper's own
  /// algorithms) is the default and is omitted from repro strings; the
  /// successor families tag their repros with ":f=<family>" so a replay
  /// targets the exact implementation that produced the mismatch.
  const char *Family = "gm";

  /// Uses the n2 operand (doubleword high part).
  constexpr bool hasN2() const { return Runs == Pass::Dword; }
};

/// Row order is report order: rows are appended (or deleted with the
/// code they check), never reordered.
constexpr PropertyRow Table[] = {
    {"choose-multiplier-unsigned", false, Pass::Divisor},
    {"oracle-unsigned", false, Pass::Dividend},
    {"unsigned-divider", false, Pass::Dividend},
    {"alverson-divider", false, Pass::Dividend},
    {"exact-unsigned", false, Pass::Dividend},
    {"float-unsigned", false, Pass::Dividend},
    {"dword-divider", false, Pass::Dword},
    {"codegen-unsigned", false, Pass::Dividend},
    {"codegen-alverson", false, Pass::Dividend},
    {"codegen-exact-unsigned", false, Pass::Dividend},
    {"codegen-divisibility-unsigned", false, Pass::Dividend},
    {"codegen-remtest-unsigned", false, Pass::Dividend},
    {"codegen-dword", false, Pass::Dword},
    {"codegen-wide-unsigned", false, Pass::Dividend},
    {"batch-unsigned", false, Pass::Array},
    {"fastmod-unsigned", false, Pass::Dividend, "fastmod"},
    {"fastmod-divisible", false, Pass::Dividend, "fastmod"},
    {"roundup-unsigned", false, Pass::Dividend, "roundup"},
    {"roundup-bounds", false, Pass::Divisor, "roundup"},
    {"narrow32-unsigned", false, Pass::Dividend, "narrow32"},
    {"choose-multiplier-signed", true, Pass::Divisor},
    {"oracle-signed", true, Pass::Dividend},
    {"signed-divider", true, Pass::Dividend},
    {"floor-divider", true, Pass::Dividend},
    {"general-floor-divider", true, Pass::Dividend},
    {"ceil-divider", true, Pass::Dividend},
    {"convention-divider", true, Pass::Dividend},
    {"exact-signed", true, Pass::Dividend},
    {"float-signed", true, Pass::Dividend},
    {"codegen-signed", true, Pass::Dividend},
    {"codegen-floor", true, Pass::Dividend},
    {"codegen-exact-signed", true, Pass::Dividend},
    {"codegen-divisibility-signed", true, Pass::Dividend},
    {"codegen-remtest-signed", true, Pass::Dividend},
    {"codegen-floor-runtime", true, Pass::Dividend},
    {"codegen-wide-signed", true, Pass::Dividend},
    {"batch-signed", true, Pass::Array},
    {"fastmod-signed", true, Pass::Dividend, "fastmod"},
    {"narrow32-signed", true, Pass::Dividend, "narrow32"},
    {"roundup-signed", true, Pass::Dividend, "roundup"},
};

constexpr int NumProperties = static_cast<int>(std::size(Table));

constexpr Pass AllPasses[] = {Pass::Divisor, Pass::Dividend, Pass::Dword,
                              Pass::Array};

constexpr int propertyIndex(std::string_view Name) {
  for (int I = 0; I < NumProperties; ++I)
    if (Name == Table[I].Name)
      return I;
  return -1;
}

/// A row by name, resolved at compile time: a checker binding that
/// names no row fails to build instead of tallying nowhere.
consteval int row(std::string_view Name) {
  const int Index = propertyIndex(Name);
  if (Index < 0)
    throw "unknown verify property";
  return Index;
}

std::string decString(uint64_t Bits, int WordBits, bool IsSigned) {
  if (IsSigned)
    return std::to_string(signExtend64(Bits, WordBits));
  return std::to_string(Bits & maskFor(WordBits));
}

/// The Oracle result a computed value is compared with.
enum class Field : uint8_t {
  None,
  TruncQ,
  TruncR,
  FloorQ,
  FloorR,
  CeilQ,
  Divisible,
  TruncRIs, ///< 1 iff the truncated remainder is a given r.
};

uint64_t expected(Field F, const DivRef &Ref, uint64_t RemIs = 0) {
  const uint64_t ByField[] = {0,          Ref.TruncQ, Ref.TruncR,
                              Ref.FloorQ, Ref.FloorR, Ref.CeilQ,
                              Ref.Divisible, Ref.TruncR == RemIs};
  assert(F != Field::None && "no Oracle field to compare with");
  return ByField[static_cast<int>(F)];
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

/// Tallies comparisons per property row; a mismatch becomes (at most
/// once per distinct input tuple) a repro string, a verify.mismatch
/// remark and a statistics bump.
class Reporter {
public:
  explicit Reporter(int WordBits) : W(WordBits) {}

  /// \p N2Bits is only reported for rows that use n2.
  bool check(int Row, uint64_t Expected, uint64_t Actual, uint64_t DBits,
             uint64_t NBits, uint64_t N2Bits = 0) {
    ++Counts[Row].Checks;
    const uint64_t Period = InjectedPeriod.load(std::memory_order_relaxed);
    if (Period != 0 &&
        InjectionCounter.fetch_add(1, std::memory_order_relaxed) % Period ==
            Period - 1)
      Actual ^= 1;
    if (Expected == Actual)
      return true;
    ++Counts[Row].Mismatches;
    static metrics::Counter &MismatchMetric =
        metrics::Registry::global().counter("gmdiv_verify_mismatches_total",
                                            "Differential mismatches found");
    MismatchMetric.inc();
    recordFailure(Row, Expected, Actual, DBits, NBits, N2Bits);
    return false;
  }

  /// Builds the report and flushes the bulk checks counter into the
  /// metrics registry.
  VerifyReport take() {
    VerifyReport Report;
    Report.WordBits = W;
    Report.Properties.assign(std::begin(Counts), std::end(Counts));
    for (int I = 0; I < NumProperties; ++I)
      Report.Properties[I].Name = Table[I].Name;
    const uint64_t Total = Report.checks();
    Report.Failures = std::move(Failures);
    Failures.clear();
    static metrics::Counter &ChecksMetric = metrics::Registry::global().counter(
        "gmdiv_verify_checks_total", "Differential properties checked");
    ChecksMetric.add(Total - Flushed);
    Flushed = Total;
    return Report;
  }

private:
  void recordFailure(int Row, uint64_t Expected, uint64_t Actual,
                     uint64_t DBits, uint64_t NBits, uint64_t N2Bits) {
    const PropertyRow &P = Table[Row];
    Repro Rep;
    Rep.Property = P.Name;
    Rep.WordBits = W;
    Rep.DBits = DBits;
    Rep.NBits = NBits;
    Rep.HasN2 = P.hasN2();
    Rep.N2Bits = Rep.HasN2 ? N2Bits : 0;
    Rep.Family = P.Family;
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
      R.CaseName = P.Name;
      R.WordBits = W;
      R.DivisorBits = DBits;
      R.IsSigned = P.IsSigned;
      R.Details.emplace_back("n", decString(NBits, W, P.IsSigned));
      if (Rep.HasN2)
        R.Details.emplace_back("n2", decString(N2Bits, W, false));
      R.Details.emplace_back("expected", std::to_string(Expected));
      R.Details.emplace_back("actual", std::to_string(Actual));
      R.Details.emplace_back("repro", Text);
      telemetry::emitRemark(R);
    }
  }

  int W;
  PropertyCount Counts[NumProperties];
  std::vector<std::string> Failures;
  uint64_t Flushed = 0;
};

//===----------------------------------------------------------------------===//
// Width dispatch
//===----------------------------------------------------------------------===//

template <typename... Words> struct WordList {
  /// Runs \p Fn with the word type of \p WordBits; false (and no call)
  /// when none of \p Words has that width.
  template <typename F> static bool withUWord(int WordBits, F &&Fn) {
    return ((WordTraits<Words>::Bits == WordBits &&
             (Fn.template operator()<Words>(), true)) ||
            ...);
  }
};

/// The word type of every verification width: the native types at
/// 8/16/32/64, SmallUWord elsewhere in [4, 12].
using VerifyWords =
    WordList<SmallUWord<4>, SmallUWord<5>, SmallUWord<6>, SmallUWord<7>,
             uint8_t, SmallUWord<9>, SmallUWord<10>, SmallUWord<11>,
             SmallUWord<12>, uint16_t, uint32_t, uint64_t>;

bool widthSupported(int WordBits) {
  return VerifyWords::withUWord(WordBits, []<typename>() {});
}

//===----------------------------------------------------------------------===//
// DivisorChecker
//===----------------------------------------------------------------------===//

/// When a generated program's results are defined.
enum class Guard : uint8_t { Always, Divisible, NoOverflow };

/// Everything the harness knows how to check for one (width, divisor):
/// scalar dividers, generated sequences through the IR interpreter, and
/// the batch kernels — all against the Oracle.
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
        FMU(DU), FMS(DS), RUp(DU), RUpS(DS), Nar(DU), NarS(DS),
        PDword(codegen::genDWordDivRem(W, DBits)) {
    assert(DBits != 0 && "divisor must be nonzero");
    if constexpr (Native && sizeof(UWord) <= 4) {
      FloatU.emplace(DU);
      FloatS.emplace(DS);
    }
    addPrograms();
  }

  /// Runs pass \p P: the per-divisor checks, each dividend in \p Ns, each
  /// (high, low) doubleword dividend with high < d, or the array kernels.
  void run(Pass P, const std::vector<uint64_t> &Ns,
           const std::vector<std::pair<uint64_t, uint64_t>> &DwordPairs) {
    switch (P) {
    case Pass::Divisor:
      return checkDivisorOnce();
    case Pass::Dividend:
      for (const uint64_t N : Ns)
        checkN(N);
      return;
    case Pass::Dword:
      for (const auto &[High, Low] : DwordPairs)
        if ((High & Mask) < DBits)
          checkDwordPair(High, Low);
      return;
    case Pass::Array:
      return checkArrays(Ns);
    }
  }

private:
  /// Per-divisor checks: CHOOSE_MULTIPLIER against Theorem 4.2 / §5, plus
  /// sampled doubleword divisions.
  void checkDivisorOnce() {
    constexpr int ChooseU = row("choose-multiplier-unsigned");
    constexpr int ChooseS = row("choose-multiplier-signed");
    constexpr int Bounds = row("roundup-bounds");
    const auto Certify = [&](uint64_t D, int Prec) {
      const MultiplierInfo<UWord> Info =
          chooseMultiplier<UWord>(static_cast<UWord>(D), Prec);
      if constexpr (W == 64)
        return checkMultiplier(W, Prec, D, Info.Multiplier.low64(),
                               Info.Multiplier.high64(), Info.ShiftPost,
                               Info.Log2Ceil);
      else
        return checkMultiplier(W, Prec, D,
                               static_cast<uint64_t>(Info.Multiplier), 0,
                               Info.ShiftPost, Info.Log2Ceil);
    };
    // Unsigned: prec = N (Figure 4.2's call).
    R.check(ChooseU, 1, Certify(DBits, W).ok() ? 1 : 0, DBits, 0);

    // prec = N-1: §5 guarantees m < 2^N for every d >= 2 (d = 1 yields
    // m = 2^N + 2, which the figure's callers never request).
    const MultiplierCheck Ck1 = Certify(DBits, W - 1);
    R.check(ChooseU, 1, Ck1.ok() ? 1 : 0, DBits, 1);
    R.check(ChooseU, 1, (DBits == 1 || Ck1.FitsWord) ? 1 : 0, DBits, 2);

    // Signed: prec = N-1 over |d| (Figure 5.2's call).
    const MultiplierCheck CkS = Certify(AbsD, W - 1);
    R.check(ChooseS, 1, CkS.ok() ? 1 : 0, DBits, 0);
    R.check(ChooseS, 1, (AbsD == 1 || CkS.FitsWord) ? 1 : 0, DBits, 1);

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
        R.check(Bounds, 1, isPowerOf2(DU) ? 1 : 0, DBits, 0);
        break;
      case Choice::Kind::RoundUp:
      case Choice::Kind::Increment: {
        const bool Inc = C.Mode == Choice::Kind::Increment;
        R.check(Bounds, 1,
                checkRoundUpMultiplier(DU, C.Multiplier, C.TotalShift, Inc),
                DBits, 0);
        R.check(Bounds, 1, C.MultiplierBits <= W ? 1 : 0, DBits, 1);
        bool SmallerWorks = false;
        for (int K = W; K < C.TotalShift && !SmallerWorks; ++K)
          SmallerWorks = AdmissibleAt(K, false) || AdmissibleAt(K, true);
        R.check(Bounds, 0, SmallerWorks ? 1 : 0, DBits, 2);
        if (Inc) // round-up is preferred at equal k, so it must not fit
          R.check(Bounds, 0, AdmissibleAt(C.TotalShift, false) ? 1 : 0,
                  DBits, 3);
        break;
      }
      case Choice::Kind::Fixup: {
        // GM fallback is only legitimate when no k in [N, 2N-1] admits a
        // word-sized multiplier of either variant.
        bool AnyWorks = false;
        for (int K = W; K <= 2 * W - 1 && !AnyWorks; ++K)
          AnyWorks = AdmissibleAt(K, false) || AdmissibleAt(K, true);
        R.check(Bounds, 0, AnyWorks ? 1 : 0, DBits, 0);
        break;
      }
      }
    }

    // §8 doubleword division, sampled over boundary high/low halves.
    const uint64_t LowProbe[] = {0,
                                 1,
                                 2,
                                 Mask,
                                 Mask - 1,
                                 (Mask >> 1) + 1,
                                 0x5555555555555555ull & Mask,
                                 (DBits - 1) & Mask};
    for (const uint64_t High : std::set<uint64_t>{0, 1, DBits / 2, DBits - 1})
      if (High < DBits)
        for (const uint64_t Low : LowProbe)
          checkDwordPair(High, Low);
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

    const auto [Q, Rm] = DWord.divRem(makeUDWord(HighBits, LowBits));
    R.check(row("dword-divider"), RefQ, bits(Q), DBits, LowBits, HighBits);
    R.check(row("dword-divider"), RefR, bits(Rm), DBits, LowBits, HighBits);

    Args.assign({HighBits, LowBits});
    ir::runScratch(PDword, Args, Scratch, Results);
    R.check(row("codegen-dword"), RefQ, Results[0], DBits, LowBits, HighBits);
    R.check(row("codegen-dword"), RefR, Results[1], DBits, LowBits, HighBits);
  }

  /// Every per-dividend property for dividend bit pattern \p Bits.
  void checkN(uint64_t Bits) {
    NBits = Bits & Mask;
    Refs[0] = OU.ref(NBits);
    Refs[1] = OS.ref(NBits);
    const DivRef &RU = Refs[0], &RS = Refs[1];
    NU = static_cast<UWord>(NBits);
    const int64_t NSigned = signExtend64(NBits, W);
    NS = static_cast<SWord>(NSigned);

    // Oracle vs. hardware: the oracle's derived quotients must agree
    // with plain 64-bit machine division (the third independent path).
    constexpr int OracleU = row("oracle-unsigned");
    constexpr int OracleS = row("oracle-signed");
    check(OracleU, (NBits / DBits) & Mask, RU.TruncQ);
    check(OracleU, (NBits % DBits) & Mask, RU.TruncR);
    if (!RS.Overflow) {
      check(OracleS, static_cast<uint64_t>(NSigned / DSigned) & Mask,
            RS.TruncQ);
      check(OracleS, static_cast<uint64_t>(NSigned % DSigned) & Mask,
            RS.TruncR);
    } else {
      // INT_MIN / -1: the documented policy is wrap-to-INT_MIN, r = 0.
      check(OracleS, (uint64_t{1} << (W - 1)) & Mask, RS.TruncQ);
      check(OracleS, 0, RS.TruncR);
    }

    // Scalar dividers: Figures 4.1 and 5.1, Alverson, §6 floor/ceil, §9
    // exact division and the successor families (docs/FAMILIES.md; the
    // signed ones divide |n|, |d| and patch signs with EOR/subtract, so
    // the INT_MIN / -1 wrap is covered by the Oracle's matching policy).
    using F = Field;
    checkDivider(row("unsigned-divider"), UDiv);
    checkDivider(row("alverson-divider"), Alv);
    checkDivider(row("exact-unsigned"), ExactU);
    checkDivider(row("fastmod-unsigned"), FMU, F::TruncQ, F::TruncR, F::None);
    checkDivider(row("fastmod-divisible"), FMU, F::None, F::None);
    checkDivider(row("roundup-unsigned"), RUp);
    checkDivider(row("narrow32-unsigned"), Nar);
    checkDivider(row("signed-divider"), SDiv);
    checkDivider(row("floor-divider"), Floor, F::FloorQ, F::FloorR);
    checkDivider(row("general-floor-divider"), GFloor, F::FloorQ, F::FloorR);
    checkDivider(row("ceil-divider"), Ceil, F::CeilQ, F::None);
    checkDivider(row("exact-signed"), ExactS);
    checkDivider(row("fastmod-signed"), FMS);
    checkDivider(row("narrow32-signed"), NarS);
    checkDivider(row("roundup-signed"), RUpS);

    // Figure 5.1 with the overflow check.
    bool Overflow = false;
    const SWord CheckedQ = SDiv.divideChecked(NS, Overflow);
    check(row("signed-divider"), RS.Overflow, Overflow);
    check(row("signed-divider"), RS.TruncQ, bits(CheckedQ));

    // §9 remainder filters: the true remainder passes, a wrong one not.
    if (DBits >= 2) {
      const uint64_t Wrong = (RU.TruncR + 1) % DBits;
      check(row("exact-unsigned"), 1,
            ExactU.remainderIs(NU, static_cast<UWord>(RU.TruncR)));
      check(row("exact-unsigned"), 0,
            ExactU.remainderIs(NU, static_cast<UWord>(Wrong)));
    }
    if (AbsD >= 3 && (AbsD & (AbsD - 1)) != 0) {
      const int64_t TruncR = signExtend64(RS.TruncR, W);
      for (const int64_t Probe : {int64_t{1}, static_cast<int64_t>(AbsD) - 1})
        check(row("exact-signed"), TruncR == Probe,
              ExactS.remainderIs(NS, static_cast<SWord>(Probe)));
    }

    // §2 convention matrix. Euclidean: r in [0, |d|), i.e. floor for
    // d > 0, ceil for d < 0.
    const auto CheckConvention = [&](const ConventionDivider<SWord> &Conv,
                                     uint64_t Q, uint64_t Rm) {
      const auto [CQ, CR] = Conv.quotRem(NS);
      check(row("convention-divider"), Q, bits(CQ));
      check(row("convention-divider"), Rm, bits(CR));
    };
    CheckConvention(ConvTrunc, RS.TruncQ, RS.TruncR);
    CheckConvention(ConvFloor, RS.FloorQ, RS.FloorR);
    CheckConvention(ConvEuclid, DSigned > 0 ? RS.FloorQ : RS.CeilQ,
                    DSigned > 0 ? RS.FloorR : RS.CeilR);

    // §7 float division (double mantissa covers N <= 32 only).
    if constexpr (Native && sizeof(UWord) <= 4) {
      constexpr int FloatURow = row("float-unsigned");
      constexpr int FloatSRow = row("float-signed");
      check(FloatURow, RU.TruncQ, bits(FloatU->divide(NU)));
      check(FloatURow, RU.TruncQ, bits(FloatU->divideViaReciprocal(NU)));
      if (!RS.Overflow) {
        check(FloatSRow, RS.TruncQ, bits(FloatS->divide(NS)));
        check(FloatSRow, RS.TruncQ, bits(FloatS->divideViaReciprocal(NS)));
      }
    }

    checkPrograms();
  }

  /// The array kernels over \p Ns: every compiled-in batch backend at
  /// native widths (scalar fallback and SIMD paths meet the same oracle).
  void checkArrays(const std::vector<uint64_t> &Ns) {
    using F = Field;
    if constexpr (Native) {
      using SInt = std::make_signed_t<UWord>;
      constexpr int BatchU = row("batch-unsigned");
      constexpr int BatchS = row("batch-signed");
      for (const batch::Backend B : batch::compiledBackends()) {
        if (!batch::backendAvailable(B))
          continue;
        const batch::BatchDivider<UWord> BU(DU, B);
        const batch::BatchDivider<SInt> BS(static_cast<SInt>(DSigned), B);
        checkLanes<UWord, UWord>(BatchU, Ns, F::TruncQ, F::TruncR,
                                 [&](auto... A) { BU.divRem(A...); });
        checkLanes<UWord, uint8_t>(
            BatchU, Ns, F::Divisible, F::None,
            [&](auto *In, auto *Out, auto *, size_t C) {
              BU.divisible(In, Out, C);
            });
        checkLanes<SInt, SInt>(BatchS, Ns, F::TruncQ, F::TruncR,
                               [&](auto... A) { BS.divRem(A...); });
        checkLanes<SInt, SInt>(BatchS, Ns, F::FloorQ, F::CeilQ,
                               [&](auto *In, auto *Fl, auto *Ce, size_t C) {
                                 BS.floorDivide(In, Fl, C);
                                 BS.ceilDivide(In, Ce, C);
                               });
      }
    }
  }

  /// A generated program, judged by Oracle fields of its row's signedness
  /// when \p When holds (operands and results extended to a wider program
  /// word).
  struct ProgramRow {
    int Row;
    ir::Program Prog;
    Field Results[2];
    Guard When = Guard::Always;
    uint64_t RemIs = 0; ///< The r of Field::TruncRIs.
  };

  ProgramRow &addProgram(int Row, ir::Program Prog, Field R0,
                         Field R1 = Field::None) {
    return Programs.emplace_back(ProgramRow{Row, std::move(Prog), {R0, R1}});
  }

  void addPrograms() {
    using F = Field;
    addProgram(row("codegen-unsigned"), codegen::genUnsignedDivRem(W, DBits),
               F::TruncQ, F::TruncR);
    addProgram(row("codegen-alverson"),
               codegen::genUnsignedDivAlverson(W, DBits), F::TruncQ);
    addProgram(row("codegen-exact-unsigned"),
               codegen::genExactUnsignedDiv(W, DBits), F::TruncQ)
        .When = Guard::Divisible;
    addProgram(row("codegen-divisibility-unsigned"),
               codegen::genDivisibilityTestUnsigned(W, DBits), F::Divisible);
    const auto AddRemTest = [&](uint64_t Rem) {
      addProgram(row("codegen-remtest-unsigned"),
                 codegen::genRemainderTestUnsigned(W, DBits, Rem), F::TruncRIs)
          .RemIs = Rem;
    };
    AddRemTest(DBits / 2);
    if (DBits >= 2)
      AddRemTest(DBits - 1);
    addProgram(row("codegen-signed"), codegen::genSignedDivRem(W, DSigned),
               F::TruncQ, F::TruncR);
    if (DSigned > 0)
      addProgram(row("codegen-floor"), codegen::genFloorDivMod(W, DSigned),
                 F::FloorQ, F::FloorR);
    addProgram(row("codegen-exact-signed"),
               codegen::genExactSignedDiv(W, DSigned), F::TruncQ)
        .When = Guard::Divisible;
    addProgram(row("codegen-divisibility-signed"),
               codegen::genDivisibilityTestSigned(W, DSigned), F::Divisible);
    if (DSigned >= 2 && (AbsD & (AbsD - 1)) != 0)
      for (const int64_t Rem : {int64_t{1}, DSigned - 1})
        addProgram(row("codegen-remtest-signed"),
                   codegen::genRemainderTestSigned(W, DSigned, Rem),
                   F::TruncRIs)
            .RemIs = static_cast<uint64_t>(Rem);
    // Identity (6.1) with both operands at run time (the sequence
    // carries a real DivS, which would trap on the overflow pair).
    addProgram(row("codegen-floor-runtime"), codegen::genFloorDivModRuntime(W),
               F::FloorQ, F::FloorR)
        .When = Guard::NoOverflow;
    if constexpr (Native && W < 64) {
      addProgram(row("codegen-wide-unsigned"),
                 codegen::genUnsignedDivWide(W, 64, DBits), F::TruncQ);
      addProgram(row("codegen-wide-signed"),
                 codegen::genSignedDivWide(W, 64, DSigned), F::TruncQ)
          .When = Guard::NoOverflow;
    }
  }

  /// Every generated program on the current dividend.
  void checkPrograms() {
    for (const ProgramRow &P : Programs) {
      const bool Signed = Table[P.Row].IsSigned;
      const DivRef &Ref = Refs[Signed];
      if ((P.When == Guard::Divisible && !Ref.Divisible) ||
          (P.When == Guard::NoOverflow && Ref.Overflow))
        continue;
      const bool Extend = Signed && P.Prog.wordBits() > W;
      const auto Extended = [&](uint64_t V) {
        return Extend ? static_cast<uint64_t>(signExtend64(V, W)) : V;
      };
      Args.assign({Extended(NBits), Extended(DBits)});
      Args.resize(static_cast<size_t>(P.Prog.numArgs()));
      ir::runScratch(P.Prog, Args, Scratch, Results);
      for (int I = 0; I < 2; ++I)
        if (P.Results[I] != Field::None)
          check(P.Row, Extended(expected(P.Results[I], Ref, P.RemIs)),
                Results[I]);
    }
  }

  /// Compares every operation \p Div exposes with the Oracle of \p Row's
  /// signedness: divide, divRem and (on divisible dividends) divideExact
  /// with \p Q; remainder (modulo on the floor dividers) and divRem with
  /// \p Rm; divideCeil with CeilQ; isDivisible with \p Divis. A None
  /// field leaves its operations out.
  template <typename Div>
  void checkDivider(int Row, const Div &D, Field Q = Field::TruncQ,
                    Field Rm = Field::TruncR,
                    Field Divis = Field::Divisible) {
    using Word = std::remove_cvref_t<decltype(D.divisor())>;
    constexpr bool Signed = std::is_same_v<Word, SWord>;
    const Word N = std::get<Signed>(std::tie(NU, NS));
    const DivRef &Ref = Refs[Signed];
    const auto Check = [&](Field Want, auto Actual) {
      if (Want != Field::None)
        check(Row, expected(Want, Ref), bits(Actual));
    };
    if constexpr (requires { D.divide(N); })
      Check(Q, D.divide(N));
    if constexpr (requires { D.remainder(N); })
      Check(Rm, D.remainder(N));
    if constexpr (requires { D.modulo(N); })
      Check(Rm, D.modulo(N));
    if constexpr (requires { D.divRem(N); }) {
      const auto [DQ, DR] = D.divRem(N);
      Check(Q, DQ);
      Check(Rm, DR);
    }
    if constexpr (requires { D.divideCeil(N); })
      Check(Q == Field::None ? Q : Field::CeilQ, D.divideCeil(N));
    if constexpr (requires { D.isDivisible(N); })
      Check(Divis, D.isDivisible(N));
    if constexpr (requires { D.divideExact(N); })
      if (Ref.Divisible)
        Check(Q, D.divideExact(N));
  }

  /// Runs one array kernel over \p Ns and compares every lane's outputs
  /// with Oracle fields \p F0 and \p F1 (None skips the second). Outputs
  /// are pre-poisoned so a lane the kernel never writes shows up as a
  /// mismatch.
  template <typename InT, typename OutT, typename Kernel>
  void checkLanes(int Row, const std::vector<uint64_t> &Ns, Field F0,
                  Field F1, Kernel &&Run) {
    const size_t Count = Ns.size();
    std::vector<InT> In(Count);
    for (size_t I = 0; I < Count; ++I)
      In[I] = static_cast<InT>(Ns[I] & Mask);
    std::vector<OutT> Out0(Count, static_cast<OutT>(~OutT{0}));
    std::vector<OutT> Out1 = Out0;
    Run(In.data(), Out0.data(), Out1.data(), Count);
    for (size_t I = 0; I < Count; ++I) {
      const uint64_t N = Ns[I] & Mask;
      const DivRef Ref = Table[Row].IsSigned ? OS.ref(N) : OU.ref(N);
      R.check(Row, expected(F0, Ref), bits(Out0[I]), DBits, N);
      if (F1 != Field::None)
        R.check(Row, expected(F1, Ref), bits(Out1[I]), DBits, N);
    }
  }

  template <typename T> uint64_t bits(T Value) const {
    return static_cast<uint64_t>(Value) & Mask;
  }
  /// One comparison on the dividend checkN is on.
  void check(int Row, uint64_t Expected, uint64_t Actual) {
    R.check(Row, Expected, Actual, DBits, NBits);
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
  RoundUpSignedDivider<SWord> RUpS;
  NarrowDivider<UWord> Nar;
  NarrowSignedDivider<SWord> NarS;
  std::optional<FloatDivider<UWord>> FloatU;
  std::optional<FloatDivider<SWord>> FloatS;
  ir::Program PDword;
  std::vector<ProgramRow> Programs;

  // The dividend checkN is on: its bit pattern, both words, and the
  // unsigned (index 0) and signed (index 1) Oracle results.
  uint64_t NBits = 0;
  UWord NU{};
  SWord NS{};
  DivRef Refs[2];
  std::vector<uint64_t> Args, Scratch, Results;
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
  const bool IsSigned = Index >= 0 && Table[Index].IsSigned;
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
    Family = Table[Index].Family;
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
  const uint64_t Parsed =
      Value[0] == '-'
          ? static_cast<uint64_t>(std::strtoll(Value.c_str(), &End, 10))
          : static_cast<uint64_t>(std::strtoull(Value.c_str(), &End, 10));
  if (errno != 0 || End == nullptr || *End != '\0')
    return false;
  Out = Parsed & maskFor(WordBits);
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
  const uint64_t Mask = maskFor(WordBits);
  std::vector<uint64_t> AllN(static_cast<size_t>(Mask) + 1);
  std::iota(AllN.begin(), AllN.end(), uint64_t{0});
  Reporter R(WordBits);
  VerifyWords::withUWord(WordBits, [&]<typename UWord>() {
    for (uint64_t D = 1; D <= Mask; ++D) {
      DivisorChecker<UWord> Checker(R, D);
      for (const Pass P : AllPasses)
        Checker.run(P, AllN, {});
    }
  });
  return R.take();
}

VerifyReport verify::checkDivisor(
    int WordBits, uint64_t DBits, const std::vector<uint64_t> &Ns,
    const std::vector<std::pair<uint64_t, uint64_t>> &DwordPairs) {
  assert(widthSupported(WordBits) && "unsupported verification width");
  assert((DBits & maskFor(WordBits)) != 0 && "divisor must be nonzero");
  Reporter R(WordBits);
  VerifyWords::withUWord(WordBits, [&]<typename UWord>() {
    DivisorChecker<UWord> Checker(R, DBits);
    for (const Pass P : AllPasses)
      Checker.run(P, Ns, DwordPairs);
  });
  return R.take();
}

bool verify::checkOne(const Repro &R, std::string *DetailOut) {
  const ScopedRemarkSuppression Silence;
  const int Index = propertyIndex(R.Property);
  const uint64_t Mask = maskFor(R.WordBits);
  const uint64_t DBits = R.DBits & Mask;
  const auto Invalid = [&](const std::string &Why) {
    if (DetailOut)
      *DetailOut = "invalid repro: " + Why;
    return false;
  };
  if (Index < 0 || !widthSupported(R.WordBits) || DBits == 0)
    return Invalid("unknown property, width or zero divisor");
  const PropertyRow &Row = Table[Index];
  if (Row.hasN2() && (R.N2Bits & Mask) >= DBits)
    return Invalid("dword high part must be below the divisor");
  if (!R.Family.empty() && R.Family != Row.Family)
    return Invalid("family tag '" + R.Family + "' does not match property " +
                   R.Property + " (family " + Row.Family + ")");
  // Re-run the one pass the property's row names.
  Reporter Rep(R.WordBits);
  VerifyWords::withUWord(R.WordBits, [&]<typename UWord>() {
    DivisorChecker<UWord>(Rep, DBits).run(Row.Runs, {R.NBits},
                                          {{R.N2Bits, R.NBits}});
  });
  const VerifyReport Report = Rep.take();
  const uint64_t Bad = Report.mismatches(R.Property);
  const bool Passed = Bad == 0;
  if (DetailOut) {
    *DetailOut = R.Property + " at N=" + std::to_string(R.WordBits) +
                 " d=" + decString(DBits, R.WordBits, Row.IsSigned) +
                 " n=" + decString(R.NBits, R.WordBits, Row.IsSigned) +
                 (R.HasN2 ? " n2=" + decString(R.N2Bits, R.WordBits, false)
                          : std::string()) +
                 (Passed ? ": PASS" : ": FAIL (" + std::to_string(Bad) +
                                        " mismatching comparisons)");
  }
  return Passed;
}
