//===- codegen/MulByConst.cpp - Multiply-by-constant synthesis ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "codegen/MulByConst.h"

#include "ops/Bits.h"

#include <unordered_map>

using namespace gmdiv;
using namespace gmdiv::codegen;

namespace {

/// How the best plan for a constant was obtained.
enum class PlanKind {
  Zero,      ///< c == 0: the constant zero.
  Identity,  ///< c == 1: x itself.
  Shift,     ///< c = Child << Amount.
  AddX,      ///< c = Child + 1 (odd): plan(Child) + x.
  SubX,      ///< c = Child - 1 mod 2^N (odd): plan(Child) - x.
  ShiftAdd,  ///< c = Child * (2^Amount + 1): (t << Amount) + t.
  ShiftSub,  ///< c = Child * (2^Amount - 1): (t << Amount) - t.
};

struct Plan {
  PlanKind Kind = PlanKind::Zero;
  uint64_t Child = 0;
  int Amount = 0;
  int Cost = 0;
};

/// Memoized planner for one word width. The search is exhaustive until a
/// per-query node budget runs out, after which it degrades to the greedy
/// binary method (shift out zeros; odd => add x) — still correct, just
/// possibly longer, which keeps adversarial 64-bit constants fast.
class Planner {
public:
  explicit Planner(int WordBits) : WordBits(WordBits) {
    Mask = maskFor(WordBits);
  }

  const Plan &plan(uint64_t C) {
    NodeBudget = 1 << 12;
    return planImpl(C);
  }

private:
  const Plan &planImpl(uint64_t C) {
    C &= Mask;
    if (const auto It = Memo.find(C); It != Memo.end())
      return It->second;
    const Plan Computed = compute(C);
    return Memo.emplace(C, Computed).first->second;
  }

  Plan compute(uint64_t C) {
    Plan Best;
    if (C == 0) {
      Best.Kind = PlanKind::Zero;
      return Best;
    }
    if (C == 1) {
      Best.Kind = PlanKind::Identity;
      return Best;
    }
    --NodeBudget;
    if ((C & 1) == 0) {
      const int Shift = countTrailingZeros64(C);
      Best.Kind = PlanKind::Shift;
      Best.Child = C >> Shift;
      Best.Amount = Shift;
      Best.Cost = planImpl(Best.Child).Cost + 1;
      return Best;
    }
    // Odd constant. The baseline follows the non-adjacent form: when
    // c ≡ 3 (mod 4), c + 1 sheds at least two bits (and 2^N - 1 wraps
    // straight to zero, i.e. "negate x"); otherwise take c - 1. This
    // single chain alone is the signed-digit binary method, so even with
    // the search budget exhausted the plan stays near 2 * popcount ops.
    const bool PreferSub = (C & 2) != 0;
    Best.Kind = PreferSub ? PlanKind::SubX : PlanKind::AddX;
    Best.Child = (PreferSub ? C + 1 : C - 1) & Mask;
    Best.Cost = planImpl(Best.Child).Cost + 1;
    if (NodeBudget <= 0)
      return Best;
    // The other direction.
    {
      const uint64_t Child = (PreferSub ? C - 1 : C + 1) & Mask;
      const int Cost = planImpl(Child).Cost + 1;
      if (Cost < Best.Cost) {
        Best.Kind = PreferSub ? PlanKind::AddX : PlanKind::SubX;
        Best.Child = Child;
        Best.Amount = 0;
        Best.Cost = Cost;
      }
    }
    // Factor paths: c = child * (2^k ± 1). These find the regular binary
    // patterns of magic multipliers, e.g. 0xCCCCCCCD's (2^16+1)(2^8+1)...
    for (int K = 2; K < WordBits && NodeBudget > 0; ++K) {
      const uint64_t PlusOne = (uint64_t{1} << K) + 1;
      if (C % PlusOne == 0) {
        const int Cost = planImpl(C / PlusOne).Cost + 2;
        if (Cost < Best.Cost) {
          Best.Kind = PlanKind::ShiftAdd;
          Best.Child = C / PlusOne;
          Best.Amount = K;
          Best.Cost = Cost;
        }
      }
      const uint64_t MinusOne = (uint64_t{1} << K) - 1;
      if (C % MinusOne == 0) {
        const int Cost = planImpl(C / MinusOne).Cost + 2;
        if (Cost < Best.Cost) {
          Best.Kind = PlanKind::ShiftSub;
          Best.Child = C / MinusOne;
          Best.Amount = K;
          Best.Cost = Cost;
        }
      }
    }
    return Best;
  }

  int WordBits;
  uint64_t Mask;
  int NodeBudget = 0;
  std::unordered_map<uint64_t, Plan> Memo;
};

/// One shared planner per width; plans are pure functions of (C, width),
/// so caching across calls is sound. thread_local keeps this safe if
/// callers ever parallelize.
Planner &plannerFor(int WordBits) {
  thread_local Planner P8(8), P16(16), P32(32), P64(64);
  switch (WordBits) {
  case 8:
    return P8;
  case 16:
    return P16;
  case 32:
    return P32;
  default:
    assert(WordBits == 64 && "unsupported word width");
    return P64;
  }
}

int emitPlan(Planner &Search, ir::Builder &B, int X, uint64_t C) {
  const Plan P = Search.plan(C); // Copy: emission below may grow the memo.
  switch (P.Kind) {
  case PlanKind::Zero:
    return B.constant(0);
  case PlanKind::Identity:
    return X;
  case PlanKind::Shift:
    return B.sll(emitPlan(Search, B, X, P.Child), P.Amount);
  case PlanKind::AddX:
    return B.add(emitPlan(Search, B, X, P.Child), X);
  case PlanKind::SubX:
    return B.sub(emitPlan(Search, B, X, P.Child), X);
  case PlanKind::ShiftAdd: {
    const int T = emitPlan(Search, B, X, P.Child);
    return B.add(B.sll(T, P.Amount), T);
  }
  case PlanKind::ShiftSub: {
    const int T = emitPlan(Search, B, X, P.Child);
    return B.sub(B.sll(T, P.Amount), T);
  }
  }
  assert(false && "unknown plan kind");
  return X;
}

} // namespace

int codegen::mulByConstCost(uint64_t C, int WordBits) {
  return plannerFor(WordBits).plan(C).Cost;
}

int codegen::emitMulByConst(ir::Builder &B, int X, uint64_t C) {
  return emitPlan(plannerFor(B.wordBits()), B, X, C);
}

bool codegen::shouldExpandMultiply(uint64_t C, int WordBits,
                                   double MulCycles) {
  return mulByConstCost(C, WordBits) < MulCycles;
}
