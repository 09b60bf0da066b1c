//===- service/Epoch.cpp - Epoch-based reclamation for readers ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Epoch.h"

namespace gmdiv {
namespace service {

EpochSlot *EpochDomain::registerThread() {
  auto *S = new EpochSlot(); // leaked at thread exit, like trace rings
  S->Next = Global.Slots.load(std::memory_order_relaxed);
  while (!Global.Slots.compare_exchange_weak(S->Next, S,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
  ThreadSlot = S;
  return S;
}

uint64_t EpochDomain::minActive() const {
  uint64_t Min = UINT64_MAX;
  for (const EpochSlot *S = Slots.load(std::memory_order_acquire); S;
       S = S->Next) {
    const uint64_t E = S->Active.load(std::memory_order_seq_cst);
    if (E != 0 && E < Min)
      Min = E;
  }
  return Min;
}

size_t EpochDomain::slotCount() const {
  size_t N = 0;
  for (const EpochSlot *S = Slots.load(std::memory_order_acquire); S;
       S = S->Next)
    ++N;
  return N;
}

} // namespace service
} // namespace gmdiv
