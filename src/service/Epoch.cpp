//===- service/Epoch.cpp - Epoch-based reclamation for readers ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Epoch.h"

namespace gmdiv {
namespace service {

namespace {
/// Set once this thread's slot lease has run: a guard taken by a later
/// thread_local destructor gets a slot that is never handed back.
constinit thread_local bool SlotHandedBack = false;
} // namespace

struct EpochDomain::SlotLease {
  ~SlotLease() {
    EpochSlot *S = ThreadSlot;
    ThreadSlot = nullptr;
    SlotHandedBack = true;
    // Depth is 0 and Active is 0: no guard outlives its thread.
    S->Owned.store(false, std::memory_order_release);
  }
};

EpochSlot *EpochDomain::registerThread() {
  EpochSlot *S = nullptr;
  for (EpochSlot *F = Global.Slots.load(std::memory_order_acquire); F;
       F = F->Next) {
    bool Held = false;
    if (F->Owned.compare_exchange_strong(Held, true,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      S = F;
      break;
    }
  }
  if (!S) {
    S = new EpochSlot(); // never freed; see Epoch.h
    S->Next = Global.Slots.load(std::memory_order_relaxed);
    while (!Global.Slots.compare_exchange_weak(S->Next, S,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
    }
  }
  ThreadSlot = S;
  if (!SlotHandedBack)
    thread_local SlotLease Lease; // destroyed at thread exit
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
