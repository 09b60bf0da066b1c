//===- service/Epoch.h - Epoch-based reclamation for readers -----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quiescent-state reclamation for the registry's lock-free read path.
/// Readers pin the current epoch in a per-thread slot before touching
/// a published table and clear it after; writers replace the table,
/// bump the epoch, tag the retired table with the post-bump value and
/// free it only once every active reader has announced an epoch at
/// least that new.
///
/// The reader/writer race is Dekker-shaped, so the announcement store,
/// the epoch bump and the table publish/load are all seq_cst: in the
/// total order, a reader that announced epoch e < t before the
/// writer's scan is seen by the scan (so the table tagged t is kept),
/// and a reader whose announcement the scan missed ordered *after* the
/// writer's publish, so its subsequent table load can only observe the
/// replacement. On x86-64 the cost is one locked exchange on the pin;
/// the epoch and table loads are plain MOVs.
///
/// Slots live in a global intrusive list and are leaked at thread
/// exit, the same policy as the trace rings: a detached worker's final
/// announcement must stay readable by writers that outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_SERVICE_EPOCH_H
#define GMDIV_SERVICE_EPOCH_H

#include <atomic>
#include <cstdint>

namespace gmdiv {
namespace service {

/// One reader slot per thread that has ever entered a critical
/// section. Cache-line sized so one thread's pin/unpin traffic never
/// invalidates another's line.
struct alignas(64) EpochSlot {
  /// 0 = quiescent; otherwise the epoch the thread announced on entry.
  std::atomic<uint64_t> Active{0};
  /// Reentrancy depth; touched only by the owning thread.
  uint32_t Depth = 0;
  /// Intrusive list link, written once at registration.
  EpochSlot *Next = nullptr;
};

class EpochDomain {
public:
  /// The process-wide domain every registry shares. Grace periods are
  /// coarser than per-registry domains would give, but a thread needs
  /// only one slot and reclamation stays O(live threads).
  static EpochDomain &global() { return Global; }

  /// RAII read-side critical section. While a Guard is alive the
  /// thread may dereference any table it loaded from a registry's
  /// published pointer; tables retired after the pin stay allocated
  /// until the Guard drops. Nestable (inner guards are free).
  class Guard {
  public:
    explicit Guard(EpochDomain &D) : Slot(mySlot()) {
      if (Slot->Depth++ == 0)
        Slot->Active.store(D.Epoch.load(std::memory_order_seq_cst),
                           std::memory_order_seq_cst);
    }
    ~Guard() {
      if (--Slot->Depth == 0)
        Slot->Active.store(0, std::memory_order_release);
    }
    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

  private:
    EpochSlot *Slot;
  };

  /// Advances the global epoch; the returned value tags a retired
  /// table ("unreachable from epoch t on").
  uint64_t retire() { return Epoch.fetch_add(1, std::memory_order_seq_cst) + 1; }

  /// The smallest epoch any reader currently has pinned, or UINT64_MAX
  /// when every thread is quiescent. A retired table tagged t is safe
  /// to free once t <= minActive().
  uint64_t minActive() const;

  /// Current epoch value (tests / diagnostics).
  uint64_t current() const { return Epoch.load(std::memory_order_seq_cst); }

  /// Number of registered reader slots (diagnostics; monotone).
  size_t slotCount() const;

private:
  constexpr EpochDomain() = default;

  /// This thread's slot, registering (and leaking) one on first use.
  static EpochSlot *mySlot() {
    EpochSlot *S = ThreadSlot;
    return S ? S : registerThread();
  }
  /// Cold path of mySlot(): links a new slot into Global's list.
  static EpochSlot *registerThread();

  /// Constant-initialised and trivially destructible, so it is usable
  /// during static initialisation and never torn down: reader slots
  /// reference it from thread_local cleanup paths.
  static EpochDomain Global;
  static inline constinit thread_local EpochSlot *ThreadSlot = nullptr;

  std::atomic<uint64_t> Epoch{1};
  std::atomic<EpochSlot *> Slots{nullptr};
};

inline constinit EpochDomain EpochDomain::Global;

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_EPOCH_H
