//===- arch/CostModel.h - Sequence cost estimation --------------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices an IR sequence on a Table 1.1 architecture profile the way the
/// paper counts cost: one multiply (MULL/MULUH/MULSH) at the machine's
/// multiply latency, everything else one cycle, constants free ("loading
/// constants and operands [is] implicit ... not included in the operation
/// counts", §3). estimateSpeedup compares a generated division sequence
/// against the machine's divide instruction — the quantity behind the
/// Table 11.2 speedup column.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_ARCH_COSTMODEL_H
#define GMDIV_ARCH_COSTMODEL_H

#include "arch/Arch.h"
#include "ir/IR.h"

#include <cstddef>

namespace gmdiv {
namespace arch {

/// Summary of a sequence's cost on one architecture.
struct SequenceCost {
  double Cycles = 0;   ///< Total latency, paper-style sequential count.
  int Multiplies = 0;  ///< Number of multiply operations.
  int Divides = 0;     ///< Remaining divide operations (pre-lowering IR).
  int SimpleOps = 0;   ///< Adds, subtracts, shifts, bit ops, relationals.
};

/// Sequential-latency estimate of \p P on \p Profile.
SequenceCost estimateCost(const ir::Program &P, const ArchProfile &Profile);

/// divide-instruction-cycles / sequence-cycles: > 1 means the multiply
/// sequence wins. Uses the profile's midpoint divide latency.
double estimateSpeedup(const ir::Program &P, const ArchProfile &Profile);

/// Critical-path latency: the longest dependence chain through the
/// program, i.e. the completion time on a machine that can overlap all
/// independent operations. Table 1.1 marks such machines with 'P'
/// ("pipelined implementation — independent instructions can execute
/// simultaneously"); for them this is the better per-division estimate.
double estimateCriticalPathCycles(const ir::Program &P,
                                  const ArchProfile &Profile);

/// Critical-path cycles for 'P' machines, sequential sum otherwise.
double estimateEffectiveCycles(const ir::Program &P,
                               const ArchProfile &Profile);

/// Maximum number of simultaneously live values (arguments and
/// constants included) — the register-count accounting §8 does by hand
/// ("Five registers hold d, d_norm, l, m' and N-1").
int registerPressure(const ir::Program &P);

/// List-schedules \p P for \p Profile's latencies (multiplies at
/// mulCycles, divides at divCycles, simple ops at 1, leaves free).
ir::Program scheduleForProfile(const ir::Program &P,
                               const ArchProfile &Profile);

/// Completion time on an in-order single-issue machine with overlapped
/// latencies (scoreboarding): instruction i issues one cycle after
/// instruction i-1 but no earlier than its operands complete. This is
/// the realized cost on the Table 1.1 'P' machines, between the serial
/// sum (no overlap) and the critical path (infinite issue width), and
/// the quantity the scheduler actually improves.
double estimateInOrderCycles(const ir::Program &P,
                             const ArchProfile &Profile);

/// Scalar-vs-vector throughput estimate for the batch kernels
/// (src/batch): the Figure 4.1 sequence priced once per element against
/// its vectorized form priced once per vector and amortized over the
/// lanes. The per-width multiply counts mirror the actual kernel
/// emulations (16-bit lanes have a native high multiply; 8/32-bit lanes
/// need two widening multiplies, 64-bit lanes four).
struct BatchCost {
  double ScalarCyclesPerElement = 0; ///< One per-element sequence.
  double VectorCyclesPerElement = 0; ///< Vector sequence / lanes.
  int Lanes = 1;                     ///< Elements per vector.
  double SetupCycles = 0; ///< Per-call overhead: broadcasts, dispatch, tail.
  /// scalar/vector per-element ratio; > 1 means the vector path wins on
  /// large batches.
  double speedup() const {
    return VectorCyclesPerElement > 0
               ? ScalarCyclesPerElement / VectorCyclesPerElement
               : 0;
  }
  /// Smallest batch size for which the vector path is expected to beat
  /// the scalar loop (0 when the vector path never wins).
  size_t breakEvenBatch() const;
};

/// Prices unsigned batch division of \p WordBits-wide lanes on
/// \p Profile with \p VectorBits-wide vectors (e.g. 128 for SSE2/NEON,
/// 256 for AVX2). VectorBits = WordBits prices the scalar backend
/// against itself (Lanes = 1).
BatchCost estimateBatchCost(int WordBits, const ArchProfile &Profile,
                            int VectorBits);

/// The static kernels' price, whatever the divisor: gmdiv has no
/// divisor-specialized vector loop (its vector JIT was removed). Kept
/// only because the bench/e2e ledger still names it.
BatchCost estimateJitBatchCost(int WordBits, const ArchProfile &Profile,
                               int VectorBits, uint64_t Divisor);

} // namespace arch
} // namespace gmdiv

#endif // GMDIV_ARCH_COSTMODEL_H
