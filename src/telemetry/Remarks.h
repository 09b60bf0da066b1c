//===- telemetry/Remarks.h - Structured optimization remarks ----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-call structured remarks, modeled on LLVM's OptimizationRemark:
/// every code-generation entry point reports which paper figure/case it
/// selected for a divisor ("d=7, N=32 -> Figure 4.2 long form,
/// m_minus_2N=0x24924925, sh_post=3") through pluggable sinks — stderr
/// text, JSON lines, an in-memory collector for tests, or (the default)
/// nothing at all.
///
/// The dispatch fast path when no sink is installed is one relaxed
/// atomic load; emitters guard remark construction behind
/// remarksEnabled() so the default costs no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_TELEMETRY_REMARKS_H
#define GMDIV_TELEMETRY_REMARKS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace gmdiv {
namespace telemetry {

/// One structured remark. Kind is a stable machine-readable slug
/// (e.g. "unsigned-long-form"); Figure/CaseName carry the paper
/// reference; Details are ordered key/value pairs specific to the case
/// (magic multiplier, shifts, inverse, ...).
struct Remark {
  std::string Pass = "codegen"; ///< Emitting component.
  std::string Kind;             ///< Stable slug, e.g. "unsigned-pow2".
  std::string Figure;           ///< Paper anchor, e.g. "Figure 4.2".
  std::string CaseName;         ///< Human case name, e.g. "power of two".
  int WordBits = 0;
  uint64_t DivisorBits = 0; ///< Divisor bit pattern (two's complement).
  bool IsSigned = false;    ///< Interpret DivisorBits as signed.
  bool HasDivisor = true;   ///< False for runtime-divisor sequences.
  std::vector<std::pair<std::string, std::string>> Details;

  /// "-7" or "18446744073709551615" depending on IsSigned; "<runtime>"
  /// when HasDivisor is false.
  std::string divisorString() const;

  /// One human-readable line:
  ///   codegen: d=7, N=32 -> Figure 4.2 long form (m >= 2^N);
  ///   m_minus_2N=0x24924925, sh_post=3
  std::string message() const;

  /// One single-line JSON object with every field.
  std::string toJson() const;
};

/// Remark consumer interface. Sinks are non-owning: install with
/// addRemarkSink, remove before destruction (or use ScopedRemarkSink).
class RemarkSink {
public:
  virtual ~RemarkSink() = default;
  virtual void handle(const Remark &R) = 0;
};

/// Prints "remark: <message>" lines to a FILE.
class TextRemarkSink : public RemarkSink {
public:
  explicit TextRemarkSink(std::FILE *Out) : Out(Out) {}
  void handle(const Remark &R) override;

private:
  std::FILE *Out;
};

/// Prints one JSON document per remark per line (JSON-lines).
class JsonRemarkSink : public RemarkSink {
public:
  explicit JsonRemarkSink(std::FILE *Out) : Out(Out) {}
  void handle(const Remark &R) override;

private:
  std::FILE *Out;
};

/// Buffers remarks in memory; the sink the tests use.
class CollectingRemarkSink : public RemarkSink {
public:
  void handle(const Remark &R) override { Buffer.push_back(R); }
  const std::vector<Remark> &remarks() const { return Buffer; }
  void clear() { Buffer.clear(); }

private:
  std::vector<Remark> Buffer;
};

/// Registers/unregisters a sink (non-owning; thread-safe).
void addRemarkSink(RemarkSink *Sink);
void removeRemarkSink(RemarkSink *Sink);

/// Fans a remark out to every installed sink.
void emitRemark(const Remark &R);

/// Dispatch accounting: \p Emitted counts remarks delivered to at least
/// one sink, \p Dropped counts remarks handed to emitRemark() with no
/// sink installed (remarksEnabled()-guarded emitters never build those,
/// so Dropped only grows at unguarded call sites). Exposed through the
/// metrics plane as gmdiv_remarks_{emitted,dropped}_total.
void remarkCounts(uint64_t &Emitted, uint64_t &Dropped);

/// True iff at least one sink is installed — emitters check this before
/// building a Remark, so the default (no sinks) allocates nothing.
bool remarksEnabled();

/// RAII sink installation:
///   CollectingRemarkSink Sink;
///   ScopedRemarkSink Guard(&Sink);
///   ... generate ...
class ScopedRemarkSink {
public:
  explicit ScopedRemarkSink(RemarkSink *Sink) : Sink(Sink) {
    addRemarkSink(Sink);
  }
  ~ScopedRemarkSink() { removeRemarkSink(Sink); }
  ScopedRemarkSink(const ScopedRemarkSink &) = delete;
  ScopedRemarkSink &operator=(const ScopedRemarkSink &) = delete;

private:
  RemarkSink *Sink;
};

} // namespace telemetry
} // namespace gmdiv

#endif // GMDIV_TELEMETRY_REMARKS_H
