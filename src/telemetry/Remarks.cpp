//===- telemetry/Remarks.cpp - Structured optimization remarks ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Remarks.h"

#include "telemetry/Json.h"

#include <algorithm>
#include <atomic>
#include <mutex>

using namespace gmdiv;
using namespace gmdiv::telemetry;

std::string Remark::divisorString() const {
  if (!HasDivisor)
    return "<runtime>";
  if (IsSigned)
    return std::to_string(static_cast<int64_t>(DivisorBits));
  return std::to_string(DivisorBits);
}

std::string Remark::message() const {
  std::string Out = Pass + ": d=" + divisorString() +
                    ", N=" + std::to_string(WordBits) + " -> " + Figure +
                    " " + CaseName;
  bool First = true;
  for (const auto &[Key, Value] : Details) {
    Out += First ? "; " : ", ";
    First = false;
    Out += Key + "=" + Value;
  }
  return Out;
}

std::string Remark::toJson() const {
  json::Writer W;
  W.beginObject()
      .key("pass")
      .value(Pass)
      .key("kind")
      .value(Kind)
      .key("figure")
      .value(Figure)
      .key("case")
      .value(CaseName)
      .key("word_bits")
      .value(static_cast<int64_t>(WordBits))
      .key("divisor")
      .value(divisorString())
      .key("signed")
      .value(IsSigned);
  W.key("details").beginObject();
  for (const auto &[Key, Value] : Details)
    W.key(Key).value(Value);
  W.endObject().endObject();
  return W.str();
}

void TextRemarkSink::handle(const Remark &R) {
  std::fprintf(Out, "remark: %s\n", R.message().c_str());
}

void JsonRemarkSink::handle(const Remark &R) {
  std::fprintf(Out, "%s\n", R.toJson().c_str());
}

namespace {

struct Dispatcher {
  std::mutex Mutex;
  std::vector<RemarkSink *> Sinks;
};

/// Leaked singleton (same teardown-safety rationale as the stats
/// registry).
Dispatcher &dispatcher() {
  static Dispatcher *D = new Dispatcher;
  return *D;
}

/// Fast-path flag: nonzero iff any sink is installed.
std::atomic<int> SinkCount{0};

std::atomic<uint64_t> RemarksEmitted{0};
std::atomic<uint64_t> RemarksDropped{0};

} // namespace

void telemetry::addRemarkSink(RemarkSink *Sink) {
  if (!Sink)
    return;
  Dispatcher &D = dispatcher();
  std::lock_guard<std::mutex> Lock(D.Mutex);
  D.Sinks.push_back(Sink);
  SinkCount.store(static_cast<int>(D.Sinks.size()),
                  std::memory_order_release);
}

void telemetry::removeRemarkSink(RemarkSink *Sink) {
  if (!Sink)
    return;
  Dispatcher &D = dispatcher();
  std::lock_guard<std::mutex> Lock(D.Mutex);
  D.Sinks.erase(std::remove(D.Sinks.begin(), D.Sinks.end(), Sink),
                D.Sinks.end());
  SinkCount.store(static_cast<int>(D.Sinks.size()),
                  std::memory_order_release);
}

bool telemetry::remarksEnabled() {
  return SinkCount.load(std::memory_order_acquire) != 0;
}

void telemetry::emitRemark(const Remark &R) {
  if (SinkCount.load(std::memory_order_acquire) == 0) {
    RemarksDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RemarksEmitted.fetch_add(1, std::memory_order_relaxed);
  Dispatcher &D = dispatcher();
  std::lock_guard<std::mutex> Lock(D.Mutex);
  for (RemarkSink *Sink : D.Sinks)
    Sink->handle(R);
}

void telemetry::remarkCounts(uint64_t &Emitted, uint64_t &Dropped) {
  Emitted = RemarksEmitted.load(std::memory_order_relaxed);
  Dropped = RemarksDropped.load(std::memory_order_relaxed);
}
