//===- metrics/Metrics.cpp - Unified runtime metrics registry -------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"

#include "telemetry/Remarks.h"
#include "trace/Trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>

using namespace gmdiv;
using namespace gmdiv::metrics;

const char *gmdiv::metrics::kindName(Kind K) {
  switch (K) {
  case Kind::Counter:
    return "counter";
  case Kind::Gauge:
    return "gauge";
  case Kind::Histogram:
    return "histogram";
  }
  return "untyped";
}

unsigned gmdiv::metrics::detail::allocateStripe() {
  static std::atomic<unsigned> Next{0};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Gauge::pack(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

double Gauge::unpack(uint64_t Bits) {
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

size_t Histogram::bucketIndex(uint64_t Value) {
  if (Value < 16)
    return static_cast<size_t>(Value);
  const int E = static_cast<int>(std::bit_width(Value)) - 1; // 4..63
  const size_t Sub = static_cast<size_t>((Value >> (E - 4)) & 0xF);
  return 16 + static_cast<size_t>(E - 4) * 16 + Sub;
}

double Histogram::bucketMidpoint(size_t Index) {
  if (Index < 16)
    return static_cast<double>(Index);
  const size_t B = Index - 16;
  const int E = 4 + static_cast<int>(B / 16);
  const double Sub = static_cast<double>(B % 16);
  const double Base = std::ldexp(1.0, E);
  return Base * (1.0 + Sub / 16.0) + Base / 32.0;
}

double Histogram::percentile(double P) const {
  const uint64_t N = count();
  if (N == 0)
    return 0.0;
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(std::min(std::max(P, 0.0), 100.0) / 100.0 *
                static_cast<double>(N)));
  if (Rank == 0)
    Rank = 1;
  uint64_t Cum = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    Cum += Buckets[I].load(std::memory_order_relaxed);
    if (Cum >= Rank)
      return bucketMidpoint(I);
  }
  return bucketMidpoint(NumBuckets - 1);
}

double Histogram::mad() const {
  const uint64_t N = count();
  if (N == 0)
    return 0.0;
  const double Median = percentile(50);
  std::vector<std::pair<double, uint64_t>> Dev;
  for (size_t I = 0; I < NumBuckets; ++I) {
    const uint64_t C = Buckets[I].load(std::memory_order_relaxed);
    if (C)
      Dev.emplace_back(std::fabs(bucketMidpoint(I) - Median), C);
  }
  std::sort(Dev.begin(), Dev.end());
  const uint64_t Rank = (N + 1) / 2;
  uint64_t Cum = 0;
  for (const auto &[Distance, C] : Dev) {
    Cum += C;
    if (Cum >= Rank)
      return Distance;
  }
  return Dev.empty() ? 0.0 : Dev.back().first;
}

Histogram::Cumulative Histogram::cumulative() const {
  Cumulative Out;
  // Count first: concurrent records landing between this load and the
  // bucket loads can make a raw cumulative sum exceed it, so bucket
  // sums are clamped — the view is weakly consistent, never invalid.
  Out.Count = Count.load(std::memory_order_relaxed);
  Out.Sum = static_cast<double>(Sum.load(std::memory_order_relaxed));
  if (Out.Count == 0)
    return Out;

  uint64_t Running = 0;
  size_t Bucket = 0;
  // Exact region: upper bounds 1, 3, 7, 15 (internal buckets 0..15).
  for (uint64_t Bound = 1; Bound < 16; Bound = Bound * 2 + 1) {
    while (Bucket <= Bound)
      Running += Buckets[Bucket++].load(std::memory_order_relaxed);
    const uint64_t Cum = std::min(Running, Out.Count);
    Out.Bounds.emplace_back(static_cast<double>(Bound), Cum);
    if (Cum == Out.Count)
      return Out;
  }
  // Major buckets: exponent E covers [2^E, 2^(E+1)); bound 2^(E+1)-1.
  for (int E = 4; E < 64; ++E) {
    const size_t MajorEnd = 16 + static_cast<size_t>(E - 3) * 16;
    while (Bucket < MajorEnd && Bucket < NumBuckets)
      Running += Buckets[Bucket++].load(std::memory_order_relaxed);
    const uint64_t Cum = std::min(Running, Out.Count);
    Out.Bounds.emplace_back(std::ldexp(1.0, E + 1) - 1.0, Cum);
    if (Cum == Out.Count)
      return Out;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Series keys and snapshot model
//===----------------------------------------------------------------------===//

static std::string escapeLabelValue(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string gmdiv::metrics::seriesKey(const std::string &Name,
                                      const LabelSet &Labels) {
  if (Labels.empty())
    return Name;
  std::string Out = Name + "{";
  bool First = true;
  for (const auto &[K, V] : Labels) {
    if (!First)
      Out += ",";
    First = false;
    Out += K + "=\"" + escapeLabelValue(V) + "\"";
  }
  Out += "}";
  return Out;
}

const Sample *Snapshot::find(const std::string &Name,
                             const LabelSet &Labels) const {
  for (const Family &F : Families) {
    if (F.Name != Name)
      continue;
    for (const Sample &S : F.Samples)
      if (S.Labels == Labels)
        return &S;
  }
  return nullptr;
}

double Snapshot::valueOr(const std::string &Name, const LabelSet &Labels,
                         double Default) const {
  const Sample *S = find(Name, Labels);
  return S ? S->Value : Default;
}

Sample *SnapshotBuilder::addSample(const std::string &Name,
                                   const std::string &Help, Kind K,
                                   const LabelSet &Labels) {
  auto [It, Inserted] = Families.try_emplace(Name);
  Family &F = It->second;
  if (Inserted) {
    F.Name = Name;
    F.Help = Help;
    F.K = K;
  } else if (F.K != K) {
    return nullptr; // A name keeps one kind; drop the mismatched sample.
  }
  F.Samples.emplace_back();
  F.Samples.back().Labels = Labels;
  return &F.Samples.back();
}

void SnapshotBuilder::counter(const std::string &Name, const std::string &Help,
                              const LabelSet &Labels, double Value) {
  if (Sample *S = addSample(Name, Help, Kind::Counter, Labels))
    S->Value = Value;
}

void SnapshotBuilder::gauge(const std::string &Name, const std::string &Help,
                            const LabelSet &Labels, double Value) {
  if (Sample *S = addSample(Name, Help, Kind::Gauge, Labels))
    S->Value = Value;
}

void SnapshotBuilder::histogram(
    const std::string &Name, const std::string &Help, const LabelSet &Labels,
    std::vector<std::pair<double, uint64_t>> CumulativeBuckets, uint64_t Count,
    double Sum) {
  if (Sample *S = addSample(Name, Help, Kind::Histogram, Labels)) {
    S->CumulativeBuckets = std::move(CumulativeBuckets);
    S->Count = Count;
    S->Sum = Sum;
  }
}

Snapshot SnapshotBuilder::take() {
  Snapshot Out;
  Out.Families.reserve(Families.size());
  for (auto &[Name, F] : Families)
    Out.Families.push_back(std::move(F)); // std::map: already name-sorted.
  Families.clear();
  return Out;
}

//===----------------------------------------------------------------------===//
// Trace and remark accounting
//===----------------------------------------------------------------------===//

namespace {

/// Per-thread trace-ring accounting: recorded spans and spans lost to
/// ring wraparound, previously visible only inside Chrome trace dumps.
void bridgeTrace(SnapshotBuilder &B) {
  for (const trace::ThreadDropCounts &T : trace::dropCounts()) {
    const LabelSet Labels = {{"thread", std::to_string(T.ThreadId)}};
    B.counter("gmdiv_trace_recorded_spans_total",
              "Trace spans recorded per thread ring", Labels,
              static_cast<double>(T.Recorded));
    B.counter("gmdiv_trace_dropped_spans_total",
              "Trace spans overwritten by ring wraparound", Labels,
              static_cast<double>(T.Dropped));
  }
}

/// Remark fan-out accounting: delivered vs dropped-for-lack-of-sink.
void bridgeRemarks(SnapshotBuilder &B) {
  uint64_t Emitted = 0, Dropped = 0;
  telemetry::remarkCounts(Emitted, Dropped);
  B.counter("gmdiv_remarks_emitted_total",
            "Remarks delivered to at least one sink", {},
            static_cast<double>(Emitted));
  B.counter("gmdiv_remarks_dropped_total",
            "Remarks emitted with no sink installed", {},
            static_cast<double>(Dropped));
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry::Registry() = default;

Registry &Registry::global() {
  // Leaked: exporter threads, atexit paths and function-local
  // GMDIV_STAT references may touch it arbitrarily late in teardown.
  static Registry *R = new Registry;
  return *R;
}

Counter &Registry::counter(const std::string &Name, const std::string &Help,
                           const LabelSet &Labels) {
  const std::string Key = seriesKey(Name, Labels);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Found = CounterIndex.find(Key);
  if (Found != CounterIndex.end())
    return *Counters[Found->second].Instrument;
  CounterIndex.emplace(Key, Counters.size());
  Counters.push_back({Name, Help, Labels, std::make_unique<Counter>()});
  return *Counters.back().Instrument;
}

Gauge &Registry::gauge(const std::string &Name, const std::string &Help,
                       const LabelSet &Labels) {
  const std::string Key = seriesKey(Name, Labels);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Found = GaugeIndex.find(Key);
  if (Found != GaugeIndex.end())
    return *Gauges[Found->second].Instrument;
  GaugeIndex.emplace(Key, Gauges.size());
  Gauges.push_back({Name, Help, Labels, std::make_unique<Gauge>()});
  return *Gauges.back().Instrument;
}

Histogram &Registry::histogram(const std::string &Name, const std::string &Help,
                               const LabelSet &Labels) {
  const std::string Key = seriesKey(Name, Labels);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Found = HistogramIndex.find(Key);
  if (Found != HistogramIndex.end())
    return *Histograms[Found->second].Instrument;
  HistogramIndex.emplace(Key, Histograms.size());
  Histograms.push_back({Name, Help, Labels, std::make_unique<Histogram>()});
  return *Histograms.back().Instrument;
}

uint64_t Registry::addCollector(Collector C) {
  std::lock_guard<std::mutex> Lock(Mutex);
  const uint64_t Handle = NextCollector++;
  Collectors.emplace_back(Handle, std::move(C));
  return Handle;
}

void Registry::removeCollector(uint64_t Handle) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Collectors.erase(std::remove_if(Collectors.begin(), Collectors.end(),
                                  [Handle](const auto &Entry) {
                                    return Entry.first == Handle;
                                  }),
                   Collectors.end());
}

Snapshot Registry::snapshot() const {
  SnapshotBuilder B;
  std::vector<std::pair<uint64_t, Collector>> Cs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const Entry<Counter> &E : Counters)
      B.counter(E.Name, E.Help, E.Labels,
                static_cast<double>(E.Instrument->value()));
    for (const Entry<Gauge> &E : Gauges)
      B.gauge(E.Name, E.Help, E.Labels, E.Instrument->value());
    for (const Entry<Histogram> &E : Histograms) {
      Histogram::Cumulative C = E.Instrument->cumulative();
      B.histogram(E.Name, E.Help, E.Labels, std::move(C.Bounds), C.Count,
                  C.Sum);
    }
    Cs = Collectors;
  }
  // Collectors run unlocked: they may create instruments or take locks
  // of their own (e.g. the JIT cache shard mutexes).
  for (const auto &[Handle, C] : Cs)
    C(B);
  bridgeTrace(B);
  bridgeRemarks(B);
  Snapshot S = B.take();
  S.UnixMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count();
  return S;
}
