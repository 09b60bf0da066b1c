//===- bench/e2e/Support.cpp - Shared pieces of the e2e benchmark ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Support.h"

#include <cmath>
#include <cstdio>
#include <map>

namespace e2e {

const char *laneName(Lane L) {
  switch (L) {
  case Lane::U32:
    return "u32";
  case Lane::U64:
    return "u64";
  case Lane::I32:
    return "i32";
  case Lane::I64:
    break;
  }
  return "i64";
}

uint64_t randomDivisor(Rng &R, Lane L) {
  const bool Signed = L == Lane::I32 || L == Lane::I64;
  const int Width = (L == Lane::U32 || L == Lane::I32) ? 32 : 64;
  const int MaxBits = Signed ? Width - 1 : Width;
  // Bit length uniform in [2, MaxBits]: small and large divisors (and
  // so every Figure 4.2 case) appear in every seed.
  const int Bits =
      2 + static_cast<int>(R.below(static_cast<uint64_t>(MaxBits - 1)));
  const uint64_t Top = uint64_t{1} << (Bits - 1);
  const uint64_t Magnitude = Top | R.below(Top);
  uint64_t Value = Magnitude;
  if (Signed && (R.next() & 1))
    Value = uint64_t{0} - Magnitude;
  return Width == 32 ? (Value & 0xffffffffULL) : Value;
}

double quantile(std::span<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size()) - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(Rank),
                   V.end());
  return V[Rank];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Windows
//===----------------------------------------------------------------------===//

Windows::Windows(uint64_t StartNs) : Start(StartNs), Lat(Capacity, 0.0) {}

void Windows::add(uint64_t Now, double LatencyNs, uint64_t NReqs,
                  uint64_t NElems) {
  if (Now < Start)
    return; // warm-up
  if (static_cast<double>(Now - Start) >= Seconds * 1e9)
    close(Now);
  Reqs += NReqs;
  Elems += NElems;
  if (Used < Capacity)
    Lat[Used] = LatencyNs;
  ++Used;
}

void Windows::close(uint64_t Now) {
  const double Secs = static_cast<double>(Now - Start) * 1e-9;
  if (Secs > 0 && Used > 0) {
    const std::span<double> Kept(Lat.data(), std::min(Used, Capacity));
    ReqRate.push_back(static_cast<double>(Reqs) / Secs);
    ElemRate.push_back(static_cast<double>(Elems) / Secs);
    P50.push_back(quantile(Kept, 0.50));
    P99.push_back(quantile(Kept, 0.99));
    MinSamples = std::min<uint64_t>(MinSamples, Used);
    Samples += Used;
  }
  Start = Now;
  Reqs = Elems = 0;
  Used = 0;
}

void Windows::finish(uint64_t Now) {
  if (Now > Start && static_cast<double>(Now - Start) >= Seconds * 0.5e9)
    close(Now);
}

Windows::Summary Windows::summary() const {
  Summary S;
  S.Windows = ReqRate.size();
  if (!S.Windows)
    return S;
  S.ReqPerS = *std::max_element(ReqRate.begin(), ReqRate.end());
  S.ElemPerS = *std::max_element(ElemRate.begin(), ElemRate.end());
  S.P50Ns = *std::min_element(P50.begin(), P50.end());
  S.P99Ns = *std::min_element(P99.begin(), P99.end());
  S.MedianReqPerS = median(ReqRate);
  S.MinSamples = MinSamples;
  S.Samples = Samples;
  return S;
}

Windows::Summary Windows::combine(const std::vector<Summary> &Parts) {
  Summary S;
  std::vector<double> Medians;
  for (const Summary &P : Parts) {
    if (!P.Windows)
      continue;
    S.ReqPerS = std::max(S.ReqPerS, P.ReqPerS);
    S.ElemPerS = std::max(S.ElemPerS, P.ElemPerS);
    S.P50Ns = S.Windows ? std::min(S.P50Ns, P.P50Ns) : P.P50Ns;
    S.P99Ns = S.Windows ? std::min(S.P99Ns, P.P99Ns) : P.P99Ns;
    S.MinSamples = S.Windows ? std::min(S.MinSamples, P.MinSamples)
                             : P.MinSamples;
    S.Windows += P.Windows;
    S.Samples += P.Samples;
    Medians.push_back(P.MedianReqPerS);
  }
  S.MedianReqPerS = median(Medians);
  return S;
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

std::vector<SpanLog::NameSummary> SpanLog::summarize() const {
  std::vector<double> ChildNs(Used, 0);
  for (size_t I = 0; I < Used; ++I)
    if (Spans[I].Parent >= 0)
      ChildNs[static_cast<size_t>(Spans[I].Parent)] +=
          static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
  std::vector<NameSummary> Out;
  std::map<std::string, size_t> Index;
  for (size_t I = 0; I < Used; ++I) {
    const Span &S = Spans[I];
    auto [It, New] = Index.try_emplace(S.Name, Out.size());
    if (New)
      Out.push_back({S.Name, 0, 0, 0});
    NameSummary &N = Out[It->second];
    const double Dur = static_cast<double>(S.EndNs - S.StartNs);
    ++N.Count;
    N.MeanNs += Dur;
    N.MeanSelfNs += Dur - ChildNs[I];
  }
  for (NameSummary &N : Out) {
    N.MeanNs /= static_cast<double>(N.Count);
    N.MeanSelfNs /= static_cast<double>(N.Count);
  }
  return Out;
}

bool SpanLog::writeChrome(const std::string &Path,
                          const std::string &Workload) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const uint64_t OriginNs = Used ? Spans[0].StartNs : 0;
  std::fprintf(F, "{\"traceEvents\":[\n");
  std::fprintf(F,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"caller\"}}");
  for (size_t I = 0; I < Used; ++I) {
    const Span &S = Spans[I];
    const char *Parent =
        S.Parent >= 0 ? Spans[static_cast<size_t>(S.Parent)].Name : "";
    std::fprintf(F,
                 ",\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"req\":%llu,\"parent\":\"%s\"}}",
                 S.Name, S.Tid,
                 static_cast<double>(S.StartNs - OriginNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Req), Parent);
  }
  std::fprintf(F,
               "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
               "\"%s\",\"spans\":%zu,\"span_drops\":%llu}}\n",
               Workload.c_str(), Used,
               static_cast<unsigned long long>(Dropped));
  return std::fclose(F) == 0;
}

} // namespace e2e
