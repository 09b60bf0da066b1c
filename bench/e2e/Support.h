//===- bench/e2e/Support.h - Shared pieces of the e2e benchmark -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vocabulary shared by the workloads (Workloads.cpp), the layer ledger
/// (Layers.cpp) and the driver (Main.cpp): lane types and operations,
/// the seeded generator, requests and dividend pools, the output
/// checker (hardware `/` and `%`, never the library under test), the
/// 100 ms window recorder, and the benchmark's own span log.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BENCH_E2E_SUPPORT_H
#define GMDIV_BENCH_E2E_SUPPORT_H

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace e2e {

//===----------------------------------------------------------------------===//
// Lanes, operations, requests
//===----------------------------------------------------------------------===//

enum class Lane : uint8_t { U32, U64, I32, I64 };
enum class Op : uint8_t { Div, Rem, DivRem };

const char *laneName(Lane L);

/// Calls Fn.template operator()<T>() with T the native type of \p L.
template <typename F> decltype(auto) withLane(Lane L, F &&Fn) {
  switch (L) {
  case Lane::U32:
    return Fn.template operator()<uint32_t>();
  case Lane::U64:
    return Fn.template operator()<uint64_t>();
  case Lane::I32:
    return Fn.template operator()<int32_t>();
  case Lane::I64:
    break;
  }
  return Fn.template operator()<int64_t>();
}

template <typename T> T fromBits(uint64_t Bits) {
  return static_cast<T>(static_cast<std::make_unsigned_t<T>>(Bits));
}
template <typename T> uint64_t toBits(T Value) {
  return static_cast<uint64_t>(static_cast<std::make_unsigned_t<T>>(Value));
}

/// One divisor of a workload: its lane type and bit pattern.
struct Divisor {
  Lane L = Lane::U64;
  uint64_t Bits = 0;
};

/// One request as the workload issues it. Div indexes the workload's
/// divisor table; Fresh requests (churn) ignore it on the live path and
/// draw a never-seen divisor instead. Offset/Count select the dividends
/// in the lane's pool.
struct Request {
  Lane L = Lane::U64;
  Op O = Op::Rem;
  bool Fresh = false;
  uint32_t Div = 0;
  uint32_t Offset = 0;
  uint32_t Count = 1;
};

/// Dividend pools, one per lane type. All four views hold the same
/// 64-bit random words truncated to the lane, so a route message whose
/// hash is U64[i] divides the same value on every layer.
struct Pools {
  static constexpr size_t Lanes = 65536;
  std::vector<uint32_t> U32;
  std::vector<uint64_t> U64;
  std::vector<int32_t> I32;
  std::vector<int64_t> I64;

  template <typename T> const T *get() const {
    if constexpr (std::is_same_v<T, uint32_t>)
      return U32.data();
    else if constexpr (std::is_same_v<T, uint64_t>)
      return U64.data();
    else if constexpr (std::is_same_v<T, int32_t>)
      return I32.data();
    else
      return I64.data();
  }
};

/// Output storage for up to \p Lanes lanes of any lane type.
class Buffer {
public:
  explicit Buffer(size_t Lanes = 0) : Words(Lanes) {}
  template <typename T> T *as() { return reinterpret_cast<T *>(Words.data()); }

private:
  std::vector<uint64_t> Words;
};

//===----------------------------------------------------------------------===//
// Clock and generator
//===----------------------------------------------------------------------===//

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the same seed always yields the same stream.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * N) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// A divisor of lane \p L with a log-uniform magnitude in [2, 2^bits)
/// and, for signed lanes, a random sign. |d| >= 2 keeps INT_MIN / -1
/// (which traps in hardware) out of every input.
uint64_t randomDivisor(Rng &R, Lane L);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// The \p Q quantile (nearest rank) of \p V; reorders \p V.
double quantile(std::span<double> V, double Q);
double median(std::vector<double> V);

/// Closed-loop accounting in 100 ms windows. Interference from other
/// tenants of a shared host only ever slows a window down, and it comes
/// in episodes that can outlast a run (NOISE.md has the numbers), so
/// the best window is the closest to what the code alone costs: every
/// rate reported is the best window's, and every latency percentile the
/// lowest any window reached. The median window is printed beside them.
class Windows {
public:
  static constexpr double Seconds = 0.1;
  /// Latency samples kept per window. The buffer is touched up front so
  /// peak RSS does not depend on the request rate; a window with more
  /// samples takes its percentiles from the first Capacity.
  static constexpr size_t Capacity = size_t{1} << 17;

  explicit Windows(uint64_t StartNs);
  /// One completed request (or block of \p Reqs requests sharing one
  /// latency sample) observed at \p Now; ignored before StartNs.
  void add(uint64_t Now, double LatencyNs, uint64_t Reqs, uint64_t Elems);
  /// Closes the last window if it covers at least half a window.
  void finish(uint64_t Now);

  struct Summary {
    /// Best window: highest rates, lowest percentiles.
    double ReqPerS = 0, ElemPerS = 0, P50Ns = 0, P99Ns = 0;
    double MedianReqPerS = 0;
    size_t Windows = 0;
    /// Fewest latency samples any window held (p99 needs >= 1000 for
    /// ten samples beyond it).
    uint64_t MinSamples = 0;
    uint64_t Samples = 0;
  };
  Summary summary() const;
  /// The summary of several phases' windows taken together. The median
  /// window becomes the median of the phases' median windows.
  static Summary combine(const std::vector<Summary> &Parts);

private:
  void close(uint64_t Now);

  uint64_t Start;
  uint64_t Reqs = 0, Elems = 0;
  std::vector<double> Lat;
  size_t Used = 0;
  std::vector<double> ReqRate, ElemRate, P50, P99;
  uint64_t MinSamples = UINT64_MAX, Samples = 0;
};

//===----------------------------------------------------------------------===//
// Output checking
//===----------------------------------------------------------------------===//

/// Checks results against the hardware divide instruction (C `/` and
/// `%` on the same inputs). Every request checks its first and last 8
/// lanes; 1 request in 256 is checked in full. Callers time their
/// checks with addNs() so bench.check_share covers the whole check.
class Checker {
public:
  /// With \p CorruptFirst (--selftest) the first expected value is
  /// flipped, so a healthy run must report a mismatch.
  explicit Checker(bool CorruptFirst) : Corrupt(CorruptFirst) {}

  /// True when request number \p Seq is one of the fully checked ones.
  static bool fullCheck(uint64_t Seq) { return Seq % 256 == 0; }

  template <typename T>
  bool check(Op O, T D, const T *In, const T *Out0, const T *Out1,
             size_t Count, bool Full) {
    bool Ok = true;
    auto lane = [&](size_t I) {
      T Q = static_cast<T>(In[I] / D);
      T R = static_cast<T>(In[I] % D);
      if (Corrupt) {
        Corrupt = false;
        Q = static_cast<T>(Q ^ T{1});
        R = static_cast<T>(R ^ T{1});
      }
      switch (O) {
      case Op::Div:
        Ok &= Out0[I] == Q;
        break;
      case Op::Rem:
        Ok &= Out0[I] == R;
        break;
      case Op::DivRem:
        Ok &= Out0[I] == Q && Out1[I] == R;
        break;
      }
    };
    if (Full || Count <= 16) {
      for (size_t I = 0; I < Count; ++I)
        lane(I);
    } else {
      for (size_t I = 0; I < 8; ++I)
        lane(I);
      for (size_t I = Count - 8; I < Count; ++I)
        lane(I);
    }
    return Ok;
  }

  void addNs(uint64_t Ns) { CheckNs += Ns; }
  uint64_t checkNs() const { return CheckNs; }

private:
  bool Corrupt;
  uint64_t CheckNs = 0;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's own spans around the public calls it makes, kept in
/// memory preallocated before the traced phase and written out at exit
/// as Chrome trace JSON. Only the caller thread records. A request is
/// traced whole or not at all: reserve() claims room for all its spans
/// up front, so a full log turns away whole requests (counted as drops)
/// instead of truncating one.
class SpanLog {
public:
  struct Span {
    const char *Name = "";
    uint64_t StartNs = 0, EndNs = 0;
    uint64_t Req = 0;
    int32_t Parent = -1; ///< Index of the enclosing span, -1 for a root.
    uint32_t Tid = 1;    ///< Chrome lane: 1 = caller, 2+ = in-flight slots.
  };

  explicit SpanLog(size_t Capacity) : Spans(Capacity) {}

  /// Claims room for \p K spans; false (and a drop of \p K) when full.
  bool reserve(size_t K) {
    if (Claimed + K > Spans.size()) {
      Dropped += K;
      return false;
    }
    Claimed += K;
    return true;
  }
  int32_t open(const char *Name, uint64_t Req, int32_t Parent, uint32_t Tid,
               uint64_t StartNs) {
    Spans[Used] = {Name, StartNs, StartNs, Req, Parent, Tid};
    return static_cast<int32_t>(Used++);
  }
  void close(int32_t I, uint64_t EndNs) {
    Spans[static_cast<size_t>(I)].EndNs = EndNs;
  }
  int32_t add(const char *Name, uint64_t Req, int32_t Parent, uint32_t Tid,
              uint64_t StartNs, uint64_t EndNs) {
    const int32_t I = open(Name, Req, Parent, Tid, StartNs);
    close(I, EndNs);
    return I;
  }

  size_t size() const { return Used; }
  size_t capacity() const { return Spans.size(); }
  uint64_t dropped() const { return Dropped; }

  /// Per span name: count, mean duration and mean self time (duration
  /// minus the part its child spans cover), in recording order.
  struct NameSummary {
    std::string Name;
    uint64_t Count = 0;
    double MeanNs = 0, MeanSelfNs = 0;
  };
  std::vector<NameSummary> summarize() const;

  /// Writes every span as a Chrome "X" event, ts relative to the first
  /// span. Returns false when the file cannot be written.
  bool writeChrome(const std::string &Path, const std::string &Workload) const;

private:
  std::vector<Span> Spans;
  size_t Used = 0, Claimed = 0;
  uint64_t Dropped = 0;
};

} // namespace e2e

#endif // GMDIV_BENCH_E2E_SUPPORT_H
