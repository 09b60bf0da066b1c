//===- bench/e2e/Layers.cpp - Peel-off ledger and layer probes ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "arch/Arch.h"
#include "arch/CostModel.h"
#include "batch/BatchDivider.h"
#include "core/Divider.h"
#include "jit/JitBatchDivider.h"
#include "jit/JitCache.h"
#include "jit/JitDivider.h"
#include "service/DividerEntry.h"
#include "trace/Trace.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>

namespace e2e {

using namespace gmdiv;

namespace {

/// Results the compiler must not discard.
volatile uint64_t Sink = 0;

std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Host Table 1.1 row
//===----------------------------------------------------------------------===//

template <typename F> double ticksPerStep(F Step) {
  constexpr int Steps = 1 << 16;
  std::vector<double> Reps;
  for (int Rep = 0; Rep < 7; ++Rep) {
    uint64_t X = 0x0123456789abcdefULL + static_cast<uint64_t>(Rep);
    const uint64_t T0 = trace::readTsc();
    for (int I = 0; I < Steps; ++I) {
      X = Step(X);
      asm volatile("" : "+r"(X)); // keep the chain dependent and real
    }
    const uint64_t T1 = trace::readTsc();
    Sink = Sink + X;
    Reps.push_back(static_cast<double>(T1 - T0) / Steps);
  }
  return *std::min_element(Reps.begin(), Reps.end());
}

arch::ArchProfile hostProfile(const HostTicks &T) {
  arch::ArchProfile P;
  P.Name = "host (TSC ticks)";
  P.WordBits = 64;
  P.MulHigh = {T.MulHi, T.MulHi, arch::CostKind::Pipelined};
  P.Divide = {T.Div, T.Div, arch::CostKind::Pipelined};
  P.SimpleOpCycles = T.Add;
  return P;
}

//===----------------------------------------------------------------------===//
// Per-divisor objects for every layer
//===----------------------------------------------------------------------===//

template <typename T> struct Prepared {
  using Core = std::conditional_t<std::is_signed_v<T>, SignedDivider<T>,
                                  UnsignedDivider<T>>;
  Prepared(T Divisor, jit::CodeCache &Cache)
      : D(Divisor), C(Divisor), B(Divisor), JB(Divisor, Cache),
        JS(Divisor, Cache),
        E(service::makeDividerEntry(service::keyFor<T>(Divisor), true)) {}
  T D;
  Core C;
  batch::BatchDivider<T> B;
  jit::JitBatchDivider<T> JB;
  jit::JitDivider<T> JS;
  std::shared_ptr<const service::DividerEntry> E;
};

template <typename T> using PrepVec = std::vector<std::unique_ptr<Prepared<T>>>;

template <typename Div, typename T>
void arrayOp(const Div &D, Op O, const T *In, T *Out0, T *Out1, size_t N) {
  switch (O) {
  case Op::Div:
    D.divide(In, Out0, N);
    break;
  case Op::Rem:
    D.remainder(In, Out0, N);
    break;
  case Op::DivRem:
    D.divRem(In, Out0, Out1, N);
    break;
  }
}

template <typename Div, typename T>
void scalarOp(const Div &D, Op O, const T *In, T *Out0, T *Out1, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    switch (O) {
    case Op::Div:
      Out0[I] = D.divide(In[I]);
      break;
    case Op::Rem:
      Out0[I] = D.remainder(In[I]);
      break;
    case Op::DivRem:
      std::tie(Out0[I], Out1[I]) = D.divRem(In[I]);
      break;
    }
  }
}

template <typename T>
void entryScalar(const service::DividerEntry &E, Op O, const T *In, T *Out0,
                 T *Out1, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    const uint64_t Bits = toBits(In[I]);
    switch (O) {
    case Op::Div:
      Out0[I] = fromBits<T>(E.divideBits(Bits));
      break;
    case Op::Rem:
      Out0[I] = fromBits<T>(E.remainderBits(Bits));
      break;
    case Op::DivRem: {
      const auto [Q, R] = E.divRemBits(Bits);
      Out0[I] = fromBits<T>(Q);
      Out1[I] = fromBits<T>(R);
      break;
    }
    }
  }
}

template <typename T>
void hardwareOp(T D, Op O, const T *In, T *Out0, T *Out1, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    if (O != Op::Rem)
      Out0[I] = static_cast<T>(In[I] / D);
    if (O != Op::Div)
      (O == Op::Rem ? Out0 : Out1)[I] = static_cast<T>(In[I] % D);
  }
}

/// What one replay step calls per request.
enum class Layer {
  Registry,         ///< acquire() + entry array call (what a worker does)
  RegistryMsg,      ///< withEntry() + entry scalar call (route's message)
  Entry,            ///< entry array call on a held handle
  EntryScalar,      ///< entry scalar call per element on a held handle
  Batch,            ///< BatchDivider<T>
  JitBatch,         ///< JitBatchDivider<T>
  Core,             ///< UnsignedDivider / SignedDivider per element
  JitScalar,        ///< JitDivider<T> per element
  Hardware,         ///< C `/` and `%`
  WithEntryTrivial, ///< withEntry() whose body reads one field
  AcquireHit,       ///< acquire() of a resident key
};

/// Requests each ledger replay covers: a pass takes a few milliseconds.
size_t replayLength(Kind K) {
  switch (K) {
  case Kind::Bulk:
    return 256;
  case Kind::Route:
    return 65536;
  default:
    return 4096;
  }
}

} // namespace

/// Replays request lists on the caller thread through one layer.
class Replay {
public:
  Replay(Inputs &In, System &Sys, double BudgetSeconds, uint64_t Seed);

  struct Timing {
    double PerReq = 0, PerElem = 0;
  };
  /// The fastest of repeated passes (at least 3, within the budget):
  /// interference only slows a pass down, as with Windows.
  Timing measure(Layer L, const std::vector<Request> &List);
  double budgetSeconds() const { return static_cast<double>(BudgetNs) * 1e-9; }

  template <typename T> Prepared<T> &prep(uint32_t Div) {
    return *std::get<PrepVec<T>>(Preps)[Div];
  }

  Inputs &In;
  System &Sys;
  /// In.Divs plus the never-seen divisors the replayed stream uses.
  std::vector<Divisor> Divs;
  /// The workload's own stream (ledger) and the probe shapes over the
  /// same (lane, op, divisor) mix: 16384 lanes, 1..64 lanes, 1 lane.
  std::vector<Request> Stream, Long, Short, Scalar;

private:
  template <Layer L, typename T> void one(const Request &R);
  template <Layer L> uint64_t pass(const std::vector<Request> &List);
  uint64_t passOf(Layer L, const std::vector<Request> &List);

  /// Private cache for the JitBatchDivider / JitDivider rows, so their
  /// compiles neither hit nor evict the service's global cache.
  jit::CodeCache Cache{16, 1024};
  std::tuple<PrepVec<uint32_t>, PrepVec<uint64_t>, PrepVec<int32_t>,
             PrepVec<int64_t>>
      Preps;
  Buffer Out0{16384}, Out1{16384};
  uint64_t BudgetNs;
};

Replay::Replay(Inputs &In, System &Sys, double BudgetSeconds, uint64_t Seed)
    : In(In), Sys(Sys), Divs(In.Divs),
      BudgetNs(static_cast<uint64_t>(BudgetSeconds * 1e9)) {
  Rng R(Seed ^ 0x6c65646765720000ULL);
  const size_t Hot = In.Divs.size();
  for (size_t I = 0; I < replayLength(In.K); ++I) {
    Request Q = In.Stream[I % In.Stream.size()];
    if (Q.Fresh) {
      Q.Div = static_cast<uint32_t>(Divs.size());
      Divs.push_back({Q.L, randomDivisor(R, Q.L)});
    }
    Stream.push_back(Q);
  }
  for (size_t I = 0; I < 64; ++I) {
    Request Q = Stream[I * Stream.size() / 64];
    Q.Fresh = false;
    Q.Count = 16384;
    Q.Offset = static_cast<uint32_t>(R.below(Pools::Lanes - Q.Count + 1));
    Long.push_back(Q);
  }
  for (size_t I = 0; I < 4096; ++I) {
    Request Q = Stream[I % Stream.size()];
    Q.Fresh = false;
    Q.Count = 1 + static_cast<uint32_t>(R.below(64));
    Q.Offset = static_cast<uint32_t>(R.below(Pools::Lanes - Q.Count + 1));
    Short.push_back(Q);
  }
  // Scalar probes include the registry hit path, so only resident keys.
  for (size_t I = 0; Scalar.size() < 65536 && I < 16 * 65536; ++I) {
    Request Q = Stream[I % Stream.size()];
    if (Q.Div >= Hot)
      continue;
    Q.Count = 1;
    Q.Offset = static_cast<uint32_t>(R.below(Pools::Lanes));
    Scalar.push_back(Q);
  }

  std::apply([&](auto &...V) { (V.resize(Divs.size()), ...); }, Preps);
  for (uint32_t I = 0; I < Divs.size(); ++I)
    withLane(Divs[I].L, [&]<typename T>() {
      std::get<PrepVec<T>>(Preps)[I] =
          std::make_unique<Prepared<T>>(fromBits<T>(Divs[I].Bits), Cache);
    });
}

template <Layer L, typename T> void Replay::one(const Request &R) {
  const T *Src = In.Pool.get<T>() + R.Offset;
  T *O0 = Out0.as<T>();
  T *O1 = Out1.as<T>();
  const size_t N = R.Count;
  if constexpr (L == Layer::Registry) {
    const service::Key K =
        R.Fresh ? keyOf({R.L, randomDivisor(In.Fresh, R.L)}) : In.Keys[R.Div];
    entryArray(*Sys.Reg->acquire(K), R.O, Src, O0, O1, N);
  } else if constexpr (L == Layer::RegistryMsg) {
    Sys.Reg->withEntry(In.Keys[R.Div], [&](const service::DividerEntry &E) {
      entryScalar(E, R.O, Src, O0, O1, N);
    });
  } else if constexpr (L == Layer::WithEntryTrivial) {
    Sys.Reg->withEntry(In.Keys[R.Div], [&](const service::DividerEntry &E) {
      O0[0] = fromBits<T>(E.divisorBits());
    });
  } else if constexpr (L == Layer::AcquireHit) {
    O0[0] = fromBits<T>(Sys.Reg->acquire(In.Keys[R.Div])->divisorBits());
  } else {
    const Prepared<T> &P = prep<T>(R.Div);
    if constexpr (L == Layer::Entry)
      entryArray(*P.E, R.O, Src, O0, O1, N);
    else if constexpr (L == Layer::EntryScalar)
      entryScalar(*P.E, R.O, Src, O0, O1, N);
    else if constexpr (L == Layer::Batch)
      arrayOp(P.B, R.O, Src, O0, O1, N);
    else if constexpr (L == Layer::JitBatch)
      arrayOp(P.JB, R.O, Src, O0, O1, N);
    else if constexpr (L == Layer::Core)
      scalarOp(P.C, R.O, Src, O0, O1, N);
    else if constexpr (L == Layer::JitScalar)
      scalarOp(P.JS, R.O, Src, O0, O1, N);
    else
      hardwareOp(P.D, R.O, Src, O0, O1, N);
  }
}

template <Layer L> uint64_t Replay::pass(const std::vector<Request> &List) {
  const uint64_t T0 = nowNs();
  for (const Request &R : List)
    withLane(R.L, [&]<typename T>() { this->template one<L, T>(R); });
  const uint64_t Ns = nowNs() - T0;
  Sink = Sink + Out0.as<uint64_t>()[0];
  return Ns;
}

uint64_t Replay::passOf(Layer L, const std::vector<Request> &List) {
  switch (L) {
  case Layer::Registry:
    return pass<Layer::Registry>(List);
  case Layer::RegistryMsg:
    return pass<Layer::RegistryMsg>(List);
  case Layer::Entry:
    return pass<Layer::Entry>(List);
  case Layer::EntryScalar:
    return pass<Layer::EntryScalar>(List);
  case Layer::Batch:
    return pass<Layer::Batch>(List);
  case Layer::JitBatch:
    return pass<Layer::JitBatch>(List);
  case Layer::Core:
    return pass<Layer::Core>(List);
  case Layer::JitScalar:
    return pass<Layer::JitScalar>(List);
  case Layer::Hardware:
    return pass<Layer::Hardware>(List);
  case Layer::WithEntryTrivial:
    return pass<Layer::WithEntryTrivial>(List);
  case Layer::AcquireHit:
    break;
  }
  return pass<Layer::AcquireHit>(List);
}

Replay::Timing Replay::measure(Layer L, const std::vector<Request> &List) {
  // The first pass warms caches, predictors and lazily touched pages,
  // and sizes a timed pass: the list repeated to fill one 100 ms window
  // (a third of the budget at most), so that the fastest pass and the
  // end-to-end best window are taken over intervals of the same length.
  const uint64_t Once = std::max<uint64_t>(1, passOf(L, List));
  const double Target =
      std::min(Windows::Seconds * 1e9, static_cast<double>(BudgetNs) / 3);
  const size_t Repeat = std::max<size_t>(
      1, static_cast<size_t>(Target / static_cast<double>(Once)));
  std::vector<double> Ns;
  const uint64_t Deadline = nowNs() + BudgetNs;
  while (Ns.size() < 3 || (Ns.size() < 1000 && nowNs() < Deadline)) {
    uint64_t Sum = 0;
    for (size_t I = 0; I < Repeat; ++I)
      Sum += passOf(L, List);
    Ns.push_back(static_cast<double>(Sum) / static_cast<double>(Repeat));
  }
  uint64_t Elems = 0;
  for (const Request &R : List)
    Elems += R.Count;
  const double M = *std::min_element(Ns.begin(), Ns.end());
  return {M / static_cast<double>(List.size()),
          M / static_cast<double>(Elems)};
}

namespace {

//===----------------------------------------------------------------------===//
// Ledger
//===----------------------------------------------------------------------===//

std::string ledgerText(Replay &R, Kind K, double E2e) {
  const bool Msg = perMessage(K);
  const bool PerElem = K == Kind::Bulk;
  const char *Unit = PerElem ? "ns/elem" : "ns/req";
  struct Row {
    const char *Name;
    Layer L;
    double Ns = 0;
  };
  Row Rows[] = {
      {"1 registry + entry", Msg ? Layer::RegistryMsg : Layer::Registry},
      {"2 entry, held handle", Msg ? Layer::EntryScalar : Layer::Entry},
      {"3 BatchDivider<T>", Layer::Batch},
      {"4 JitBatchDivider<T>", Layer::JitBatch},
      {"5a core Divider", Layer::Core},
      {"5b JitDivider", Layer::JitScalar},
      {"6 hardware / and %", Layer::Hardware},
  };
  for (Row &Rw : Rows) {
    const Replay::Timing T = R.measure(Rw.L, R.Stream);
    Rw.Ns = PerElem ? T.PerElem : T.PerReq;
  }
  std::string Out = format(
      "ledger %s (%s; %zu requests replayed on the caller thread)\n"
      "  %-24s %12s %10s %18s\n",
      kindName(K), Unit, R.Stream.size(), "layer", Unit, "% of e2e",
      "over layer below");
  Out += format("  %-24s %12.3f %9.1f%% %+18.3f\n", "0 end-to-end, untraced",
                E2e, 100.0, E2e - Rows[0].Ns);
  const size_t N = std::size(Rows);
  for (size_t I = 0; I < N; ++I) {
    const double Below = I + 1 < N ? Rows[I + 1].Ns : 0;
    Out += format("  %-24s %12.3f %9.1f%% %+18.3f\n", Rows[I].Name, Rows[I].Ns,
                  100.0 * Rows[I].Ns / E2e, Rows[I].Ns - Below);
  }
  // The self times telescope: their sum is row 1, the replayed request.
  Out += format("  peel-off self times sum to %.3f %s; untraced end-to-end "
                "%.3f %s (%+.1f%%)%s\n",
                Rows[0].Ns, Unit, E2e, Unit, 100.0 * (Rows[0].Ns / E2e - 1),
                usesService(K) ? "; end-to-end runs the service's workers, "
                                 "the replay one thread"
                               : "");
  return Out;
}

//===----------------------------------------------------------------------===//
// Probes
//===----------------------------------------------------------------------===//

std::vector<Lane> lanesOf(const std::vector<Divisor> &Divs) {
  std::vector<Lane> Out;
  for (const Divisor &D : Divs)
    if (std::find(Out.begin(), Out.end(), D.L) == Out.end())
      Out.push_back(D.L);
  return Out;
}

/// Times \p F(divisor) on \p Count never-seen divisors cycling through
/// \p Lanes; returns the per-call samples in microseconds.
template <typename F>
std::vector<double> freshProbe(Rng &R, const std::vector<Lane> &Lanes,
                               size_t Count, F &&Fn) {
  std::vector<double> Us;
  for (size_t I = 0; I < Count; ++I) {
    const Divisor D{Lanes[I % Lanes.size()],
                    randomDivisor(R, Lanes[I % Lanes.size()])};
    const uint64_t T0 = nowNs();
    if (Fn(D))
      Us.push_back(static_cast<double>(nowNs() - T0) / 1e3);
  }
  return Us;
}

int staticVectorBits(int LaneBits) {
  switch (batch::activeBackend()) {
  case batch::Backend::AVX2:
    return 256;
  case batch::Backend::SSE2:
  case batch::Backend::NEON:
    return 128;
  case batch::Backend::Scalar:
    break;
  }
  return LaneBits;
}

/// Predicted (cost model) against measured winner, static batch kernel
/// vs jitted loop, per (lane, divisor) pair on 16384-lane divides.
std::string archAgreement(Replay &R, const HostTicks &Ticks,
                          std::map<std::string, double> &Metrics) {
  const arch::ArchProfile Host = hostProfile(Ticks);
  constexpr size_t N = 16384;
  struct PerLane {
    std::vector<double> Predicted, Measured;
    size_t Agree = 0;
  };
  PerLane Lanes[4];
  size_t Pairs = 0, Agree = 0;
  const size_t Hot = R.In.Divs.size();
  const size_t Step = std::max<size_t>(1, Hot / 256);
  for (size_t I = 0; I < Hot; I += Step) {
    withLane(R.Divs[I].L, [&]<typename T>() {
      const Prepared<T> &P = R.prep<T>(static_cast<uint32_t>(I));
      if (!P.JB.usesJit())
        return;
      const T *Src = R.In.Pool.get<T>();
      std::vector<T> Out(N);
      auto timeOf = [&](const auto &Div) {
        std::vector<double> V;
        for (int Rep = 0; Rep < 5; ++Rep) {
          const uint64_t T0 = nowNs();
          Div.divide(Src, Out.data(), N);
          V.push_back(static_cast<double>(nowNs() - T0));
        }
        return *std::min_element(V.begin(), V.end());
      };
      const double StaticNs = timeOf(P.B), JitNs = timeOf(P.JB);
      const int W = static_cast<int>(sizeof(T) * 8);
      uint64_t Mag = toBits(P.D);
      if constexpr (std::is_signed_v<T>)
        Mag = static_cast<uint64_t>(P.D < 0 ? -static_cast<int64_t>(P.D)
                                            : static_cast<int64_t>(P.D));
      const int JitBits =
          std::strcmp(P.JB.backend(), "jit-avx512") == 0 ? 512 : 256;
      const arch::BatchCost S =
          arch::estimateBatchCost(W, Host, std::max(W, staticVectorBits(W)));
      const arch::BatchCost J =
          arch::estimateJitBatchCost(W, Host, JitBits, Mag);
      const double PS = S.SetupCycles + S.VectorCyclesPerElement * N;
      const double PJ = J.SetupCycles + J.VectorCyclesPerElement * N;
      const bool Match = (PJ < PS) == (JitNs < StaticNs);
      PerLane &L = Lanes[static_cast<int>(R.Divs[I].L)];
      L.Predicted.push_back(PS / PJ);
      L.Measured.push_back(StaticNs / JitNs);
      L.Agree += Match;
      Agree += Match;
      ++Pairs;
    });
  }
  Metrics["arch.jit_winner_agree"] =
      Pairs ? static_cast<double>(Agree) / Pairs : 0;
  std::string Out = format(
      "host Table 1.1 row: %s, %d-bit: MULUH %.2f, DIV %.2f, add %.2f ticks "
      "(DIV/MULUH %.1f)\n"
      "cost models vs measurement, static batch vs jitted loop, %zu-lane "
      "divide:\n  %-5s %6s %18s %18s %8s\n",
      Host.Name.c_str(), Host.WordBits, Ticks.MulHi, Ticks.Div, Ticks.Add,
      Ticks.Div / Ticks.MulHi, N, "lane", "pairs", "predicted speedup",
      "measured speedup", "agree");
  for (Lane L : {Lane::U32, Lane::U64, Lane::I32, Lane::I64}) {
    const PerLane &P = Lanes[static_cast<int>(L)];
    if (P.Measured.empty())
      continue;
    Out += format("  %-5s %6zu %17.2fx %17.2fx %7zu\n", laneName(L),
                  P.Measured.size(), median(P.Predicted), median(P.Measured),
                  P.Agree);
  }
  Out += format("  arch.jit_winner_agree = %zu/%zu\n", Agree, Pairs);
  return Out;
}

} // namespace

HostTicks measureHostTicks() {
  uint64_t K = 0x9e3779b97f4a7c15ULL, D = 12345;
  asm volatile("" : "+r"(K), "+r"(D)); // runtime values: no folding
  HostTicks T;
  T.Add = ticksPerStep([K](uint64_t X) { return X + K; });
  const double MulOr = ticksPerStep([K](uint64_t X) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(X | 1) * K) >> 64);
  });
  const double DivOr =
      ticksPerStep([D](uint64_t X) { return (X | (uint64_t{1} << 63)) / D; });
  // Each step of the MULUH and DIV chains carries one OR as well.
  T.MulHi = MulOr - T.Add;
  T.Div = DivOr - T.Add;
  return T;
}

LayerBench::LayerBench(Inputs &In, System &Sys, double BudgetSeconds,
                       uint64_t Seed)
    : R(std::make_unique<Replay>(In, Sys, BudgetSeconds, Seed)), Seed(Seed) {}

LayerBench::~LayerBench() = default;

std::string LayerBench::ledger(double E2eNsPerUnit) {
  return ledgerText(*R, R->In.K, E2eNsPerUnit);
}

std::string LayerBench::probes(const HostTicks &Ticks,
                               std::map<std::string, double> &Metrics) {
  Inputs &In = R->In;
  System &Sys = R->Sys;
  const double BudgetSeconds = R->budgetSeconds();
  auto add = [&](const char *Name, double Value) { Metrics[Name] = Value; };
  add("entry.array_ns_per_elem", R->measure(Layer::Entry, R->Long).PerElem);
  add("entry.short_call_ns", R->measure(Layer::Entry, R->Short).PerReq);
  add("entry.scalar_ns", R->measure(Layer::EntryScalar, R->Scalar).PerReq);
  add("batch.ns_per_elem", R->measure(Layer::Batch, R->Long).PerElem);
  add("batch.short_call_ns", R->measure(Layer::Batch, R->Short).PerReq);
  add("jit.vector_ns_per_elem", R->measure(Layer::JitBatch, R->Long).PerElem);
  add("jit.vector_short_call_ns", R->measure(Layer::JitBatch, R->Short).PerReq);
  add("jit.scalar_ns", R->measure(Layer::JitScalar, R->Scalar).PerReq);
  add("core.scalar_ns", R->measure(Layer::Core, R->Scalar).PerReq);
  add("ref.hwdiv_ns", R->measure(Layer::Hardware, R->Scalar).PerReq);
  add("ref.hwdiv_ns_per_elem", R->measure(Layer::Hardware, R->Long).PerElem);
  add("registry.withentry_ns",
      R->measure(Layer::WithEntryTrivial, R->Scalar).PerReq);
  add("registry.acquire_hit_ns",
      R->measure(Layer::AcquireHit, R->Scalar).PerReq);

  // Precompute: core divider construction over the workload's divisors.
  {
    std::vector<double> Ns;
    const uint64_t Deadline =
        nowNs() + static_cast<uint64_t>(BudgetSeconds * 1e9);
    while (Ns.size() < 3 || (Ns.size() < 1000 && nowNs() < Deadline)) {
      const uint64_t T0 = nowNs();
      for (const Divisor &D : In.Divs)
        withLane(D.L, [&]<typename T>() {
          using Core = typename Prepared<T>::Core;
          const Core C(fromBits<T>(D.Bits));
          Sink = Sink + toBits(C.magic());
        });
      Ns.push_back(static_cast<double>(nowNs() - T0) /
                   static_cast<double>(In.Divs.size()));
    }
    add("core.precompute_ns", *std::min_element(Ns.begin(), Ns.end()));
  }

  std::string Text = archAgreement(*R, Ticks, Metrics);

  // One-time costs on never-seen divisors of the workload's lane types.
  const std::vector<Lane> Lanes = lanesOf(In.Divs);
  Rng Fresh(Seed ^ 0x70726f6265000000ULL);
  const std::vector<double> BuildUs =
      freshProbe(Fresh, Lanes, 200, [](const Divisor &D) {
        return service::makeDividerEntry(keyOf(D), true) != nullptr;
      });
  const std::vector<double> BuildNoJitUs =
      freshProbe(Fresh, Lanes, 200, [](const Divisor &D) {
        return service::makeDividerEntry(keyOf(D), false) != nullptr;
      });
  jit::CodeCache ProbeCache(16, 256);
  const std::vector<double> ScalarCompileUs =
      freshProbe(Fresh, Lanes, 200, [&](const Divisor &D) {
        return withLane(D.L, [&]<typename T>() {
          return jit::JitDivider<T>(fromBits<T>(D.Bits), ProbeCache).usesJit();
        });
      });
  const std::vector<double> VectorCompileUs =
      freshProbe(Fresh, Lanes, 200, [&](const Divisor &D) {
        return withLane(D.L, [&]<typename T>() {
          return jit::JitBatchDivider<T>(fromBits<T>(D.Bits), ProbeCache)
              .usesJit();
        });
      });
  add("entry.build_us", median(BuildUs));
  add("entry.build_nojit_us", median(BuildNoJitUs));
  add("jit.scalar_compile_us", median(ScalarCompileUs));
  add("jit.vector_compile_us", median(VectorCompileUs));

  // Last, since at capacity (churn) admissions evict: acquire() of keys
  // that lookup() reports absent.
  std::vector<double> AdmitUs;
  for (size_t I = 0; I < 1000; ++I) {
    const Lane L = Lanes[I % Lanes.size()];
    const service::Key K = keyOf({L, randomDivisor(Fresh, L)});
    if (Sys.Reg->lookup(K))
      continue;
    const uint64_t T0 = nowNs();
    if (Sys.Reg->acquire(K))
      AdmitUs.push_back(static_cast<double>(nowNs() - T0) / 1e3);
  }
  add("registry.admit_us_p50", quantile(AdmitUs, 0.50));
  add("registry.admit_us_p99", quantile(AdmitUs, 0.99));
  return Text;
}

} // namespace e2e
