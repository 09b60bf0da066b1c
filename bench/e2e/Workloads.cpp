//===- bench/e2e/Workloads.cpp - The four e2e workloads -------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <unistd.h>

#include <span>

namespace e2e {

using namespace gmdiv;

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Bulk:
    return "bulk";
  case Kind::ShortJobs:
    return "short_jobs";
  case Kind::Route:
    return "route";
  case Kind::Churn:
    break;
  }
  return "churn";
}

std::optional<Kind> kindFromName(const std::string &Name) {
  for (Kind K : {Kind::Bulk, Kind::ShortJobs, Kind::Route, Kind::Churn})
    if (Name == kindName(K))
      return K;
  return std::nullopt;
}

service::Key keyOf(const Divisor &D) {
  return withLane(D.L, [&]<typename T>() {
    return service::keyFor<T>(fromBits<T>(D.Bits));
  });
}

size_t workerCount() {
  const long N = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<size_t>(std::clamp<long>(N - 1, 1, 2));
}

service::DividerRegistry::Options registryOptions(Kind K) {
  service::DividerRegistry::Options O{};
  if (K == Kind::Churn)
    O.ShardCapacity = 64; // 16 x 64: admissions evict at steady state
  return O;
}

service::BatchService::Options serviceOptions() {
  service::BatchService::Options O{};
  O.Workers = workerCount();
  return O;
}

bool setUp(const Inputs &In, System &Sys) {
  Sys.Reg = std::make_unique<service::DividerRegistry>(registryOptions(In.K));
  if (usesService(In.K))
    Sys.Svc =
        std::make_unique<service::BatchService>(*Sys.Reg, serviceOptions());
  for (const service::Key &K : In.Keys)
    if (!Sys.Reg->acquire(K))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

namespace {

uint64_t mulMod(uint64_t A, uint64_t B, uint64_t M) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(A) * B % M);
}

/// Deterministic Miller-Rabin for 64-bit candidates.
bool isPrime(uint64_t N) {
  if (N < 2)
    return false;
  for (uint64_t P : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37})
    if (N % P == 0)
      return N == P;
  uint64_t D = N - 1;
  int S = 0;
  for (; D % 2 == 0; D /= 2)
    ++S;
  for (uint64_t A : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
    uint64_t X = 1, B = A, E = D;
    for (; E; E >>= 1, B = mulMod(B, B, N))
      if (E & 1)
        X = mulMod(X, B, N);
    if (X == 1 || X == N - 1)
      continue;
    bool Composite = true;
    for (int I = 1; I < S && Composite; ++I) {
      X = mulMod(X, X, N);
      Composite = X != N - 1;
    }
    if (Composite)
      return false;
  }
  return true;
}

/// A prime bucket count with a bit length uniform in [MinBits, MaxBits].
uint64_t randomPrime(Rng &R, int MinBits, int MaxBits) {
  for (;;) {
    const uint64_t Span = static_cast<uint64_t>(MaxBits - MinBits + 1);
    const int Bits = MinBits + static_cast<int>(R.below(Span));
    const uint64_t Top = uint64_t{1} << (Bits - 1);
    for (uint64_t C = (Top | R.below(Top)) | 1; C < 2 * Top; C += 2)
      if (isPrime(C))
        return C;
  }
}

Pools makePools(Rng &R) {
  Pools P;
  P.U64.resize(Pools::Lanes);
  for (uint64_t &V : P.U64)
    V = R.next();
  for (uint64_t V : P.U64) {
    P.U32.push_back(static_cast<uint32_t>(V));
    P.I32.push_back(static_cast<int32_t>(static_cast<uint32_t>(V)));
    P.I64.push_back(static_cast<int64_t>(V));
  }
  return P;
}

Request arrayRequest(Rng &R, Lane L, uint32_t Div, Op O, uint32_t Count) {
  Request Q;
  Q.L = L;
  Q.O = O;
  Q.Div = Div;
  Q.Count = Count;
  Q.Offset = static_cast<uint32_t>(R.below(Pools::Lanes - Count + 1));
  return Q;
}

constexpr Lane ServiceLanes[] = {Lane::U32, Lane::U64, Lane::I32, Lane::I64};

} // namespace

Inputs makeInputs(Kind K, uint64_t Seed) {
  Rng Root(Seed);
  Rng R(Root.next() ^ (static_cast<uint64_t>(K) + 1) * 0xd1b54a32d192ed03ULL);
  Inputs In;
  In.K = K;
  In.Pool = makePools(R);
  switch (K) {
  case Kind::Bulk:
  case Kind::ShortJobs: {
    // 64 hot divisors per lane type, all resident after set-up.
    constexpr uint32_t PerLane = 64;
    for (Lane L : ServiceLanes)
      for (uint32_t I = 0; I < PerLane; ++I)
        In.Divs.push_back({L, randomDivisor(R, L)});
    const size_t Jobs = K == Kind::Bulk ? 4096 : 65536;
    for (size_t J = 0; J < Jobs; ++J) {
      const uint32_t LaneIdx = static_cast<uint32_t>(R.below(4));
      const uint32_t Div =
          LaneIdx * PerLane + static_cast<uint32_t>(R.below(PerLane));
      const Op O = static_cast<Op>(R.below(3));
      const uint32_t Count =
          K == Kind::Bulk ? 16384 : 1 + static_cast<uint32_t>(R.below(64));
      In.Stream.push_back(
          arrayRequest(R, ServiceLanes[LaneIdx], Div, O, Count));
    }
    break;
  }
  case Kind::Route: {
    // 1024 tenants with prime bucket counts, half u32 and half u64, in
    // a seeded order; messages pick tenants Zipf(1.0) by that order.
    constexpr size_t Tenants = 1024;
    for (size_t I = 0; I < Tenants; ++I) {
      const bool Wide = I % 2;
      In.Divs.push_back({Wide ? Lane::U64 : Lane::U32,
                         Wide ? randomPrime(R, 16, 48)
                              : randomPrime(R, 10, 32)});
    }
    for (size_t I = Tenants - 1; I > 0; --I)
      std::swap(In.Divs[I], In.Divs[R.below(I + 1)]);
    std::vector<double> Cdf(Tenants);
    double Sum = 0;
    for (size_t I = 0; I < Tenants; ++I)
      Cdf[I] = Sum += 1.0 / static_cast<double>(I + 1);
    for (size_t M = 0; M < (size_t{1} << 18); ++M) {
      const double U = R.unit() * Sum;
      const size_t Rank = std::min<size_t>(
          static_cast<size_t>(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                              Cdf.begin()),
          Tenants - 1);
      Request Q;
      Q.Div = static_cast<uint32_t>(Rank);
      Q.L = In.Divs[Rank].L;
      Q.O = Op::Rem;
      Q.Offset = static_cast<uint32_t>(R.below(Pools::Lanes));
      In.Stream.push_back(Q);
    }
    break;
  }
  case Kind::Churn: {
    // 512 hot u64 divisors take 90% of requests; the rest bring a
    // divisor never seen before, so admissions run beside reads.
    constexpr uint32_t Hot = 512;
    for (uint32_t I = 0; I < Hot; ++I)
      In.Divs.push_back({Lane::U64, randomDivisor(R, Lane::U64)});
    for (size_t J = 0; J < 65536; ++J) {
      Request Q = arrayRequest(
          R, Lane::U64, static_cast<uint32_t>(R.below(Hot)), Op::Rem, 256);
      Q.Fresh = R.below(10) == 0;
      In.Stream.push_back(Q);
    }
    In.Fresh = Rng(R.next());
    break;
  }
  }
  for (const Divisor &D : In.Divs)
    In.Keys.push_back(keyOf(D));
  return In;
}

std::vector<Request> serviceShape(const Inputs &In) {
  if (!perMessage(In.K))
    return In.Stream;
  std::vector<Request> Out;
  for (size_t I = 0; I + Block <= In.Stream.size(); I += Block) {
    Request Q = In.Stream[I];
    Q.Count = Block;
    Q.Offset = std::min<uint32_t>(Q.Offset, Pools::Lanes - Block);
    Out.push_back(Q);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Timed phases
//===----------------------------------------------------------------------===//

namespace {

uint64_t secondsToNs(double S) { return static_cast<uint64_t>(S * 1e9); }

/// Phase clock and accounting shared by the three loops: warm-up, then
/// Seconds of recorded windows.
struct Phase {
  uint64_t Begin, RecordStart, End;
  uint64_t Check0;
  Windows W;
  PhaseResult P;

  Phase(const PhaseOptions &O, const Checker &Chk)
      : Begin(nowNs()), RecordStart(Begin + secondsToNs(O.WarmupSeconds)),
        End(RecordStart + secondsToNs(O.Seconds)), Check0(Chk.checkNs()),
        W(RecordStart) {}

  PhaseResult finish(uint64_t Now, const Checker &Chk) {
    W.finish(Now);
    P.W = W.summary();
    P.WallS = static_cast<double>(Now - Begin) * 1e-9;
    P.CheckS = static_cast<double>(Chk.checkNs() - Check0) * 1e-9;
    return P;
  }
};

size_t maxCount(const std::vector<Request> &S) {
  size_t N = 1;
  for (const Request &R : S)
    N = std::max<size_t>(N, R.Count);
  return N;
}

} // namespace

PhaseResult Driver::run(const std::vector<Request> &Stream,
                        const PhaseOptions &Opts) {
  if (Sys.Svc)
    return runService(Stream, Opts);
  return perMessage(In.K) ? runRoute(Stream, Opts) : runChurn(Stream, Opts);
}

bool Driver::sample(const PhaseOptions &O, uint64_t Id, size_t Spans) {
  return O.Spans && Id % O.SampleStride == 0 && O.Spans->reserve(Spans);
}

PhaseResult Driver::runService(const std::vector<Request> &S,
                               const PhaseOptions &O) {
  service::BatchService &Svc = *Sys.Svc;
  struct Slot {
    const Request *R = nullptr;
    uint64_t Bits = 0, Id = 0, T0 = 0, SubmitNs = 0;
    int32_t Root = -1;
    std::future<service::BatchResult> F;
    Buffer Out0, Out1;
  };
  std::vector<Slot> Slots(Window);
  for (Slot &Sl : Slots)
    Sl.Out0 = Sl.Out1 = Buffer(maxCount(S));
  Phase Ph(O, Chk);

  auto submit = [&](Slot &Sl, uint32_t SlotIdx) {
    const Request &R = S[Cursor];
    Cursor = (Cursor + 1) % S.size();
    Sl.R = &R;
    Sl.Id = NextId++;
    Sl.Bits = R.Fresh ? randomDivisor(In.Fresh, R.L) : In.Divs[R.Div].Bits;
    const bool Sampled = sample(O, Sl.Id, 4);
    Sl.T0 = nowNs();
    withLane(R.L, [&]<typename T>() {
      const T D = fromBits<T>(Sl.Bits);
      const std::span<const T> Src(In.Pool.get<T>() + R.Offset, R.Count);
      const std::span<T> A(Sl.Out0.template as<T>(), R.Count);
      const std::span<T> B(Sl.Out1.template as<T>(), R.Count);
      switch (R.O) {
      case Op::Div:
        Sl.F = Svc.submitDivide<T>(D, Src, A);
        break;
      case Op::Rem:
        Sl.F = Svc.submitRemainder<T>(D, Src, A);
        break;
      case Op::DivRem:
        Sl.F = Svc.submitDivRem<T>(D, Src, A, B);
        break;
      }
    });
    const uint64_t T1 = nowNs();
    Sl.SubmitNs = T1 - Sl.T0;
    Sl.Root = -1;
    if (Sampled) {
      Sl.Root = O.Spans->open("request", Sl.Id, -1, 2 + SlotIdx, Sl.T0);
      O.Spans->add("submit", Sl.Id, Sl.Root, 1, Sl.T0, T1);
    }
  };

  auto complete = [&](Slot &Sl, bool Record) {
    const uint64_t W0 = nowNs();
    service::BatchResult Res;
    bool Ok = true;
    try {
      Res = Sl.F.get();
    } catch (const std::exception &) {
      Ok = false;
    }
    const uint64_t Done = nowNs();
    const Request &R = *Sl.R;
    if (Ok)
      Ok = withLane(R.L, [&]<typename T>() {
        return Chk.check<T>(R.O, fromBits<T>(Sl.Bits),
                            In.Pool.get<T>() + R.Offset,
                            Sl.Out0.template as<T>(), Sl.Out1.template as<T>(),
                            R.Count, Checker::fullCheck(Sl.Id));
      });
    const uint64_t Checked = nowNs();
    Chk.addNs(Checked - Done);
    ++Ph.P.Attempted;
    Ph.P.Failed += Ok ? 0 : 1;
    if (Sl.Root >= 0) {
      O.Spans->add("wait", Sl.Id, Sl.Root, 1, W0, Done);
      O.Spans->add("check", Sl.Id, Sl.Root, 1, Done, Checked);
      O.Spans->close(Sl.Root, Checked);
    }
    if (!Record || Done < Ph.RecordStart)
      return;
    const uint64_t Latency = Done - Sl.T0;
    Ph.W.add(Done, static_cast<double>(Latency), 1, R.Count);
    if (ServiceSamples *SS = O.Service) {
      SS->SubmitUs.push_back(static_cast<double>(Sl.SubmitNs) / 1e3);
      SS->JobUs.push_back(static_cast<double>(Res.JobNs) / 1e3);
      SS->HandoffUs.push_back(
          static_cast<double>(Latency - std::min(Res.JobNs, Latency)) / 1e3);
      SS->JobNsSum += Res.JobNs;
    }
  };

  for (uint32_t I = 0; I < Window; ++I)
    submit(Slots[I], I);
  uint32_t Next = 0;
  uint64_t Now = 0;
  for (;;) {
    complete(Slots[Next], true);
    Now = nowNs();
    const bool Stop = Now >= Ph.End;
    if (!Stop)
      submit(Slots[Next], Next);
    Next = (Next + 1) % Window;
    if (Stop)
      break;
  }
  // The other jobs still in flight: checked and counted, not timed.
  for (uint32_t K = 0; K + 1 < Window; ++K)
    complete(Slots[(Next + K) % Window], false);

  if (O.Service)
    O.Service->WallS = static_cast<double>(Now - Ph.RecordStart) * 1e-9;
  return Ph.finish(Now, Chk);
}

PhaseResult Driver::runRoute(const std::vector<Request> &S,
                             const PhaseOptions &O) {
  service::DividerRegistry &Reg = *Sys.Reg;
  const uint64_t *Hash = In.Pool.U64.data();
  const service::Key *Keys = In.Keys.data();
  uint64_t Out[Block];
  Phase Ph(O, Chk);
  uint64_t Now = 0;
  for (uint64_t BlockSeq = 0;; ++BlockSeq) {
    if (Cursor + Block > S.size())
      Cursor = 0;
    const Request *B = S.data() + Cursor;
    Cursor += Block;
    uint64_t Misses = 0;
    const uint64_t T0 = nowNs();
    for (size_t J = 0; J < Block; ++J) {
      const Request &R = B[J];
      auto Body = [&](const service::DividerEntry &E) {
        Out[J] = E.remainderBits(Hash[R.Offset]);
      };
      const uint64_t Id = NextId++;
      if (!sample(O, Id, 3)) {
        Misses += Reg.withEntry(Keys[R.Div], Body) ? 0 : 1;
        continue;
      }
      const int32_t Root = O.Spans->open("message", Id, -1, 1, nowNs());
      const int32_t WE = O.Spans->open("withEntry", Id, Root, 1, nowNs());
      const bool Hit =
          Reg.withEntry(Keys[R.Div], [&](const service::DividerEntry &E) {
            const uint64_t E0 = nowNs();
            Body(E);
            O.Spans->add("entry", Id, WE, 1, E0, nowNs());
          });
      const uint64_t M1 = nowNs();
      O.Spans->close(WE, M1);
      O.Spans->close(Root, M1);
      Misses += Hit ? 0 : 1;
    }
    const uint64_t T1 = nowNs();

    const bool Full = Checker::fullCheck(BlockSeq);
    uint64_t Wrong = 0;
    for (size_t J = 0; J < Block; ++J) {
      if (!Full && J == 8)
        J = Block - 8;
      const Request &R = B[J];
      Wrong += withLane(R.L, [&]<typename T>() {
        const T N = fromBits<T>(Hash[R.Offset]);
        const T Got = fromBits<T>(Out[J]);
        return Chk.check<T>(Op::Rem, fromBits<T>(In.Divs[R.Div].Bits), &N,
                            &Got, nullptr, 1, true);
      }) ? 0 : 1;
    }
    Now = nowNs();
    Chk.addNs(Now - T1);
    Ph.P.Attempted += Block;
    // A miss leaves a stale output that the check may not reach.
    Ph.P.Failed += std::max(Misses, Wrong);
    Ph.W.add(T1, static_cast<double>(T1 - T0) / Block, Block, Block);
    if (T1 >= Ph.End)
      break;
  }
  return Ph.finish(Now, Chk);
}

PhaseResult Driver::runChurn(const std::vector<Request> &S,
                             const PhaseOptions &O) {
  service::DividerRegistry &Reg = *Sys.Reg;
  Buffer Out0(maxCount(S)), Out1(maxCount(S));
  Phase Ph(O, Chk);
  uint64_t Now = 0;
  for (;;) {
    const Request &R = S[Cursor];
    Cursor = (Cursor + 1) % S.size();
    const uint64_t Id = NextId++;
    const Divisor D =
        R.Fresh ? Divisor{R.L, randomDivisor(In.Fresh, R.L)} : In.Divs[R.Div];
    const service::Key K = R.Fresh ? keyOf(D) : In.Keys[R.Div];
    const bool Sampled = sample(O, Id, 4);

    const uint64_t T0 = nowNs();
    const service::DividerRegistry::EntryHandle E = Reg.acquire(K);
    const uint64_t T1 = nowNs();
    if (E)
      withLane(R.L, [&]<typename T>() {
        entryArray(*E, R.O, In.Pool.get<T>() + R.Offset, Out0.as<T>(),
                   Out1.as<T>(), R.Count);
      });
    const uint64_t T2 = nowNs();

    const bool Ok = E && withLane(R.L, [&]<typename T>() {
      return Chk.check<T>(R.O, fromBits<T>(D.Bits), In.Pool.get<T>() + R.Offset,
                          Out0.as<T>(), Out1.as<T>(), R.Count,
                          Checker::fullCheck(Id));
    });
    Now = nowNs();
    Chk.addNs(Now - T2);
    ++Ph.P.Attempted;
    Ph.P.Failed += Ok ? 0 : 1;
    if (Sampled) {
      const int32_t Root = O.Spans->open("request", Id, -1, 1, T0);
      O.Spans->add("acquire", Id, Root, 1, T0, T1);
      O.Spans->add("entry", Id, Root, 1, T1, T2);
      O.Spans->add("check", Id, Root, 1, T2, Now);
      O.Spans->close(Root, Now);
    }
    Ph.W.add(T2, static_cast<double>(T2 - T0), 1, R.Count);
    if (T2 >= Ph.End)
      break;
  }
  return Ph.finish(Now, Chk);
}

} // namespace e2e
