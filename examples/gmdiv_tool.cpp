//===- examples/gmdiv_tool.cpp - Multi-command driver ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// A compiler-driver-style utility exposing the whole pipeline:
//
//   gmdiv_tool magic <d> [width]         CHOOSE_MULTIPLIER outputs plus
//                                        the §9 inverse, libdivide-style.
//   gmdiv_tool codegen <d> [width] [u|s|floor|exact|alverson]
//                                        print the generated IR.
//   gmdiv_tool asm <d> [width] [mips|sparc|alpha|power]
//                                        select + allocate + emit
//                                        target assembly.
//   gmdiv_tool lower                     read IR with divu/divs/remu/rems
//                                        from stdin, run the §10 pass,
//                                        print the result.
//   gmdiv_tool batch <d> [width] [u|s] [count]
//                                        batch/SIMD kernels: backend
//                                        dispatch report, self-check
//                                        against Divider.h, throughput
//                                        compare, break-even table.
//   gmdiv_tool verify [--seconds S] [--seed X] [--full]
//                                        differential verification: the
//                                        exhaustive parameterized-N
//                                        sweeps, then the boundary-
//                                        biased fuzzer for the rest of
//                                        the budget; JSON summary on
//                                        stdout, exit 1 on mismatch.
//   gmdiv_tool verify --replay <repro>   re-run one gmdiv:v1 repro.
//   gmdiv_tool bench-diff <old.json> <new.json> [--threshold F] [--json]
//                                        compare two gmdiv-bench-v2
//                                        reports; exit 1 when any
//                                        benchmark regressed beyond
//                                        threshold + noise.
//   gmdiv_tool metrics [prom|json] [--exercise]
//                                        one-shot metrics snapshot in
//                                        Prometheus text 0.0.4 (default)
//                                        or JSON; --exercise runs a tiny
//                                        batch workload first so the
//                                        instruments have data.
//   gmdiv_tool top [--keys K] [--ops N]  drive a skewed synthetic
//                                        workload through the divider
//                                        registry, then print its
//                                        hottest resident keys by heat
//                                        as a ranked table, cross-
//                                        referenced against its
//                                        eviction counter.
//   gmdiv_tool service [--threads N] [--keys K] [--ops M]
//                      [--seconds S] [--batch B] [--workers W]
//                                        hammer the divider registry
//                                        from N threads over K mixed
//                                        keys (M ops/thread, or until S
//                                        seconds elapse), self-checking
//                                        against hardware division,
//                                        then push B batch jobs through
//                                        the async front door; prints
//                                        an ops/s line (--stats adds
//                                        the registry's metrics), exit
//                                        1 on any mismatch.
//
// Global telemetry flags (usable with any command; all write stderr so
// stdout stays a clean IR/assembly listing):
//
//   --remarks=json|text   stream one remark per generated sequence.
//   --stats               print the metrics snapshot (every counter,
//                         gauge and histogram) as one JSON line after
//                         the command finishes.
//   --trace=FILE          record tracing spans and write a Chrome
//                         trace-event JSON file on exit (load it in
//                         Perfetto or about:tracing).
//   --metrics=FILE        write a metrics snapshot on exit (format by
//                         extension: .json = JSON, else Prometheus).
//   --profile=FILE        arm the SIGPROF sampling profiler for the
//                         whole command (rate from GMDIV_PROF=<hz>,
//                         default 97 Hz) and write collapsed stacks on
//                         exit.
//
//===----------------------------------------------------------------------===//

#include "arch/Arch.h"
#include "arch/CostModel.h"
#include "arch/Target.h"
#include "batch/BatchDivider.h"
#include "codegen/DivCodeGen.h"
#include "core/Divider.h"
#include "codegen/DivisionLowering.h"
#include "core/ChooseMultiplier.h"
#include "numtheory/ModArith.h"
#include "ir/AsmPrinter.h"
#include "ir/Parser.h"
#include "metrics/Exporter.h"
#include "metrics/Exposition.h"
#include "metrics/FlightRecorder.h"
#include "metrics/Metrics.h"
#include "ops/Bits.h"
#include "prof/Profiler.h"
#include "service/BatchService.h"
#include "service/Registry.h"
#include "telemetry/BenchReport.h"
#include "telemetry/Json.h"
#include "telemetry/Remarks.h"
#include "trace/HwCounters.h"
#include "trace/Trace.h"
#include "verify/Fuzzer.h"
#include "verify/Verify.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace gmdiv;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s magic <d> [8|16|32|64]\n"
               "  %s codegen <d> [8|16|32|64] [u|s|floor|exact|alverson]\n"
               "  %s asm <d> [32|64] [mips|sparc|alpha|power]\n"
               "  %s lower [width] [numargs]   (IR on stdin)\n"
               "  %s batch <d> [8|16|32|64] [u|s] [count]\n"
               "  %s verify [--seconds S] [--seed X] [--full]\n"
               "  %s verify --replay <repro-string>\n"
               "  %s bench-diff <old.json> <new.json> [--threshold F] "
               "[--json]\n"
               "  %s metrics [prom|json] [--exercise]\n"
               "  %s service [--threads N] [--keys K] [--ops M] "
               "[--seconds S] [--batch B] [--workers W]\n"
               "  %s top [--keys K] [--ops N]\n"
               "global flags (telemetry, on stderr):\n"
               "  --remarks=json|text   one remark per generated sequence\n"
               "  --stats               metrics snapshot as one JSON line\n"
               "  --trace=FILE          write a Chrome trace-event JSON "
               "file\n"
               "  --metrics=FILE        write a metrics snapshot on exit "
               "(.json = JSON, else Prometheus)\n"
               "  --profile=FILE        sampling profiler on; write "
               "collapsed stacks on exit\n",
               Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0,
               Argv0, Argv0, Argv0);
  return 1;
}

template <typename UWord> void printMagic(UWord D) {
  constexpr int Bits = WordTraits<UWord>::Bits;
  const MultiplierInfo<UWord> Unsigned = chooseMultiplier<UWord>(D, Bits);
  std::printf("CHOOSE_MULTIPLIER(%llu, %d)   [unsigned]:\n",
              static_cast<unsigned long long>(D), Bits);
  if constexpr (Bits == 64)
    std::printf("  m = %s%s\n", Unsigned.Multiplier.toString().c_str(),
                Unsigned.fitsInWord() ? "" : "  (>= 2^N: long sequence)");
  else
    std::printf("  m = %llu%s\n",
                static_cast<unsigned long long>(Unsigned.Multiplier),
                Unsigned.fitsInWord() ? "" : "  (>= 2^N: long sequence)");
  std::printf("  sh_post = %d, l = %d\n", Unsigned.ShiftPost,
              Unsigned.Log2Ceil);

  const MultiplierInfo<UWord> Signed = chooseMultiplier<UWord>(D, Bits - 1);
  std::printf("CHOOSE_MULTIPLIER(%llu, %d)   [signed]:\n",
              static_cast<unsigned long long>(D), Bits - 1);
  if constexpr (Bits == 64)
    std::printf("  m = %s, sh_post = %d\n",
                Signed.Multiplier.toString().c_str(), Signed.ShiftPost);
  else
    std::printf("  m = %llu, sh_post = %d\n",
                static_cast<unsigned long long>(Signed.Multiplier),
                Signed.ShiftPost);

  const int E = countTrailingZeros(D);
  const UWord DOdd = static_cast<UWord>(D >> E);
  if (DOdd > 1) {
    std::printf("exact-division inverse (§9): d = 2^%d * %llu, "
                "d_inv = 0x%llx\n",
                E, static_cast<unsigned long long>(DOdd),
                static_cast<unsigned long long>(modInverseNewton(DOdd)));
  } else {
    std::printf("d is a power of two: divisibility is a mask test\n");
  }
}

/// The `batch` command body for one lane type: dispatch report,
/// self-check of every available backend against the per-element
/// dividers, a throughput comparison on the active backend, and the
/// cost-model break-even table. Returns nonzero on any mismatch.
template <typename T> int runBatch(T D, size_t Count) {
  using batch::Backend;
  std::printf("compiled backends:");
  for (Backend B : batch::compiledBackends())
    std::printf(" %s%s", batch::backendName(B),
                batch::backendAvailable(B) ? ""
                                           : " (unsupported by this CPU)");
  std::printf("\nactive backend:   %s\n",
              batch::backendName(batch::activeBackend()));

  const batch::BatchDivider<T> Div(D);
  std::printf("%s\n\n", Div.describe().c_str());

  // Self-check: every available backend against Divider.h, on a buffer
  // size that forces the SIMD kernels through their scalar tails.
  using Ref = std::conditional_t<std::is_signed_v<T>, SignedDivider<T>,
                                 UnsignedDivider<T>>;
  const Ref Scalar(D);
  std::vector<T> In(Count), Quot(Count), Rem(Count);
  uint64_t State = 0x2545F4914F6CDD1Dull;
  for (T &Value : In) {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    Value = static_cast<T>(State);
  }
  int Mismatches = 0;
  for (Backend B : batch::compiledBackends()) {
    if (!batch::backendAvailable(B))
      continue;
    const batch::BatchDivider<T> Pinned(D, B);
    Pinned.divRem(In.data(), Quot.data(), Rem.data(), Count);
    for (size_t I = 0; I < Count; ++I)
      if (Quot[I] != Scalar.divide(In[I]) ||
          Rem[I] != Scalar.remainder(In[I]))
        ++Mismatches;
    std::printf("%-6s divRem over %zu elements: %s\n",
                batch::backendName(B), Count,
                Mismatches ? "MISMATCH" : "matches Divider.h");
  }

  // Throughput: the active backend's array call against the same work
  // done through the per-element divider.
  using Clock = std::chrono::steady_clock;
  const auto MePerSec = [&](auto &&Body) {
    size_t Reps = 1;
    for (;;) {
      const auto Start = Clock::now();
      for (size_t R = 0; R < Reps; ++R)
        Body();
      const double Sec =
          std::chrono::duration<double>(Clock::now() - Start).count();
      if (Sec >= 0.01)
        return static_cast<double>(Count) * static_cast<double>(Reps) /
               Sec / 1e6;
      Reps *= 8;
    }
  };
  const double ScalarMeps = MePerSec([&] {
    for (size_t I = 0; I < Count; ++I)
      Quot[I] = Scalar.divide(In[I]);
  });
  const double BatchMeps =
      MePerSec([&] { Div.divide(In.data(), Quot.data(), Count); });
  std::printf("\nthroughput at batch %zu: divider loop %.0f Me/s, "
              "%s batch %.0f Me/s (%.2fx)\n",
              Count, ScalarMeps, batch::backendName(Div.backend()),
              BatchMeps, ScalarMeps > 0 ? BatchMeps / ScalarMeps : 0.0);

  // Paper-style break-even prediction per Table 11 profile.
  constexpr int Bits = static_cast<int>(sizeof(T) * 8);
  std::printf("\ncost-model break-even (%d-bit lanes, 128/256-bit "
              "vectors):\n",
              Bits);
  for (const arch::ArchProfile &Profile : arch::table11Profiles()) {
    const arch::BatchCost V128 = arch::estimateBatchCost(Bits, Profile, 128);
    const arch::BatchCost V256 = arch::estimateBatchCost(Bits, Profile, 256);
    std::printf("  %-18s 128b: %.2fx, break-even %zu; "
                "256b: %.2fx, break-even %zu\n",
                Profile.Name.c_str(), V128.speedup(), V128.breakEvenBatch(),
                V256.speedup(), V256.breakEvenBatch());
  }
  return Mismatches ? 1 : 0;
}

/// A tiny deterministic workload for `metrics --exercise`: a few batch
/// kernel calls straddling the break-even hint, so a fresh process
/// produces a snapshot with live series.
void exerciseMetrics() {
  batch::BatchDivider<uint32_t> Div(7);
  std::vector<uint32_t> In(64), Out(64);
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = static_cast<uint32_t>(I * 2654435761u);
  Div.divide(In.data(), Out.data(), In.size());
  Div.remainder(In.data(), Out.data(), 4); // Below the break-even hint.
}

/// Checks divide and remainder of a u32, u64 or i32 entry against
/// hardware / and % on the dividend \p NBits (truncated to the width).
/// The hammer's divisors are positive, so INT_MIN / -1 cannot occur.
bool entryMatchesHardware(const service::DividerEntry &E, uint64_t NBits) {
  const uint64_t Q = E.divideBits(NBits), R = E.remainderBits(NBits);
  if (E.kind() == service::OpKind::Signed) {
    const int32_t N = static_cast<int32_t>(NBits);
    const int32_t D = static_cast<int32_t>(E.divisorBits());
    return static_cast<int32_t>(Q) == N / D && static_cast<int32_t>(R) == N % D;
  }
  const uint64_t N = E.wordBits() == 64 ? NBits : static_cast<uint32_t>(NBits);
  return Q == N / E.divisorBits() && R == N % E.divisorBits();
}

/// The `service` command body: hammer the global registry from
/// \p Threads threads over \p KeyCount mixed-width keys, self-checking
/// sampled results against hardware division, then pipeline
/// \p BatchJobs array jobs through the async front door. Returns the
/// number of mismatches observed.
uint64_t hammerService(size_t Threads, size_t KeyCount, size_t OpsPerThread,
                       double Seconds, size_t BatchJobs, size_t Workers,
                       uint64_t &OpsOut, double &ElapsedSecOut) {
  service::DividerRegistry &Reg = service::DividerRegistry::global();
  std::atomic<uint64_t> Mismatches{0};
  const auto Start = std::chrono::steady_clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(Seconds));

  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      uint64_t Rng = 0x5eed + T;
      uint64_t Local = 0, Bad = 0;
      for (size_t I = 0;; ++I) {
        if (Seconds > 0) {
          if ((I & 1023) == 0 &&
              std::chrono::steady_clock::now() >= Deadline)
            break;
        } else if (I >= OpsPerThread) {
          break;
        }
        const uint64_t Mix = cache::mixBits(Rng += 0x9e3779b97f4a7c15ULL);
        const uint64_t D64 = 1 + (Mix % KeyCount);
        service::Key K;
        switch (I % 3) {
        case 0:
          K = service::keyFor<uint32_t>(static_cast<uint32_t>(D64));
          break;
        case 1:
          K = service::keyFor<uint64_t>(D64);
          break;
        default:
          K = service::keyFor<int32_t>(static_cast<int32_t>(D64));
          break;
        }
        if (I % 4 == 0) {
          const auto E = Reg.acquire(K);
          if (!E) {
            ++Bad;
            continue;
          }
          // Self-check against hardware division on a sampled op.
          if (I % 256 == 0 && !entryMatchesHardware(*E, Mix >> 1))
            ++Bad;
          Local += E->remainderBits(Mix);
        } else {
          if (!Reg.withEntry(K, [&](const service::DividerEntry &E) {
                Local += E.remainderBits(Mix);
              }))
            Reg.acquire(K);
        }
      }
      Mismatches.fetch_add(Bad);
      (void)Local;
    });
  }
  for (std::thread &W : Pool)
    W.join();
  // For deadline mode the per-thread loop count is not tracked
  // exactly; derive total ops from the registry counters instead
  // (every op performs exactly one counted lookup/acquire).
  const cache::CacheStats St = Reg.stats();
  OpsOut = St.Hits + St.Misses;

  // Batch front door: pipeline array jobs and spot-check the results.
  if (BatchJobs > 0) {
    service::BatchService::Options BOpts;
    BOpts.Workers = Workers;
    // Function-local static so the service (and the metrics collector
    // exportMetrics registers) outlives this command: the --metrics
    // snapshot is written at main exit and must still see the
    // gmdiv_service_batch_* families, queue_wait_ns included. First
    // touched after the metrics registry singleton, so it is destroyed
    // (workers joined, collector removed) before the registry goes.
    static std::optional<service::BatchService> SvcHolder;
    SvcHolder.emplace(Reg, BOpts);
    service::BatchService &Svc = *SvcHolder;
    Svc.exportMetrics("gmdiv_service_batch");
    constexpr size_t Lanes = 4096;
    std::vector<uint64_t> In(Lanes);
    for (size_t I = 0; I < Lanes; ++I)
      In[I] = cache::mixBits(I + 1);
    std::vector<std::vector<uint64_t>> Outs(BatchJobs);
    std::vector<std::future<service::BatchResult>> Futures;
    for (size_t J = 0; J < BatchJobs; ++J) {
      Outs[J].resize(Lanes);
      Futures.push_back(Svc.submitRemainder<uint64_t>(
          3 + (J % 61), std::span<const uint64_t>(In),
          std::span<uint64_t>(Outs[J])));
    }
    for (size_t J = 0; J < BatchJobs; ++J) {
      Futures[J].get();
      const uint64_t D = 3 + (J % 61);
      for (size_t I = 0; I < Lanes; I += 509)
        if (Outs[J][I] != In[I] % D)
          Mismatches.fetch_add(1);
    }
  }

  ElapsedSecOut =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Mismatches.load();
}

/// Command dispatch, after the global telemetry flags are stripped.
int runCommand(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  const std::string Command = Argv[1];

  if (Command == "magic") {
    if (Argc < 3)
      return usage(Argv[0]);
    const uint64_t D = std::strtoull(Argv[2], nullptr, 0);
    const int Width = Argc > 3 ? std::atoi(Argv[3]) : 32;
    if (D == 0)
      return usage(Argv[0]);
    switch (Width) {
    case 8:
      printMagic<uint8_t>(static_cast<uint8_t>(D));
      break;
    case 16:
      printMagic<uint16_t>(static_cast<uint16_t>(D));
      break;
    case 32:
      printMagic<uint32_t>(static_cast<uint32_t>(D));
      break;
    case 64:
      printMagic<uint64_t>(D);
      break;
    default:
      return usage(Argv[0]);
    }
    return 0;
  }

  if (Command == "codegen") {
    if (Argc < 3)
      return usage(Argv[0]);
    const int64_t D = std::strtoll(Argv[2], nullptr, 0);
    const int Width = Argc > 3 ? std::atoi(Argv[3]) : 32;
    const std::string Kind = Argc > 4 ? Argv[4] : "u";
    if (D == 0)
      return usage(Argv[0]);
    ir::Program P = [&] {
      if (Kind == "s")
        return codegen::genSignedDivRem(Width, D);
      if (Kind == "floor")
        return codegen::genFloorDivMod(Width, D);
      if (Kind == "exact")
        return codegen::genExactSignedDiv(Width, D);
      if (Kind == "alverson")
        return codegen::genUnsignedDivAlverson(
            Width, static_cast<uint64_t>(D));
      return codegen::genUnsignedDivRem(Width,
                                        static_cast<uint64_t>(D));
    }();
    std::printf("%s", ir::formatProgram(P).c_str());
    return 0;
  }

  if (Command == "asm") {
    if (Argc < 3)
      return usage(Argv[0]);
    const uint64_t D = std::strtoull(Argv[2], nullptr, 0);
    const int Width = Argc > 3 ? std::atoi(Argv[3]) : 32;
    const std::string TargetName = Argc > 4 ? Argv[4] : "mips";
    target::TargetKind Kind;
    if (TargetName == "mips")
      Kind = target::TargetKind::Mips;
    else if (TargetName == "sparc")
      Kind = target::TargetKind::Sparc;
    else if (TargetName == "alpha")
      Kind = target::TargetKind::Alpha;
    else if (TargetName == "power")
      Kind = target::TargetKind::Power;
    else
      return usage(Argv[0]);
    const int TargetBits = target::targetDesc(Kind).WordBits;
    codegen::GenOptions Options;
    if (Kind == target::TargetKind::Power)
      Options.MulHigh = codegen::MulHighCapability::SignedOnly;
    ir::Program P =
        Width < TargetBits
            ? codegen::genUnsignedDivRemWide(Width, TargetBits, D, Options)
            : codegen::genUnsignedDivRem(TargetBits, D, Options);
    target::MachineFunction MF = target::selectInstructions(P, Kind);
    target::allocateRegisters(MF);
    std::printf("%s", target::emitAssembly(MF).c_str());
    return 0;
  }

  if (Command == "batch") {
    if (Argc < 3)
      return usage(Argv[0]);
    const int64_t D = std::strtoll(Argv[2], nullptr, 0);
    const int Width = Argc > 3 ? std::atoi(Argv[3]) : 32;
    const std::string Kind = Argc > 4 ? Argv[4] : "u";
    const size_t Count =
        Argc > 5 ? std::strtoull(Argv[5], nullptr, 0) : 4099;
    if (D == 0 || Count == 0 || (Kind != "u" && Kind != "s") ||
        (Kind == "u" && D < 0))
      return usage(Argv[0]);
    switch (Width) {
    case 8:
      return Kind == "s" ? runBatch<int8_t>(static_cast<int8_t>(D), Count)
                         : runBatch<uint8_t>(static_cast<uint8_t>(D), Count);
    case 16:
      return Kind == "s"
                 ? runBatch<int16_t>(static_cast<int16_t>(D), Count)
                 : runBatch<uint16_t>(static_cast<uint16_t>(D), Count);
    case 32:
      return Kind == "s"
                 ? runBatch<int32_t>(static_cast<int32_t>(D), Count)
                 : runBatch<uint32_t>(static_cast<uint32_t>(D), Count);
    case 64:
      return Kind == "s"
                 ? runBatch<int64_t>(D, Count)
                 : runBatch<uint64_t>(static_cast<uint64_t>(D), Count);
    default:
      return usage(Argv[0]);
    }
  }

  if (Command == "verify") {
    double Seconds = 10.0;
    uint64_t Seed = 1;
    bool Full = false;
    const char *Replay = nullptr;
    for (int I = 2; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--seconds") == 0 && I + 1 < Argc)
        Seconds = std::atof(Argv[++I]);
      else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc)
        Seed = std::strtoull(Argv[++I], nullptr, 0);
      else if (std::strcmp(Argv[I], "--full") == 0)
        Full = true;
      else if (std::strcmp(Argv[I], "--replay") == 0 && I + 1 < Argc)
        Replay = Argv[++I];
      else
        return usage(Argv[0]);
    }

    if (Replay) {
      std::string Detail;
      const bool Passed = verify::replayRepro(Replay, &Detail);
      std::printf("%s\n", Detail.c_str());
      return Passed ? 0 : 1;
    }

    // Exhaustive sweeps ascending from N = 4: each width is a complete
    // proof over its state space, so run as many as half the budget
    // allows (N <= 8 always fits; N = 12 alone is ~15 s). --full runs
    // all of [4, 12] regardless of the clock.
    trace::HwCounters Hw;
    if (Hw.available())
      Hw.start();
    using Clock = std::chrono::steady_clock;
    const auto Start = Clock::now();
    const auto Elapsed = [&] {
      return std::chrono::duration<double>(Clock::now() - Start).count();
    };
    std::vector<verify::VerifyReport> Exhaustive;
    int TopWidth = 0;
    for (int Width = 4; Width <= 12; ++Width) {
      if (!Full && Width > 8 && Elapsed() > Seconds / 2)
        break;
      Exhaustive.push_back(verify::verifyWidth(Width));
      TopWidth = Width;
    }
    std::fprintf(stderr, "verify: exhaustive N=4..%d done (%.1fs)\n",
                 TopWidth, Elapsed());

    // The rest of the budget fuzzes the machine widths.
    verify::FuzzOptions Options;
    Options.Seed = Seed;
    Options.Seconds = Seconds > Elapsed() ? Seconds - Elapsed() : 0.5;
    const verify::FuzzReport Fuzz = verify::runFuzzer(Options);

    bool Clean = Fuzz.clean();
    uint64_t Checks = Fuzz.checks();
    for (const verify::VerifyReport &Report : Exhaustive) {
      Clean = Clean && Report.clean();
      Checks += Report.checks();
    }

    telemetry::json::Writer W;
    W.beginObject()
        .key("command")
        .value("verify")
        .key("seconds")
        .value(Elapsed())
        .key("seed")
        .value(Seed)
        .key("checks")
        .value(Checks)
        .key("clean")
        .value(Clean)
        .key("exhaustive")
        .beginArray();
    for (const verify::VerifyReport &Report : Exhaustive)
      verify::reportJsonInto(W, Report);
    W.endArray().key("fuzz");
    verify::fuzzJsonInto(W, Fuzz);
    W.key("hw_counters");
    if (Hw.available()) {
      const trace::CounterSample Sample = Hw.stop();
      W.beginObject()
          .key("cycles")
          .value(Sample.Cycles)
          .key("instructions")
          .value(Sample.Instructions)
          .key("branch_misses")
          .value(Sample.BranchMisses)
          .key("cache_misses")
          .value(Sample.CacheMisses)
          .key("ipc")
          .value(Sample.ipc())
          .endObject();
    } else {
      W.null();
    }
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    std::fprintf(stderr, "verify: %s (%llu checks, %.1fs)\n",
                 Clean ? "clean" : "MISMATCHES FOUND",
                 static_cast<unsigned long long>(Checks), Elapsed());
    if (!Clean)
      for (const std::string &Text : Fuzz.Failures)
        std::fprintf(stderr, "  replay: %s verify --replay '%s'\n", Argv[0],
                     Text.c_str());
    return Clean ? 0 : 1;
  }

  if (Command == "bench-diff") {
    double Threshold = 0.15;
    bool Json = false;
    std::vector<const char *> Paths;
    for (int I = 2; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--threshold") == 0 && I + 1 < Argc)
        Threshold = std::atof(Argv[++I]);
      else if (std::strcmp(Argv[I], "--json") == 0)
        Json = true;
      else if (Argv[I][0] == '-')
        return usage(Argv[0]);
      else
        Paths.push_back(Argv[I]);
    }
    if (Paths.size() != 2 || Threshold <= 0)
      return usage(Argv[0]);
    namespace tb = telemetry::bench;
    tb::BenchReport Old, New;
    std::string Error;
    if (!tb::readFile(Paths[0], Old, &Error)) {
      std::fprintf(stderr, "bench-diff: %s: %s\n", Paths[0], Error.c_str());
      return 2;
    }
    if (!tb::readFile(Paths[1], New, &Error)) {
      std::fprintf(stderr, "bench-diff: %s: %s\n", Paths[1], Error.c_str());
      return 2;
    }
    const tb::DiffReport Diff = tb::compareReports(Old, New, Threshold);
    if (Json)
      std::printf("%s\n", tb::diffJson(Diff).c_str());
    else
      std::printf("%s", tb::diffText(Diff).c_str());
    return Diff.regressions() > 0 ? 1 : 0;
  }

  if (Command == "lower") {
    const int Width = Argc > 2 ? std::atoi(Argv[2]) : 32;
    const int NumArgs = Argc > 3 ? std::atoi(Argv[3]) : 1;
    std::ostringstream Input;
    Input << std::cin.rdbuf();
    const ir::ParseResult Result =
        ir::parseProgram(Input.str(), Width, NumArgs);
    if (!Result.ok()) {
      std::fprintf(stderr, "parse error on line %d: %s\n",
                   Result.ErrorLine, Result.Error.c_str());
      return 1;
    }
    codegen::LoweringStats Stats;
    const ir::Program Lowered =
        codegen::lowerDivisions(*Result.Parsed, codegen::GenOptions(),
                                &Stats);
    std::fprintf(stderr, "; lowered %d division(s), kept %d runtime "
                         "divisor(s)\n",
                 Stats.total(), Stats.RuntimeDivisorsKept);
    std::printf("%s", ir::formatProgram(Lowered).c_str());
    return 0;
  }

  if (Command == "service") {
    size_t Threads = 4, Keys = 1024, Ops = 200000, Batch = 16, Workers = 2;
    double Seconds = 0;
    for (int I = 2; I + 1 < Argc; I += 2) {
      const std::string Arg = Argv[I];
      const char *Val = Argv[I + 1];
      if (Arg == "--threads")
        Threads = std::strtoull(Val, nullptr, 0);
      else if (Arg == "--keys")
        Keys = std::strtoull(Val, nullptr, 0);
      else if (Arg == "--ops")
        Ops = std::strtoull(Val, nullptr, 0);
      else if (Arg == "--seconds")
        Seconds = std::atof(Val);
      else if (Arg == "--batch")
        Batch = std::strtoull(Val, nullptr, 0);
      else if (Arg == "--workers")
        Workers = std::strtoull(Val, nullptr, 0);
      else
        return usage(Argv[0]);
    }
    if (Threads == 0 || Keys == 0)
      return usage(Argv[0]);
    uint64_t TotalOps = 0;
    double Elapsed = 0;
    const uint64_t Mismatches = hammerService(
        Threads, Keys, Ops, Seconds, Batch, Workers, TotalOps, Elapsed);
    std::printf("service: %zu threads x %zu keys, %llu registry ops in "
                "%.2fs (%.2f Mops/s aggregate), %zu batch jobs, "
                "%llu mismatches\n",
                Threads, Keys,
                static_cast<unsigned long long>(TotalOps), Elapsed,
                Elapsed > 0 ? static_cast<double>(TotalOps) / Elapsed / 1e6
                            : 0.0,
                Batch, static_cast<unsigned long long>(Mismatches));
    return Mismatches == 0 ? 0 : 1;
  }

  if (Command == "metrics") {
    std::string Format = "prom";
    bool Exercise = false;
    for (int I = 2; I < Argc; ++I) {
      const std::string Arg = Argv[I];
      if (Arg == "prom" || Arg == "json")
        Format = Arg;
      else if (Arg == "--exercise")
        Exercise = true;
      else
        return usage(Argv[0]);
    }
    if (Exercise)
      exerciseMetrics();
    const metrics::Snapshot Snap = metrics::Registry::global().snapshot();
    if (Format == "json")
      std::printf("%s\n", metrics::snapshotJson(Snap).c_str());
    else
      std::fputs(metrics::prometheusText(Snap).c_str(), stdout);
    return 0;
  }

  if (Command == "top") {
    size_t Keys = 64;
    size_t Ops = 200000;
    for (int I = 2; I + 1 < Argc; I += 2) {
      const std::string Arg = Argv[I];
      const char *Val = Argv[I + 1];
      if (Arg == "--keys")
        Keys = std::strtoull(Val, nullptr, 0);
      else if (Arg == "--ops")
        Ops = std::strtoull(Val, nullptr, 0);
      else
        return usage(Argv[0]);
    }
    if (Keys == 0 || Ops == 0)
      return usage(Argv[0]);

    // Skewed synthetic workload: seven of eight ops hit one of eight
    // hot divisors (geometrically skewed inside the hot set so the
    // ranks are distinct), the eighth spreads over the full key range.
    service::DividerRegistry &Reg = service::DividerRegistry::global();
    uint64_t Rng = 0x5eed;
    for (size_t I = 0; I < Ops; ++I) {
      const uint64_t Mix = cache::mixBits(Rng += 0x9e3779b97f4a7c15ULL);
      const uint64_t D = (Mix & 7) != 0
                             ? 3 + ((Mix >> 3) & (Mix >> 6) & 7)
                             : 3 + ((Mix >> 9) % Keys);
      const service::Key K =
          service::keyFor<uint32_t>(static_cast<uint32_t>(D));
      if (!Reg.withEntry(K, [](const service::DividerEntry &) {}))
        Reg.acquire(K);
    }

    constexpr size_t MaxRows = 10;
    // Registry: heat read from its tables, so only resident keys show.
    const auto Hot = Reg.hotKeys();
    const uint64_t RegEvictions = Reg.stats().Evictions;
    std::printf("service registry top-%zu of %zu resident keys by heat "
                "(hits since admission, from sampled hits):\n",
                Hot.size(), Reg.size());
    std::printf("  %4s  %-18s %12s\n", "rank", "key", "heat");
    const size_t HotRows = std::min(Hot.size(), MaxRows);
    for (size_t I = 0; I < HotRows; ++I)
      std::printf("  %4zu  %-18s %12llu\n", I, Hot[I].K.describe().c_str(),
                  static_cast<unsigned long long>(Hot[I].Heat));
    if (Hot.size() > HotRows)
      std::printf("  ... %zu more keys\n", Hot.size() - HotRows);
    std::printf("  cross-reference: %llu cache evictions — %s\n",
                static_cast<unsigned long long>(RegEvictions),
                RegEvictions == 0
                    ? "every key admitted once; heat covers its whole "
                      "traffic"
                    : "an evicted key leaves the list and restarts at "
                      "heat 1 when re-admitted");
    return 0;
  }

  return usage(Argv[0]);
}

} // namespace

int main(int Argc, char **Argv) {
  bool ShowStats = false;
  std::string RemarksMode;
  std::string TraceFile;
  std::string MetricsFile;
  std::string ProfileFile;
  std::vector<char *> Args;
  Args.reserve(static_cast<size_t>(Argc));
  for (int Index = 0; Index < Argc; ++Index) {
    if (std::strcmp(Argv[Index], "--stats") == 0) {
      ShowStats = true;
      continue;
    }
    if (std::strncmp(Argv[Index], "--remarks=", 10) == 0) {
      RemarksMode = Argv[Index] + 10;
      continue;
    }
    if (std::strncmp(Argv[Index], "--trace=", 8) == 0) {
      TraceFile = Argv[Index] + 8;
      continue;
    }
    if (std::strncmp(Argv[Index], "--metrics=", 10) == 0) {
      MetricsFile = Argv[Index] + 10;
      continue;
    }
    if (std::strncmp(Argv[Index], "--profile=", 10) == 0) {
      ProfileFile = Argv[Index] + 10;
      continue;
    }
    Args.push_back(Argv[Index]);
  }

  // Environment-driven observability: GMDIV_METRICS_OUT starts the
  // background exporter, GMDIV_FLIGHT_RECORDER arms the crash dump,
  // GMDIV_PROF arms the sampling profiler without a dump file.
  metrics::Exporter::global().startFromEnv();
  metrics::FlightRecorder::global().configureFromEnv();
  prof::Profiler::global().startFromEnv(!ProfileFile.empty());

  std::unique_ptr<telemetry::RemarkSink> Sink;
  if (RemarksMode == "json")
    Sink = std::make_unique<telemetry::JsonRemarkSink>(stderr);
  else if (RemarksMode == "text")
    Sink = std::make_unique<telemetry::TextRemarkSink>(stderr);
  else if (!RemarksMode.empty())
    return usage(Argv[0]);
  if (!TraceFile.empty())
    trace::setEnabled(true);

  int Result;
  {
    telemetry::ScopedRemarkSink Guard(Sink.get());
    trace::Span CommandSpan("tool",
                            Args.size() > 1 ? Args[1] : "gmdiv_tool");
    Result = runCommand(static_cast<int>(Args.size()), Args.data());
  }
  if (ShowStats)
    std::fprintf(
        stderr, "%s\n",
        metrics::snapshotJson(metrics::Registry::global().snapshot()).c_str());
  if (!TraceFile.empty()) {
    std::string Error;
    if (!trace::writeChromeTrace(TraceFile, &Error)) {
      std::fprintf(stderr, "gmdiv_tool: --trace: %s\n", Error.c_str());
      return Result ? Result : 1;
    }
    std::fprintf(stderr, "gmdiv_tool: trace written to %s\n",
                 TraceFile.c_str());
  }
  if (!MetricsFile.empty()) {
    std::string Error;
    if (!metrics::Exporter::writeSnapshotFile(MetricsFile, &Error)) {
      std::fprintf(stderr, "gmdiv_tool: --metrics: %s\n", Error.c_str());
      return Result ? Result : 1;
    }
    std::fprintf(stderr, "gmdiv_tool: metrics written to %s\n",
                 MetricsFile.c_str());
  }
  if (!ProfileFile.empty()) {
    prof::Profiler::global().stop();
    std::string Error;
    if (!prof::Profiler::global().writeCollapsed(ProfileFile, &Error)) {
      std::fprintf(stderr, "gmdiv_tool: --profile: %s\n", Error.c_str());
      return Result ? Result : 1;
    }
    std::fprintf(stderr,
                 "gmdiv_tool: %llu profile samples written to %s\n",
                 static_cast<unsigned long long>(
                     prof::Profiler::global().sampleCount()),
                 ProfileFile.c_str());
  }
  metrics::Exporter::global().stop();
  return Result;
}
