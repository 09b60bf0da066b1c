//===- tests/soak_main.cpp - Long-running randomized cross-check ----------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Not a gtest: an open-ended soak harness for release qualification.
// Runs randomized differential checks across every divider class and
// the code generators until the requested duration elapses, printing a
// progress line per round. Any mismatch aborts with the reproducing
// seed. Usage:
//
//   soak [--trace=FILE] [--metrics=FILE] [--profile=FILE] [seconds] [seed]
//                               (defaults: 10 seconds, random seed)
//
// CTest runs a 2-second smoke; CI or a release manager can run hours.
// --trace=FILE records one span per round and writes a Chrome
// trace-event JSON file on exit; round latency also feeds a metrics
// histogram reported in the end-of-run summary. --metrics=FILE writes a
// metrics snapshot on exit (.json = JSON document, anything else the
// Prometheus text format) — CI's TSan leg scrapes it as an artifact.
// --profile=FILE arms the sampling profiler (rate from GMDIV_PROF=<hz>,
// default 97 Hz) and writes collapsed stacks (flamegraph.pl format) on exit.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"
#include "codegen/DivCodeGen.h"
#include "codegen/DivisionLowering.h"
#include "core/Divider.h"
#include "core/DWordDivider.h"
#include "core/ExactDiv.h"
#include "ir/Interp.h"
#include "metrics/Exporter.h"
#include "metrics/FlightRecorder.h"
#include "metrics/Metrics.h"
#include "prof/Profiler.h"
#include "telemetry/Json.h"
#include "trace/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

using namespace gmdiv;

namespace {

uint64_t Seed;
std::mt19937_64 Rng;

// The per-class check counters live in the metrics registry so the
// end-of-run summary and --metrics come from the same instruments.
metrics::Counter &checkCounter(const char *Name) {
  return metrics::Registry::global().counter(
      std::string("gmdiv_soak_") + Name + "_total",
      "Soak differential checks by divider class");
}
metrics::Counter &UnsignedChecks = checkCounter("unsigned_checks");
metrics::Counter &SignedChecks = checkCounter("signed_checks");
metrics::Counter &CodegenChecks = checkCounter("codegen_checks");
metrics::Counter &DWordChecks = checkCounter("dword_checks");
metrics::Counter &BatchChecks = checkCounter("batch_checks");
metrics::Histogram &RoundLatency = metrics::Registry::global().histogram(
    "gmdiv_soak_round_us", "Soak round latency (us)");

[[noreturn]] void fail(const char *What, uint64_t N, uint64_t D) {
  std::fprintf(stderr,
               "MISMATCH in %s: n=%llu d=%llu (seed %llu)\n", What,
               static_cast<unsigned long long>(N),
               static_cast<unsigned long long>(D),
               static_cast<unsigned long long>(Seed));
  // Machine-readable failure record; the seed reproduces the run:
  //   soak <seconds> <seed>
  telemetry::json::Writer W;
  W.beginObject()
      .key("soak")
      .value("mismatch")
      .key("in")
      .value(What)
      .key("n")
      .value(N)
      .key("d")
      .value(D)
      .key("seed")
      .value(Seed)
      .endObject();
  std::fprintf(stderr, "%s\n", W.str().c_str());
  std::exit(1);
}

template <typename UWord> void soakUnsignedRound() {
  UWord D = static_cast<UWord>(Rng() >> (Rng() % (sizeof(UWord) * 8)));
  if (D == 0)
    D = 1;
  const UnsignedDivider<UWord> Divider(D);
  const ExactUnsignedDivider<UWord> Exact(D);
  for (int J = 0; J < 4096; ++J) {
    const UWord N = static_cast<UWord>(Rng());
    if (Divider.divide(N) != static_cast<UWord>(N / D))
      fail("UnsignedDivider", N, D);
    if (Exact.isDivisible(N) != (N % D == 0))
      fail("isDivisible", N, D);
  }
  UnsignedChecks.add(2 * 4096);
}

template <typename SWord> void soakSignedRound() {
  using UWord = std::make_unsigned_t<SWord>;
  SWord D = static_cast<SWord>(
      static_cast<UWord>(Rng() >> (Rng() % (sizeof(SWord) * 8))));
  if (D == 0)
    D = -3;
  const SignedDivider<SWord> Trunc(D);
  const FloorDivider<SWord> Floor(D);
  constexpr SWord Min = std::numeric_limits<SWord>::min();
  for (int J = 0; J < 4096; ++J) {
    const SWord N = static_cast<SWord>(static_cast<UWord>(Rng()));
    if (N == Min && D == -1)
      continue;
    const int64_t Want = static_cast<int64_t>(N) / static_cast<int64_t>(D);
    if (Trunc.divide(N) != static_cast<SWord>(Want))
      fail("SignedDivider", static_cast<uint64_t>(N),
           static_cast<uint64_t>(D));
    int64_t WantFloor = Want;
    const int64_t Rem =
        static_cast<int64_t>(N) % static_cast<int64_t>(D);
    if (Rem != 0 && ((Rem < 0) != (D < 0)))
      --WantFloor;
    if (Floor.divide(N) != static_cast<SWord>(WantFloor))
      fail("FloorDivider", static_cast<uint64_t>(N),
           static_cast<uint64_t>(D));
  }
  SignedChecks.add(2 * 4096);
}

void soakCodegenRound() {
  const int Bits = 8 << (Rng() % 4);
  const uint64_t Mask =
      Bits == 64 ? ~uint64_t{0} : (uint64_t{1} << Bits) - 1;
  uint64_t D = Rng() & Mask;
  if (D == 0)
    D = 3;
  const ir::Program P = codegen::genUnsignedDivRem(Bits, D);
  for (int J = 0; J < 512; ++J) {
    const uint64_t N = Rng() & Mask;
    const std::vector<uint64_t> QR = ir::run(P, {N});
    if (QR[0] != N / D || QR[1] != N % D)
      fail("genUnsignedDivRem", N, D);
  }
  CodegenChecks.add(512);
}

void soakDWordRound() {
  uint64_t D = Rng() >> (Rng() % 64);
  if (D == 0)
    D = 1;
  const DWordDivider<uint64_t> Divider(D);
  for (int J = 0; J < 1024; ++J) {
    const uint64_t High = D == 1 ? 0 : Rng() % D;
    const uint64_t Low = Rng();
    auto [Q, R] = Divider.divRem(UInt128::fromHalves(High, Low));
    auto [RefQ, RefR] =
        UInt128::divMod(UInt128::fromHalves(High, Low), UInt128(D));
    if (Q != RefQ.low64() || R != RefR.low64())
      fail("DWordDivider", Low, D);
  }
  DWordChecks.add(1024);
}

// Batch kernels on the active (auto-dispatched) backend against the
// per-element dividers, with an odd buffer length so SIMD tails run.
template <typename UWord> void soakBatchUnsignedRound() {
  UWord D = static_cast<UWord>(Rng() >> (Rng() % (sizeof(UWord) * 8)));
  if (D == 0)
    D = 1;
  const batch::BatchDivider<UWord> Batch(D);
  const UnsignedDivider<UWord> Ref(D);
  const size_t Count = 257 + static_cast<size_t>(Rng() % 256);
  std::vector<UWord> In(Count), Quot(Count), Rem(Count);
  std::vector<uint8_t> Divisible(Count);
  for (UWord &Value : In)
    Value = static_cast<UWord>(Rng());
  Batch.divRem(In.data(), Quot.data(), Rem.data(), Count);
  Batch.divisible(In.data(), Divisible.data(), Count);
  for (size_t I = 0; I < Count; ++I) {
    if (Quot[I] != Ref.divide(In[I]))
      fail("BatchDivider.divRem(quot)", In[I], D);
    if (Rem[I] != Ref.remainder(In[I]))
      fail("BatchDivider.divRem(rem)", In[I], D);
    if (Divisible[I] != ((In[I] % D) == 0 ? 1 : 0))
      fail("BatchDivider.divisible", In[I], D);
  }
  BatchChecks.add(3 * Count);
}

template <typename SWord> void soakBatchSignedRound() {
  using UWord = std::make_unsigned_t<SWord>;
  SWord D = static_cast<SWord>(
      static_cast<UWord>(Rng() >> (Rng() % (sizeof(SWord) * 8))));
  if (D == 0)
    D = -7;
  const batch::BatchDivider<SWord> Batch(D);
  const SignedDivider<SWord> Trunc(D);
  const FloorDivider<SWord> Floor(D);
  const CeilDivider<SWord> Ceil(D);
  const size_t Count = 257 + static_cast<size_t>(Rng() % 256);
  std::vector<SWord> In(Count), Quot(Count), FloorQ(Count), CeilQ(Count);
  for (SWord &Value : In)
    Value = static_cast<SWord>(static_cast<UWord>(Rng()));
  Batch.divide(In.data(), Quot.data(), Count);
  Batch.floorDivide(In.data(), FloorQ.data(), Count);
  Batch.ceilDivide(In.data(), CeilQ.data(), Count);
  for (size_t I = 0; I < Count; ++I) {
    if (Quot[I] != Trunc.divide(In[I]))
      fail("BatchDivider.divide(signed)", static_cast<uint64_t>(In[I]),
           static_cast<uint64_t>(D));
    if (FloorQ[I] != Floor.divide(In[I]))
      fail("BatchDivider.floorDivide", static_cast<uint64_t>(In[I]),
           static_cast<uint64_t>(D));
    if (CeilQ[I] != Ceil.divide(In[I]))
      fail("BatchDivider.ceilDivide", static_cast<uint64_t>(In[I]),
           static_cast<uint64_t>(D));
  }
  BatchChecks.add(3 * Count);
}

} // namespace

int main(int Argc, char **Argv) {
  const char *TraceFile = nullptr;
  const char *MetricsFile = nullptr;
  const char *ProfileFile = nullptr;
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--trace=", 8) == 0)
      TraceFile = Argv[I] + 8;
    else if (std::strncmp(Argv[I], "--metrics=", 10) == 0)
      MetricsFile = Argv[I] + 10;
    else if (std::strncmp(Argv[I], "--profile=", 10) == 0)
      ProfileFile = Argv[I] + 10;
    else
      Args.push_back(Argv[I]);
  }
  const double Seconds = Args.size() > 1 ? std::atof(Args[1]) : 10.0;
  Seed = Args.size() > 2 ? std::strtoull(Args[2], nullptr, 0)
                         : std::random_device{}();
  if (TraceFile)
    trace::setEnabled(true);
  // Long-running by design, so honor the exporter/flight-recorder env
  // wiring (GMDIV_METRICS_OUT, GMDIV_FLIGHT_RECORDER) like the tool.
  metrics::Exporter::global().startFromEnv();
  metrics::FlightRecorder::global().configureFromEnv();
  // --profile forces the profiler on; without the flag, GMDIV_PROF alone
  // can arm it (no dump).
  prof::Profiler::global().startFromEnv(ProfileFile != nullptr);
  Rng.seed(Seed);
  std::printf("soak: %.1f seconds, seed %llu\n", Seconds,
              static_cast<unsigned long long>(Seed));
  const auto Start = std::chrono::steady_clock::now();
  uint64_t Rounds = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
             .count() < Seconds) {
    GMDIV_TRACE_SPAN("soak", "round", Rounds);
    const auto RoundStart = std::chrono::steady_clock::now();
    soakUnsignedRound<uint8_t>();
    soakUnsignedRound<uint16_t>();
    soakUnsignedRound<uint32_t>();
    soakUnsignedRound<uint64_t>();
    soakSignedRound<int8_t>();
    soakSignedRound<int16_t>();
    soakSignedRound<int32_t>();
    soakSignedRound<int64_t>();
    soakCodegenRound();
    soakDWordRound();
    soakBatchUnsignedRound<uint8_t>();
    soakBatchUnsignedRound<uint16_t>();
    soakBatchUnsignedRound<uint32_t>();
    soakBatchUnsignedRound<uint64_t>();
    soakBatchSignedRound<int8_t>();
    soakBatchSignedRound<int16_t>();
    soakBatchSignedRound<int32_t>();
    soakBatchSignedRound<int64_t>();
    RoundLatency.record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - RoundStart)
            .count()));
    ++Rounds;
  }
  const double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();
  const uint64_t TotalChecks =
      UnsignedChecks.value() + SignedChecks.value() +
      CodegenChecks.value() + DWordChecks.value() + BatchChecks.value();
  std::printf("soak: %llu rounds clean (%llu checks)\n",
              static_cast<unsigned long long>(Rounds),
              static_cast<unsigned long long>(TotalChecks));
  // Structured end-of-run summary (one JSON line): the run parameters
  // plus the per-class counters and the round-latency histogram.
  telemetry::json::Writer W;
  W.beginObject()
      .key("soak")
      .value("clean")
      .key("seed")
      .value(Seed)
      .key("seconds")
      .value(Elapsed)
      .key("rounds")
      .value(Rounds)
      .key("checks")
      .value(TotalChecks)
      .key("backend")
      .value(batch::backendName(batch::activeBackend()));
  W.key("counters")
      .beginObject()
      .key("batch_checks")
      .value(BatchChecks.value())
      .key("codegen_checks")
      .value(CodegenChecks.value())
      .key("dword_checks")
      .value(DWordChecks.value())
      .key("signed_checks")
      .value(SignedChecks.value())
      .key("unsigned_checks")
      .value(UnsignedChecks.value())
      .endObject();
  // "max" is the top bucket's midpoint, within 1/32 of the true value.
  W.key("round_us")
      .beginObject()
      .key("count")
      .value(RoundLatency.count())
      .key("p50")
      .value(RoundLatency.percentile(50))
      .key("p90")
      .value(RoundLatency.percentile(90))
      .key("p99")
      .value(RoundLatency.percentile(99))
      .key("max")
      .value(RoundLatency.percentile(100))
      .key("mad")
      .value(RoundLatency.mad())
      .endObject()
      .endObject();
  std::printf("%s\n", W.str().c_str());
  if (TraceFile) {
    std::string Error;
    if (!trace::writeChromeTrace(TraceFile, &Error)) {
      std::fprintf(stderr, "soak: --trace: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "soak: trace written to %s\n", TraceFile);
  }
  if (MetricsFile) {
    std::string Error;
    if (!metrics::Exporter::writeSnapshotFile(MetricsFile, &Error)) {
      std::fprintf(stderr, "soak: --metrics: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "soak: metrics written to %s\n", MetricsFile);
  }
  if (ProfileFile) {
    prof::Profiler::global().stop();
    std::string Error;
    if (!prof::Profiler::global().writeCollapsed(ProfileFile, &Error)) {
      std::fprintf(stderr, "soak: --profile: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "soak: %llu profile samples written to %s\n",
                 static_cast<unsigned long long>(
                     prof::Profiler::global().sampleCount()),
                 ProfileFile);
  }
  metrics::Exporter::global().stop();
  return 0;
}
