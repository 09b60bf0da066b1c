//===- bench/e2e/Main.cpp - gmdiv end-to-end request benchmark ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// gmdiv_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//           [--selftest] [--out DIR] [--git-sha SHA]
//
// Untraced (--trace 0): five segments of S/5 seconds, each after its
// own set-up from a cold JIT code cache, driving the workload
// closed-loop in 100 ms windows; reports the end-to-end metrics.
// Traced (--trace 1): an untraced baseline (S/4), the peel-off ledger,
// a traced phase (S/4) whose spans go to DIR/<workload>.trace.json,
// then the per-layer probes (Layers.h); reports the per-layer metrics.
//
// Every output is checked against hardware division. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the
// exit code is 0 only when nothing failed. run.sh is the entry point:
// it builds this binary and clears every GMDIV_* knob first.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Support.h"
#include "Workloads.h"

#include "batch/BatchDivider.h"
#include "jit/JitBatchDivider.h"
#include "jit/JitCache.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>

extern char **environ;

using namespace e2e;
using namespace gmdiv;

namespace {

/// The metrics BENCHMARK.json names, in its order, with their units.
const std::pair<const char *, const char *> EndToEnd[] = {
    {"setup_s", "s"},          {"elem_per_s", "elements/s"},
    {"req_per_s", "requests/s"}, {"req_p50_us", "us"},
    {"req_p99_us", "us"},      {"peak_rss_mb", "MiB"},
};
const std::pair<const char *, const char *> PerLayer[] = {
    {"service.submit_us_p50", "us"},      {"service.submit_us_p99", "us"},
    {"service.job_us_p50", "us"},         {"service.handoff_us_p50", "us"},
    {"service.handoff_us_p99", "us"},
    {"service.worker_busy_ratio", "ratio"},
    {"registry.withentry_ns", "ns"},      {"registry.acquire_hit_ns", "ns"},
    {"registry.admit_us_p50", "us"},      {"registry.admit_us_p99", "us"},
    {"registry.hit_ratio", "ratio"},      {"registry.evictions_per_s", "1/s"},
    {"entry.scalar_ns", "ns"},            {"entry.array_ns_per_elem", "ns"},
    {"entry.short_call_ns", "ns"},        {"entry.build_us", "us"},
    {"entry.build_nojit_us", "us"},       {"batch.ns_per_elem", "ns"},
    {"batch.short_call_ns", "ns"},        {"jit.vector_ns_per_elem", "ns"},
    {"jit.vector_short_call_ns", "ns"},   {"jit.scalar_ns", "ns"},
    {"jit.scalar_compile_us", "us"},      {"jit.vector_compile_us", "us"},
    {"jit.cache_hit_ratio", "ratio"},     {"core.scalar_ns", "ns"},
    {"core.precompute_ns", "ns"},         {"ref.hwdiv_ns", "ns"},
    {"ref.hwdiv_ns_per_elem", "ns"},      {"arch.host_mulhi_ticks", "ticks"},
    {"arch.host_div_ticks", "ticks"},     {"arch.jit_winner_agree", "ratio"},
    {"bench.check_share", "ratio"},       {"bench.trace_overhead", "ratio"},
    {"bench.span_drops", "count"},
};

struct Config {
  Kind K = Kind::Bulk;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  bool Selftest = false;
  std::string OutDir = "build/e2e/out";
  std::string GitSha = "unknown";
};

std::optional<Config> parseArgs(int Argc, char **Argv) {
  Config C;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    auto need = [&]() -> const char * {
      if (!V)
        std::fprintf(stderr, "gmdiv_e2e: %s needs a value\n", A.c_str());
      ++I;
      return V;
    };
    if (A == "--workload") {
      const char *W = need();
      const std::optional<Kind> K = W ? kindFromName(W) : std::nullopt;
      if (!K) {
        std::fprintf(stderr,
                     "gmdiv_e2e: --workload is bulk, short_jobs, route or "
                     "churn\n");
        return std::nullopt;
      }
      C.K = *K;
      HaveWorkload = true;
    } else if (A == "--seed") {
      const char *S = need();
      if (!S)
        return std::nullopt;
      C.Seed = std::strtoull(S, nullptr, 10);
    } else if (A == "--seconds") {
      const char *S = need();
      if (!S || !(std::atof(S) > 0) || std::atof(S) > 600) {
        std::fprintf(stderr, "gmdiv_e2e: --seconds is in (0, 600]\n");
        return std::nullopt;
      }
      C.Seconds = std::atof(S);
    } else if (A == "--trace") {
      const char *S = need();
      if (!S || (std::strcmp(S, "0") && std::strcmp(S, "1"))) {
        std::fprintf(stderr, "gmdiv_e2e: --trace is 0 or 1\n");
        return std::nullopt;
      }
      C.Trace = S[0] == '1';
    } else if (A == "--selftest") {
      C.Selftest = true;
    } else if (A == "--out") {
      const char *S = need();
      if (!S)
        return std::nullopt;
      C.OutDir = S;
    } else if (A == "--git-sha") {
      const char *S = need();
      if (!S)
        return std::nullopt;
      C.GitSha = S;
    } else {
      std::fprintf(stderr, "gmdiv_e2e: unknown argument %s\n", A.c_str());
      return std::nullopt;
    }
  }
  if (!HaveWorkload) {
    std::fprintf(stderr, "usage: gmdiv_e2e --workload bulk|short_jobs|route|"
                         "churn [--seed N] [--seconds S] [--trace 0|1] "
                         "[--selftest] [--out DIR] [--git-sha SHA]\n");
    return std::nullopt;
  }
  return C;
}

std::string cpuModel() {
#if defined(__x86_64__)
  unsigned Regs[12] = {};
  for (unsigned I = 0; I < 3; ++I)
    if (!__get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                     &Regs[4 * I + 2], &Regs[4 * I + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S = Brand;
  S.erase(0, S.find_first_not_of(' '));
  return S;
#else
  return "unknown";
#endif
}

std::string governor() {
  std::ifstream F("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string G;
  return F && std::getline(F, G) ? G : "unknown";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

double peakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double ratio(double Num, double Den, double IfEmpty) {
  return Den > 0 ? Num / Den : IfEmpty;
}

/// Everything the run prints besides the metrics.
struct Report {
  std::map<std::string, double> Values;
  uint64_t Attempted = 0, Failed = 0;
  std::string Text;
  std::string RunExtra; ///< Extra "key": value pairs for the run line.
};

void addPhase(Report &R, const PhaseResult &P) {
  R.Attempted += P.Attempted;
  R.Failed += P.Failed;
}

std::string windowNote(const char *Label, const PhaseResult &P) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s: %zu windows of %g s, %llu latency samples (fewest in a "
                "window: %llu), req/s best window %.4g, median window %.4g, "
                "check share %.2f%%\n",
                Label, P.W.Windows, Windows::Seconds,
                static_cast<unsigned long long>(P.W.Samples),
                static_cast<unsigned long long>(P.W.MinSamples), P.W.ReqPerS,
                P.W.MedianReqPerS, 100 * ratio(P.CheckS, P.WallS, 0));
  return Buf;
}

/// Picks the CPUs a run's threads may use. On a shared host the vCPUs
/// do not run at one speed (on the 4-vCPU KVM guest NOISE.md was
/// measured on, an add chain pinned to one vCPU ran 1.8x slower than on
/// another, for seconds at a time), so where the scheduler happened to
/// place a run's threads would decide its result. Best effort: a failed
/// call leaves the mask as it was.
class CpuPicker {
public:
  CpuPicker() { Have = sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0; }

  /// Restricts the calling thread, and the threads it creates from now
  /// on, to the \p Count fastest CPUs the process started with.
  void pinFastest(size_t Count) {
    if (!Have)
      return;
    std::vector<std::pair<double, int>> Speeds;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu) {
      if (!CPU_ISSET(Cpu, &Allowed))
        continue;
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      if (sched_setaffinity(0, sizeof(One), &One) == 0)
        Speeds.push_back({addChainNs(), Cpu});
    }
    std::sort(Speeds.begin(), Speeds.end());
    cpu_set_t Chosen;
    CPU_ZERO(&Chosen);
    Cpus.clear();
    for (size_t I = 0; I < std::min(Count, Speeds.size()); ++I) {
      CPU_SET(Speeds[I].second, &Chosen);
      Cpus += (Cpus.empty() ? "" : ",") + std::to_string(Speeds[I].second);
    }
    if (Cpus.empty() || sched_setaffinity(0, sizeof(Chosen), &Chosen) != 0) {
      sched_setaffinity(0, sizeof(Allowed), &Allowed);
      Cpus = "any";
    }
  }

  /// The CPUs the last pinFastest() chose.
  const std::string &cpus() const { return Cpus; }

private:
  /// ns per step of a dependent add chain here, fastest of three.
  static double addChainNs() {
    double Best = 1e9;
    for (int Rep = 0; Rep < 3; ++Rep) {
      uint64_t X = 1, K = 0x9e3779b97f4a7c15ULL;
      asm volatile("" : "+r"(K));
      const uint64_t T0 = nowNs();
      for (int I = 0; I < (1 << 20); ++I) {
        X += K;
        asm volatile("" : "+r"(X));
      }
      Best = std::min(Best, static_cast<double>(nowNs() - T0) / (1 << 20));
    }
    return Best;
  }

  cpu_set_t Allowed{};
  bool Have = false;
  std::string Cpus = "any";
};

/// Threads a workload runs: the caller, plus the service's workers.
size_t threadsOf(Kind K) { return usesService(K) ? workerCount() + 1 : 1; }

/// Builds \p Sys from an emptied JIT code cache. Returns the seconds it
/// took, or a negative value when a hot-set admission failed.
double coldSetUp(const Inputs &In, System &Sys) {
  Sys.reset();
  jit::CodeCache::global().clear();
  const uint64_t T0 = nowNs();
  if (!setUp(In, Sys))
    return -1;
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

bool untracedRun(const Config &C, Driver &Drv, Inputs &In, System &Sys,
                 CpuPicker &Cpus, Report &R) {
  // Five segments, each after its own cold set-up: the set-ups behind
  // setup_s sample the host at five moments of the run, not one, since
  // on a shared host its speed shifts within seconds.
  constexpr int Segments = 5;
  std::vector<double> SetupS;
  std::vector<Windows::Summary> Parts;
  PhaseResult P;
  for (int I = 0; I < Segments; ++I) {
    Cpus.pinFastest(threadsOf(In.K));
    const double Secs = coldSetUp(In, Sys);
    if (Secs < 0)
      return false;
    SetupS.push_back(Secs);
    const PhaseResult Part = Drv.run(In.Stream, {C.Seconds / Segments, 0.25});
    Parts.push_back(Part.W);
    P.Attempted += Part.Attempted;
    P.Failed += Part.Failed;
    P.WallS += Part.WallS;
    P.CheckS += Part.CheckS;
  }
  P.W = Windows::combine(Parts);
  addPhase(R, P);
  R.Values["setup_s"] = median(SetupS);
  R.Text += "set-up seconds:";
  for (double S : SetupS)
    R.Text += " " + num(S);
  R.Text += "\n";
  R.Values["elem_per_s"] = P.W.ElemPerS;
  R.Values["req_per_s"] = P.W.ReqPerS;
  R.Values["req_p50_us"] = P.W.P50Ns / 1e3;
  R.Values["req_p99_us"] = P.W.P99Ns / 1e3;
  R.Values["peak_rss_mb"] = peakRssMiB();
  R.Text += windowNote("timed phase", P);
  R.RunExtra = ",\"windows\":" + std::to_string(P.W.Windows) +
               ",\"latency_samples\":" + std::to_string(P.W.Samples) +
               ",\"check_share\":" + num(ratio(P.CheckS, P.WallS, 0));
  return true;
}

bool tracedRun(const Config &C, Driver &Drv, Inputs &In, System &Sys,
               Checker &Chk, CpuPicker &Cpus, const HostTicks &Ticks,
               Report &R) {
  Cpus.pinFastest(threadsOf(In.K));
  if (coldSetUp(In, Sys) < 0)
    return false;
  const double S = C.Seconds;
  const PhaseResult Base = Drv.run(In.Stream, {S / 4, 0.25});
  addPhase(R, Base);
  R.Text += windowNote("untraced baseline", Base);

  // The ledger runs right after the baseline it is compared with.
  LayerBench Layers(In, Sys, S * 0.025, C.Seed);
  const std::string Ledger = Layers.ledger(
      In.K == Kind::Bulk ? 1e9 / Base.W.ElemPerS : 1e9 / Base.W.ReqPerS);

  // Trace one request in Stride, sized from the baseline rate to fill
  // about half the preallocated span log.
  SpanLog Spans(1 << 16);
  const double Expected = Base.W.ReqPerS * S / 4 * 4; // <= 4 spans each
  const uint64_t Stride = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(Expected / (Spans.capacity() / 2))));
  ServiceSamples SS;
  const cache::CacheStats Reg0 = Sys.Reg->stats();
  const cache::CacheStats Jit0 = jit::CodeCache::global().stats();
  const PhaseResult Tr = Drv.run(
      In.Stream,
      {S / 4, 0, &Spans, Stride, usesService(In.K) ? &SS : nullptr});
  const cache::CacheStats Reg1 = Sys.Reg->stats();
  const cache::CacheStats Jit1 = jit::CodeCache::global().stats();
  addPhase(R, Tr);
  R.Text += windowNote("traced phase", Tr);

  std::error_code Ec;
  std::filesystem::create_directories(C.OutDir, Ec);
  const std::string TracePath =
      C.OutDir + "/" + kindName(In.K) + ".trace.json";
  if (!Spans.writeChrome(TracePath, kindName(In.K)))
    std::fprintf(stderr, "gmdiv_e2e: cannot write %s\n", TracePath.c_str());
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "spans: 1 request in %llu traced, %zu spans, %llu dropped, "
                "written to %s\n  %-10s %8s %12s %12s\n",
                static_cast<unsigned long long>(Stride), Spans.size(),
                static_cast<unsigned long long>(Spans.dropped()),
                TracePath.c_str(), "span", "count", "mean us", "self us");
  R.Text += Buf;
  for (const SpanLog::NameSummary &N : Spans.summarize()) {
    std::snprintf(Buf, sizeof(Buf), "  %-10s %8llu %12.3f %12.3f\n",
                  N.Name.c_str(), static_cast<unsigned long long>(N.Count),
                  N.MeanNs / 1e3, N.MeanSelfNs / 1e3);
    R.Text += Buf;
  }

  // route and churn do not use the service; its layer metrics come from
  // a probe that submits their requests as array jobs.
  if (!usesService(In.K)) {
    Cpus.pinFastest(workerCount() + 1);
    Sys.Svc = std::make_unique<service::BatchService>(*Sys.Reg,
                                                      serviceOptions());
    Driver Probe(In, Sys, Chk);
    const PhaseResult SP =
        Probe.run(serviceShape(In), {S / 10, 0.1, nullptr, 1, &SS});
    Sys.Svc.reset();
    Cpus.pinFastest(threadsOf(In.K));
    addPhase(R, SP);
    R.Text += windowNote("service probe", SP);
  }

  R.Text += Ledger + Layers.probes(Ticks, R.Values);

  auto &V = R.Values;
  V["service.submit_us_p50"] = quantile(SS.SubmitUs, 0.50);
  V["service.submit_us_p99"] = quantile(SS.SubmitUs, 0.99);
  V["service.job_us_p50"] = quantile(SS.JobUs, 0.50);
  V["service.handoff_us_p50"] = quantile(SS.HandoffUs, 0.50);
  V["service.handoff_us_p99"] = quantile(SS.HandoffUs, 0.99);
  V["service.worker_busy_ratio"] =
      ratio(static_cast<double>(SS.JobNsSum),
            static_cast<double>(workerCount()) * SS.WallS * 1e9, 0);
  const double Hits = static_cast<double>(Reg1.Hits - Reg0.Hits);
  const double Misses = static_cast<double>(Reg1.Misses - Reg0.Misses);
  V["registry.hit_ratio"] = ratio(Hits, Hits + Misses, 1);
  V["registry.evictions_per_s"] =
      ratio(static_cast<double>(Reg1.Evictions - Reg0.Evictions), Tr.WallS, 0);
  const double JitHits = static_cast<double>(Jit1.Hits - Jit0.Hits);
  const double JitLookups =
      JitHits + static_cast<double>(Jit1.Misses - Jit0.Misses);
  V["jit.cache_hit_ratio"] = ratio(JitHits, JitLookups, 1);
  V["arch.host_mulhi_ticks"] = Ticks.MulHi;
  V["arch.host_div_ticks"] = Ticks.Div;
  V["bench.check_share"] = ratio(Base.CheckS, Base.WallS, 0);
  V["bench.trace_overhead"] = ratio(Base.W.ReqPerS, Tr.W.ReqPerS, 1) - 1;
  V["bench.span_drops"] = static_cast<double>(Spans.dropped());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::optional<Config> Cfg = parseArgs(Argc, Argv);
  if (!Cfg)
    return 2;
  const Config &C = *Cfg;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "GMDIV_", 6) == 0) {
      std::fprintf(stderr,
                   "gmdiv_e2e: %s is set; run through bench/e2e/run.sh, "
                   "which clears every GMDIV_* knob\n",
                   *E);
      return 2;
    }

  CpuPicker Cpus;
  Cpus.pinFastest(threadsOf(C.K));
  const HostTicks Ticks = measureHostTicks();
  Inputs In = makeInputs(C.K, C.Seed);
  System Sys;
  Checker Chk(C.Selftest);
  Driver Drv(In, Sys, Chk);
  Report R;
  if (!(C.Trace ? tracedRun(C, Drv, In, Sys, Chk, Cpus, Ticks, R)
                : untracedRun(C, Drv, In, Sys, Cpus, R))) {
    std::fprintf(stderr, "gmdiv_e2e: hot-set admission failed\n");
    return 1;
  }

  jit::CodeCache Scratch(1, 8);
  const service::DividerRegistry::Options RO = registryOptions(C.K);
  double Load[1] = {0};
  getloadavg(Load, 1);
  std::printf("gmdiv e2e: workload=%s seed=%llu seconds=%g trace=%d\n%s",
              kindName(C.K), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0, R.Text.c_str());
  std::printf(
      "{\"run\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"cpu\":%s,\"nproc\":%ld,\"governor\":%s,\"loadavg\":%s,"
      "\"git_sha\":%s,\"batch_backend\":%s,\"jit_batch_backend\":%s,"
      "\"workers\":%zu,\"cpus\":%s,\"registry\":\"%zux%zu%s\","
      "\"host_ticks\":{\"add\":%s,\"mulhi\":%s,\"div\":%s}%s}}\n",
      jsonString(kindName(C.K)).c_str(),
      static_cast<unsigned long long>(C.Seed), num(C.Seconds).c_str(),
      C.Trace ? 1 : 0, jsonString(cpuModel()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), jsonString(governor()).c_str(),
      num(Load[0]).c_str(), jsonString(C.GitSha).c_str(),
      jsonString(batch::backendName(batch::activeBackend())).c_str(),
      jsonString(jit::JitBatchDivider<uint32_t>(7, Scratch).backend()).c_str(),
      usesService(C.K) ? workerCount() : 0, jsonString(Cpus.cpus()).c_str(),
      RO.NumShards, RO.ShardCapacity,
      RO.UseJit ? " jit" : "", num(Ticks.Add).c_str(), num(Ticks.MulHi).c_str(),
      num(Ticks.Div).c_str(), R.RunExtra.c_str());

  std::string Json;
  bool Complete = true;
  using Names = std::span<const std::pair<const char *, const char *>>;
  for (const auto &[Name, Unit] : C.Trace ? Names(PerLayer) : Names(EndToEnd)) {
    const auto It = R.Values.find(Name);
    Complete &= It != R.Values.end();
    const double V = It != R.Values.end() ? It->second : 0;
    std::printf("  %-28s %16s %s\n", Name, num(V).c_str(), Unit);
    Json += std::string(Json.empty() ? "" : ",") + "\"" + Name +
            "\":{\"value\":" + num(V) + ",\"unit\":\"" + Unit + "\"}";
  }
  std::printf("  %-28s %16s ratio (%llu of %llu requests)\n", "fail_ratio",
              num(ratio(static_cast<double>(R.Failed),
                        static_cast<double>(R.Attempted), 0))
                  .c_str(),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  if (!Complete) {
    std::fprintf(stderr, "gmdiv_e2e: internal error: a metric is missing\n");
    return 3;
  }
  const bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  return Correct ? 0 : 1;
}
