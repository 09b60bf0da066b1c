//===- prof/Profiler.cpp - Signal-based sampling profiler -----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "prof/Profiler.h"

#include "metrics/FlightRecorder.h"
#include "metrics/Metrics.h"
#include "telemetry/Json.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define GMDIV_PROF_HAVE_SIGPROF 1
#include <csignal>
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/time.h>
#include <ucontext.h>
#endif

using namespace gmdiv;
using namespace gmdiv::prof;

namespace {

/// Frames kept per sample after dropping the handler/trampoline pair.
constexpr int MaxFrames = 16;
/// Leading frames of every in-handler backtrace: the handler itself and
/// the kernel signal trampoline. Off-by-one here only adds a benign
/// extra frame to the collapsed output, it never loses the leaf.
constexpr int SkipFrames = 2;
/// Samples retained per thread before overwrite (drop-accounted).
constexpr int RingCapacity = 1024;
/// Per-thread rings, claimed on first signal in a thread; threads past
/// the pool drop their samples (accounted, like trace's rings).
constexpr int MaxRings = 64;

/// All fields are relaxed atomics so the signal-context writer and the
/// dump-time reader never constitute a data race (and stay TSan-clean);
/// torn *samples* are still possible if a dump races the handler, which
/// is acceptable for a statistical profile and impossible after stop().
struct SampleSlot {
  std::atomic<uintptr_t> Frames[MaxFrames];
  std::atomic<uint32_t> NumFrames;
};

struct SampleRing {
  SampleSlot Slots[RingCapacity];
  /// Total samples ever written to this ring; release-published so a
  /// reader's acquire load sees the slots the count covers.
  std::atomic<uint64_t> Next{0};
};

/// Static pool: zero-page BSS until a thread actually samples.
SampleRing Rings[MaxRings];
std::atomic<unsigned> RingsClaimed{0};
std::atomic<uint64_t> DroppedNoSlot{0};
std::atomic<bool> Armed{false};
std::atomic<int> ActiveHz{0};

#if GMDIV_PROF_HAVE_SIGPROF
struct sigaction PrevAction;

/// -1 = not yet claimed, -2 = pool exhausted for this thread.
thread_local int MyRing = -1;

void profSignalHandler(int, siginfo_t *, void *Context) {
  if (!Armed.load(std::memory_order_relaxed))
    return;
  int Slot = MyRing;
  if (Slot == -1) {
    const unsigned Claimed = RingsClaimed.fetch_add(1, std::memory_order_relaxed);
    Slot = Claimed < MaxRings ? static_cast<int>(Claimed) : -2;
    MyRing = Slot;
  }
  if (Slot < 0) {
    DroppedNoSlot.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // backtrace() is pre-warmed in start(), so this allocates nothing.
  void *Raw[SkipFrames + MaxFrames];
  int N = backtrace(Raw, SkipFrames + MaxFrames);
  int First = SkipFrames;
  if (N <= First) {
    // The unwinder could not step past the signal frame (e.g. the
    // interrupted PC is code with no unwind info). Keep at least
    // the interrupted PC so the sample is attributed, not lost.
    First = 0;
    N = 0;
#if defined(__linux__) && defined(__x86_64__)
    if (Context) {
      Raw[0] = reinterpret_cast<void *>(
          static_cast<ucontext_t *>(Context)->uc_mcontext.gregs[REG_RIP]);
      N = 1;
    }
#else
    (void)Context;
#endif
    if (N == 0) {
      DroppedNoSlot.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  SampleRing &R = Rings[Slot];
  const uint64_t Seq = R.Next.load(std::memory_order_relaxed);
  SampleSlot &S = R.Slots[Seq % RingCapacity];
  const int Kept = std::min(N - First, MaxFrames);
  for (int I = 0; I < Kept; ++I)
    S.Frames[I].store(reinterpret_cast<uintptr_t>(Raw[First + I]),
                      std::memory_order_relaxed);
  S.NumFrames.store(static_cast<uint32_t>(Kept), std::memory_order_relaxed);
  R.Next.store(Seq + 1, std::memory_order_release);
}
#endif // GMDIV_PROF_HAVE_SIGPROF

uint64_t recordedTotal() {
  uint64_t Total = 0;
  const unsigned Claimed =
      std::min<unsigned>(RingsClaimed.load(std::memory_order_relaxed), MaxRings);
  for (unsigned I = 0; I < Claimed; ++I)
    Total += Rings[I].Next.load(std::memory_order_relaxed);
  return Total;
}

uint64_t overwrittenTotal() {
  uint64_t Total = 0;
  const unsigned Claimed =
      std::min<unsigned>(RingsClaimed.load(std::memory_order_relaxed), MaxRings);
  for (unsigned I = 0; I < Claimed; ++I) {
    const uint64_t Next = Rings[I].Next.load(std::memory_order_relaxed);
    Total += Next - std::min<uint64_t>(Next, RingCapacity);
  }
  return Total;
}

/// Fold every retained sample into (leaf-first stack) -> count.
std::map<std::vector<uintptr_t>, uint64_t> foldSamples() {
  std::map<std::vector<uintptr_t>, uint64_t> Folded;
  const unsigned Claimed =
      std::min<unsigned>(RingsClaimed.load(std::memory_order_relaxed), MaxRings);
  for (unsigned I = 0; I < Claimed; ++I) {
    SampleRing &R = Rings[I];
    const uint64_t Next = R.Next.load(std::memory_order_acquire);
    const uint64_t Kept = std::min<uint64_t>(Next, RingCapacity);
    for (uint64_t Seq = Next - Kept; Seq < Next; ++Seq) {
      const SampleSlot &S = R.Slots[Seq % RingCapacity];
      const uint32_t N = std::min<uint32_t>(
          S.NumFrames.load(std::memory_order_relaxed), MaxFrames);
      if (N == 0)
        continue;
      std::vector<uintptr_t> Stack(N);
      for (uint32_t F = 0; F < N; ++F)
        Stack[F] = S.Frames[F].load(std::memory_order_relaxed);
      ++Folded[Stack];
    }
  }
  return Folded;
}

/// Collapsed-stack frames must not contain the separators the format
/// reserves (';' between frames, ' ' before the count).
std::string sanitizeFrame(std::string Name) {
  for (char &C : Name) {
    if (C == ';')
      C = ':';
    else if (C == ' ')
      C = '_';
  }
  return Name;
}

std::string symbolizePc(uintptr_t Pc) {
#if GMDIV_PROF_HAVE_SIGPROF
  // The captured PC is a return address (one past the call) except for
  // the leaf; back up one byte so call-site frames attribute to the
  // calling line's function, the standard profiler adjustment.
  Dl_info Info;
  std::memset(&Info, 0, sizeof(Info));
  if (dladdr(reinterpret_cast<void *>(Pc), &Info)) {
    if (Info.dli_sname) {
      int Status = -1;
      char *Demangled =
          abi::__cxa_demangle(Info.dli_sname, nullptr, nullptr, &Status);
      std::string Out =
          (Status == 0 && Demangled) ? Demangled : Info.dli_sname;
      std::free(Demangled);
      return sanitizeFrame(Out);
    }
    if (Info.dli_fname && Info.dli_fbase) {
      const char *Base = std::strrchr(Info.dli_fname, '/');
      Base = Base ? Base + 1 : Info.dli_fname;
      char Buf[512];
      std::snprintf(Buf, sizeof(Buf), "%s+0x%zx", Base,
                    static_cast<size_t>(Pc - reinterpret_cast<uintptr_t>(
                                                 Info.dli_fbase)));
      return sanitizeFrame(Buf);
    }
  }
#endif
  // Raw addresses (code outside any loaded module) still show up
  // honestly.
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%zx", static_cast<size_t>(Pc));
  return Buf;
}

class SymbolCache {
public:
  const std::string &name(uintptr_t Pc) {
    auto It = Cache.find(Pc);
    if (It == Cache.end())
      It = Cache.emplace(Pc, symbolizePc(Pc)).first;
    return It->second;
  }

private:
  std::map<uintptr_t, std::string> Cache;
};

void registerProfMetricsOnce() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    metrics::Registry::global().addCollector([](metrics::SnapshotBuilder &B) {
      B.counter("gmdiv_prof_samples_total",
                "CPU stack samples captured by the sampling profiler", {},
                static_cast<double>(recordedTotal()));
      B.counter("gmdiv_prof_dropped_total",
                "Profiler samples lost to ring overwrite or thread-slot "
                "exhaustion",
                {},
                static_cast<double>(overwrittenTotal() +
                                    DroppedNoSlot.load(
                                        std::memory_order_relaxed)));
      B.gauge("gmdiv_prof_rate_hz",
              "Configured profiler sampling rate (0 when stopped)", {},
              Armed.load(std::memory_order_relaxed)
                  ? ActiveHz.load(std::memory_order_relaxed)
                  : 0);
    });
  });
}

std::string profileProviderThunk() {
  return Profiler::global().profileJson();
}

} // namespace

Profiler &Profiler::global() {
  static Profiler *P = new Profiler();
  return *P;
}

bool Profiler::start(int Hz) {
#if GMDIV_PROF_HAVE_SIGPROF
  if (Hz <= 0)
    Hz = DefaultHz;
  bool Expected = false;
  if (!Armed.compare_exchange_strong(Expected, true))
    return false;

  // First backtrace() call may dlopen/allocate; do it here, outside
  // signal context, so the handler never does.
  void *Warm[4];
  backtrace(Warm, 4);

  registerProfMetricsOnce();
  metrics::FlightRecorder::setProfileProvider(&profileProviderThunk);

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_sigaction = &profSignalHandler;
  SA.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&SA.sa_mask);
  if (sigaction(SIGPROF, &SA, &PrevAction) != 0) {
    Armed.store(false);
    return false;
  }

  struct itimerval TV;
  TV.it_interval.tv_sec = 0;
  TV.it_interval.tv_usec = static_cast<suseconds_t>(1000000 / Hz);
  if (TV.it_interval.tv_usec == 0)
    TV.it_interval.tv_usec = 1;
  TV.it_value = TV.it_interval;
  if (setitimer(ITIMER_PROF, &TV, nullptr) != 0) {
    sigaction(SIGPROF, &PrevAction, nullptr);
    Armed.store(false);
    return false;
  }
  ActiveHz.store(Hz, std::memory_order_relaxed);
  return true;
#else
  (void)Hz;
  return false;
#endif
}

void Profiler::stop() {
#if GMDIV_PROF_HAVE_SIGPROF
  bool Expected = true;
  if (!Armed.compare_exchange_strong(Expected, false))
    return;
  struct itimerval Off;
  std::memset(&Off, 0, sizeof(Off));
  setitimer(ITIMER_PROF, &Off, nullptr);
  sigaction(SIGPROF, &PrevAction, nullptr);
#endif
}

bool Profiler::startFromEnv() {
  const char *Env = std::getenv("GMDIV_PROF");
  if (!Env || !*Env || std::strcmp(Env, "0") == 0)
    return false;
  if (running())
    return true;
  long Hz = std::strtol(Env, nullptr, 10);
  if (Hz <= 1) {
    // GMDIV_PROF=1 (or any truthy non-number) means "on at the default
    // rate"; GMDIV_PROF_HZ overrides that default.
    Hz = DefaultHz;
    if (const char *HzEnv = std::getenv("GMDIV_PROF_HZ")) {
      const long V = std::strtol(HzEnv, nullptr, 10);
      if (V > 0)
        Hz = V;
    }
  }
  return start(static_cast<int>(Hz));
}

bool Profiler::running() const {
  return Armed.load(std::memory_order_relaxed);
}

int Profiler::rateHz() const {
  return ActiveHz.load(std::memory_order_relaxed);
}

uint64_t Profiler::sampleCount() const { return recordedTotal(); }

uint64_t Profiler::droppedCount() const {
  return overwrittenTotal() + DroppedNoSlot.load(std::memory_order_relaxed);
}

void Profiler::reset() {
  const unsigned Claimed =
      std::min<unsigned>(RingsClaimed.load(std::memory_order_relaxed), MaxRings);
  for (unsigned I = 0; I < Claimed; ++I)
    Rings[I].Next.store(0, std::memory_order_relaxed);
  DroppedNoSlot.store(0, std::memory_order_relaxed);
}

std::string Profiler::collapsed() const {
  const auto Folded = foldSamples();
  SymbolCache Symbols;
  // Symbolized line -> count (distinct raw stacks can fold to one line).
  std::map<std::string, uint64_t> Lines;
  for (const auto &Entry : Folded) {
    std::string Line;
    // Stored leaf-first; collapsed format wants root-first.
    for (auto It = Entry.first.rbegin(); It != Entry.first.rend(); ++It) {
      if (!Line.empty())
        Line += ';';
      Line += Symbols.name(*It);
    }
    Lines[Line] += Entry.second;
  }
  std::string Out;
  for (const auto &L : Lines) {
    Out += L.first;
    Out += ' ';
    Out += std::to_string(L.second);
    Out += '\n';
  }
  return Out;
}

bool Profiler::writeCollapsed(const std::string &Path,
                              std::string *Error) const {
  const std::string Body = collapsed();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  const bool Ok =
      Body.empty() || std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  if (std::fclose(F) != 0 || !Ok) {
    if (Error)
      *Error = "short write to " + Path;
    return false;
  }
  return true;
}

std::string Profiler::profileJson() const {
  namespace json = telemetry::json;
  const auto Folded = foldSamples();

  // Order stacks by descending weight and cap what the crash report
  // embeds; the drop is visible through stacks_total vs stacks_kept.
  std::vector<std::pair<const std::vector<uintptr_t> *, uint64_t>> Ordered;
  Ordered.reserve(Folded.size());
  for (const auto &Entry : Folded)
    Ordered.emplace_back(&Entry.first, Entry.second);
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) { return A.second > B.second; });
  constexpr size_t MaxStacks = 64;
  const size_t Kept = std::min(Ordered.size(), MaxStacks);

  SymbolCache Symbols;
  json::Writer W;
  W.beginObject();
  W.key("gmdiv_profile").value(int64_t{1});
  W.key("rate_hz").value(static_cast<int64_t>(rateHz()));
  W.key("running").value(running());
  W.key("samples_recorded").value(sampleCount());
  W.key("samples_dropped").value(droppedCount());
  W.key("stacks_total").value(static_cast<uint64_t>(Ordered.size()));
  W.key("stacks_kept").value(static_cast<uint64_t>(Kept));
  W.key("stacks").beginArray();
  for (size_t I = 0; I < Kept; ++I) {
    W.beginObject();
    W.key("count").value(Ordered[I].second);
    W.key("frames").beginArray();
    // Leaf-first in JSON: the first frame is where the CPU was.
    for (uintptr_t Pc : *Ordered[I].first)
      W.value(Symbols.name(Pc));
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}
