//===- metrics/Exporter.cpp - Background metrics snapshot writer ----------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "metrics/Exporter.h"

#include "metrics/Exposition.h"
#include "metrics/Metrics.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

using namespace gmdiv;
using namespace gmdiv::metrics;

namespace {

/// Set by the SIGUSR1 handler, consumed by the exporter thread. The
/// handler does nothing else — everything non-trivial is deferred to
/// the thread, keeping the handler async-signal-safe.
volatile std::sig_atomic_t DumpRequested = 0;

void onSigusr1(int) { DumpRequested = 1; }

bool writeFileAtomic(const std::string &Path, const std::string &Body,
                     std::string *Error) {
  const std::string Tmp = Path + ".tmp";
  std::FILE *Out = std::fopen(Tmp.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open " + Tmp + ": " + std::strerror(errno);
    return false;
  }
  const size_t Written = std::fwrite(Body.data(), 1, Body.size(), Out);
  const bool Closed = std::fclose(Out) == 0;
  if (Written != Body.size() || !Closed) {
    if (Error)
      *Error = "short write to " + Tmp;
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    if (Error)
      *Error = "cannot rename " + Tmp + ": " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool endsWith(const std::string &S, const char *Suffix) {
  const size_t Len = std::strlen(Suffix);
  return S.size() >= Len && S.compare(S.size() - Len, Len, Suffix) == 0;
}

} // namespace

struct Exporter::Impl {
  std::mutex Mutex;
  std::condition_variable Wake;
  std::thread Thread;
  Options Opts;
  bool Running = false;
  bool StopRequested = false;

  void loop() {
    using Clock = std::chrono::steady_clock;
    Clock::time_point NextWrite =
        Clock::now() + std::chrono::milliseconds(Opts.IntervalMs);
    std::unique_lock<std::mutex> Lock(Mutex);
    while (!StopRequested) {
      // Short slices so a SIGUSR1 dump request is honored promptly
      // even with a long write interval.
      Wake.wait_for(Lock, std::chrono::milliseconds(100));
      if (StopRequested)
        break;
      const bool Dump = DumpRequested != 0;
      if (!Dump && Clock::now() < NextWrite)
        continue;
      DumpRequested = 0;
      const std::string Path = Opts.Path;
      Lock.unlock();
      std::string Error;
      if (!writeSnapshotFile(Path, &Error))
        std::fprintf(stderr, "gmdiv-metrics: %s\n", Error.c_str());
      Lock.lock();
      NextWrite = Clock::now() + std::chrono::milliseconds(Opts.IntervalMs);
    }
  }
};

Exporter::Impl *Exporter::impl() {
  static Impl *I = new Impl;
  return I;
}

Exporter::~Exporter() = default;

Exporter &Exporter::global() {
  static Exporter *E = new Exporter;
  return *E;
}

bool Exporter::start(const Options &O) {
  if (O.Path.empty())
    return false;
  Impl *I = impl();
  std::lock_guard<std::mutex> Lock(I->Mutex);
  if (I->Running)
    return true;
  I->Opts = O;
  if (I->Opts.IntervalMs < 10)
    I->Opts.IntervalMs = 10;
  I->StopRequested = false;
  I->Thread = std::thread([I] { I->loop(); });
  I->Running = true;
  return true;
}

bool Exporter::startFromEnv() {
  const char *Path = std::getenv("GMDIV_METRICS_OUT");
  if (!Path || !Path[0])
    return false;
  Options O;
  O.Path = Path;
  if (const char *Interval = std::getenv("GMDIV_METRICS_INTERVAL_MS"))
    if (std::atoll(Interval) > 0)
      O.IntervalMs = std::atoll(Interval);
  installSigusr1();
  return start(O);
}

void Exporter::stop() {
  Impl *I = impl();
  std::thread Thread;
  std::string FinalPath;
  {
    std::lock_guard<std::mutex> Lock(I->Mutex);
    if (!I->Running)
      return;
    I->StopRequested = true;
    I->Running = false;
    Thread = std::move(I->Thread);
    FinalPath = I->Opts.Path;
  }
  I->Wake.notify_all();
  if (Thread.joinable())
    Thread.join();
  // Final write so the file reflects end-of-run state.
  std::string Error;
  if (!writeSnapshotFile(FinalPath, &Error))
    std::fprintf(stderr, "gmdiv-metrics: %s\n", Error.c_str());
}

bool Exporter::running() const {
  Impl *I = const_cast<Exporter *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->Running;
}

const std::string &Exporter::path() const {
  Impl *I = const_cast<Exporter *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->Opts.Path;
}

bool Exporter::writeSnapshotFile(const std::string &Path,
                                 std::string *Error) {
  const Snapshot S = Registry::global().snapshot();
  const std::string Body =
      endsWith(Path, ".json") ? snapshotJson(S) : prometheusText(S);
  return writeFileAtomic(Path, Body, Error);
}

void Exporter::installSigusr1() {
#ifdef SIGUSR1
  static bool Installed = [] {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onSigusr1;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = SA_RESTART;
    sigaction(SIGUSR1, &SA, nullptr);
    return true;
  }();
  (void)Installed;
#endif
}
