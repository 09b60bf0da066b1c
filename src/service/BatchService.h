//===- service/BatchService.h - Async batch division front door --*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Future-based front door for array division: submit(divisor, spans)
/// returns a std::future<BatchResult>, and a small worker pool
/// resolves the divisor through the DividerRegistry (admitting it on
/// first sight) and runs the BatchDivider SIMD kernels over the spans.
/// Callers pipeline: submit a window of batches, then collect futures,
/// overlapping precompute + kernels with their own work.
///
/// A job whose input span is at most InlineMaxSpanBytes runs on the
/// submitting thread instead, when nothing is queued ahead of it and a
/// worker is idle (runsOnCaller()); its future is ready when submit
/// returns. A submitter whose push finds a backlog while every worker
/// is running a job runs the oldest queued job itself before returning
/// (submitterHelps()), so it works instead of waiting on its future.
/// Neither rule learns from past jobs: a fresh service decides exactly
/// as a warm one.
///
/// Semantics:
///  - Jobs start in submission order: a job runs on the caller only when
///    the queue is empty, and a helping submitter takes the queue's
///    front. With Workers == 1 the service is strictly FIFO: a job runs
///    on the caller only when nothing is running, and no submitter
///    helps.
///  - Invalid requests (zero divisor, span length mismatch) never
///    enqueue: the returned future holds std::invalid_argument.
///  - The caller owns the spans and must keep them alive until the
///    future resolves; the service never copies lane data.
///  - Jobs may run in place: Out may be the same span as In for
///    submitDivide/submitRemainder, and Quot the same span as In for
///    submitDivRem (BatchDivider's exact-aliasing contract). Spans that
///    partially overlap are not supported.
///  - submit() applies backpressure: it blocks while the queue is at
///    QueueCapacity. A job that waited for room is always queued.
///  - The destructor drains every accepted job before joining, so a
///    returned future never ends up with broken_promise.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_SERVICE_BATCHSERVICE_H
#define GMDIV_SERVICE_BATCHSERVICE_H

#include "metrics/Metrics.h"
#include "service/Registry.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gmdiv {
namespace service {

/// What a completed batch reports back through its future.
struct BatchResult {
  Key K;
  size_t Elements = 0;
  /// Batch backend that ran the kernel ("avx2", "sse2", "scalar", ...).
  const char *Backend = "";
  /// Registry resolve + kernel, ns, on whichever thread ran the job.
  uint64_t JobNs = 0;
};

/// The inline cap: a job whose input span is at most this many bytes
/// (512 u64 or 1024 u32 lanes) may run on the submitting thread. On a
/// 4-vCPU Xeon KVM guest the slowest lanes are i64 at 0.83 ns (u64
/// 0.65, i32 0.25, u32 0.22), so the largest job under the cap costs
/// about 512 x 0.83 ns + 0.2 us of resolve and call, 0.6 us: below the
/// cheapest wake of a parked worker there (2.5 us back to back, 12-27
/// us after 2 ms idle), which the caller would otherwise pay. The
/// smallest bulk job in bench/e2e (16384 u32 lanes, 64 KiB) takes at
/// least 3.6 us and stays off the caller.
inline constexpr size_t InlineMaxSpanBytes = 4096;

/// The inline guard: true when a job of \p Count lanes of \p LaneBytes
/// each should run on the submitting thread. It must be first in line
/// (\p Queued == 0), a worker must be idle (\p Running < \p Workers;
/// Running counts jobs on callers too), and its input span must be at
/// most InlineMaxSpanBytes.
constexpr bool runsOnCaller(size_t Queued, size_t Running, size_t Workers,
                            size_t Count, size_t LaneBytes) {
  return Queued == 0 && Running < Workers &&
         Count <= InlineMaxSpanBytes / LaneBytes;
}

/// The helping guard: true when a submitter whose own push found
/// \p Backlog (a job already queued) should run the queue's front job
/// itself because all \p Workers are running one (\p BusyWorkers).
/// Never with one worker, which keeps that service strictly FIFO.
constexpr bool submitterHelps(bool Backlog, size_t BusyWorkers,
                              size_t Workers) {
  return Workers >= 2 && Backlog && BusyWorkers >= Workers;
}

class BatchService {
public:
  struct Options {
    /// Worker threads.
    size_t Workers = 2;
    /// Accepted-but-unstarted jobs before submit() blocks.
    size_t QueueCapacity = 1024;

    /// Upper ends of the fields' ranges (each starts at 1).
    static constexpr size_t MaxWorkers = 256;
    static constexpr size_t MaxQueueCapacity = size_t{1} << 24;

    /// These options with every field clamped to [1, Max...], so no
    /// value can start an unbounded number of threads. The constructor
    /// applies it.
    Options clamped() const;

    /// Reads GMDIV_SERVICE_WORKERS and GMDIV_SERVICE_QUEUE (see
    /// envKnob), clamped().
    static Options fromEnv();
  };

  /// \p Reg must outlive the service. The global registry is the usual
  /// choice: BatchService Svc(DividerRegistry::global()).
  explicit BatchService(DividerRegistry &Reg,
                        Options Opts = Options::fromEnv());
  ~BatchService();

  BatchService(const BatchService &) = delete;
  BatchService &operator=(const BatchService &) = delete;

  /// Out[i] = In[i] / Divisor (trunc for signed T).
  template <typename T>
  std::future<BatchResult> submitDivide(T Divisor, std::span<const T> In,
                                        std::span<T> Out) {
    return enqueue(keyFor<T>(Divisor), Op::Divide, In.data(), Out.data(),
                   nullptr, In.size(), In.size() == Out.size());
  }

  /// Out[i] = In[i] % Divisor (sign of the dividend for signed T).
  template <typename T>
  std::future<BatchResult> submitRemainder(T Divisor, std::span<const T> In,
                                           std::span<T> Out) {
    return enqueue(keyFor<T>(Divisor), Op::Remainder, In.data(), Out.data(),
                   nullptr, In.size(), In.size() == Out.size());
  }

  /// Quotients and remainders together.
  template <typename T>
  std::future<BatchResult> submitDivRem(T Divisor, std::span<const T> In,
                                        std::span<T> Quot,
                                        std::span<T> Rem) {
    return enqueue(keyFor<T>(Divisor), Op::DivRem, In.data(), Quot.data(),
                   Rem.data(), In.size(),
                   In.size() == Quot.size() && In.size() == Rem.size());
  }

  /// Blocks until every accepted job has completed.
  void drain();

  /// Jobs accepted but not yet completed (queued + running, on workers
  /// or on callers).
  size_t pending() const;

  size_t workers() const { return Pool.size(); }
  size_t queueCapacity() const { return QueueCapacity; }

  /// Submitted/completed/failed/inline/helped counters, queue-depth and
  /// worker gauges, and the job and queue-wait histograms under
  /// \p Prefix (e.g. "gmdiv_service_batch").
  /// Idempotent; the destructor unregisters.
  void exportMetrics(const std::string &Prefix);

private:
  enum class Op : uint8_t { Divide, Remainder, DivRem };

  /// One accepted job, queued or run on the caller.
  struct Job {
    Key K;
    Op O = Op::Divide;
    const void *In = nullptr;
    void *OutA = nullptr;
    void *OutB = nullptr;
    size_t Count = 0;
    std::promise<BatchResult> Done;
    /// Request-flow id allocated at submit; the queue-wait and execute
    /// spans carry it so the trace shows one linked request.
    uint64_t Flow = 0;
    /// steady_clock ns at enqueue (for the queue-wait histogram).
    uint64_t EnqueueSteadyNs = 0;
    /// Trace-epoch ns at enqueue (so the back-dated queue-wait span
    /// lands at the right ts in the exported trace).
    uint64_t EnqueueTraceNs = 0;
  };

  std::future<BatchResult> enqueue(const Key &K, Op O, const void *In,
                                   void *OutA, void *OutB, size_t Count,
                                   bool SizesOk);
  /// Pops the queue's front job and counts it running, on a worker
  /// when \p OnWorker. The caller holds Mutex and, once it has released
  /// it, notifies NotFull.
  Job popFront(bool OnWorker);
  /// Records \p J's queue wait, then runJob().
  void runQueued(Job &J, bool OnWorker);
  /// Runs \p J on the calling thread (a worker or the submitter), fills
  /// its promise and does the completion accounting.
  void runJob(Job &J, bool OnWorker);
  /// Resolves \p J's key and runs its kernel; returns the backend name.
  const char *execute(const Job &J);
  void workerLoop();
  void collect(metrics::SnapshotBuilder &B) const;

  DividerRegistry &Reg;
  size_t QueueCapacity;

  mutable std::mutex Mutex;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull;
  std::condition_variable Idle;
  std::deque<Job> Queue;
  /// Jobs running on workers and on callers.
  size_t Running = 0;
  /// Worker threads running a job.
  size_t BusyWorkers = 0;
  bool Stopping = false;

  std::vector<std::thread> Pool;

  metrics::Counter Submitted;
  metrics::Counter Completed;
  metrics::Counter Rejected;
  metrics::Counter Elements;
  /// Jobs run on the submitting thread.
  metrics::Counter Inline;
  /// Queued jobs run by a submitter while every worker was busy.
  metrics::Counter Helped;
  metrics::Histogram JobNs;
  /// Time between enqueue and a thread picking the job up — the queue
  /// component of tail latency, kept separate from JobNs on purpose.
  metrics::Histogram QueueWaitNs;
  std::string MetricsPrefix;
  uint64_t CollectorHandle = 0;
};

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_BATCHSERVICE_H
