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
/// A job whose predicted run time is below the measured cost of handing
/// it to a worker runs on the submitting thread instead, when nothing
/// is queued ahead of it and a worker is idle (runsInline()). Its
/// future is ready when submit returns. Both estimates come from jobs
/// this service has run; nothing is calibrated up front, and until both
/// exist every job is queued.
///
/// Semantics:
///  - Jobs start in submission order: a job runs on the caller only when
///    the queue is empty. With Workers == 1 the service is strictly FIFO
///    (a job runs on the caller only when nothing is running).
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

#include <atomic>
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

/// Streaming median of the hand-off cost: the submitter's time from
/// releasing the queue lock until notify_one returns, sampled on queued
/// jobs. Each sample moves the estimate 1/16 of itself toward the
/// sample, so one preempted notify moves it by at most 1/16 — a mean
/// would let that one sample push every later job onto the caller, and
/// jobs that never reach the queue measure nothing that could undo it.
/// Concurrent submitters may lose one another's step; that only drops
/// a sample.
class HandoffEstimate {
public:
  void record(uint64_t SampleNs);
  /// The estimate in ns; 0 until the first sample.
  uint64_t ns() const { return Ns.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Ns{0};
};

/// Run-time prediction: Count times the lowest JobNs / Count any job on
/// the service has shown, on a worker or on the caller. The lowest, not
/// the mean: a cold first run (registry admission, cache misses) is
/// 1000x the steady per-element cost and would switch inline runs off,
/// and worker runs carry cross-core misses a caller run does not.
/// Count == 0 jobs are skipped: they say nothing per element.
class RunCostEstimate {
public:
  void record(uint64_t JobNs, size_t Count);
  bool ready() const { return psPerElem() != None; }
  /// Count times the per-element estimate, in ns (saturating).
  uint64_t predictNs(size_t Count) const;
  /// The per-element estimate in ns; 0 until the first sample.
  double nsPerElem() const { return ready() ? psPerElem() / 1000.0 : 0.0; }

private:
  static constexpr uint64_t None = ~uint64_t{0};
  uint64_t psPerElem() const { return Ps.load(std::memory_order_relaxed); }
  std::atomic<uint64_t> Ps{None};
};

/// The inline guard: true when a Count-lane job should run on the
/// submitting thread. It must be first in line (\p Queued == 0), a
/// worker must be idle (\p Running < \p Workers; Running counts jobs on
/// callers too), both estimates must exist, and the predicted run time
/// must be below the hand-off cost.
bool runsInline(size_t Queued, size_t Running, size_t Workers, size_t Count,
                const HandoffEstimate &Handoff, const RunCostEstimate &Cost);

class BatchService {
public:
  struct Options {
    /// Worker threads. 0 is clamped to 1.
    size_t Workers = 2;
    /// Accepted-but-unstarted jobs before submit() blocks.
    size_t QueueCapacity = 1024;

    /// Upper ends of the environment knobs' ranges (each starts at 1).
    static constexpr size_t MaxWorkers = 256;
    static constexpr size_t MaxQueueCapacity = size_t{1} << 24;

    /// Reads GMDIV_SERVICE_WORKERS and GMDIV_SERVICE_QUEUE, each
    /// clamped to [1, Max...] (see envKnob).
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

  /// Submitted/completed/failed/inline counters, queue-depth gauge, the
  /// two inline estimates and the job and queue-wait histograms under
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
  /// Runs \p J on the calling thread (a worker or the submitter), fills
  /// its promise and does the completion accounting.
  void runJob(Job &J);
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
  size_t Running = 0;
  bool Stopping = false;

  std::vector<std::thread> Pool;

  metrics::Counter Submitted;
  metrics::Counter Completed;
  metrics::Counter Rejected;
  metrics::Counter Elements;
  /// Jobs run on the submitting thread.
  metrics::Counter Inline;
  HandoffEstimate Handoff;
  RunCostEstimate RunCost;
  metrics::Histogram JobNs;
  /// Time between enqueue and a worker picking the job up — the queue
  /// component of tail latency, kept separate from JobNs on purpose.
  metrics::Histogram QueueWaitNs;
  std::string MetricsPrefix;
  uint64_t CollectorHandle = 0;
};

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_BATCHSERVICE_H
