//===- service/BatchService.cpp - Async batch division front door ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/BatchService.h"

#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <optional>

namespace gmdiv {
namespace service {

namespace {

uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

BatchService::Options BatchService::Options::clamped() const {
  Options O = *this;
  O.Workers = std::clamp<size_t>(Workers, 1, MaxWorkers);
  O.QueueCapacity = std::clamp<size_t>(QueueCapacity, 1, MaxQueueCapacity);
  return O;
}

BatchService::Options BatchService::Options::fromEnv() {
  Options O;
  O.Workers = envKnob("GMDIV_SERVICE_WORKERS", O.Workers);
  O.QueueCapacity = envKnob("GMDIV_SERVICE_QUEUE", O.QueueCapacity);
  return O.clamped();
}

BatchService::BatchService(DividerRegistry &Registry, Options Opts)
    : Reg(Registry) {
  Opts = Opts.clamped();
  QueueCapacity = Opts.QueueCapacity;
  Pool.reserve(Opts.Workers);
  for (size_t I = 0; I < Opts.Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
}

BatchService::~BatchService() {
  if (CollectorHandle != 0)
    metrics::Registry::global().removeCollector(CollectorHandle);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  NotEmpty.notify_all();
  for (std::thread &W : Pool)
    W.join();
}

std::future<BatchResult> BatchService::enqueue(const Key &K, Op O,
                                               const void *In, void *OutA,
                                               void *OutB, size_t Count,
                                               bool SizesOk) {
  if (!K.valid() || !SizesOk) {
    Rejected.inc();
    std::promise<BatchResult> P;
    P.set_exception(std::make_exception_ptr(std::invalid_argument(
        !SizesOk ? "gmdiv service: span lengths must match"
                 : "gmdiv service: invalid key (zero divisor or "
                   "unsupported width)")));
    return P.get_future();
  }

  Job J{K, O, In, OutA, OutB, Count, {}};
  std::future<BatchResult> F = J.Done.get_future();

  // One flow id per job links the submit, queue-wait and execute spans
  // across the submitter/worker thread boundary in the exported trace.
  J.Flow = trace::enabled() ? trace::nextFlowId() : 0;
  trace::FlowScope Scope(J.Flow);
  bool RunHere = false;
  std::optional<Job> Front;
  {
    trace::Span Submit("service", "submit", static_cast<uint64_t>(Count));
    std::unique_lock<std::mutex> Lock(Mutex);
    // Decided once, before any backpressure wait: the job would start
    // next on an idle worker, so running it here keeps FIFO start order.
    RunHere = runsOnCaller(Queue.size(), Running, Pool.size(), Count,
                           K.WordBits / 8);
    if (RunHere) {
      ++Running;
    } else {
      NotFull.wait(Lock, [this] { return Queue.size() < QueueCapacity; });
      const bool Backlog = !Queue.empty();
      J.EnqueueSteadyNs = steadyNs();
      J.EnqueueTraceNs = J.Flow != 0 ? trace::nowNs() : 0;
      Queue.push_back(std::move(J));
      // Every worker is busy, so this thread would only wait on a
      // future: it runs the oldest job instead, as the next free worker
      // would have.
      if (submitterHelps(Backlog, BusyWorkers, Pool.size()))
        Front.emplace(popFront(/*OnWorker=*/false));
    }
  }
  if (Front)
    // One job in, one out, every worker busy: no worker waits for the
    // push, but a submitter blocked on a full queue may wait for the pop.
    NotFull.notify_one();
  else if (!RunHere)
    NotEmpty.notify_one();
  Submitted.inc();
  Elements.add(Count);
  if (RunHere) {
    Inline.inc();
    runJob(J, /*OnWorker=*/false);
  } else if (Front) {
    Helped.inc();
    runQueued(*Front, /*OnWorker=*/false);
  }
  return F;
}

const char *BatchService::execute(const Job &J) {
  const DividerRegistry::EntryHandle E = Reg.acquire(J.K);
  if (!E)
    throw std::runtime_error("gmdiv service: admission failed");
  switch (J.O) {
  case Op::Divide:
    E->divideArray(J.In, J.OutA, J.Count);
    break;
  case Op::Remainder:
    E->remainderArray(J.In, J.OutA, J.Count);
    break;
  case Op::DivRem:
    E->divRemArray(J.In, J.OutA, J.OutB, J.Count);
    break;
  }
  return E->batchBackend();
}

BatchService::Job BatchService::popFront(bool OnWorker) {
  Job J = std::move(Queue.front());
  Queue.pop_front();
  ++Running;
  BusyWorkers += OnWorker;
  return J;
}

void BatchService::runQueued(Job &J, bool OnWorker) {
  const uint64_t T0 = steadyNs();
  const uint64_t Wait = T0 >= J.EnqueueSteadyNs ? T0 - J.EnqueueSteadyNs : 0;
  QueueWaitNs.record(Wait);
  if (J.Flow != 0)
    // Back-date the wait just observed so the trace shows queue time as
    // its own span, not folded into execution.
    trace::recordSpan("service", "queue_wait", J.EnqueueTraceNs, Wait, 0,
                      J.Flow);
  runJob(J, OnWorker);
}

void BatchService::runJob(Job &J, bool OnWorker) {
  {
    trace::FlowScope Scope(J.Flow);
    trace::Span Exec("service", "execute");
    const uint64_t T0 = steadyNs();
    try {
      BatchResult R;
      R.Backend = execute(J);
      R.JobNs = steadyNs() - T0;
      R.K = J.K;
      R.Elements = J.Count;
      JobNs.record(R.JobNs);
      J.Done.set_value(R);
    } catch (...) {
      JobNs.record(steadyNs() - T0);
      J.Done.set_exception(std::current_exception());
    }
  }
  Completed.inc();

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Running;
    BusyWorkers -= OnWorker;
  }
  Idle.notify_all();
}

void BatchService::workerLoop() {
  for (;;) {
    // Filled by a move from the queue: a default-constructed Job would
    // allocate a promise only to free it.
    std::optional<Job> J;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      NotEmpty.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        // Stopping and drained: exit. Accepted jobs always run first,
        // so no future is ever abandoned.
        return;
      }
      J.emplace(popFront(/*OnWorker=*/true));
    }
    NotFull.notify_one();
    runQueued(*J, /*OnWorker=*/true);
  }
}

void BatchService::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

size_t BatchService::pending() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queue.size() + Running;
}

void BatchService::collect(metrics::SnapshotBuilder &B) const {
  const std::string &P = MetricsPrefix;
  B.counter(P + "_submitted_total", "Batch jobs accepted", {},
            static_cast<double>(Submitted.value()));
  B.counter(P + "_completed_total", "Batch jobs completed", {},
            static_cast<double>(Completed.value()));
  B.counter(P + "_rejected_total",
            "Batch submissions rejected up front (invalid key or span "
            "mismatch)",
            {}, static_cast<double>(Rejected.value()));
  B.counter(P + "_elements_total", "Lanes processed by batch jobs", {},
            static_cast<double>(Elements.value()));
  B.counter(P + "_inline_total",
            "Batch jobs run on the submitting thread because a worker was "
            "idle and their input span was at most 4 KiB",
            {}, static_cast<double>(Inline.value()));
  B.counter(P + "_helped_total",
            "Queued batch jobs run by a submitter because every worker "
            "was busy",
            {}, static_cast<double>(Helped.value()));
  B.gauge(P + "_queue_depth", "Jobs accepted but not yet completed", {},
          static_cast<double>(pending()));
  B.gauge(P + "_workers", "Worker threads", {},
          static_cast<double>(Pool.size()));
  metrics::Histogram::Cumulative C = JobNs.cumulative();
  B.histogram(P + "_job_ns",
              "Job latency on the thread that ran it: registry resolve + "
              "kernel (ns)",
              {}, std::move(C.Bounds), C.Count, C.Sum);
  metrics::Histogram::Cumulative QW = QueueWaitNs.cumulative();
  B.histogram(P + "_queue_wait_ns",
              "Time a job waited in the queue before a worker or a "
              "helping submitter picked it up (ns), separate from job "
              "execution time",
              {}, std::move(QW.Bounds), QW.Count, QW.Sum);
}

void BatchService::exportMetrics(const std::string &Prefix) {
  if (CollectorHandle != 0)
    return;
  MetricsPrefix = Prefix;
  CollectorHandle = metrics::Registry::global().addCollector(
      [this](metrics::SnapshotBuilder &B) { collect(B); });
}

} // namespace service
} // namespace gmdiv
