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

void HandoffEstimate::record(uint64_t SampleNs) {
  const uint64_t Sample = std::max<uint64_t>(SampleNs, 1);
  const uint64_t Est = Ns.load(std::memory_order_relaxed);
  if (Est == 0) {
    Ns.store(Sample, std::memory_order_relaxed);
    return;
  }
  const uint64_t Step = std::max<uint64_t>(Est / 16, 1);
  if (Sample > Est)
    Ns.store(Est + Step, std::memory_order_relaxed);
  else if (Sample < Est)
    Ns.store(Est - Step, std::memory_order_relaxed);
}

void RunCostEstimate::record(uint64_t JobNs, size_t Count) {
  if (Count == 0)
    return;
  // Picoseconds, so a kernel-bound job's sub-ns lanes keep their cost.
  const uint64_t Sample = std::max<uint64_t>(JobNs * 1000 / Count, 1);
  uint64_t Cur = Ps.load(std::memory_order_relaxed);
  while (Sample < Cur &&
         !Ps.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed))
    ;
}

uint64_t RunCostEstimate::predictNs(size_t Count) const {
  const uint64_t PerElem = psPerElem();
  if (Count != 0 && PerElem > ~uint64_t{0} / Count)
    return ~uint64_t{0};
  return PerElem * Count / 1000;
}

bool runsInline(size_t Queued, size_t Running, size_t Workers, size_t Count,
                const HandoffEstimate &Handoff, const RunCostEstimate &Cost) {
  if (Queued != 0 || Running >= Workers)
    return false;
  const uint64_t HandoffNs = Handoff.ns();
  return HandoffNs != 0 && Cost.ready() && Cost.predictNs(Count) < HandoffNs;
}

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
  {
    trace::Span Submit("service", "submit", static_cast<uint64_t>(Count));
    std::unique_lock<std::mutex> Lock(Mutex);
    // Decided once, before any backpressure wait: the job would start
    // next on an idle worker, so running it here keeps FIFO start order.
    RunHere = runsInline(Queue.size(), Running, Pool.size(), Count, Handoff,
                         RunCost);
    if (RunHere) {
      ++Running;
    } else {
      NotFull.wait(Lock, [this] { return Queue.size() < QueueCapacity; });
      J.EnqueueSteadyNs = steadyNs();
      J.EnqueueTraceNs = J.Flow != 0 ? trace::nowNs() : 0;
      Queue.push_back(std::move(J));
    }
  }
  if (!RunHere) {
    const uint64_t T0 = steadyNs();
    NotEmpty.notify_one();
    Handoff.record(steadyNs() - T0);
  }
  Submitted.inc();
  Elements.add(Count);
  if (RunHere) {
    Inline.inc();
    runJob(J);
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

void BatchService::runJob(Job &J) {
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
      // Before the promise, so a caller holding this result already
      // sees its sample.
      RunCost.record(R.JobNs, J.Count);
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
  }
  Idle.notify_all();
}

void BatchService::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      NotEmpty.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        // Stopping and drained: exit. Accepted jobs always run first,
        // so no future is ever abandoned.
        return;
      }
      J = std::move(Queue.front());
      Queue.pop_front();
      ++Running;
    }
    NotFull.notify_one();

    const uint64_t T0 = steadyNs();
    const uint64_t Wait =
        T0 >= J.EnqueueSteadyNs ? T0 - J.EnqueueSteadyNs : 0;
    QueueWaitNs.record(Wait);
    if (J.Flow != 0)
      // Back-date the wait the worker just observed so the trace shows
      // queue time as its own span, not folded into execution.
      trace::recordSpan("service", "queue_wait", J.EnqueueTraceNs, Wait, 0,
                        J.Flow);
    runJob(J);
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
            "Batch jobs run on the submitting thread because their "
            "predicted run time was below the hand-off cost",
            {}, static_cast<double>(Inline.value()));
  B.gauge(P + "_handoff_ns_estimate",
          "Streaming median of the submitter's queue hand-off cost (ns); "
          "0 until a job has been queued",
          {}, static_cast<double>(Handoff.ns()));
  B.gauge(P + "_run_ns_per_elem_estimate",
          "Lowest job run time per lane seen (ns); 0 until a job has run",
          {}, RunCost.nsPerElem());
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
              "Time a job waited in the queue before a worker picked it "
              "up (ns), separate from job execution time",
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
