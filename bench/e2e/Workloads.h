//===- bench/e2e/Workloads.h - The four e2e workloads -----------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inputs, set-up and closed-loop timed phases of the four workloads.
/// Each workload drives gmdiv through the public entry points a caller
/// uses, from one caller thread:
///
///   bulk        BatchService submits of 16384-lane jobs, 8 in flight.
///   short_jobs  the same service with 1..64-lane jobs.
///   route       DividerRegistry::withEntry per message, Zipf tenants.
///   churn       acquire() then remainderArray() with 10% new divisors.
///
/// README.md records why each exists and what each should move.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_BENCH_E2E_WORKLOADS_H
#define GMDIV_BENCH_E2E_WORKLOADS_H

#include "Support.h"

#include "service/BatchService.h"
#include "service/Registry.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

enum class Kind { Bulk, ShortJobs, Route, Churn };

const char *kindName(Kind K);
std::optional<Kind> kindFromName(const std::string &Name);

/// True for the workloads that go through BatchService.
inline bool usesService(Kind K) {
  return K == Kind::Bulk || K == Kind::ShortJobs;
}
/// True for route: one scalar withEntry() per message.
inline bool perMessage(Kind K) { return K == Kind::Route; }

/// Jobs each service workload keeps in flight.
inline constexpr size_t Window = 8;
/// Messages per timed route block.
inline constexpr size_t Block = 64;

/// Everything generated from the seed. The library sees only these.
struct Inputs {
  Kind K = Kind::Bulk;
  /// The hot set: admitted during set-up, resident afterwards.
  std::vector<Divisor> Divs;
  std::vector<gmdiv::service::Key> Keys; ///< Keys[i] is Divs[i]'s key.
  Pools Pool;
  /// The request stream, replayed cyclically by the timed phases.
  std::vector<Request> Stream;
  /// Source of never-seen divisors for Fresh requests (churn).
  Rng Fresh{0};
};

Inputs makeInputs(Kind K, uint64_t Seed);

gmdiv::service::Key keyOf(const Divisor &D);

/// The entry's type-erased array call for \p O.
inline void entryArray(const gmdiv::service::DividerEntry &E, Op O,
                       const void *In, void *Out0, void *Out1, size_t N) {
  switch (O) {
  case Op::Div:
    E.divideArray(In, Out0, N);
    break;
  case Op::Rem:
    E.remainderArray(In, Out0, N);
    break;
  case Op::DivRem:
    E.divRemArray(In, Out0, Out1, N);
    break;
  }
}

/// min(2, nproc - 1), at least 1.
size_t workerCount();
gmdiv::service::DividerRegistry::Options registryOptions(Kind K);
gmdiv::service::BatchService::Options serviceOptions();

/// The objects under test: a registry, plus a service for bulk and
/// short_jobs (or for a service probe on route/churn).
struct System {
  std::unique_ptr<gmdiv::service::DividerRegistry> Reg;
  std::unique_ptr<gmdiv::service::BatchService> Svc;

  void reset() {
    Svc.reset(); // joins the workers before the registry goes
    Reg.reset();
  }
};

/// Constructs the registry (and service) and admits the hot set.
/// Returns false if any admission fails.
bool setUp(const Inputs &In, System &Sys);

/// Per-request service-layer samples, collected on every request of a
/// service phase that asks for them.
struct ServiceSamples {
  std::vector<double> SubmitUs, JobUs, HandoffUs;
  uint64_t JobNsSum = 0;
  double WallS = 0;
};

struct PhaseOptions {
  double Seconds = 1;
  /// Untimed lead-in (still checked) so lazy state settles first.
  double WarmupSeconds = 0;
  /// Non-null: record spans for one request in SampleStride.
  SpanLog *Spans = nullptr;
  uint64_t SampleStride = 1;
  /// Non-null (service phases): per-request submit/job/handoff samples.
  ServiceSamples *Service = nullptr;
};

struct PhaseResult {
  Windows::Summary W;
  uint64_t Attempted = 0, Failed = 0;
  double WallS = 0;
  double CheckS = 0;
};

/// Drives one workload phase. \p Stream may differ from In.Stream (the
/// service probe on route and churn); \p Cursor carries the position
/// across phases.
class Driver {
public:
  Driver(Inputs &In, System &Sys, Checker &Chk) : In(In), Sys(Sys), Chk(Chk) {}

  PhaseResult run(const std::vector<Request> &Stream,
                  const PhaseOptions &Opts);

private:
  PhaseResult runService(const std::vector<Request> &S,
                         const PhaseOptions &Opts);
  PhaseResult runRoute(const std::vector<Request> &S,
                       const PhaseOptions &Opts);
  PhaseResult runChurn(const std::vector<Request> &S,
                       const PhaseOptions &Opts);
  /// True when request \p Id is traced and the log has room for its
  /// \p Spans spans.
  static bool sample(const PhaseOptions &O, uint64_t Id, size_t Spans);

  Inputs &In;
  System &Sys;
  Checker &Chk;
  size_t Cursor = 0;
  uint64_t NextId = 0;
};

/// The array-shaped stream a service probe submits for \p In: route
/// messages grouped into 64-lane remainder jobs, otherwise In.Stream.
std::vector<Request> serviceShape(const Inputs &In);

} // namespace e2e

#endif // GMDIV_BENCH_E2E_WORKLOADS_H
