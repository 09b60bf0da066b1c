//===- metrics/Metrics.h - Unified runtime metrics registry -----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime metrics plane and the only instrument layer: typed
/// instruments (monotonic counters, gauges, log-scaled histograms)
/// behind one process-wide Registry, with a point-in-time Snapshot
/// model that the Prometheus/JSON exposition writers
/// (metrics/Exposition.h), `--stats`, the exporter and the flight
/// recorder all serialize.
///
/// The hot path is wait-free. A Counter gives each of the first 64
/// live threads a cache-line-sized stripe of its own, so an increment
/// is a relaxed load plus a relaxed store on a line no other thread
/// writes: no lock prefix, no CAS loop, no lock. Threads beyond those
/// 64 share one overflow stripe that keeps a relaxed fetch_add. A
/// thread returns its stripe at exit, so thread churn recycles stripes
/// rather than pushing later threads onto the overflow stripe
/// (bench/bench_metrics.cpp holds this at a few ns/op with near-linear
/// thread scaling). Stripes merge at snapshot time. Because an owned
/// stripe is updated by a load and a store, Counter::add must not be
/// called from a signal handler.
///
/// Sources that already keep their own accounting (the service
/// registry, the trace rings, remark dispatch) plug in as
/// *collectors*: callbacks the Registry runs at snapshot time to append
/// samples. Every series has exactly one writer.
///
///   auto &Hits = metrics::Registry::global().counter(
///       "gmdiv_batch_calls_total", "Batch kernel invocations");
///   Hits.inc();                       // wait-free
///   GMDIV_STAT(codegen, unsigned_div_pow2);  // gmdiv_codegen_..._total
///   metrics::Snapshot S = metrics::Registry::global().snapshot();
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_METRICS_METRICS_H
#define GMDIV_METRICS_METRICS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gmdiv {
namespace metrics {

/// Ordered key/value label pairs. Order is preserved in the exposition;
/// two label sets are equal iff they have the same pairs in the same
/// order (instrument lookups use the serialized form as the key).
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Prometheus metric kinds the exposition understands.
enum class Kind { Counter, Gauge, Histogram };

const char *kindName(Kind K);

namespace detail {
/// Stripes a thread can own; Counter adds one shared overflow stripe.
inline constexpr unsigned OwnedStripes = 64;
/// The overflow stripe's index, also every thread's index once it has
/// returned its stripe at exit.
inline constexpr unsigned OverflowStripe = OwnedStripes;
/// A thread's index before its first increment.
inline constexpr unsigned UnassignedStripe = ~0u;

/// This thread's stripe: below OwnedStripes it owns that stripe,
/// OverflowStripe shares the overflow stripe, UnassignedStripe has not
/// asked yet.
inline constinit thread_local unsigned ThreadStripe = UnassignedStripe;

/// Cold path: leases a free owned stripe to this thread (until it
/// exits), or the overflow stripe when all are leased. Sets and
/// returns ThreadStripe.
unsigned allocateStripe();

inline unsigned stripeIndex() { return ThreadStripe; }
} // namespace detail

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

/// Monotonic counter. Each thread increments a cache-line-aligned
/// stripe it alone writes (a relaxed load and store); threads beyond
/// detail::OwnedStripes share an overflow stripe with fetch_add.
/// value() merges the stripes and is exact once writers are quiet.
/// Not async-signal-safe: an owned-stripe add interrupted by a handler
/// that adds to the same counter would lose the handler's increment.
class Counter {
public:
  Counter() = default;
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  void add(uint64_t By) {
    const unsigned I = detail::stripeIndex();
    if (I < detail::OwnedStripes) [[likely]] {
      std::atomic<uint64_t> &V = Stripes[I].V;
      V.store(V.load(std::memory_order_relaxed) + By,
              std::memory_order_relaxed);
    } else {
      addShared(By);
    }
  }
  void inc() { add(1); }

  uint64_t value() const {
    uint64_t Total = 0;
    for (const Stripe &S : Stripes)
      Total += S.V.load(std::memory_order_relaxed);
    return Total;
  }

private:
  /// First increment on this thread, or a thread on the overflow stripe.
  void addShared(uint64_t By);

  struct alignas(64) Stripe {
    std::atomic<uint64_t> V{0};
  };
  Stripe Stripes[detail::OwnedStripes + 1];
};

/// Last-value-wins gauge (occupancy, ratios scaled by the caller).
class Gauge {
public:
  Gauge() = default;
  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

  void set(double V) { Bits.store(pack(V), std::memory_order_relaxed); }
  double value() const { return unpack(Bits.load(std::memory_order_relaxed)); }

private:
  static uint64_t pack(double V);
  static double unpack(uint64_t Bits);
  std::atomic<uint64_t> Bits{0};
};

/// Log-scaled histogram over uint64 values (callers use ns),
/// HdrHistogram-lite: values 0..15 get exact buckets; larger values go
/// to a power-of-two major bucket split into 16 linear sub-buckets —
/// 1/32 relative bucket error over the full range with 976 buckets.
/// record() is two relaxed adds plus one bucket add.
class Histogram {
public:
  /// 16 exact buckets + 60 major buckets x 16 sub-buckets.
  static constexpr size_t NumBuckets = 16 + 60 * 16;

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void record(uint64_t Value) {
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Value, std::memory_order_relaxed);
    Buckets[bucketIndex(Value)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }

  /// Approximate percentile (P in [0, 100]) from the bucket midpoints;
  /// exact for values < 16, within 1/32 relative error above. 0 when
  /// empty.
  double percentile(double P) const;
  /// Approximate median absolute deviation, computed over the bucket
  /// (midpoint, count) mass.
  double mad() const;

  /// Maps a value to its bucket (exposed for the oracle tests).
  static size_t bucketIndex(uint64_t Value);
  /// Representative (midpoint) value of a bucket.
  static double bucketMidpoint(size_t Index);

  /// Cumulative (le, count) pairs for the Prometheus exposition:
  /// upper bounds 1, 3, 7, 15, then 2^k - 1 per major bucket, trimmed
  /// after the first bound that covers every recorded value. The +Inf
  /// bucket is implicit (equals count()).
  struct Cumulative {
    std::vector<std::pair<double, uint64_t>> Bounds;
    uint64_t Count = 0;
    double Sum = 0;
  };
  Cumulative cumulative() const;

private:
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Buckets[NumBuckets];
};

//===----------------------------------------------------------------------===//
// Snapshot model
//===----------------------------------------------------------------------===//

/// One sample (time series) inside a family.
struct Sample {
  LabelSet Labels;
  /// Counter / gauge value.
  double Value = 0;
  /// Histogram-only: cumulative (le, count) pairs, +Inf implicit.
  std::vector<std::pair<double, uint64_t>> CumulativeBuckets;
  /// Histogram-only: total of observations and their sum.
  uint64_t Count = 0;
  double Sum = 0;
};

/// All samples of one metric name.
struct Family {
  std::string Name;
  std::string Help;
  Kind K = Kind::Counter;
  std::vector<Sample> Samples;
};

/// Point-in-time view of every family, sorted by name.
struct Snapshot {
  int64_t UnixMs = 0; ///< Wall clock at snapshot time.
  std::vector<Family> Families;

  /// First sample matching (name, labels); nullptr when absent.
  const Sample *find(const std::string &Name, const LabelSet &Labels = {}) const;
  /// Value of a counter/gauge sample; \p Default when absent.
  double valueOr(const std::string &Name, const LabelSet &Labels,
                 double Default) const;
};

/// Collector-facing sink: appends samples to the snapshot under
/// construction. Native instruments are appended first, then
/// collectors in registration order. Each series must have exactly one
/// writer; the exposition parser's unique-series check catches a
/// second one.
class SnapshotBuilder {
public:
  void counter(const std::string &Name, const std::string &Help,
               const LabelSet &Labels, double Value);
  void gauge(const std::string &Name, const std::string &Help,
             const LabelSet &Labels, double Value);
  void histogram(const std::string &Name, const std::string &Help,
                 const LabelSet &Labels,
                 std::vector<std::pair<double, uint64_t>> CumulativeBuckets,
                 uint64_t Count, double Sum);

  /// Finalizes: families sorted by name, samples in insertion order.
  Snapshot take();

private:
  Sample *addSample(const std::string &Name, const std::string &Help, Kind K,
                    const LabelSet &Labels);

  std::map<std::string, Family> Families;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

class Registry {
public:
  Registry();
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// The process-wide registry (leaked singleton, safe at teardown).
  static Registry &global();

  /// Get-or-create by (name, labels): the same key always returns the
  /// same instrument, so function-local `static auto &C = ...` caching
  /// is safe and the idiomatic hot-path pattern. A name must keep one
  /// kind; Help is taken from the first registration.
  Counter &counter(const std::string &Name, const std::string &Help = "",
                   const LabelSet &Labels = {});
  Gauge &gauge(const std::string &Name, const std::string &Help = "",
               const LabelSet &Labels = {});
  Histogram &histogram(const std::string &Name, const std::string &Help = "",
                       const LabelSet &Labels = {});

  /// Snapshot-time callback appending samples (for sources that keep
  /// their own counters). Returns a handle for removeCollector.
  using Collector = std::function<void(SnapshotBuilder &)>;
  uint64_t addCollector(Collector C);
  void removeCollector(uint64_t Handle);

  /// Merges every instrument, every collector, and the trace-ring and
  /// remark-dispatch accounting into one Snapshot.
  Snapshot snapshot() const;

private:
  template <typename T> struct Entry {
    std::string Name;
    std::string Help;
    LabelSet Labels;
    std::unique_ptr<T> Instrument;
  };

  mutable std::mutex Mutex;
  std::vector<Entry<Counter>> Counters;
  std::vector<Entry<Gauge>> Gauges;
  std::vector<Entry<Histogram>> Histograms;
  std::map<std::string, size_t> CounterIndex, GaugeIndex, HistogramIndex;
  std::vector<std::pair<uint64_t, Collector>> Collectors;
  uint64_t NextCollector = 1;
};

/// Serialized "name{k=\"v\",...}" form used as the instrument key
/// (exact Prometheus series syntax).
std::string seriesKey(const std::string &Name, const LabelSet &Labels);

} // namespace metrics
} // namespace gmdiv

/// Case counters for the code generators, passes and harnesses — which
/// Figure 4.2 / 5.2 / §9 case fired, how often. GMDIV_STAT(GROUP, NAME)
/// bumps the metrics counter gmdiv_<GROUP>_<NAME>_total, resolved once
/// per expansion site into a function-local static reference; the same
/// pair expanded at several sites (or template instantiations) shares
/// one counter. GROUP and NAME are identifiers, not strings. Defining
/// GMDIV_NO_TELEMETRY (CMake option of the same name) compiles them
/// out; instruments that must keep counting then use Registry directly.
#ifdef GMDIV_NO_TELEMETRY
#define GMDIV_STAT_ADD(GROUP, NAME, BY) ((void)(BY))
#else
#define GMDIV_STAT_ADD(GROUP, NAME, BY)                                    \
  do {                                                                     \
    static ::gmdiv::metrics::Counter &GmdivStat_##GROUP##_##NAME =         \
        ::gmdiv::metrics::Registry::global().counter(                      \
            "gmdiv_" #GROUP "_" #NAME "_total",                            \
            "Case counter " #GROUP "." #NAME);                             \
    GmdivStat_##GROUP##_##NAME.add(BY);                                    \
  } while (false)
#endif

#define GMDIV_STAT(GROUP, NAME) GMDIV_STAT_ADD(GROUP, NAME, 1)

#endif // GMDIV_METRICS_METRICS_H
