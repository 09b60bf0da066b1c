//===- tests/MetricsTest.cpp - Metrics registry and exposition ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics-plane contracts: striped counters lose nothing under
/// contention, the registry hands back one instrument per series, the
/// Prometheus exposition round-trips through the strict parser, the
/// JSON exposition parses with the telemetry JSON parser, GMDIV_STAT
/// sites are registry counters, and every instrumented layer writes its
/// own series exactly once.
///
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"

#include "batch/BatchDivider.h"
#include "codegen/DivCodeGen.h"
#include "codegen/DivisionLowering.h"
#include "ir/Parser.h"
#include "metrics/Exporter.h"
#include "metrics/Exposition.h"
#include "service/BatchService.h"
#include "service/Registry.h"
#include "telemetry/Json.h"
#include "telemetry/Remarks.h"
#include "trace/Trace.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace gmdiv;
using namespace gmdiv::metrics;

namespace {

std::string uniqueName(const char *Stem) {
  static std::atomic<int> Serial{0};
  return std::string("gmdiv_test_") + Stem + "_" +
         std::to_string(Serial.fetch_add(1));
}

/// Runs \p Waves waves of \p PerWave threads, each adding \p PerThread
/// ones to \p C. Every thread of a wave increments once, waits until
/// the whole wave is live, then adds the rest, so a wave's threads hold
/// their stripes at the same time. Returns how many threads ran on the
/// shared overflow stripe.
int countInWaves(Counter &C, int Waves, int PerWave, uint64_t PerThread) {
  std::atomic<int> OnOverflow{0};
  for (int W = 0; W < Waves; ++W) {
    std::latch AllLive(PerWave);
    std::vector<std::thread> Threads;
    for (int T = 0; T < PerWave; ++T)
      Threads.emplace_back([&] {
        C.inc();
        if (metrics::detail::stripeIndex() == metrics::detail::OverflowStripe)
          OnOverflow.fetch_add(1);
        AllLive.arrive_and_wait();
        for (uint64_t I = 1; I < PerThread; ++I)
          C.inc();
      });
    for (std::thread &T : Threads)
      T.join();
  }
  return OnOverflow.load();
}

TEST(MetricsCounter, ExactUnderSixteenThreadContention) {
  // Single-writer stripes merge to the exact total: increments are
  // never lost, whatever stripe each thread landed on.
  {
    Counter C;
    countInWaves(C, 1, 16, 100000);
    EXPECT_EQ(C.value(), 16u * 100000);
  }
  // Twice as many live threads as owned stripes: at least half share
  // the overflow stripe, whose fetch_add must not lose increments either.
  {
    Counter C;
    constexpr int Owned = static_cast<int>(metrics::detail::OwnedStripes);
    constexpr int Live = 2 * Owned;
    EXPECT_GE(countInWaves(C, 1, Live, 100000), Live - Owned);
    EXPECT_EQ(C.value(), static_cast<uint64_t>(Live) * 100000);
  }
  // Short-lived threads in waves, 264 lifetimes in all: exiting threads
  // hand their stripes back, so no wave is pushed onto the overflow
  // stripe, and a recycled stripe keeps every earlier increment.
  {
    Counter C;
    EXPECT_EQ(countInWaves(C, 11, 24, 2000), 0);
    EXPECT_EQ(C.value(), 11u * 24 * 2000);
  }
}

TEST(MetricsRegistry, SameSeriesReturnsSameInstrument) {
  Registry &R = Registry::global();
  const std::string Name = uniqueName("identity");
  Counter &A = R.counter(Name, "help text");
  Counter &B = R.counter(Name);
  EXPECT_EQ(&A, &B);
  // A different label set is a different series -> different instrument.
  Counter &Labeled = R.counter(Name, "", {{"shard", "0"}});
  EXPECT_NE(&A, &Labeled);
  A.add(3);
  Labeled.add(4);
  const Snapshot S = R.snapshot();
  EXPECT_EQ(S.valueOr(Name, {}, -1), 3.0);
  EXPECT_EQ(S.valueOr(Name, {{"shard", "0"}}, -1), 4.0);
  // Help is taken from the first registration.
  const Sample *Found = S.find(Name);
  ASSERT_NE(Found, nullptr);
}

TEST(MetricsGauge, LastValueWins) {
  Gauge G;
  EXPECT_EQ(G.value(), 0.0);
  G.set(3.5);
  G.set(-0.25);
  EXPECT_EQ(G.value(), -0.25);
}

TEST(MetricsHistogram, CumulativeBucketsCoverEveryObservation) {
  Histogram H;
  const std::vector<uint64_t> Values = {0,  1,  2,   15,  16,  17,
                                        31, 32, 100, 1000, 123456};
  uint64_t Sum = 0;
  for (const uint64_t V : Values) {
    H.record(V);
    Sum += V;
  }
  EXPECT_EQ(H.count(), Values.size());
  EXPECT_EQ(H.sum(), Sum);

  const Histogram::Cumulative Cum = H.cumulative();
  EXPECT_EQ(Cum.Count, Values.size());
  ASSERT_FALSE(Cum.Bounds.empty());
  // Bounds ascend and counts are non-decreasing (cumulative).
  for (size_t I = 1; I < Cum.Bounds.size(); ++I) {
    EXPECT_LT(Cum.Bounds[I - 1].first, Cum.Bounds[I].first);
    EXPECT_LE(Cum.Bounds[I - 1].second, Cum.Bounds[I].second);
  }
  // The last emitted bound covers every observation, and each bound's
  // count matches a direct recount of values <= the bound.
  EXPECT_EQ(Cum.Bounds.back().second, Values.size());
  for (const auto &[Le, CountAtLe] : Cum.Bounds) {
    uint64_t Expect = 0;
    for (const uint64_t V : Values)
      if (static_cast<double>(V) <= Le)
        ++Expect;
    EXPECT_EQ(CountAtLe, Expect) << "le=" << Le;
  }
}

TEST(MetricsExposition, PrometheusTextRoundTripsThroughStrictParser) {
  Registry &R = Registry::global();
  const std::string CName = uniqueName("roundtrip_total");
  const std::string GName = uniqueName("occupancy");
  const std::string HName = uniqueName("latency_ns");
  // A label value exercising every escape the format defines.
  const LabelSet Tricky = {{"path", "a\\b\"c\nd"}, {"shard", "3"}};
  R.counter(CName, "Round-trip counter", Tricky).add(42);
  R.gauge(GName, "Round-trip gauge").set(0.5);
  Histogram &H = R.histogram(HName, "Round-trip histogram");
  for (uint64_t V : {1u, 10u, 100u, 1000u})
    H.record(V);

  const std::string Text = prometheusText(R.snapshot());
  std::vector<ParsedSample> Parsed;
  std::string Error;
  ASSERT_TRUE(parsePrometheusText(Text, Parsed, &Error))
      << Error << "\n"
      << Text;

  const ParsedSample *C = findSample(Parsed, CName, Tricky);
  ASSERT_NE(C, nullptr) << Text;
  EXPECT_EQ(C->Value, 42.0);
  const ParsedSample *G = findSample(Parsed, GName);
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(G->Value, 0.5);
  // Histogram expansion: _count and _sum agree with the instrument,
  // +Inf bucket present and equal to _count, bucket counts cumulative.
  const ParsedSample *HCount = findSample(Parsed, HName + "_count");
  ASSERT_NE(HCount, nullptr);
  EXPECT_EQ(HCount->Value, 4.0);
  const ParsedSample *HSum = findSample(Parsed, HName + "_sum");
  ASSERT_NE(HSum, nullptr);
  EXPECT_EQ(HSum->Value, 1111.0);
  const ParsedSample *Inf =
      findSample(Parsed, HName + "_bucket", {{"le", "+Inf"}});
  ASSERT_NE(Inf, nullptr);
  EXPECT_EQ(Inf->Value, 4.0);
  double Prev = 0;
  for (const ParsedSample &Sample : Parsed) {
    if (Sample.Name != HName + "_bucket")
      continue;
    EXPECT_GE(Sample.Value, Prev) << "buckets must be cumulative";
    Prev = Sample.Value;
  }
}

TEST(MetricsExposition, JsonSnapshotParsesWithTelemetryJsonParser) {
  Registry &R = Registry::global();
  const std::string Name = uniqueName("json_total");
  R.counter(Name, "JSON exposition check").add(7);
  const std::string Doc = snapshotJson(R.snapshot());
  ASSERT_TRUE(telemetry::json::isValid(Doc));
  telemetry::json::Value Root;
  ASSERT_TRUE(telemetry::json::parse(Doc, Root));
  EXPECT_EQ(Root.numberOr("gmdiv_metrics", 0), 1.0);
  EXPECT_GT(Root.numberOr("unix_ms", 0), 0.0);
  const telemetry::json::Value *Families = Root.find("families");
  ASSERT_NE(Families, nullptr);
  bool Found = false;
  for (const telemetry::json::Value &F : Families->array()) {
    if (F.stringOr("name", "") != Name)
      continue;
    Found = true;
    EXPECT_EQ(F.stringOr("kind", ""), "counter");
    const telemetry::json::Value *Samples = F.find("samples");
    ASSERT_NE(Samples, nullptr);
    ASSERT_EQ(Samples->array().size(), 1u);
    EXPECT_EQ(Samples->array()[0].numberOr("value", -1), 7.0);
  }
  EXPECT_TRUE(Found) << Doc;
}

TEST(MetricsCollector, RunsAtSnapshotAndUnregisters) {
  Registry &R = Registry::global();
  const std::string Name = uniqueName("collected");
  const uint64_t Handle = R.addCollector([&](SnapshotBuilder &B) {
    B.gauge(Name, "from a collector", {}, 17.0);
  });
  EXPECT_EQ(R.snapshot().valueOr(Name, {}, -1), 17.0);
  R.removeCollector(Handle);
  EXPECT_EQ(R.snapshot().valueOr(Name, {}, -1), -1.0);
}

//===----------------------------------------------------------------------===//
// GMDIV_STAT: case counters are metrics counters
//===----------------------------------------------------------------------===//

double familyValue(const std::string &Name) {
  return Registry::global().snapshot().valueOr(Name, {}, 0);
}

TEST(Stats, RegisterIncrementSnapshot) {
  // GMDIV_STAT(group, name) bumps gmdiv_<group>_<name>_total.
  const std::string Name = "gmdiv_metricstest_register_increment_total";
  const double Before = familyValue(Name);
  GMDIV_STAT(metricstest, register_increment);
  GMDIV_STAT_ADD(metricstest, register_increment, 41);
  EXPECT_EQ(familyValue(Name) - Before, 42.0);
}

template <typename T> void bumpDuplicate(uint64_t By) {
  GMDIV_STAT_ADD(metricstest, dup, By);
}

TEST(Stats, DuplicateCountersAggregate) {
  // The same GMDIV_STAT expanded in several template instantiations
  // resolves to one registry counter: one series carrying the sum.
  const std::string Name = "gmdiv_metricstest_dup_total";
  const double Before = familyValue(Name);
  bumpDuplicate<uint8_t>(3);
  bumpDuplicate<uint64_t>(4);
  const Snapshot S = Registry::global().snapshot();
  EXPECT_EQ(S.valueOr(Name, {}, 0) - Before, 7.0);
  size_t Rows = 0;
  for (const Family &F : S.Families)
    if (F.Name == Name)
      Rows += F.Samples.size();
  EXPECT_EQ(Rows, 1u);
}

//===----------------------------------------------------------------------===//
// One writer per series, one count per event
//===----------------------------------------------------------------------===//

/// Sum of every sample of a counter family (0 when absent).
double familyTotal(const Snapshot &S, const std::string &Name) {
  double Total = 0;
  for (const Family &F : S.Families)
    if (F.Name == Name)
      for (const Sample &Sm : F.Samples)
        Total += Sm.Value;
  return Total;
}

TEST(MetricsSnapshot, EveryLayerCountsEachEventOnceInUniqueSeries) {
  Registry &R = Registry::global();
  telemetry::Remark Rm;
  Rm.Kind = "metricstest";

  // Codegen: every Figure 4.2 case (power of two, long form, pre-shift,
  // short) and every Figure 5.2 case (unit, power of two, short, add),
  // plus floor, exact and §9 divisibility.
  for (const uint64_t D : {8u, 7u, 14u, 641u})
    codegen::genUnsignedDiv(32, D);
  for (const int64_t D : {1, 4, 3, 7})
    codegen::genSignedDiv(32, D);
  codegen::genFloorDiv(32, 7);
  codegen::genExactUnsignedDiv(32, 7);
  codegen::genDivisibilityTestUnsigned(32, 7);
  // Lowering.
  const ir::ParseResult Parsed =
      ir::parseProgram("t1 = const 10\nt2 = divu n0, t1\n=> q: t2", 32, 1);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  codegen::lowerDivisions(*Parsed.Parsed);
  // The static batch kernels.
  std::vector<uint32_t> In(100, 700), Out(100);
  const batch::BatchDivider<uint32_t> Batch(7);
  Batch.divide(In.data(), Out.data(), In.size());
  EXPECT_EQ(Out[99], 100u);
  // The verify harness, the registry and the batch front door.
  EXPECT_EQ(verify::verifyWidth(4).mismatches(), 0u);
  service::DividerRegistry &Reg = service::DividerRegistry::global();
  ASSERT_NE(Reg.acquireFor<uint32_t>(7), nullptr);
  {
    service::BatchService Svc(Reg, {1, 16});
    Svc.exportMetrics("gmdiv_test_metrics_batch");
    EXPECT_EQ(Svc.submitDivide<uint32_t>(7, In, Out).get().Elements, 100u);
    // Trace rings and remark dispatch, then a complete snapshot while
    // the service collector is still registered.
    trace::setEnabled(true);
    { trace::Span Span("metricstest", "span"); }
    trace::setEnabled(false);
    telemetry::CollectingRemarkSink Sink;
    {
      telemetry::ScopedRemarkSink Guard(&Sink);
      telemetry::emitRemark(Rm);
    }

    // Every series has exactly one writer: the strict parser rejects a
    // duplicate series anywhere in the exposition.
    const Snapshot S = R.snapshot();
    std::vector<ParsedSample> Samples;
    std::string Error;
    EXPECT_TRUE(parsePrometheusText(prometheusText(S), Samples, &Error))
        << Error;
    for (const char *Name :
         {"gmdiv_verify_checks_total", "gmdiv_batch_backend_selected_total",
          "gmdiv_batch_calls_total",
          "gmdiv_service_registry_shard_misses_total",
          "gmdiv_test_metrics_batch_submitted_total",
          "gmdiv_test_metrics_batch_inline_total",
          "gmdiv_trace_recorded_spans_total", "gmdiv_remarks_emitted_total"})
      EXPECT_GT(familyTotal(S, Name), 0.0) << Name;
    // The 100-lane job ran on the caller of an idle service, so no
    // submitter helped; the series is there, once, at zero.
    ASSERT_NE(S.find("gmdiv_test_metrics_batch_helped_total"), nullptr);
    EXPECT_EQ(familyTotal(S, "gmdiv_test_metrics_batch_helped_total"), 0.0);
    for (const char *Name :
         {"gmdiv_codegen_unsigned_div_pow2_total",
          "gmdiv_codegen_unsigned_div_long_form_total",
          "gmdiv_codegen_unsigned_div_pre_shift_total",
          "gmdiv_codegen_unsigned_div_short_total",
          "gmdiv_codegen_signed_div_unit_total",
          "gmdiv_codegen_signed_div_pow2_total",
          "gmdiv_codegen_signed_div_short_total",
          "gmdiv_codegen_signed_div_add_total",
          "gmdiv_lowering_unsigned_div_total"})
      EXPECT_GT(familyTotal(S, Name), 0.0) << Name;
    // The duplicates of a native family are gone for good (a
    // construction is counted once, as a `source="divider"` selection),
    // and nothing generates code, so no gmdiv_jit_* family exists.
    EXPECT_EQ(S.find("gmdiv_batch_backend_selections_total"), nullptr);
    EXPECT_EQ(S.find("gmdiv_batch_dividers_constructed_total"), nullptr);
    for (const Family &F : S.Families)
      EXPECT_NE(F.Name.rfind("gmdiv_jit_", 0), 0u) << F.Name;
  }

  // One event moves its family by exactly one.
  const auto Delta = [&R](const std::string &Name, auto &&Event) {
    const double Before = familyTotal(R.snapshot(), Name);
    Event();
    return familyTotal(R.snapshot(), Name) - Before;
  };
  EXPECT_EQ(Delta("gmdiv_batch_backend_selected_total",
                  [] { batch::BatchDivider<uint32_t> B(7); }),
            1.0);
  EXPECT_EQ(Delta("gmdiv_remarks_dropped_total",
                  [&Rm] { telemetry::emitRemark(Rm); }),
            1.0);
  uint64_t Checks = 0;
  const double ChecksDelta =
      Delta("gmdiv_verify_checks_total",
            [&Checks] { Checks = verify::verifyWidth(4).checks(); });
  EXPECT_EQ(ChecksDelta, static_cast<double>(Checks));
  EXPECT_EQ(Delta("gmdiv_codegen_unsigned_div_long_form_total",
                  [] { codegen::genUnsignedDiv(32, 7); }),
            1.0);
  EXPECT_EQ(Delta("gmdiv_batch_backend_selected_total",
                  [] { batch::BatchDivider<int16_t> B(-3); }),
            1.0);
}

TEST(MetricsExporter, WriteSnapshotFileEmitsBothFormats) {
  Registry::global().counter(uniqueName("exported_total")).inc();

  const std::string PromPath =
      testing::TempDir() + "gmdiv_metrics_test.prom";
  std::string Error;
  ASSERT_TRUE(Exporter::writeSnapshotFile(PromPath, &Error)) << Error;
  std::ifstream PromIn(PromPath);
  std::stringstream PromBuf;
  PromBuf << PromIn.rdbuf();
  std::vector<ParsedSample> Parsed;
  EXPECT_TRUE(parsePrometheusText(PromBuf.str(), Parsed, &Error))
      << Error;
  EXPECT_FALSE(Parsed.empty());

  const std::string JsonPath =
      testing::TempDir() + "gmdiv_metrics_test.json";
  ASSERT_TRUE(Exporter::writeSnapshotFile(JsonPath, &Error)) << Error;
  std::ifstream JsonIn(JsonPath);
  std::stringstream JsonBuf;
  JsonBuf << JsonIn.rdbuf();
  telemetry::json::Value Root;
  EXPECT_TRUE(telemetry::json::parse(JsonBuf.str(), Root));
  EXPECT_EQ(Root.numberOr("gmdiv_metrics", 0), 1.0);

  std::remove(PromPath.c_str());
  std::remove(JsonPath.c_str());
}

namespace {
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}
} // namespace

TEST(MetricsExporter, AtomicRenameReplacesAnExistingDestination) {
  Registry::global().counter(uniqueName("replace_total")).inc();
  const std::string Path =
      testing::TempDir() + "gmdiv_metrics_replace.prom";
  {
    std::ofstream Out(Path);
    Out << "STALE CONTENT A SCRAPER MUST NEVER SEE TORN\n";
  }
  std::string Error;
  ASSERT_TRUE(Exporter::writeSnapshotFile(Path, &Error)) << Error;
  // Fully replaced: the new content is a valid exposition with no trace
  // of the old bytes, and the temp file did not linger.
  const std::string Body = slurp(Path);
  EXPECT_EQ(Body.find("STALE CONTENT"), std::string::npos);
  std::vector<ParsedSample> Parsed;
  EXPECT_TRUE(parsePrometheusText(Body, Parsed, &Error)) << Error;
  EXPECT_FALSE(Parsed.empty());
  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good()) << "temp file must not survive the rename";
  std::remove(Path.c_str());
}

TEST(MetricsExporter, UnwritableParentFailsWithoutPartialSnapshot) {
  // A regular file where the parent directory should be makes every
  // temp-file open fail with ENOTDIR — an "unwritable parent" that
  // works even when the suite runs as root (chmod is advisory then).
  const std::string Parent =
      testing::TempDir() + "gmdiv_metrics_notadir";
  std::remove(Parent.c_str());
  {
    std::ofstream Out(Parent);
    Out << "occupies the parent path\n";
  }
  const std::string Dest = Parent + "/metrics.prom";
  std::string Error;
  EXPECT_FALSE(Exporter::writeSnapshotFile(Dest, &Error));
  EXPECT_FALSE(Error.empty());
  // The placeholder parent is untouched and no partial output appeared.
  EXPECT_EQ(slurp(Parent), "occupies the parent path\n");
  std::remove(Parent.c_str());

#ifdef __unix__
  // The classic chmod-based variant only means anything unprivileged:
  // root bypasses directory write bits entirely.
  if (geteuid() != 0) {
    const std::string Dir = testing::TempDir() + "gmdiv_metrics_rodir";
    ASSERT_EQ(mkdir(Dir.c_str(), 0755), 0);
    const std::string RoDest = Dir + "/metrics.prom";
    {
      std::ofstream Out(RoDest);
      Out << "previous snapshot\n";
    }
    ASSERT_EQ(chmod(Dir.c_str(), 0555), 0);
    Error.clear();
    EXPECT_FALSE(Exporter::writeSnapshotFile(RoDest, &Error));
    EXPECT_FALSE(Error.empty());
    // Graceful failure: the existing snapshot survives intact and no
    // .tmp litters the directory.
    EXPECT_EQ(slurp(RoDest), "previous snapshot\n");
    std::ifstream Tmp(RoDest + ".tmp");
    EXPECT_FALSE(Tmp.good());
    ASSERT_EQ(chmod(Dir.c_str(), 0755), 0);
    std::remove(RoDest.c_str());
    rmdir(Dir.c_str());
  }
#endif
}

TEST(MetricsExposition, ParserRejectsMalformedExpositions) {
  std::vector<ParsedSample> Out;
  // Bad metric name, unescaped quote, duplicate series, TYPE after a
  // sample, garbage value.
  for (const char *Bad :
       {"0bad_name 1\n", "ok{l=\"a\"b\"} 1\n",
        "dup 1\ndup 2\n",
        "ok 1\n# TYPE ok counter\n",
        "ok notanumber\n"}) {
    Out.clear();
    EXPECT_FALSE(parsePrometheusText(Bad, Out)) << Bad;
  }
  // The empty exposition is trivially valid.
  Out.clear();
  EXPECT_TRUE(parsePrometheusText("", Out));
  EXPECT_TRUE(Out.empty());
}

} // namespace
