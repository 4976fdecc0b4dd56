#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "test_util.h"
#include "tind/discovery.h"
#include "wiki/corpus_io.h"

namespace tind::obs {
namespace {

/// Restores the global registry's enabled flag (tests toggle it).
class EnabledGuard {
 public:
  EnabledGuard() : previous_(MetricsRegistry::Global().enabled()) {}
  ~EnabledGuard() { MetricsRegistry::Global().set_enabled(previous_); }

 private:
  bool previous_;
};

TEST(CounterTest, AddAndReset) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test/counter");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(c->name(), "test/counter");
}

TEST(GaugeTest, SetAddUpdateMax) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test/gauge");
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.0);
  g->UpdateMax(1.0);  // Smaller: no change.
  EXPECT_DOUBLE_EQ(g->value(), 2.0);
  g->UpdateMax(7.0);
  EXPECT_DOUBLE_EQ(g->value(), 7.0);
}

TEST(ObserveBoundsMacroTest, UsesExplicitBucketsAndGates) {
  EnabledGuard guard;
  MetricsRegistry::Global().set_enabled(false);
  // Disabled: the macro must not register the histogram or evaluate buckets.
  TIND_OBS_OBSERVE_BOUNDS("test/obs_bounds_gated", 5.0,
                          ExponentialBuckets(1, 2, 7));
  MetricsRegistry::Global().set_enabled(true);
  for (const double v : {1.0, 3.0, 64.0, 100.0}) {
    TIND_OBS_OBSERVE_BOUNDS("test/obs_bounds_macro", v,
                            ExponentialBuckets(1, 2, 7));
  }
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test/obs_bounds_macro");
  ASSERT_NE(h, nullptr);
  // The explicit bounds won over the default latency bounds.
  EXPECT_EQ(h->bounds(), ExponentialBuckets(1, 2, 7));
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
  const auto buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 8u);
  EXPECT_EQ(buckets.back(), 1u);  // 100 overflows the last bound (64).
}

TEST(HistogramTest, CountSumMinMaxMean) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/hist", {1.0, 10.0, 100.0});
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  h->Observe(5.0);
  h->Observe(0.5);
  h->Observe(50.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 55.5);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 50.0);
  EXPECT_DOUBLE_EQ(h->Mean(), 55.5 / 3);
}

TEST(HistogramTest, BucketAssignmentIncludesOverflow) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/buckets", {1.0, 10.0});
  h->Observe(0.5);    // bucket 0 (<= 1).
  h->Observe(1.0);    // bucket 0 (bounds are upper-inclusive).
  h->Observe(2.0);    // bucket 1.
  h->Observe(1000.0); // overflow bucket.
  const std::vector<uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(HistogramTest, PercentileInterpolatesAndClamps) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/pct", {10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h->Observe(15.0);  // All in (10, 20].
  const double p50 = h->Percentile(50.0);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 20.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), h->Percentile(0.0));  // No NaN.
  // Empty histogram percentiles are 0.
  Histogram* empty = registry.GetHistogram("test/pct_empty", {1.0});
  EXPECT_DOUBLE_EQ(empty->Percentile(99.0), 0.0);
}

TEST(HistogramTest, PercentileStaysWithinObservedRange) {
  MetricsRegistry registry;
  // Default latency bounds: 149 ms lands in (100, 500], whose interpolated
  // midpoint (300) is twice the only value ever observed.
  Histogram* single = registry.GetHistogram("test/pct_single");
  single->Observe(149.0);
  EXPECT_DOUBLE_EQ(single->Percentile(50.0), 149.0);
  EXPECT_DOUBLE_EQ(single->Percentile(99.0), 149.0);
  Histogram* spread = registry.GetHistogram("test/pct_spread");
  for (const double v : {12.0, 13.0, 14.0, 140.0, 160.0}) spread->Observe(v);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(spread->Percentile(p), 12.0) << "p=" << p;
    EXPECT_LE(spread->Percentile(p), 160.0) << "p=" << p;
  }
}

TEST(HistogramTest, ResetZeroesEverything) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/reset", {1.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Reset();
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  for (const uint64_t c : h->BucketCounts()) EXPECT_EQ(c, 0u);
}

TEST(BucketsTest, ExponentialBuckets) {
  const std::vector<double> b = ExponentialBuckets(1.0, 10.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 1000.0);
}

TEST(BucketsTest, DefaultLatencyBoundsAreSortedAndSpanMicrosToMinute) {
  const std::vector<double>& b = DefaultLatencyBoundsMs();
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 0.001);
  EXPECT_DOUBLE_EQ(b.back(), 60000.0);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(MetricsRegistryTest, GetReturnsSamePointerAndSurvivesReset) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a");
  Counter* c2 = registry.GetCounter("a");
  EXPECT_EQ(c1, c2);
  Gauge* g = registry.GetGauge("a");  // Same name, different kind: distinct.
  EXPECT_NE(static_cast<void*>(c1), static_cast<void*>(g));
  c1->Add(9);
  g->Set(3.0);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("a"), c1);  // Registration survives...
  EXPECT_EQ(c1->value(), 0u);               // ...values do not.
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(MetricsRegistryTest, HistogramBoundsApplyOnFirstRegistrationOnly) {
  MetricsRegistry registry;
  Histogram* h1 = registry.GetHistogram("h", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("h", {99.0});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 2u);
  // Empty bounds mean the default latency buckets.
  Histogram* latency = registry.GetHistogram("latency");
  EXPECT_EQ(latency->bounds().size(), DefaultLatencyBoundsMs().size());
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromThreadPool) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("concurrent/counter");
  Histogram* h = registry.GetHistogram("concurrent/hist", {8.0, 64.0});
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  ThreadPool pool(8);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([&registry, c, h, t] {
      for (int i = 0; i < kAddsPerTask; ++i) {
        c->Add(1);
        h->Observe(static_cast<double>(t % 100));
        // Concurrent registration of the same name must be race-free and
        // converge to one object.
        registry.GetCounter("concurrent/shared")->Add(1);
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(registry.GetCounter("concurrent/shared")->value(),
            static_cast<uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kTasks) * kAddsPerTask);
  uint64_t bucket_total = 0;
  for (const uint64_t b : h->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h->count());
}

TEST(MetricsRegistryTest, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("probe/count")->Add(12345);
  registry.GetGauge("fill/ratio")->Set(0.25);
  Histogram* h = registry.GetHistogram("lat/ms", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);

  const std::string text = registry.ToJsonString();
  std::string error;
  const auto parsed = JsonValue::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const JsonValue* counter = parsed->FindPath("counters.probe/count");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->AsInt(), 12345);

  const JsonValue* gauge = parsed->FindPath("gauges.fill/ratio");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->AsDouble(), 0.25);

  const JsonValue* hist = parsed->FindPath("histograms.lat/ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->FindPath("count")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(hist->FindPath("sum")->AsDouble(), 5.5);
  const JsonValue* buckets = hist->FindPath("bucket_counts");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->size(), 3u);
  EXPECT_EQ(buckets->at(0).AsInt(), 1);
  EXPECT_EQ(buckets->at(1).AsInt(), 1);
  EXPECT_EQ(buckets->at(2).AsInt(), 0);

  // CSV export mentions every metric once per field row.
  const std::string csv = registry.ToCsv();
  EXPECT_NE(csv.find("counter,probe/count,value,12345"), std::string::npos);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("[1, 2,]", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ParsePreservesValuesAndEscapes) {
  const auto v = JsonValue::Parse(
      "{\"s\": \"a\\\"b\\\\c\\n\", \"n\": -1.5e2, \"t\": true, "
      "\"nil\": null, \"arr\": [1, 2, 3]}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("s")->AsString(), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(v->Find("n")->AsDouble(), -150.0);
  EXPECT_TRUE(v->Find("t")->AsBool());
  EXPECT_TRUE(v->Find("nil")->is_null());
  EXPECT_EQ(v->Find("arr")->size(), 3u);
  // Round-trip through Dump.
  const auto again = JsonValue::Parse(v->Dump(2));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->Find("s")->AsString(), "a\"b\\c\n");
}

TEST(ScopedTimerTest, RecordsHierarchicalSpans) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  {
    ScopedTimer outer("build", &registry);
    EXPECT_EQ(ScopedTimer::CurrentPath(), "build");
    {
      ScopedTimer inner("slices", &registry);
      EXPECT_EQ(ScopedTimer::CurrentPath(), "build/slices");
    }
    EXPECT_EQ(ScopedTimer::CurrentPath(), "build");
  }
  EXPECT_EQ(ScopedTimer::CurrentPath(), "");
  EXPECT_EQ(registry.GetHistogram("span/build")->count(), 1u);
  EXPECT_EQ(registry.GetHistogram("span/build/slices")->count(), 1u);
}

TEST(ScopedTimerTest, InertWhenRegistryDisabled) {
  MetricsRegistry registry;  // enabled() defaults to false.
  {
    ScopedTimer t("never", &registry);
    EXPECT_EQ(ScopedTimer::CurrentPath(), "");
  }
  const std::string json = registry.ToJsonString();
  EXPECT_EQ(json.find("span/never"), std::string::npos);
}

TEST(MacroTest, GatedByGlobalEnabledFlag) {
  EnabledGuard guard;
  MetricsRegistry& global = MetricsRegistry::Global();

  global.set_enabled(false);
  bool evaluated = false;
  TIND_OBS_COUNTER_ADD("macro_test/gated",
                       (evaluated = true, uint64_t{1}));
#if !TIND_OBS_DISABLED
  // Disabled registry: the delta expression must not even be evaluated.
  EXPECT_FALSE(evaluated);

  global.set_enabled(true);
  TIND_OBS_COUNTER_ADD("macro_test/gated", 2);
  TIND_OBS_COUNTER_ADD("macro_test/gated", 3);
  EXPECT_EQ(global.GetCounter("macro_test/gated")->value(), 5u);
  TIND_OBS_GAUGE_SET("macro_test/gauge", 1.5);
  TIND_OBS_GAUGE_MAX("macro_test/gauge", 9.0);
  EXPECT_DOUBLE_EQ(global.GetGauge("macro_test/gauge")->value(), 9.0);
  TIND_OBS_OBSERVE("macro_test/hist", 4.0);
  EXPECT_EQ(global.GetHistogram("macro_test/hist")->count(), 1u);
  // Clean up the values we left in the process-wide registry.
  global.Reset();
#else
  EXPECT_FALSE(evaluated);
#endif
}

#if !TIND_OBS_DISABLED
/// End-to-end coverage of the robustness counters: each one must be fed by
/// its real producer, not just registered.
TEST(RobustnessMetricsTest, ProducersFeedTheGlobalRegistry) {
  EnabledGuard guard;
  MetricsRegistry& global = MetricsRegistry::Global();
  global.Reset();
  global.set_enabled(true);

  // memory/budget_rejections: a capped budget refusing an allocation.
  tind::MemoryBudget budget(10);
  EXPECT_FALSE(budget.Allocate(20).ok());
  EXPECT_GE(global.GetCounter("memory/budget_rejections")->value(), 1u);

  // corpus_io/records_skipped: a lenient read skipping a corrupt record.
  {
    std::stringstream ss(
        "TIND-DATASET 1\ndomain 5\nvalues 1\nx\nattributes 1\n"
        "A bad\nfooter deadbeef\n");
    tind::wiki::ReadOptions lenient;
    lenient.strict = false;
    auto loaded = tind::wiki::ReadDataset(ss, lenient);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->skipped_records, 1u);
  }
  EXPECT_GE(global.GetCounter("corpus_io/records_skipped")->value(), 1u);

#if !TIND_FAULT_INJECTION_DISABLED
  // fault/injected_total: an armed injection point firing.
  ASSERT_TRUE(
      tind::FaultInjector::Global().Configure("metrics_test/fire=1", 1).ok());
  EXPECT_TRUE(TIND_FAULT_POINT("metrics_test/fire"));
  tind::FaultInjector::Global().Reset();
  EXPECT_GE(global.GetCounter("fault/injected_total")->value(), 1u);
#endif  // !TIND_FAULT_INJECTION_DISABLED

  // discovery/checkpoints_written: a checkpointed all-pairs run.
  {
    tind::Rng rng(5);
    tind::Dataset dataset(tind::TimeDomain(60),
                          std::make_shared<tind::ValueDictionary>());
    for (size_t i = 0; i < 10; ++i) {
      dataset.Add(tind::testutil::RandomHistory(
          dataset.domain(), &rng, 8, static_cast<tind::AttributeId>(i), 4, 4));
    }
    tind::ConstantWeight weight(60);
    tind::TindIndexOptions opts;
    opts.bloom_bits = 256;
    opts.num_hashes = 2;
    opts.num_slices = 2;
    opts.weight = &weight;
    auto index = tind::TindIndex::Build(dataset, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    tind::DiscoveryOptions discovery;
    discovery.checkpoint_path =
        ::testing::TempDir() + "metrics-robustness-ckpt";
    discovery.checkpoint_interval = 1;
    const tind::TindParams params{3.0, 2, &weight};
    auto result = tind::DiscoverAllTinds(**index, params, discovery);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->checkpoints_written, 0u);
  }
  EXPECT_GE(global.GetCounter("discovery/checkpoints_written")->value(), 1u);

  global.Reset();
}
#endif  // !TIND_OBS_DISABLED

}  // namespace
}  // namespace tind::obs
