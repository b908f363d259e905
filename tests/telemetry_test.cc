#include "telemetry/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/trace.h"

namespace ugs {
namespace telemetry {
namespace {

TEST(CounterTest, StartsAtZeroAndSumsAdds) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, MovesBothWays) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Add(5);
  gauge.Sub(2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
}

TEST(HistogramTest, EmptyHistogramReportsZeroPercentiles) {
  Histogram histogram(LatencyBucketsUs());
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.sum, 0u);
  EXPECT_EQ(snapshot.Percentile(0.5), 0.0);
  EXPECT_EQ(snapshot.Percentile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleReportsItsBucketUpperBound) {
  Histogram histogram({10, 100, 1000});
  histogram.Record(37);  // Lands in the (10, 100] bucket.
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_EQ(snapshot.sum, 37u);
  EXPECT_EQ(snapshot.Percentile(0.5), 100.0);
  EXPECT_EQ(snapshot.Percentile(0.99), 100.0);
}

TEST(HistogramTest, BucketBoundsAreInclusiveUpperBounds) {
  // Prometheus `le` semantics: a value equal to a bound belongs to
  // that bound's bucket, one past it to the next.
  Histogram histogram({10, 100});
  histogram.Record(10);
  histogram.Record(11);
  histogram.Record(101);  // Overflow bucket.
  const HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 3u);
  EXPECT_EQ(snapshot.counts[0], 1u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.sum, 10u + 11u + 101u);
}

TEST(HistogramTest, PowerOfTwoLadderMatchesGenericBucketing) {
  // The 1,2,4,... ladder takes the bit-scan fast path in Record; a
  // histogram with the same bounds plus a non-ladder twin must bucket
  // every value identically (inclusive upper bounds both ways).
  Histogram ladder(LatencyBucketsUs());
  std::vector<std::uint64_t> skewed = LatencyBucketsUs();
  skewed.push_back(skewed.back() + 1);  // Breaks the ladder shape.
  Histogram generic(skewed);
  std::vector<std::uint64_t> values = {0, 1, 2, 3, 4, 5, 7, 8, 9, 1023,
                                       1024, 1025, (1ull << 25),
                                       (1ull << 25) + 1, (1ull << 40)};
  for (std::uint64_t v : values) {
    ladder.Record(v);
    generic.Record(v);
  }
  const HistogramSnapshot a = ladder.Snapshot();
  const HistogramSnapshot b = generic.Snapshot();
  // Every shared (finite-ladder) bucket agrees; the ladder's overflow
  // bucket equals the generic histogram's last two buckets combined.
  for (std::size_t i = 0; i < a.counts.size() - 1; ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << "bucket " << i;
  }
  EXPECT_EQ(a.counts.back(),
            b.counts[a.counts.size() - 1] + b.counts[a.counts.size()]);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
}

TEST(HistogramTest, OverflowBucketReportsLastFiniteBound) {
  Histogram histogram({10, 100});
  histogram.Record(5000);
  EXPECT_EQ(histogram.Snapshot().Percentile(0.5), 100.0);
}

TEST(HistogramTest, PercentilesInterpolateWithinBuckets) {
  Histogram histogram({100});
  for (int i = 0; i < 100; ++i) histogram.Record(50);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  // All mass in the (0, 100] bucket: rank r of 100 interpolates to r.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(1.0), 100.0);
}

TEST(HistogramTest, PercentileRanksSpanBuckets) {
  Histogram histogram({10, 100, 1000});
  for (int i = 0; i < 90; ++i) histogram.Record(5);    // <= 10
  for (int i = 0; i < 9; ++i) histogram.Record(50);    // (10, 100]
  histogram.Record(500);                               // (100, 1000]
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_LE(snapshot.Percentile(0.5), 10.0);
  EXPECT_GT(snapshot.Percentile(0.95), 10.0);
  EXPECT_LE(snapshot.Percentile(0.95), 100.0);
  EXPECT_GT(snapshot.Percentile(1.0), 100.0);
}

TEST(HistogramTest, ConcurrentRecordsKeepExactCountAndSum) {
  Histogram histogram(LatencyBucketsUs());
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        histogram.Record(static_cast<std::uint64_t>(t * 37 + i % 97));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<std::uint64_t>(kThreads) * kRecordsPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRecordsPerThread; ++i) {
      expected_sum += static_cast<std::uint64_t>(t * 37 + i % 97);
    }
  }
  EXPECT_EQ(snapshot.sum, expected_sum);
}

TEST(RegistryTest, RendersCountersAndGauges) {
  Registry registry;
  Counter requests;
  Gauge depth;
  requests.Add(3);
  depth.Set(2);
  registry.AddCounter("ugs_requests_total", "Requests answered.", {},
                      &requests);
  registry.AddGauge("ugs_queue_depth", "Dispatch queue depth.",
                    {{"pool", "main"}}, &depth);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP ugs_requests_total Requests answered.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ugs_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ugs_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ugs_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ugs_queue_depth{pool=\"main\"} 2\n"),
            std::string::npos);
}

TEST(RegistryTest, RendersHistogramWithCumulativeBucketsAndScale) {
  Registry registry;
  Histogram latency({1000, 2000});
  latency.Record(500);
  latency.Record(1500);
  latency.Record(9999);
  registry.AddHistogram("ugs_latency_seconds", "Latency.", {{"kind", "x"}},
                        &latency, 1e-6);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE ugs_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("ugs_latency_seconds_bucket{kind=\"x\",le=\"0.001\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("ugs_latency_seconds_bucket{kind=\"x\",le=\"0.002\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("ugs_latency_seconds_bucket{kind=\"x\",le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("ugs_latency_seconds_count{kind=\"x\"} 3\n"),
            std::string::npos);
  // Sum is scaled to seconds: (500 + 1500 + 9999) us = 0.011999 s.
  EXPECT_NE(text.find("ugs_latency_seconds_sum{kind=\"x\"} 0.011999\n"),
            std::string::npos);
}

TEST(RegistryTest, SharedNameEmitsOneHeader) {
  Registry registry;
  Counter a, b;
  registry.AddCounter("ugs_kind_total", "By kind.", {{"kind", "a"}}, &a);
  registry.AddCounter("ugs_kind_total", "By kind.", {{"kind", "b"}}, &b);
  const std::string text = registry.PrometheusText();
  std::size_t first = text.find("# HELP ugs_kind_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP ugs_kind_total", first + 1), std::string::npos);
}

TEST(RegistryTest, EscapesLabelValues) {
  Registry registry;
  Counter c;
  registry.AddCounter("ugs_odd_total", "Odd labels.",
                      {{"path", "a\\b\"c\nd"}}, &c);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("ugs_odd_total{path=\"a\\\\b\\\"c\\nd\"} 0\n"),
            std::string::npos);
}

RequestTrace TraceOf(const std::string& query, std::uint64_t total_us) {
  RequestTrace trace;
  trace.query = query;
  trace.total_us = total_us;
  return trace;
}

TEST(RequestTelemetryTest, UnknownKindLandsInOther) {
  Registry registry;
  RequestTelemetry telemetry({}, {"reliability"}, &registry);
  telemetry.Record(TraceOf("frobnicate", 10));
  const std::string json = telemetry.Json();
  EXPECT_NE(json.find("\"request_ms\":{\"other\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(registry.PrometheusText().find(
                "ugs_request_latency_seconds_count{kind=\"other\"} 1"),
            std::string::npos);
}

TEST(RequestTelemetryTest, SpansRecordedCountsRecordCalls) {
  Registry registry;
  RequestTelemetry telemetry({}, {"reliability"}, &registry);
  EXPECT_NE(telemetry.Json().find("\"spans_recorded\":0,"),
            std::string::npos);
  for (int i = 0; i < 5; ++i) telemetry.Record(TraceOf("stats", 3));
  EXPECT_NE(telemetry.Json().find("\"spans_recorded\":5,"),
            std::string::npos)
      << telemetry.Json();
}

TEST(RequestTelemetryTest, SlowQueryThresholdIsInclusive) {
  ServiceOptions options;
  options.slow_query_ms = 2;
  Registry registry;
  RequestTelemetry telemetry(options, {}, &registry);
  telemetry.Record(TraceOf("update", 1999));  // One microsecond under.
  EXPECT_NE(telemetry.Json().find("\"slow_queries\":0,"), std::string::npos);
  telemetry.Record(TraceOf("update", 2000));  // Exactly at the threshold.
  EXPECT_NE(telemetry.Json().find("\"slow_queries\":1,"), std::string::npos);
  EXPECT_NE(registry.PrometheusText().find("ugs_slow_queries_total 1\n"),
            std::string::npos);
}

TEST(RequestTelemetryTest, ZeroThresholdDisablesTheSlowQueryLog) {
  Registry registry;
  RequestTelemetry telemetry({}, {}, &registry);
  telemetry.Record(TraceOf("stats", 60000000));
  EXPECT_NE(telemetry.Json().find("\"slow_query_ms\":0,\"slow_queries\":0,"),
            std::string::npos)
      << telemetry.Json();
}

TEST(RequestTelemetryTest, RequestMsOmitsKindsWithZeroCount) {
  Registry registry;
  RequestTelemetry telemetry({}, {"reliability", "pagerank"}, &registry);
  EXPECT_NE(telemetry.Json().find("\"request_ms\":{},\"stage_ms\":{"),
            std::string::npos)
      << telemetry.Json();
  telemetry.Record(TraceOf("pagerank", 40));
  const std::string json = telemetry.Json();
  EXPECT_NE(json.find("\"request_ms\":{\"pagerank\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"reliability\""), std::string::npos) << json;
  // Every stage renders, counted or not.
  EXPECT_NE(json.find("\"stage_ms\":{\"decode\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"write\":{\"count\":1"), std::string::npos) << json;
}

TEST(RequestTelemetryTest, ExtraFragmentFollowsSpansRecorded) {
  Registry registry;
  RequestTelemetry telemetry({}, {}, &registry);
  EXPECT_EQ(telemetry.Json(",\"worlds_sampled\":7").rfind(
                "{\"enabled\":true,\"slow_query_ms\":0,\"slow_queries\":0,"
                "\"spans_recorded\":0,\"worlds_sampled\":7,\"request_ms\":{",
                0),
            0u);
}

TEST(RequestTelemetryTest, DisabledTelemetryRecordsNoSpansButLiveCounters) {
  ServiceOptions options;
  options.enabled = false;
  options.slow_query_ms = 1;
  Registry registry;
  RequestTelemetry telemetry(options, {"reliability"}, &registry);
  EXPECT_FALSE(telemetry.enabled());
  telemetry.Record(TraceOf("reliability", 5000));
  EXPECT_NE(telemetry.Json().find("\"slow_queries\":0,\"spans_recorded\":0,"
                                  "\"request_ms\":{}"),
            std::string::npos)
      << telemetry.Json();
  telemetry.requests.Add();
  telemetry.errors.Add(2);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("ugs_requests_total 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ugs_request_errors_total 2\n"), std::string::npos)
      << text;
  EXPECT_EQ(telemetry.Json().rfind("{\"enabled\":false,", 0), 0u);
}

TEST(SlowQueryLineTest, FormatsEveryStageAndIdentity) {
  RequestTrace trace;
  trace.graph = "g1";
  trace.query = "reliability";
  trace.estimator = "sampled";
  trace.samples = 1000;
  trace.cache_hit = false;
  trace.total_us = 41203;
  trace.stage_us[static_cast<int>(Stage::kDecode)] = 12;
  trace.stage_us[static_cast<int>(Stage::kExecute)] = 40000;
  const std::string line = SlowQueryLine(trace);
  EXPECT_NE(line.find("slow-query graph=g1 query=reliability "
                      "estimator=sampled status=ok cache_hit=0 "
                      "samples=1000 total_ms=41.203"),
            std::string::npos);
  EXPECT_NE(line.find("decode_ms=0.012"), std::string::npos);
  EXPECT_NE(line.find("execute_ms=40.000"), std::string::npos);
  EXPECT_NE(line.find("queue_ms=0.000"), std::string::npos);
  EXPECT_NE(line.find("write_ms=0.000"), std::string::npos);
}

TEST(SlowQueryLineTest, EmptyIdentityFieldsRenderAsDashes) {
  RequestTrace trace;
  trace.ok = false;
  const std::string line = SlowQueryLine(trace);
  EXPECT_NE(line.find("graph=- query=- estimator=- status=error"),
            std::string::npos);
}

TEST(StageNameTest, NamesEveryStage) {
  EXPECT_STREQ(StageName(Stage::kDecode), "decode");
  EXPECT_STREQ(StageName(Stage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(Stage::kExecute), "execute");
  EXPECT_STREQ(StageName(Stage::kEncode), "encode");
  EXPECT_STREQ(StageName(Stage::kWrite), "write");
}

}  // namespace
}  // namespace telemetry
}  // namespace ugs
