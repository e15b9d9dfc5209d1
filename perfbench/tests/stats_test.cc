// Unit tests of the benchmark's own measurement arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

constexpr int64_t kMs = 1'000'000;  // ns

TEST(DueTimeLatency, MeasuresFromTheDueTimeNotTheSend) {
  RequestTiming r;
  r.due_ns = 10 * kMs;
  r.sent_ns = 14 * kMs;  // generator 4 ms late
  r.done_ns = 15 * kMs;  // server answered 1 ms after the send
  r.ok = true;
  const auto latency = DueTimeLatenciesMs({r});
  ASSERT_EQ(latency.size(), 1u);
  EXPECT_DOUBLE_EQ(latency[0], 5.0);
  EXPECT_DOUBLE_EQ(GeneratorLatenessUs({r})[0], 4000.0);
}

TEST(DueTimeLatency, StalledGeneratorChargesEveryRequestBehindTheStall) {
  // 1 ms schedule; the generator stalls 50 ms before request 10, then sends
  // everything that came due at once. The server always answers 0.1 ms
  // after the send, so a send-time clock would see 0.1 ms for every request.
  std::vector<RequestTiming> requests;
  const int64_t stall_end = 60 * kMs;
  for (int64_t i = 0; i < 200; ++i) {
    RequestTiming r;
    r.due_ns = i * kMs;
    r.sent_ns = (i >= 10 && r.due_ns < stall_end) ? stall_end : r.due_ns;
    r.done_ns = r.sent_ns + kMs / 10;
    r.ok = true;
    requests.push_back(r);
  }
  const auto latency = DueTimeLatenciesMs(requests);
  // Request 10 waited the whole stall.
  EXPECT_NEAR(latency[10], 50.1, 1e-9);
  EXPECT_NEAR(latency[59], 1.1, 1e-9);
  EXPECT_NEAR(latency[100], 0.1, 1e-9);
  // 50 of 200 requests were delayed: the p99 shows the stall, the p50 not.
  EXPECT_NEAR(Percentile(latency, 990), 48.1, 1e-9);
  EXPECT_NEAR(Percentile(latency, 500), 0.1, 1e-9);
  const auto late = GeneratorLatenessUs(requests);
  EXPECT_NEAR(Percentile(late, 990), 48000.0, 1e-6);
  EXPECT_DOUBLE_EQ(Percentile(late, 500), 0.0);
}

TEST(DueTimeLatency, FailedRequestsCountAsMissing) {
  RequestTiming ok{0, 0, kMs, true};
  RequestTiming shed{0, 0, kMs / 10, false};
  const auto latency = DueTimeLatenciesMs({ok, shed});
  EXPECT_DOUBLE_EQ(latency[0], 1.0);
  EXPECT_TRUE(std::isinf(latency[1]));
  // One failure in two pushes the median to "missing".
  EXPECT_TRUE(std::isinf(Percentile(latency, 990)));
}

TEST(PercentileRule, NeedsTenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(SamplesBeyond(1000, 990), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 990));
  EXPECT_FALSE(PercentileSupported(999, 990));
  EXPECT_FALSE(PercentileSupported(100, 990));
  EXPECT_TRUE(PercentileSupported(10000, 999));
  EXPECT_FALSE(PercentileSupported(9999, 999));
  EXPECT_TRUE(PercentileSupported(20, 500));
  EXPECT_FALSE(PercentileSupported(19, 500));
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 500);
  EXPECT_EQ(HighestSupportedPercentile(100), 900);
  EXPECT_EQ(HighestSupportedPercentile(1000), 990);
  EXPECT_EQ(HighestSupportedPercentile(10000), 999);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 500), 500.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 990), 990.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 990), 7.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Backlog, GrowthIsDetectedAndSteadyQueuesAreNot) {
  std::vector<double> steady(100, 5.0);
  EXPECT_FALSE(BacklogGrows(steady, 8.0));
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(i * 10.0);
  EXPECT_TRUE(BacklogGrows(growing, 8.0));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // root [0,100) with children [10,30) and [20,50) (overlapping, e.g. two
  // threads) and [90,120) (running past the parent's end).
  const std::vector<SpanTime> spans = {
      {1, 0, 0, 100},
      {2, 1, 10, 30},
      {3, 1, 20, 50},
      {4, 1, 90, 120},
      {5, 2, 12, 14},  // grandchild: counts against span 2 only
  };
  const auto self = SelfTimesNs(spans);
  EXPECT_EQ(self.at(1), 100 - 40 - 10);
  EXPECT_EQ(self.at(2), 20 - 2);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 30);
  EXPECT_EQ(self.at(5), 2);
}

TEST(SelfTime, LeafAndNestedContainment) {
  const std::vector<SpanTime> spans = {
      {1, 0, 0, 50}, {2, 1, 0, 50}, {3, 1, 10, 20}};
  const auto self = SelfTimesNs(spans);
  EXPECT_EQ(self.at(1), 0);
  EXPECT_EQ(self.at(2), 50);
}

}  // namespace
}  // namespace perfbench
