// Tests of the benchmark's own helpers: percentiles, arrival schedules and
// span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "odbench/spans.h"
#include "odbench/stats.h"

namespace odbench {
namespace {

TEST(SamplesTest, PercentileNeedsTenSamplesBeyondIt) {
  Samples s;
  for (int i = 1; i <= 999; ++i) s.Add(i);
  Percentile p99 = s.At(99);
  EXPECT_FALSE(p99.ok);
  EXPECT_TRUE(std::isnan(p99.value));
  EXPECT_EQ(p99.count, 999);
  EXPECT_EQ(p99.beyond, 9);

  s.Add(1000);
  p99 = s.At(99);
  ASSERT_TRUE(p99.ok);
  EXPECT_EQ(p99.count, 1000);
  EXPECT_EQ(p99.beyond, 10);
  EXPECT_EQ(p99.value, 990);  // nearest rank ceil(0.99 * 1000)
  EXPECT_FALSE(s.At(99.9).ok);
  EXPECT_EQ(s.At(50).value, 500);
}

TEST(SamplesTest, MedianNeedsNoTail) {
  Samples s;
  EXPECT_TRUE(std::isnan(s.Median()));
  for (double v : {4.0, 1.0, 3.0}) s.Add(v);
  EXPECT_EQ(s.Median(), 3.0);
  s.Add(2.0);
  EXPECT_EQ(s.Median(), 2.5);
  EXPECT_FALSE(s.At(50).ok);  // 4 samples: nothing may be read off a tail
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(s.Max(), 4.0);
}

TEST(ArrivalsTest, PureFunctionOfSeedAndRate) {
  const std::vector<int64_t> a = PoissonArrivalsNs(7, 60.0, 2000);
  EXPECT_EQ(a, PoissonArrivalsNs(7, 60.0, 2000));
  EXPECT_NE(a, PoissonArrivalsNs(8, 60.0, 2000));
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // The same draws scaled: doubling the rate halves every send time.
  const std::vector<int64_t> b = PoissonArrivalsNs(7, 120.0, 2000);
  for (size_t i = 0; i < a.size(); i += 97) {
    EXPECT_NEAR(static_cast<double>(b[i]), a[i] / 2.0, 2.0);
  }
  // Mean gap is 1 / rate.
  EXPECT_NEAR(static_cast<double>(a.back()) / 1e9 / 2000.0, 1.0 / 60.0,
              0.1 / 60.0);
  EXPECT_TRUE(PoissonArrivalsNs(7, 0.0, 10).empty());
}

TEST(ArrivalsTest, ZipfUsersArePureAndSkewedWithinAWindow) {
  const std::vector<int64_t> u = ZipfUsers(3, 1200, 1.2, 10000, 10000);
  EXPECT_EQ(u, ZipfUsers(3, 1200, 1.2, 10000, 10000));
  EXPECT_NE(u, ZipfUsers(4, 1200, 1.2, 10000, 10000));
  std::map<int64_t, int64_t> freq;
  for (int64_t user : u) {
    ASSERT_GE(user, 0);
    ASSERT_LT(user, 1200);
    ++freq[user];
  }
  int64_t top = 0;
  for (const auto& [user, n] : freq) top = std::max(top, n);
  // Rank 1 of Zipf(1.2) over 1200 users has probability ~0.23.
  EXPECT_GT(top, 1500);
  EXPECT_LT(top, 3000);

  // With a 60-request window the hot user changes: no user keeps rank 1's
  // share over the whole stream.
  const std::vector<int64_t> drift = ZipfUsers(3, 1200, 1.2, 10000, 60);
  EXPECT_EQ(drift, ZipfUsers(3, 1200, 1.2, 10000, 60));
  freq.clear();
  for (int64_t user : drift) ++freq[user];
  top = 0;
  for (const auto& [user, n] : freq) top = std::max(top, n);
  EXPECT_LT(top, 500);
  EXPECT_GT(freq.size(), 600u);
}

TEST(SpanRecorderTest, SelfTimeSubtractsChildCoverage) {
  SpanRecorder spans(true);
  const int64_t root = spans.Open("root", 0);
  spans.Add("a", 10, 30, root);
  spans.Add("a", 20, 50, root);  // overlaps the first child
  spans.Add("b", 60, 70, root);
  spans.Add("b", 90, 130, root);  // runs past the parent's end
  spans.Close(root, 100);
  const std::map<std::string, double> self = spans.SelfTimeByName();
  EXPECT_EQ(self.at("root"), 100 - 40 - 10 - 10);
  EXPECT_EQ(self.at("a"), 20 + 30);
  EXPECT_EQ(self.at("b"), 10 + 40);
}

TEST(SpanRecorderTest, DisabledRecorderKeepsNothing) {
  SpanRecorder spans(false);
  EXPECT_EQ(spans.Add("x", 0, 1), -1);
  EXPECT_EQ(spans.Open("y", 0), -1);
  spans.Close(-1, 5);
  EXPECT_EQ(spans.size(), 0);
}

TEST(LaneAllocatorTest, OverlappingSpansGetDistinctLanes) {
  LaneAllocator lanes(100);
  EXPECT_EQ(lanes.Take(0, 10), 100);
  EXPECT_EQ(lanes.Take(5, 15), 101);
  EXPECT_EQ(lanes.Take(10, 20), 100);  // first lane is free again
  EXPECT_EQ(lanes.Take(12, 14), 102);
}

}  // namespace
}  // namespace odbench
