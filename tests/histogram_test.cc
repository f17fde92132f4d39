#include "src/stats/histogram.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/rng.h"

namespace leap {
namespace {

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(4300);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 4300.0);
  // Bucketed value must be within the sub-bucket relative error (~1.6%).
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 4300.0, 4300.0 * 0.02);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 63u);
  const uint64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 30u);
  EXPECT_LE(p50, 33u);
}

TEST(Histogram, MeanIsExactRegardlessOfBucketing) {
  Histogram h;
  h.Record(1000000);
  h.Record(3000000);
  EXPECT_DOUBLE_EQ(h.Mean(), 2000000.0);
}

TEST(Histogram, PercentilesMatchSortedDataWithinError) {
  Rng rng(77);
  Histogram h;
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = 100 + rng.NextU64(1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
    const double approx = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(approx, exact, exact * 0.03 + 2) << "q=" << q;
  }
}

TEST(Histogram, RecordNWeightsProperly) {
  Histogram h;
  h.RecordN(10, 99);
  h.RecordN(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.Percentile(0.5), 20u);
  EXPECT_GT(h.Percentile(0.999), 900000u);
}

TEST(Histogram, FractionAtOrBelow) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  EXPECT_NEAR(h.FractionAtOrBelow(50 * 1000), 0.5, 0.03);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(200 * 1000), 1.0);
  EXPECT_NEAR(h.FractionAtOrBelow(1), 0.0, 0.01);
}

TEST(Histogram, MergeCombinesPopulations) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 1000; ++i) {
    a.Record(100);
    b.Record(10000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 2000u);
  EXPECT_NEAR(a.Mean(), (100.0 + 10000.0) / 2.0, 1.0);
  EXPECT_LT(a.Percentile(0.25), 200u);
  EXPECT_GT(a.Percentile(0.75), 9000u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(Histogram, HugeValuesDoNotOverflow) {
  Histogram h;
  h.Record(~0ULL >> 1);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.Percentile(1.0), 1ULL << 60);
}

TEST(Histogram, MonotonePercentiles) {
  Rng rng(88);
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    h.Record(rng.NextU64(1 << 30));
  }
  uint64_t prev = 0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const uint64_t v = h.Percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, HugeValueAfterSmallValues) {
  Histogram h;
  for (uint64_t v = 1; v <= 99; ++v) {
    h.Record(v * 10);
  }
  h.Record(1ULL << 63);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Max(), 1ULL << 63);
  EXPECT_LE(h.Percentile(0.5), 520u);
  EXPECT_EQ(h.Percentile(1.0), 1ULL << 63);  // midpoint clamps to Max
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(1000), 0.99);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(~0ULL), 1.0);
}

TEST(Histogram, QueriesPastTheRecordedRange) {
  // Only small values recorded: buckets for larger ones were never
  // allocated and must read as zero.
  Histogram h;
  for (uint64_t v = 100; v < 200; ++v) {
    h.Record(v);
  }
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(1ULL << 40), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(~0ULL), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(50), 0.0);
  EXPECT_LE(h.Percentile(1.0), 199u);
  EXPECT_GE(h.Percentile(0.0), 100u);
}

TEST(Histogram, CopyThenRecordLeavesTheOriginal) {
  Histogram a;
  a.Record(300);
  Histogram b = a;
  b.Record(5'000'000);  // grows b's buckets, not a's
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.Max(), 300u);
  EXPECT_DOUBLE_EQ(a.FractionAtOrBelow(1000), 1.0);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.FractionAtOrBelow(1000), 0.5);
  EXPECT_GT(b.Percentile(1.0), 4'900'000u);
}

TEST(Histogram, ResetThenRecordMatchesAFreshHistogram) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v * 1'000'000);
  }
  h.Reset();
  Histogram fresh;
  for (uint64_t v = 1; v <= 200; ++v) {
    h.Record(v * 7);
    fresh.Record(v * 7);
  }
  EXPECT_EQ(h.count(), fresh.count());
  EXPECT_EQ(h.Min(), fresh.Min());
  EXPECT_EQ(h.Max(), fresh.Max());
  EXPECT_DOUBLE_EQ(h.Sum(), fresh.Sum());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.Percentile(q), fresh.Percentile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(1'000'000), 1.0);
}

}  // namespace
}  // namespace leap
