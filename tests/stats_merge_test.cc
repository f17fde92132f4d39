// Merge semantics for the two accumulator types (Counters, Histogram).
//
// The sharded-engine plan (ROADMAP) merges per-shard stats at barriers, in
// whatever order shards finish; that only reports stable numbers if Merge
// is associative and commutative and the merged result equals the
// single-accumulator result. These tests pin that contract.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/rng.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"

namespace leap {
namespace {

void ExpectCountersEq(const Counters& a, const Counters& b) {
  for (size_t i = 0; i < kCounterCount; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    EXPECT_EQ(a.Get(id), b.Get(id)) << CounterName(id);
  }
}

TEST(CountersMergeTest, MergeAddsElementwise) {
  Counters a;
  a.Add(counter::kPageFaults, 3);
  a.Add(counter::kCacheHits, 7);
  Counters b;
  b.Add(counter::kPageFaults, 5);
  b.Add(counter::kRemoteReads, 11);

  a.Merge(b);
  EXPECT_EQ(a.Get(counter::kPageFaults), 8u);
  EXPECT_EQ(a.Get(counter::kCacheHits), 7u);
  EXPECT_EQ(a.Get(counter::kRemoteReads), 11u);
  // b untouched.
  EXPECT_EQ(b.Get(counter::kPageFaults), 5u);
}

TEST(CountersMergeTest, MergeWithEmptyIsIdentity) {
  Counters a;
  a.Add(counter::kEvictions, 42);
  Counters before = a;
  a.Merge(Counters{});
  ExpectCountersEq(a, before);
}

TEST(CountersMergeTest, MergeIsAssociativeAndCommutative) {
  // Three "shards" with overlapping and disjoint counters.
  Counters a, b, c;
  a.Add(counter::kPageFaults, 1);
  a.Add(counter::kDemandReads, 10);
  b.Add(counter::kPageFaults, 2);
  b.Add(counter::kWritebacks, 20);
  c.Add(counter::kPageFaults, 4);
  c.Add(counter::kDemandReads, 40);

  Counters left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  Counters bc = b;     // a + (b + c)
  bc.Merge(c);
  Counters right = a;
  right.Merge(bc);
  ExpectCountersEq(left, right);

  Counters swapped = c;  // c + b + a
  swapped.Merge(b);
  swapped.Merge(a);
  ExpectCountersEq(left, swapped);

  EXPECT_EQ(left.Get(counter::kPageFaults), 7u);
  EXPECT_EQ(left.Get(counter::kDemandReads), 50u);
  EXPECT_EQ(left.Get(counter::kWritebacks), 20u);
}

void ExpectHistogramEq(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.Sum(), b.Sum());
  EXPECT_EQ(a.Min(), b.Min());
  EXPECT_EQ(a.Max(), b.Max());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.Percentile(q), b.Percentile(q)) << "q=" << q;
  }
  for (int bit = 0; bit < 64; bit += 3) {
    const uint64_t v = (1ULL << bit) + 17;
    EXPECT_DOUBLE_EQ(a.FractionAtOrBelow(v), b.FractionAtOrBelow(v))
        << "v=" << v;
  }
}

TEST(HistogramMergeTest, MergeEqualsSingleAccumulator) {
  // Shard the same sample stream three ways; any merge order must equal
  // recording everything into one histogram.
  Rng rng(99);
  Histogram all;
  Histogram shard[3];
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = 100 + rng.NextU64() % 1'000'000;
    all.Record(v);
    shard[i % 3].Record(v);
  }

  Histogram left = shard[0];  // (s0 + s1) + s2
  left.Merge(shard[1]);
  left.Merge(shard[2]);
  ExpectHistogramEq(left, all);

  Histogram s12 = shard[1];   // s0 + (s1 + s2)
  s12.Merge(shard[2]);
  Histogram right = shard[0];
  right.Merge(s12);
  ExpectHistogramEq(right, all);

  Histogram swapped = shard[2];  // reversed order
  swapped.Merge(shard[0]);
  swapped.Merge(shard[1]);
  ExpectHistogramEq(swapped, all);
}

TEST(HistogramMergeTest, ShortAndLongMergeEitherWay) {
  // `short_range` allocates a few hundred buckets, `long_range` over two
  // thousand; merging in either direction must equal one accumulator.
  Rng rng(7);
  Histogram all;
  Histogram short_range;
  Histogram long_range;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t small = 1 + rng.NextU64() % 2000;
    // Below 2^40, so the double Sum stays exact in any merge order.
    const uint64_t shift = 24 + rng.NextU64() % 40;
    const uint64_t large = rng.NextU64() >> shift;
    all.Record(small);
    all.Record(large);
    short_range.Record(small);
    long_range.Record(large);
  }

  Histogram long_into_short = short_range;
  long_into_short.Merge(long_range);
  ExpectHistogramEq(long_into_short, all);

  Histogram short_into_long = long_range;
  short_into_long.Merge(short_range);
  ExpectHistogramEq(short_into_long, all);
}

TEST(HistogramMergeTest, MergeWithEmptyIsIdentity) {
  Histogram a;
  a.Record(5000);
  a.Record(123456);
  Histogram before = a;
  a.Merge(Histogram{});
  ExpectHistogramEq(a, before);

  Histogram empty;
  empty.Merge(before);
  ExpectHistogramEq(empty, before);
}

}  // namespace
}  // namespace leap
