// Log-bucketed latency histogram (HdrHistogram-style).
//
// Records any uint64_t value with bounded relative error, answers
// percentile queries, and accumulates count/sum for means. Used for every
// latency series reported by the benchmark harness.
//
// Values below 64 get one bucket each; above that, each power of two
// splits into 64 equal buckets, so relative error stays under ~1.6%. The
// bucket array is allocated on demand: it starts empty and grows
// geometrically to cover the highest bucket recorded or merged, so a
// histogram of sub-millisecond latencies needs at most 960 buckets instead
// of the full 3776. Buckets past the allocated extent read as zero.
#ifndef LEAP_SRC_STATS_HISTOGRAM_H_
#define LEAP_SRC_STATS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace leap {

class Histogram {
 public:
  // Linear sub-buckets per power of two: 2^kSubBucketBits.
  static constexpr int kSubBucketBits = 6;
  static constexpr uint64_t kSubBucketCount = 1ULL << kSubBucketBits;
  // Bucket count that covers every uint64_t (the identity range, then one
  // group per power of two from 2^kSubBucketBits to 2^63).
  static constexpr size_t kMaxBuckets =
      (64 - kSubBucketBits + 1) * kSubBucketCount;

  void Record(uint64_t value);
  void RecordN(uint64_t value, uint64_t count);

  uint64_t count() const { return count_; }
  double Sum() const { return sum_; }
  double Mean() const;
  uint64_t Min() const { return count_ == 0 ? 0 : min_; }
  uint64_t Max() const { return max_; }

  // Value at quantile q in [0, 1]. Returns the representative (midpoint)
  // value of the bucket containing the q-th sample.
  uint64_t Percentile(double q) const;

  // Fraction of recorded values that are <= value.
  double FractionAtOrBelow(uint64_t value) const;

  void Merge(const Histogram& other);
  // Clears the samples; keeps the allocated buckets.
  void Reset();

 private:
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketMidpoint(size_t index);
  // Grows buckets_ (geometrically, capped at kMaxBuckets) to hold `index`.
  void Grow(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_STATS_HISTOGRAM_H_
