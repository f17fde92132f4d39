// Differential tests of the incremental trend (TrendTracker) against the
// reference Algorithm 1 (TrendDetector::FindTrend): after every push,
// including the pushes before the history fills, both must give the same
// answer, over a grid of history sizes and split factors and over streams
// built to hit the tracker's edge cases.
#include "src/core/trend_tracker.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/trend_detector.h"
#include "src/sim/rng.h"

namespace leap {
namespace {

constexpr size_t kHsizes[] = {1, 2, 3, 8, 32, 33, 64};
constexpr size_t kNsplits[] = {1, 2, 3, 4, 8, 64};

// A delta stream of `n` entries for a tracker of the given shape (the
// tracker is passed so a stream can aim at its windows or its table).
using StreamFn = std::function<std::vector<PageDelta>(
    const TrendTracker& tracker, size_t n, Rng& rng)>;

struct Stream {
  std::string name;
  StreamFn make;
};

std::vector<PageDelta> RandomDeltas(const TrendTracker&, size_t n, Rng& rng) {
  // Few distinct values, so majorities come and go.
  std::vector<PageDelta> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(rng.NextInt(-2, 2));
  }
  return out;
}

std::vector<PageDelta> WideRandomDeltas(const TrendTracker&, size_t n,
                                        Rng& rng) {
  // Nearly all distinct: the table fills to Hsize keys.
  std::vector<PageDelta> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(rng.NextInt(-1'000'000, 1'000'000));
  }
  return out;
}

std::vector<PageDelta> RunsWithIrregularities(const TrendTracker&, size_t n,
                                              Rng& rng) {
  std::vector<PageDelta> out;
  PageDelta stride = 1;
  while (out.size() < n) {
    const uint64_t run = rng.NextU64(40) + 4;
    for (uint64_t i = 0; i < run; ++i) {
      out.push_back(stride);
    }
    const uint64_t noise = rng.NextU64(3) + 1;
    for (uint64_t i = 0; i < noise; ++i) {
      out.push_back(rng.NextInt(-500, 500));
    }
    if (rng.NextU64(4) == 0) {
      stride = rng.NextInt(-8, 8);
    }
  }
  out.resize(n);
  return out;
}

std::vector<PageDelta> Alternating(const TrendTracker&, size_t n, Rng& rng) {
  // a, b, a, b, ... with an occasional doubled entry that shifts the
  // balance by one.
  std::vector<PageDelta> out;
  const PageDelta ab[2] = {3, -7};
  size_t turn = 0;
  while (out.size() < n) {
    out.push_back(ab[turn & 1]);
    if (rng.NextU64(16) != 0) {
      ++turn;
    }
  }
  return out;
}

std::vector<PageDelta> ThresholdCounts(const TrendTracker& tracker, size_t n,
                                       Rng&) {
  // For each window size w: blocks of floor(w/2) + 1 copies of A against
  // floor(w/2) of B, then floor(w/2) against floor(w/2), so the sliding
  // window sits exactly on and just below the majority threshold.
  std::vector<PageDelta> out;
  while (out.size() < n) {
    for (size_t level = 0; level < tracker.levels(); ++level) {
      const size_t half = tracker.window(level) / 2;
      out.insert(out.end(), half + 1, 5);
      out.insert(out.end(), half, -5);
      out.insert(out.end(), half, 5);
      out.insert(out.end(), half, -5);
    }
  }
  out.resize(n);
  return out;
}

std::vector<PageDelta> ExtremeDeltas(const TrendTracker&, size_t n, Rng& rng) {
  const PageDelta values[] = {std::numeric_limits<PageDelta>::min(),
                              std::numeric_limits<PageDelta>::max(), 0, -1,
                              1};
  std::vector<PageDelta> out;
  while (out.size() < n) {
    const PageDelta v = values[rng.NextU64(5)];
    const uint64_t run = rng.NextU64(6) + 1;
    for (uint64_t i = 0; i < run; ++i) {
      out.push_back(v);
    }
  }
  out.resize(n);
  return out;
}

std::vector<PageDelta> CollidingKeys(const TrendTracker& tracker, size_t n,
                                     Rng& rng) {
  // Keys sharing the first or the last bucket: long chains, so nodes are
  // unlinked from their middle and ends as well as their heads.
  std::vector<PageDelta> keys;
  const size_t last = tracker.buckets() - 1;
  size_t at_first = 0;
  size_t at_last = 0;
  for (PageDelta k = 1; at_first < 6 || at_last < 6; ++k) {
    const size_t home = tracker.HomeBucket(k);
    if (home == 0 && at_first < 6) {
      keys.push_back(k);
      ++at_first;
    } else if (home == last && at_last < 6) {
      keys.push_back(k);
      ++at_last;
    }
  }
  std::vector<PageDelta> out;
  while (out.size() < n) {
    const PageDelta v = keys[rng.NextU64(keys.size())];
    const uint64_t run = rng.NextU64(4) + 1;
    for (uint64_t i = 0; i < run; ++i) {
      out.push_back(v);
    }
  }
  out.resize(n);
  return out;
}

const std::vector<Stream>& Streams() {
  static const std::vector<Stream> streams = {
      {"random", RandomDeltas},
      {"wide-random", WideRandomDeltas},
      {"runs-with-irregularities", RunsWithIrregularities},
      {"alternating", Alternating},
      {"threshold-counts", ThresholdCounts},
      {"extreme-deltas", ExtremeDeltas},
      {"colliding-keys", CollidingKeys},
  };
  return streams;
}

TEST(TrendTracker, MatchesFindTrendAfterEveryPush) {
  for (size_t hsize : kHsizes) {
    for (size_t nsplit : kNsplits) {
      for (const Stream& stream : Streams()) {
        AccessHistory history(hsize);
        TrendTracker tracker(hsize, nsplit);
        const TrendDetector reference(nsplit);
        Rng rng(hsize * 131 + nsplit);
        const std::vector<PageDelta> deltas =
            stream.make(tracker, 8 * hsize + 400, rng);
        ASSERT_EQ(tracker.Trend(), reference.FindTrend(history));
        for (size_t i = 0; i < deltas.size(); ++i) {
          tracker.Push(deltas[i]);
          history.Push(deltas[i]);
          ASSERT_EQ(tracker.Trend(), reference.FindTrend(history))
              << "Hsize " << hsize << ", Nsplit " << nsplit << ", stream "
              << stream.name << ", push " << i << " (delta " << deltas[i]
              << ")";
        }
      }
    }
  }
}

TEST(TrendTracker, LevelsAreFindTrendsDoublingWindows) {
  auto windows = [](size_t hsize, size_t nsplit) {
    const TrendTracker tracker(hsize, nsplit);
    std::vector<size_t> out;
    for (size_t level = 0; level < tracker.levels(); ++level) {
      out.push_back(tracker.window(level));
    }
    return out;
  };
  EXPECT_EQ(windows(32, 2), (std::vector<size_t>{16, 32}));
  EXPECT_EQ(windows(33, 2), (std::vector<size_t>{16, 32, 33}));
  EXPECT_EQ(windows(8, 3), (std::vector<size_t>{2, 4, 8}));
  EXPECT_EQ(windows(3, 64), (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(windows(1, 64), (std::vector<size_t>{1}));
  EXPECT_EQ(windows(64, 1), (std::vector<size_t>{64}));
  EXPECT_EQ(windows(32, 0), windows(32, 1));  // nsplit 0 acts as 1
}

TEST(TrendTracker, TableIsSizedFromHsize) {
  // At most Hsize distinct deltas are live: 2 * Hsize buckets, rounded up
  // to a power of two, keep the load at or below one half.
  EXPECT_EQ(TrendTracker(1, 2).buckets(), 2u);
  EXPECT_EQ(TrendTracker(32, 2).buckets(), 64u);
  EXPECT_EQ(TrendTracker(33, 2).buckets(), 128u);
}

TEST(TrendTracker, SteadyStrideKeepsItsTrend) {
  AccessHistory history(32);
  TrendTracker tracker(32, 2);
  for (int i = 0; i < 100; ++i) {
    tracker.Push(4);
    history.Push(4);
  }
  EXPECT_EQ(tracker.Trend(), std::optional<PageDelta>(4));
  // Seven irregularities leave 9 of the 16 newest deltas on the stride.
  for (PageDelta d = 100; d < 107; ++d) {
    tracker.Push(d);
    history.Push(d);
  }
  EXPECT_EQ(tracker.Trend(), std::optional<PageDelta>(4));
}

}  // namespace
}  // namespace leap
