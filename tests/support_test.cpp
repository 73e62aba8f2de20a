// Support-library tests: sync primitives, blocking queues, RNG/Zipf,
// histograms.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "support/queue.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/sync.h"

namespace alps::support {
namespace {

// ---- Semaphore ----

TEST(Semaphore, AcquireRelease) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Semaphore, BlocksUntilRelease) {
  Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::jthread t([&] {
    sem.acquire();
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  sem.release();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Semaphore, TimedAcquire) {
  Semaphore sem(0);
  EXPECT_FALSE(sem.try_acquire_for(std::chrono::milliseconds(5)));
  sem.release();
  EXPECT_TRUE(sem.try_acquire_for(std::chrono::milliseconds(5)));
}

TEST(Semaphore, BulkRelease) {
  Semaphore sem(0);
  sem.release(3);
  EXPECT_EQ(sem.value(), 3);
}

// ---- Events ----

TEST(Event, SetBeforeWait) {
  Event e;
  e.set();
  e.wait();  // must not block
  EXPECT_TRUE(e.is_set());
}

TEST(Event, WaitForTimesOut) {
  Event e;
  EXPECT_FALSE(e.wait_for(std::chrono::milliseconds(5)));
  e.set();
  EXPECT_TRUE(e.wait_for(std::chrono::milliseconds(5)));
}

// ---- BlockingQueue ----

TEST(BlockingQueue, PushPopFifo) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BlockingQueue, CloseDrainsResidue) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CloseWakesBlockedConsumers) {
  BlockingQueue<int> q;
  std::atomic<int> woke{0};
  std::vector<std::jthread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      EXPECT_FALSE(q.pop().has_value());
      ++woke;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumers.clear();
  EXPECT_EQ(woke.load(), 3);
}

TEST(BlockingQueue, MpmcDeliversEverythingOnce) {
  BlockingQueue<int> q;
  constexpr int kN = 2000;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < 3; ++c) {
      threads.emplace_back([&] {
        while (auto v = q.pop()) {
          sum += *v;
          ++count;
        }
      });
    }
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        for (int i = p; i < kN; i += 2) q.push(i);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    while (q.size() > 0) std::this_thread::yield();
    q.close();
  }
  EXPECT_EQ(count.load(), kN);
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

// ---- RNG ----

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(Zipf, SkewsTowardLowRanks) {
  ZipfGenerator zipf(1000, 0.99, 3);
  std::map<std::size_t, int> counts;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.next()];
  // Rank 0 must dominate any mid-tail rank by a wide margin.
  EXPECT_GT(counts[0], 20 * std::max(1, counts[500]));
  // All draws are in range.
  for (const auto& [rank, n] : counts) EXPECT_LT(rank, 1000u);
}

TEST(Zipf, ThetaZeroIsUniformish) {
  ZipfGenerator zipf(10, 0.0, 3);
  std::map<std::size_t, int> counts;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.next()];
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(counts[r], kN / 10, kN / 25);
  }
}

TEST(Zipf, SingleRankAlwaysDrawsZero) {
  // n = 1 degenerates to a point mass; the inverse-CDF must not run off
  // the end of a one-entry table.
  ZipfGenerator zipf(1, 0.99, 3);
  EXPECT_EQ(zipf.n(), 1u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.next(), 0u);
}

TEST(Zipf, ThetaNearOneMatchesHarmonicHeadMass) {
  // At theta → 1 the weights are ~1/(k+1): rank 0 should carry close to
  // 1/H_n of the mass. For n = 100, H_100 ≈ 5.187 → p(0) ≈ 19.3%.
  constexpr std::size_t kRanks = 100;
  ZipfGenerator zipf(kRanks, 0.999999, 5);
  constexpr int kN = 200000;
  int rank0 = 0;
  for (int i = 0; i < kN; ++i) rank0 += (zipf.next() == 0);
  double harmonic = 0;
  for (std::size_t k = 1; k <= kRanks; ++k) harmonic += 1.0 / double(k);
  const double expected = kN / harmonic;
  EXPECT_NEAR(rank0, expected, expected * 0.05);
}

TEST(Zipf, ChiSquaredAgainstTheoreticalRankFrequencies) {
  // Goodness-of-fit over the full support: empirical counts vs the exact
  // 1/(k+1)^theta cell probabilities. With 19 degrees of freedom the 99.9%
  // critical value is ≈ 43.8; a correct inverse-CDF sampler sits far below
  // it, while an off-by-one in the table search blows well past.
  constexpr std::size_t kRanks = 20;
  constexpr double kTheta = 0.8;
  ZipfGenerator zipf(kRanks, kTheta, 17);
  constexpr int kN = 200000;
  std::array<int, kRanks> counts{};
  for (int i = 0; i < kN; ++i) ++counts[zipf.next()];

  std::array<double, kRanks> weight{};
  double total = 0;
  for (std::size_t k = 0; k < kRanks; ++k) {
    weight[k] = 1.0 / std::pow(double(k + 1), kTheta);
    total += weight[k];
  }
  double chi2 = 0;
  for (std::size_t k = 0; k < kRanks; ++k) {
    const double expected = kN * weight[k] / total;
    ASSERT_GT(expected, 5.0) << "chi-squared needs well-filled cells";
    const double d = counts[k] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 43.8) << "chi-squared rank-frequency fit rejected";
}

TEST(WordList, DeterministicNames) {
  auto words = make_word_list(3);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "w000000");
  EXPECT_EQ(words[2], "w000002");
}

// ---- Histogram ----

TEST(Histogram, CountsAndBounds) {
  Histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_NEAR(h.mean(), 200.0, 0.01);
}

TEST(Histogram, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<std::uint64_t>(i) * 1000);
  const auto p50 = h.percentile(0.50);
  const auto p90 = h.percentile(0.90);
  const auto p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // ~4% relative bucket error.
  EXPECT_NEAR(static_cast<double>(p50), 500e3, 50e3);
  EXPECT_NEAR(static_cast<double>(p99), 990e3, 99e3);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.record(10);
  b.record(20);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

// Regression: a negative duration (clock skew / out-of-order timestamps)
// used to cast to ~2^64 ns and blow out max/mean/percentiles. It must clamp
// to zero instead.
TEST(Histogram, NegativeDurationClampsToZero) {
  Histogram h;
  h.record_duration(std::chrono::nanoseconds(-500));
  h.record_duration(std::chrono::microseconds(-3));
  h.record_duration(std::chrono::nanoseconds(100));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_LE(h.percentile(0.99), 100u);
  EXPECT_GE(h.mean(), 0.0);
  EXPECT_LE(h.mean(), 100.0);
}

TEST(Histogram, ConcurrentRecordsAllCounted) {
  Histogram h;
  constexpr int kThreads = 4, kEach = 10000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 1; i <= kEach; ++i) h.record(static_cast<std::uint64_t>(i));
      });
    }
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kEach);
}

TEST(Format, HumanReadable) {
  EXPECT_EQ(format_ns(500), "500ns");
  EXPECT_EQ(format_ns(1500), "1.5us");
  EXPECT_EQ(format_ns(2.5e6), "2.50ms");
  EXPECT_EQ(format_ns(1.25e9), "1.25s");
}

}  // namespace
}  // namespace alps::support
