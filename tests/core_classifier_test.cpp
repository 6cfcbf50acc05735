// DSM-Sort's inlined bucket classifier and the skip-based splitter
// sampling, each checked against the reference it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/splitters.hpp"
#include "core/workload.hpp"
#include "extmem/distribute.hpp"
#include "sim/random.hpp"

namespace core = lmas::core;
namespace em = lmas::em;
using lmas::sim::Rng;

namespace {

constexpr std::uint32_t kMax = 0xffffffffu;

/// `k`, its neighbours and the ends of the key space, saturating.
std::vector<std::uint32_t> around(const std::vector<std::uint32_t>& ks) {
  std::vector<std::uint32_t> probes = {0, 1, kMax - 1, kMax};
  for (auto k : ks) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    if (k < kMax) probes.push_back(k + 1);
  }
  return probes;
}

TEST(BucketClassifier, RangeSplitMatchesRangeClassifier) {
  for (unsigned alpha : {1u, 3u, 16u, 256u}) {
    SCOPED_TRACE(alpha);
    const auto fast = core::BucketClassifier::range(alpha);
    const em::RangeClassifier<std::uint32_t> ref(0, kMax, alpha);
    // Where the reference changes bucket: the first key of each bucket,
    // found by bisection on the reference itself.
    std::vector<std::uint32_t> edges;
    for (unsigned b = 1; b < alpha; ++b) {
      std::uint64_t lo = 0, hi = kMax;
      while (lo < hi) {
        const std::uint64_t mid = (lo + hi) / 2;
        if (ref(em::KeyRecord{std::uint32_t(mid), 0}) >= b) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      edges.push_back(std::uint32_t(lo));
    }
    for (auto key : around(edges)) {
      EXPECT_EQ(fast(key), ref(em::KeyRecord{key, 0})) << "key " << key;
    }
    EXPECT_EQ(fast(kMax), alpha - 1);
  }
}

TEST(BucketClassifier, SampledSplittersMatchSplitterClassifier) {
  Rng rng(3);
  std::vector<std::uint32_t> sample(5000);
  for (auto& k : sample) k = std::uint32_t(rng.next());
  for (unsigned alpha : {1u, 3u, 16u, 256u}) {
    SCOPED_TRACE(alpha);
    const auto splitters = core::choose_splitters(sample, alpha);
    ASSERT_EQ(splitters.size(), alpha - 1);
    const auto fast = core::BucketClassifier::sampled(splitters);
    const core::SplitterClassifier ref(splitters);
    for (auto key : around(splitters)) {
      EXPECT_EQ(fast(key), ref(em::KeyRecord{key, 0})) << "key " << key;
    }
  }
}

TEST(BucketClassifier, DuplicateSplittersLeaveBucketsEmpty) {
  for (unsigned alpha : {3u, 16u, 256u}) {
    SCOPED_TRACE(alpha);
    // A heavily tied sample: most quantiles coincide.
    std::vector<std::uint32_t> sample(4000, 7);
    for (std::size_t i = 0; i < 40; ++i) sample[i] = 0;
    for (std::size_t i = 0; i < 400; ++i) sample[3600 + i] = kMax - 2;
    const auto splitters = core::choose_splitters(sample, alpha);
    const auto fast = core::BucketClassifier::sampled(splitters);
    const core::SplitterClassifier ref(splitters);
    for (auto key : around(splitters)) {
      EXPECT_EQ(fast(key), ref(em::KeyRecord{key, 0})) << "key " << key;
    }
  }
  const auto hand = std::vector<std::uint32_t>{5, 5, 5, 9, 9};
  const auto fast = core::BucketClassifier::sampled(hand);
  const core::SplitterClassifier ref(hand);
  for (auto key : around(hand)) {
    EXPECT_EQ(fast(key), ref(em::KeyRecord{key, 0})) << "key " << key;
  }
}

TEST(BucketClassifier, NoSplittersMeansOneBucket) {
  const auto fast = core::BucketClassifier::sampled({});
  EXPECT_EQ(fast(0), 0u);
  EXPECT_EQ(fast(kMax), 0u);
}

TEST(BucketClassifier, SampledSearchEqualsLowerBoundAtEveryAlpha) {
  // Every splitter count from 0 to 299, so the UINT32_MAX padding to
  // 2^d - 1 entries is exercised at every non-power of two, with
  // splitter sets that start at 0 and end at UINT32_MAX.
  Rng rng(7);
  for (unsigned alpha = 1; alpha <= 300; ++alpha) {
    SCOPED_TRACE(alpha);
    std::vector<std::uint32_t> random(alpha - 1);
    for (auto& k : random) k = std::uint32_t(rng.next());
    std::sort(random.begin(), random.end());
    auto ends = random;
    if (!ends.empty()) {
      ends.front() = 0;
      ends.back() = kMax;
    }
    std::vector<std::uint32_t> lows(alpha - 1, 0);
    std::vector<std::uint32_t> highs(alpha - 1, kMax);
    for (const auto* splitters : {&random, &ends, &lows, &highs}) {
      const auto fast = core::BucketClassifier::sampled(*splitters);
      for (auto key : around(*splitters)) {
        const auto want = std::uint32_t(
            std::lower_bound(splitters->begin(), splitters->end(), key) -
            splitters->begin());
        ASSERT_EQ(fast(key), want) << "key " << key;
      }
    }
  }
}

TEST(BucketClassifier, MonotoneInTheKey) {
  // DSM-Sort's run validation relies on this: a sorted run lies in one
  // bucket iff its first and last records do.
  Rng rng(4);
  std::vector<std::uint32_t> keys(20000);
  for (auto& k : keys) k = std::uint32_t(rng.next());
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint32_t> sample(keys.begin(), keys.begin() + 3000);
  for (unsigned alpha : {3u, 16u, 256u}) {
    for (const auto& cls :
         {core::BucketClassifier::range(alpha),
          core::BucketClassifier::sampled(core::choose_splitters(sample, alpha))}) {
      std::uint32_t prev = 0;
      for (auto k : keys) {
        const std::uint32_t b = cls(k);
        ASSERT_GE(b, prev);
        prev = b;
      }
    }
  }
}

// ---------- splitter sampling by skipping ----------

constexpr core::KeyDist kDists[] = {
    core::KeyDist::Uniform, core::KeyDist::Exponential,
    core::KeyDist::HalfUniformHalfExp, core::KeyDist::Sorted,
    core::KeyDist::ReverseSorted};

TEST(SplitterSampling, SkipAdvancesExactlyLikeNext) {
  for (auto dist : kDists) {
    SCOPED_TRACE(core::key_dist_name(dist));
    const std::size_t n = 10001;
    core::KeyGenerator full(dist, n, Rng(5));
    core::KeyGenerator skipping(dist, n, Rng(5));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t want = full.next();
      if (i % 7 == 3) {
        ASSERT_EQ(skipping.next(), want) << "position " << i;
      } else {
        skipping.skip();
      }
    }
    EXPECT_EQ(skipping.emitted(), full.emitted());
  }
}

TEST(SplitterSampling, SplittersEqualAFullRegeneration) {
  for (auto dist : kDists) {
    SCOPED_TRACE(core::key_dist_name(dist));
    for (std::size_t stride : {1u, 24u, 4096u, 200000u}) {
      SCOPED_TRACE(stride);
      const std::size_t n = 100003;
      std::vector<std::uint32_t> want, got;
      core::KeyGenerator full(dist, n, Rng(6));
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t k = full.next();
        if (i % stride == 0) want.push_back(k);
      }
      core::KeyGenerator sampled(dist, n, Rng(6));
      core::sample_keys(sampled, n, stride, got);
      EXPECT_EQ(got, want);
      EXPECT_EQ(sampled.emitted(), n);
      for (unsigned alpha : {3u, 16u, 256u}) {
        EXPECT_EQ(core::choose_splitters(got, alpha),
                  core::choose_splitters(want, alpha));
      }
    }
  }
}

}  // namespace
