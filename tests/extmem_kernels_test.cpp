// Record kernels of DSM-Sort's data path: the stable radix run former and
// the key-cached k-way run merge, each checked against an independent
// reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/workload.hpp"
#include "extmem/merge.hpp"
#include "extmem/radix_sort.hpp"
#include "sim/random.hpp"

namespace em = lmas::em;
namespace core = lmas::core;
using lmas::sim::Rng;

namespace {

using Records = std::vector<em::KeyRecord>;

/// Records with the given keys; ids are arrival positions, so ties stay
/// distinguishable.
Records with_ids(const std::vector<std::uint32_t>& keys) {
  Records out;
  out.reserve(keys.size());
  std::uint32_t id = 0;
  for (auto k : keys) out.push_back({k, id++});
  return out;
}

Records stable_sorted(Records r) {
  std::stable_sort(r.begin(), r.end());
  return r;
}

void expect_matches_stable_sort(const Records& input) {
  Records got = input;
  Records scratch;
  em::radix_sort_by_key(got, scratch);
  EXPECT_EQ(got, stable_sorted(input));
  EXPECT_LE(scratch.size(), input.size());
}

std::vector<std::uint32_t> uniform_keys(std::size_t n, std::uint64_t seed,
                                        std::uint32_t mask = ~0u,
                                        std::uint32_t fixed = 0) {
  Rng rng(seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = (std::uint32_t(rng.next()) & mask) | fixed;
  return keys;
}

// ---------- radix run formation ----------

TEST(RadixSort, EmptyAndSingleRecordBlocks) {
  expect_matches_stable_sort({});
  expect_matches_stable_sort(with_ids({42}));
}

TEST(RadixSort, AllEqualKeysKeepArrivalOrder) {
  const Records input = with_ids(std::vector<std::uint32_t>(1000, 0xdeadbeefu));
  Records got = input;
  Records scratch;
  em::radix_sort_by_key(got, scratch);
  EXPECT_EQ(got, input);  // every pass is skipped: the identity
}

TEST(RadixSort, ConstantHighByteSkipsThatPass) {
  // One distribute bucket of a range split: the top byte never varies.
  expect_matches_stable_sort(
      with_ids(uniform_keys(4096, 11, 0x00ffffffu, 0x7a000000u)));
}

TEST(RadixSort, MostlyConstantDigitIsStillSorted) {
  // Byte 1 is zero in 90% of records: only a digit shared by all of
  // them may skip its pass.
  auto keys = uniform_keys(5000, 18, 0xffff00ffu);
  Rng rng(19);
  for (auto& k : keys) {
    if (rng.below(10) == 0) k |= std::uint32_t(1 + rng.below(255)) << 8;
  }
  expect_matches_stable_sort(with_ids(keys));
}

TEST(RadixSort, OddAndEvenNumbersOfExecutedPasses) {
  // Only byte 1 varies (one pass: result lands in scratch and is copied
  // back); bytes 0 and 2 vary (two passes: result already in place).
  expect_matches_stable_sort(
      with_ids(uniform_keys(3000, 12, 0x0000ff00u, 0x11000022u)));
  expect_matches_stable_sort(
      with_ids(uniform_keys(3000, 13, 0x00ff00ffu, 0x33000000u)));
}

TEST(RadixSort, ExponentialKeysWithManyTies) {
  core::KeyGenerator gen(core::KeyDist::Exponential, 16384, Rng(14));
  std::vector<std::uint32_t> keys = gen.take(16384);
  for (auto& k : keys) k >>= 20;  // coarsen: long runs of equal keys
  expect_matches_stable_sort(with_ids(keys));
}

TEST(RadixSort, MatchesStableSortAcrossBlockSizes) {
  for (std::size_t n : {1023u, 1024u, 16384u}) {
    SCOPED_TRACE(n);
    expect_matches_stable_sort(with_ids(uniform_keys(n, 15 + n)));
    // Small key range: most records tie with others.
    expect_matches_stable_sort(with_ids(uniform_keys(n, 16 + n, 0x3fu)));
  }
}

TEST(RadixSort, ReusedScratchIsCallerOwned) {
  Records scratch;
  for (std::size_t n : {16384u, 7u, 1024u}) {
    const Records input = with_ids(uniform_keys(n, 17 + n));
    Records got = input;
    em::radix_sort_by_key(got, scratch);
    EXPECT_EQ(got, stable_sorted(input));
  }
  EXPECT_GE(scratch.capacity(), 16384u);
}

// ---------- k-way run merge ----------

/// The k-way merge DSM-Sort used before the tournament trees: a binary heap
/// of source indices over std::function sources, ties to the lower
/// source index. Kept here as the oracle the new merge must reproduce.
Records heap_merge(const std::vector<Records>& runs) {
  std::vector<std::function<std::optional<em::KeyRecord>()>> sources;
  for (const auto& run : runs) {
    sources.push_back(
        [&run, pos = std::size_t(0)]() mutable -> std::optional<em::KeyRecord> {
          if (pos >= run.size()) return std::nullopt;
          return run[pos++];
        });
  }
  std::vector<std::optional<em::KeyRecord>> heads(sources.size());
  std::vector<std::size_t> heap;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    heads[i] = sources[i]();
    if (heads[i]) heap.push_back(i);
  }
  const auto less = [&](std::size_t a, std::size_t b) {
    if (*heads[a] < *heads[b]) return true;
    if (*heads[b] < *heads[a]) return false;
    return a < b;
  };
  const auto sift_down = [&](std::size_t i) {
    while (true) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < heap.size() && less(heap[l], heap[best])) best = l;
      if (r < heap.size() && less(heap[r], heap[best])) best = r;
      if (best == i) return;
      std::swap(heap[i], heap[best]);
      i = best;
    }
  };
  for (std::size_t i = heap.size(); i-- > 0;) sift_down(i);
  Records out;
  while (!heap.empty()) {
    const std::size_t src = heap.front();
    out.push_back(*heads[src]);
    heads[src] = sources[src]();
    if (!heads[src]) {
      heap.front() = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_down(0);
  }
  return out;
}

Records cursor_merge(const std::vector<Records>& runs) {
  std::vector<std::span<const em::KeyRecord>> views(runs.begin(), runs.end());
  return em::merge_runs<em::KeyRecord>(views);
}

/// RunMerge drained in chunks of `chunk` records, alternating the two
/// pop overloads.
Records chunked_merge(const std::vector<Records>& runs, std::size_t chunk) {
  em::RunMerge<em::KeyRecord> merge(runs);
  Records out;
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  EXPECT_EQ(merge.size(), total);
  for (bool raw = false; !merge.empty(); raw = !raw) {
    const std::size_t before = merge.size();
    std::size_t n = 0;
    if (raw) {
      Records buf(chunk);
      n = merge.pop(buf.data(), chunk);
      out.insert(out.end(), buf.begin(), buf.begin() + std::ptrdiff_t(n));
    } else {
      n = merge.pop(out, chunk);
    }
    EXPECT_EQ(n, std::min(chunk, before));
    EXPECT_EQ(merge.size(), before - n);
  }
  EXPECT_EQ(merge.pop(out, chunk), 0u);
  return out;
}

Records pull_merge(const std::vector<Records>& runs) {
  std::vector<em::LoserTree<em::KeyRecord>::Source> sources;
  for (const auto& run : runs) {
    sources.push_back(
        [&run, pos = std::size_t(0)]() mutable -> std::optional<em::KeyRecord> {
          if (pos >= run.size()) return std::nullopt;
          return run[pos++];
        });
  }
  em::LoserTree<em::KeyRecord> tree(std::move(sources));
  Records out;
  while (auto r = tree.next()) out.push_back(*r);
  return out;
}

/// k sorted runs of random lengths (some empty) over a small key range,
/// so equal keys recur within and across runs; ids are globally unique.
std::vector<Records> tied_runs(std::size_t k, std::size_t max_len,
                               std::uint32_t key_range, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Records> runs(k);
  std::uint32_t id = 0;
  for (auto& run : runs) {
    const std::size_t len = rng.below(max_len + 1);
    std::vector<std::uint32_t> keys(len);
    for (auto& key : keys) key = std::uint32_t(rng.below(key_range));
    std::sort(keys.begin(), keys.end());
    for (auto key : keys) run.push_back({key, id++});
  }
  return runs;
}

void expect_all_merges_agree(const std::vector<Records>& runs) {
  const Records want = heap_merge(runs);
  EXPECT_EQ(cursor_merge(runs), want);
  EXPECT_EQ(pull_merge(runs), want);
}

TEST(CursorMerge, TiesBreakTowardTheLowerSourceIndex) {
  const std::vector<Records> runs = {
      {{5, 100}, {7, 101}}, {{5, 200}, {5, 201}}, {{1, 300}, {5, 301}}};
  const Records got = cursor_merge(runs);
  const Records want = {{1, 300}, {5, 100}, {5, 200}, {5, 201},
                        {5, 301}, {7, 101}};
  EXPECT_EQ(got, want);
  expect_all_merges_agree(runs);
}

TEST(CursorMerge, EmptyRunsAndNoRuns) {
  expect_all_merges_agree({});
  expect_all_merges_agree({{}, {}, {}});
  expect_all_merges_agree({{}, {{3, 0}, {4, 1}}, {}, {{1, 2}}});
  EXPECT_TRUE(cursor_merge({}).empty());
}

TEST(CursorMerge, SingleRunIsCopiedThrough) {
  const auto runs = tied_runs(1, 500, 50, 21);
  EXPECT_EQ(cursor_merge(runs), runs[0]);
  expect_all_merges_agree(runs);
}

TEST(CursorMerge, MatchesHeapMergeAcrossFanIns) {
  for (std::size_t k : {2u, 3u, 5u, 16u, 64u, 255u, 256u, 257u, 300u}) {
    SCOPED_TRACE(k);
    expect_all_merges_agree(tied_runs(k, 64, 32, 30 + k));
    expect_all_merges_agree(tied_runs(k, 200, 1u << 20, 40 + k));
  }
}

TEST(CursorMerge, OutputIsTheStableSortOfTheConcatenation) {
  const auto runs = tied_runs(37, 300, 100, 50);
  Records concat;
  for (const auto& run : runs) concat.insert(concat.end(), run.begin(), run.end());
  EXPECT_EQ(cursor_merge(runs), stable_sorted(concat));
}

TEST(RunMerge, ChunkedPopsEqualOneShotMergeAndHeapOracle) {
  for (std::size_t k : {1u, 2u, 5u, 16u, 33u}) {
    SCOPED_TRACE(k);
    const auto runs = tied_runs(k, 900, 64, 60 + k);
    const Records want = heap_merge(runs);
    ASSERT_EQ(cursor_merge(runs), want);
    for (std::size_t chunk : {1u, 7u, 4096u}) {
      SCOPED_TRACE(chunk);
      EXPECT_EQ(chunked_merge(runs, chunk), want);
    }
  }
}

TEST(RunMerge, MaxKeysAreNotTakenForExhaustedRuns) {
  // UINT32_MAX keys sit next to the exhausted-run sentinel: they must
  // still all come out, in run order, interleaved with smaller keys.
  constexpr std::uint32_t kMax = 0xffffffffu;
  const std::vector<Records> only_max = {
      {{kMax, 0}, {kMax, 1}}, {{kMax, 2}}, {}, {{kMax, 3}, {kMax, 4}}};
  const Records want = {{kMax, 0}, {kMax, 1}, {kMax, 2}, {kMax, 3}, {kMax, 4}};
  EXPECT_EQ(cursor_merge(only_max), want);
  EXPECT_EQ(chunked_merge(only_max, 1), want);
  EXPECT_EQ(heap_merge(only_max), want);

  const std::vector<Records> mixed = {
      {{0, 0}, {kMax, 1}}, {{kMax, 2}}, {{kMax - 1, 3}, {kMax, 4}}, {{0, 5}}};
  EXPECT_EQ(cursor_merge(mixed), heap_merge(mixed));
  EXPECT_EQ(chunked_merge(mixed, 7), heap_merge(mixed));
  EXPECT_EQ(cursor_merge(mixed).size(), 6u);
}

TEST(RunMerge, FanInBeyondThe32BitSourceFieldThrows) {
  // A sized range of empty runs: nothing is allocated for them.
  constexpr std::size_t kTooMany = em::RunMerge<em::KeyRecord>::kMaxFanIn + 1;
  const auto too_many =
      std::views::iota(std::size_t{0}, kTooMany) |
      std::views::transform(
          [](std::size_t) { return std::span<const em::KeyRecord>{}; });
  EXPECT_THROW(em::RunMerge<em::KeyRecord>{too_many}, std::length_error);
}

}  // namespace
