#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "extmem/stream.hpp"

namespace lmas::em {

/// Loser-tree (tournament) k-way merge over pull sources. Each record
/// costs ceil(log2 k) comparisons on its way to the root — the
/// `n log(gamma)` term in the paper's work accounting. Ties break toward
/// the lower source index, making the merge stable across sources: the
/// output is the inputs concatenated in source order and stably sorted.
/// The general form: any producer and any order fit (streams, pqueue
/// spills). Runs of keyed records already in memory use RunMerge.
template <FixedSizeRecord T, typename Less = std::less<T>>
class LoserTree {
 public:
  /// `sources` pull the next record from each input (nullopt = exhausted).
  using Source = std::function<std::optional<T>()>;

  explicit LoserTree(std::vector<Source> sources, Less less = {})
      : less_(std::move(less)), sources_(std::move(sources)) {
    k_ = sources_.size();
    heads_.reserve(k_);
    for (auto& s : sources_) heads_.push_back(s());
    while (leaves_ < k_) leaves_ *= 2;
    // Play the initial tournament bottom-up: each internal node keeps
    // the loser of its match, the overall winner goes to tree_[0].
    // Leaves past k_ are permanently exhausted byes.
    std::vector<std::size_t> winner(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i) winner[leaves_ + i] = i;
    tree_.assign(leaves_, 0);
    for (std::size_t node = leaves_; node-- > 1;) {
      const std::size_t a = winner[2 * node], b = winner[2 * node + 1];
      const bool a_wins = beats(a, b);
      winner[node] = a_wins ? a : b;
      tree_[node] = a_wins ? b : a;
    }
    tree_[0] = winner[1];
  }

  [[nodiscard]] bool empty() const noexcept { return done(tree_[0]); }

  /// Pop the globally smallest record and refill from its source.
  std::optional<T> next() {
    std::size_t w = tree_[0];
    if (done(w)) return std::nullopt;
    T out = *heads_[w];
    heads_[w] = sources_[w]();
    // Replay the winner's path: at each node the stored loser plays the
    // refilled source, and whoever loses stays behind.
    for (std::size_t node = (leaves_ + w) / 2; node >= 1; node /= 2) {
      if (beats(tree_[node], w)) std::swap(tree_[node], w);
    }
    tree_[0] = w;
    return out;
  }

  [[nodiscard]] std::size_t fan_in() const noexcept { return k_; }

 private:
  [[nodiscard]] bool done(std::size_t i) const noexcept {
    return i >= k_ || !heads_[i];
  }

  /// Does source `a`'s head leave the tree before source `b`'s?
  [[nodiscard]] bool beats(std::size_t a, std::size_t b) const {
    if (done(a)) return false;
    if (done(b)) return true;
    if (less_(*heads_[a], *heads_[b])) return true;
    if (less_(*heads_[b], *heads_[a])) return false;
    return a < b;  // stability across sources
  }

  Less less_;
  std::vector<Source> sources_;
  std::vector<std::optional<T>> heads_;
  std::size_t k_ = 0;
  std::size_t leaves_ = 1;          // k_ rounded up to a power of two
  std::vector<std::size_t> tree_;   // [0] winner, [1, leaves_) losers
};

/// Records ordered by a 32-bit unsigned `key` member (KeyRecord,
/// Record128).
template <typename T>
concept KeyedRecord =
    FixedSizeRecord<T> && std::same_as<decltype(T::key), std::uint32_t>;

/// Key-cached tournament merge of sorted runs that sit in memory, with
/// the tie rule of LoserTree (equal keys leave in run order). Every tree
/// node caches its loser as the composite `(key << 32) | source`, so a
/// match is one integer compare that settles ties too, and replaying the
/// winner's path is a compare and a masked swap per level: no record
/// loads, no exhaustion tests. An exhausted run plays as UINT64_MAX, above every
/// live composite because a source index stays below UINT32_MAX.
template <KeyedRecord T>
class RunMerge {
 public:
  /// Largest fan-in whose source indices fit the composite's low half
  /// with UINT64_MAX left free for the exhausted sentinel.
  static constexpr std::size_t kMaxFanIn = UINT32_MAX;

  /// `runs`: any sized range of sorted runs (spans or vectors); they must
  /// outlive the merge.
  template <std::ranges::sized_range Runs>
    requires std::convertible_to<std::ranges::range_reference_t<Runs>,
                                 std::span<const T>>
  explicit RunMerge(Runs&& runs) {
    const std::size_t k = std::ranges::size(runs);
    if (k > kMaxFanIn) {
      throw std::length_error("RunMerge: fan-in exceeds 32-bit sources");
    }
    cursors_.reserve(k);
    for (std::span<const T> run : runs) {
      cursors_.push_back({run.data(), run.data() + run.size()});
      remaining_ += run.size();
    }
    while (leaves_ < k) leaves_ *= 2;
    // Initial tournament bottom-up: a node keeps the larger composite of
    // its match (the loser) and passes the smaller one up.
    std::vector<std::uint64_t> winner(2 * leaves_, kDone);
    for (std::size_t i = 0; i < k; ++i) {
      winner[leaves_ + i] = head(cursors_[i], i);
    }
    tree_.assign(leaves_, kDone);
    for (std::size_t node = leaves_; node-- > 1;) {
      const std::uint64_t a = winner[2 * node], b = winner[2 * node + 1];
      winner[node] = std::min(a, b);
      tree_[node] = std::max(a, b);
    }
    win_ = winner[1];
  }

  [[nodiscard]] bool empty() const noexcept { return win_ == kDone; }
  /// Records not yet popped.
  [[nodiscard]] std::size_t size() const noexcept { return remaining_; }

  /// Write the next min(n, size()) records to `out`; returns how many.
  std::size_t pop(T* out, std::size_t n) noexcept {
    n = std::min(n, remaining_);
    remaining_ -= n;
    std::uint64_t* const tree = tree_.data();
    Cursor* const cursors = cursors_.data();
    const std::size_t leaves = leaves_;
    std::uint64_t w = win_;
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = std::size_t(std::uint32_t(w));
      Cursor& c = cursors[src];
      out[i] = *c.pos++;
      w = head(c, src);
      // Replay the path: the smaller composite moves up, the larger stays.
      // Masked swap, because GCC turns min/max here into a branch.
      for (std::size_t node = (leaves + src) / 2; node >= 1; node /= 2) {
        const std::uint64_t loser = tree[node];
        const std::uint64_t flip = (loser ^ w) & -std::uint64_t(loser < w);
        tree[node] = loser ^ flip;
        w ^= flip;
      }
    }
    win_ = w;
    return n;
  }

  /// Append the next min(n, size()) records to `out`; returns how many.
  std::size_t pop(std::vector<T>& out, std::size_t n) {
    const std::size_t at = out.size();
    out.resize(at + std::min(n, remaining_));
    return pop(out.data() + at, n);
  }

 private:
  struct Cursor {
    const T* pos;
    const T* end;
  };

  static constexpr std::uint64_t kDone = UINT64_MAX;

  /// Run `src`'s composite for its next record (kDone once exhausted).
  static std::uint64_t head(const Cursor& c, std::size_t src) noexcept {
    return c.pos == c.end ? kDone : std::uint64_t(c.pos->key) << 32 | src;
  }

  std::vector<Cursor> cursors_;
  std::size_t remaining_ = 0;
  std::size_t leaves_ = 1;           // fan-in rounded up to a power of two
  std::vector<std::uint64_t> tree_;  // [1, leaves_) loser composites
  std::uint64_t win_ = kDone;        // the current winner's composite
};

/// Merge sorted in-memory runs into one vector (RunMerge's tie rule:
/// equal keys leave in run order).
template <KeyedRecord T, std::ranges::sized_range Runs>
std::vector<T> merge_runs(Runs&& runs) {
  RunMerge<T> merge(std::forward<Runs>(runs));
  std::vector<T> out;
  merge.pop(out, merge.size());
  return out;
}

/// Merge whole streams (each already sorted, cursors at the intended start)
/// into `out`. Returns the number of records written.
template <FixedSizeRecord T, typename Less = std::less<T>>
std::size_t merge_streams(std::vector<Stream<T>*> inputs, Stream<T>& out,
                          Less less = {}) {
  std::vector<typename LoserTree<T, Less>::Source> sources;
  sources.reserve(inputs.size());
  for (Stream<T>* s : inputs) {
    sources.push_back([s]() { return s->read(); });
  }
  LoserTree<T, Less> tree(std::move(sources), less);
  std::size_t n = 0;
  while (auto r = tree.next()) {
    out.push_back(*r);
    ++n;
  }
  return n;
}

}  // namespace lmas::em
