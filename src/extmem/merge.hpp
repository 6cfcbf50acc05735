#pragma once

#include <concepts>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "extmem/stream.hpp"

namespace lmas::em {

/// Merge input that pulls records one at a time from a callable
/// (nullopt = exhausted). The general form: any producer fits.
template <FixedSizeRecord T>
class PullCursor {
 public:
  using Source = std::function<std::optional<T>()>;

  explicit PullCursor(Source source)
      : source_(std::move(source)), head_(source_()) {}

  [[nodiscard]] bool done() const noexcept { return !head_; }
  [[nodiscard]] const T& head() const noexcept { return *head_; }
  void advance() { head_ = source_(); }

 private:
  Source source_;
  std::optional<T> head_;
};

/// Merge input that reads a sorted run in place from contiguous memory:
/// no copies into the tree and no indirect call per record.
template <FixedSizeRecord T>
class RunCursor {
 public:
  explicit RunCursor(std::span<const T> run) noexcept
      : pos_(run.data()), end_(run.data() + run.size()) {}

  [[nodiscard]] bool done() const noexcept { return pos_ == end_; }
  [[nodiscard]] const T& head() const noexcept { return *pos_; }
  void advance() noexcept { ++pos_; }

 private:
  const T* pos_;
  const T* end_;
};

/// What the loser tree needs of an input: a current record, a way past
/// it, and an exhaustion test.
template <typename C, typename T>
concept MergeCursor = requires(C& c, const C& cc) {
  { cc.done() } -> std::convertible_to<bool>;
  { cc.head() } -> std::convertible_to<const T&>;
  c.advance();
};

/// Loser-tree (tournament) k-way merge. Each record costs ceil(log2 k)
/// comparisons on its way to the root — the `n log(gamma)` term in the
/// paper's work accounting. Ties break toward the lower source index,
/// making the merge stable across sources: the output is the inputs
/// concatenated in source order and stably sorted.
///
/// `Cursor` is the input type: PullCursor (the default, built from
/// `Source` callables) for arbitrary producers, RunCursor for runs that
/// already sit in memory.
template <FixedSizeRecord T, typename Less = std::less<T>,
          typename Cursor = PullCursor<T>>
  requires MergeCursor<Cursor, T>
class LoserTree {
 public:
  /// `sources` pull the next record from each input (nullopt = exhausted).
  using Source = std::function<std::optional<T>()>;

  explicit LoserTree(std::vector<Source> sources, Less less = {})
    requires std::same_as<Cursor, PullCursor<T>>
      : LoserTree(pull_cursors(std::move(sources)), std::move(less)) {}

  explicit LoserTree(std::vector<Cursor> cursors, Less less = {})
      : less_(std::move(less)), cursors_(std::move(cursors)) {
    k_ = cursors_.size();
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
    T out = cursors_[w].head();
    cursors_[w].advance();
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
  static std::vector<Cursor> pull_cursors(std::vector<Source> sources) {
    std::vector<Cursor> cursors;
    cursors.reserve(sources.size());
    for (auto& s : sources) cursors.emplace_back(std::move(s));
    return cursors;
  }

  [[nodiscard]] bool done(std::size_t i) const noexcept {
    return i >= k_ || cursors_[i].done();
  }

  /// Does source `a`'s head leave the tree before source `b`'s?
  [[nodiscard]] bool beats(std::size_t a, std::size_t b) const {
    if (done(a)) return false;
    if (done(b)) return true;
    if (less_(cursors_[a].head(), cursors_[b].head())) return true;
    if (less_(cursors_[b].head(), cursors_[a].head())) return false;
    return a < b;  // stability across sources
  }

  Less less_;
  std::vector<Cursor> cursors_;
  std::size_t k_ = 0;
  std::size_t leaves_ = 1;          // k_ rounded up to a power of two
  std::vector<std::size_t> tree_;   // [0] winner, [1, leaves_) losers
};

/// The k-way merge of sorted runs that already sit in memory.
template <FixedSizeRecord T, typename Less = std::less<T>>
using RunMerge = LoserTree<T, Less, RunCursor<T>>;

/// Merge sorted in-memory runs into one vector (the tie rule of
/// LoserTree: equal keys leave in run order).
template <FixedSizeRecord T, typename Less = std::less<T>>
std::vector<T> merge_runs(std::span<const std::span<const T>> runs,
                          Less less = {}) {
  std::vector<RunCursor<T>> cursors;
  cursors.reserve(runs.size());
  std::size_t total = 0;
  for (const auto run : runs) {
    cursors.emplace_back(run);
    total += run.size();
  }
  RunMerge<T, Less> tree(std::move(cursors), std::move(less));
  std::vector<T> out;
  out.reserve(total);
  while (auto r = tree.next()) out.push_back(*r);
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
