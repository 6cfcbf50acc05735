#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "extmem/distribute.hpp"
#include "extmem/record.hpp"

namespace lmas::core {

/// Pick alpha-1 splitter keys as quantiles of a key sample, so the alpha
/// distribute buckets carry near-equal record counts even for skewed key
/// distributions. This is how distribution sorts balance *stationary*
/// skew; Figure 10's point is that it cannot fix skew that changes over
/// time, which is what the SR routing of sets handles.
inline std::vector<std::uint32_t> choose_splitters(
    std::vector<std::uint32_t> sample, unsigned alpha) {
  std::vector<std::uint32_t> splitters;
  if (alpha <= 1 || sample.empty()) return splitters;
  std::sort(sample.begin(), sample.end());
  splitters.reserve(alpha - 1);
  for (unsigned i = 1; i < alpha; ++i) {
    const std::size_t idx =
        std::min(sample.size() - 1, i * sample.size() / alpha);
    splitters.push_back(sample[idx]);
  }
  // Duplicate splitters simply leave some buckets empty, which is
  // correct (ordered, conserving).
  return splitters;
}

/// Bucket index by binary search over sorted splitters: ceil(log2 alpha)
/// compares per key — exactly the distribute cost the model declares.
class SplitterClassifier {
 public:
  explicit SplitterClassifier(std::vector<std::uint32_t> splitters)
      : splitters_(std::move(splitters)) {}

  /// Keys equal to a splitter go to the lower bucket.
  template <typename R>
  [[nodiscard]] std::size_t operator()(const R& r) const {
    return std::size_t(std::lower_bound(splitters_.begin(), splitters_.end(),
                                        r.key) -
                       splitters_.begin());
  }

  [[nodiscard]] unsigned buckets() const noexcept {
    return unsigned(splitters_.size()) + 1;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& splitters() const noexcept {
    return splitters_;
  }

 private:
  std::vector<std::uint32_t> splitters_;
};

/// DSM-Sort's distribute classifier as a plain value, so the per-record
/// call inlines: either the equal-width range split of the 32-bit key
/// space (em::RangeClassifier over [0, UINT32_MAX)) or sampled splitters
/// (SplitterClassifier's buckets, found by a branch-free binary search).
class BucketClassifier {
 public:
  /// Equal-width split of the whole key space into `alpha` buckets.
  [[nodiscard]] static BucketClassifier range(unsigned alpha) {
    return BucketClassifier(alpha, false, {});
  }
  /// Buckets bounded by sorted `splitters` (duplicates allowed); keys
  /// equal to a splitter go to the lower bucket.
  [[nodiscard]] static BucketClassifier sampled(
      std::vector<std::uint32_t> splitters) {
    return BucketClassifier(1, true, std::move(splitters));
  }

  [[nodiscard]] std::uint32_t operator()(std::uint32_t key) const noexcept {
    if (!sampled_) return std::uint32_t(range_(em::KeyRecord{key, 0}));
    // Branch-free lower_bound: the answer stays within [base, base + len]
    // while each step halves len.
    const std::uint32_t* base = splitters_.data();
    std::size_t len = splitters_.size();
    if (len == 0) return 0;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += base[half - 1] < key ? half : 0;
      len -= half;
    }
    return std::uint32_t(base - splitters_.data()) + (*base < key ? 1u : 0u);
  }

 private:
  BucketClassifier(unsigned alpha, bool sampled,
                   std::vector<std::uint32_t> splitters)
      : range_(0, std::uint32_t(-1), std::max(1u, alpha)),
        sampled_(sampled),
        splitters_(std::move(splitters)) {}

  em::RangeClassifier<std::uint32_t> range_;
  bool sampled_;
  std::vector<std::uint32_t> splitters_;
};

}  // namespace lmas::core
