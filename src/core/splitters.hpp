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
/// (SplitterClassifier's buckets). The sampled search runs a fixed number
/// of masked steps: the splitters are padded with UINT32_MAX to 2^d - 1
/// entries, so every key takes exactly d compares and no step branches on
/// the data. A pad is >= every key, so it never counts below one and the
/// answer stays within [0, splitters].
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
    // Uniform binary search over 2^d - 1 entries: `base` counts the
    // entries below `key`, settled one power of two at a time.
    const std::uint32_t* const b = padded_.data();
    std::size_t base = 0;
    for (std::size_t half = top_; half > 0; half /= 2) {
      base += -std::size_t(b[base + half - 1] < key) & half;
    }
    return std::uint32_t(base);
  }

 private:
  BucketClassifier(unsigned alpha, bool sampled,
                   std::vector<std::uint32_t> splitters)
      : range_(0, std::uint32_t(-1), std::max(1u, alpha)),
        sampled_(sampled),
        padded_(std::move(splitters)) {
    std::size_t size = 0;  // 2^d - 1
    while (size < padded_.size()) size = 2 * size + 1;
    padded_.resize(size, UINT32_MAX);
    top_ = (size + 1) / 2;
  }

  em::RangeClassifier<std::uint32_t> range_;
  bool sampled_;
  std::vector<std::uint32_t> padded_;  // splitters + UINT32_MAX pads
  std::size_t top_ = 0;                // first step 2^(d-1); 0 when d = 0
};

}  // namespace lmas::core
