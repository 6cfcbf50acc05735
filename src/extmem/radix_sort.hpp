#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "extmem/record.hpp"

namespace lmas::em {

/// Stable LSD radix sort of `block` by its 32-bit key: four 8-bit digit
/// passes, least significant first, each a counting scatter that keeps
/// equal digits in arrival order — so records with equal keys leave in
/// the order they came in. A pass whose digit is the same for every
/// record is skipped (one histogram sweep decides all four), which makes
/// blocks drawn from one distribute bucket cheaper: a range split fixes
/// their high bits.
///
/// The caller owns `scratch`; it is resized to block.size() and its
/// contents afterwards are unspecified. Reusing one scratch buffer across
/// calls keeps run formation allocation-free. Digit counts are 32-bit,
/// so a block holds fewer than 2^32 records.
template <FixedSizeRecord R = KeyRecord>
void radix_sort_by_key(std::type_identity_t<std::span<R>> block,
                       std::vector<R>& scratch) {
  const std::size_t n = block.size();
  if (n < 2) return;
  constexpr unsigned kDigits = 4;
  std::array<std::array<std::uint32_t, 256>, kDigits> count{};
  for (const R& r : block) {
    const std::uint32_t k = r.key;
    ++count[0][k & 0xffu];
    ++count[1][(k >> 8) & 0xffu];
    ++count[2][(k >> 16) & 0xffu];
    ++count[3][k >> 24];
  }
  scratch.resize(n);
  R* src = block.data();
  R* dst = scratch.data();
  for (unsigned d = 0; d < kDigits; ++d) {
    auto& c = count[d];
    const unsigned shift = 8 * d;
    // Every record shares this digit: the pass would be the identity.
    if (c[(src[0].key >> shift) & 0xffu] == n) continue;
    std::uint32_t sum = 0;
    for (auto& slot : c) {
      const std::uint32_t here = slot;
      slot = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const R r = src[i];
      dst[c[(r.key >> shift) & 0xffu]++] = r;
    }
    std::swap(src, dst);
  }
  if (src != block.data()) {
    std::copy(src, src + n, block.data());
  }
}

}  // namespace lmas::em
