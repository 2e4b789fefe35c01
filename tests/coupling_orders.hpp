// Construction orders for the model tests: the same couplings added in
// lexicographic (i, j) order, reversed, or shuffled. The out-of-order lists
// split every value into two exact halves added as (j, i) and (i, j), and
// add one pair absent from the lexicographic list that cancels to exactly
// 0, so every order sums each pair to the same bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace saim::ising {

struct PairTerm {
  std::size_t i = 0;
  std::size_t j = 0;
  double v = 0.0;
};

enum class BuildOrder { kLexicographic, kReversed, kShuffled };

inline std::ostream& operator<<(std::ostream& os, BuildOrder order) {
  switch (order) {
    case BuildOrder::kLexicographic:
      return os << "lexicographic";
    case BuildOrder::kReversed:
      return os << "reversed";
    case BuildOrder::kShuffled:
      return os << "shuffled";
  }
  return os;
}

/// `lex` (i < j, ascending, no repeats) re-listed in `order`. The
/// cancelling pair is the first one `lex` leaves out, if any.
inline std::vector<PairTerm> in_order(const std::vector<PairTerm>& lex,
                                      std::size_t n, BuildOrder order,
                                      std::uint64_t seed) {
  if (order == BuildOrder::kLexicographic) return lex;
  std::vector<PairTerm> out;
  for (const PairTerm& t : lex) {
    out.push_back({t.j, t.i, t.v / 2.0});
    out.push_back({t.i, t.j, t.v / 2.0});
  }
  std::vector<bool> present(n * n, false);
  for (const PairTerm& t : lex) present[t.i * n + t.j] = true;
  std::size_t first = 0;
  for (; first < n * n; ++first) {
    if (first / n < first % n && !present[first]) break;
  }
  if (first < n * n) {
    out.push_back({first % n, first / n, 0.75});
    out.push_back({first / n, first % n, -0.75});
  }
  if (order == BuildOrder::kReversed) {
    std::reverse(out.begin(), out.end());
  } else {
    util::Xoshiro256pp rng(seed);
    for (std::size_t k = out.size(); k > 1; --k) {
      std::swap(out[k - 1], out[rng.below(k)]);
    }
  }
  return out;
}

}  // namespace saim::ising
