#include "ising/couplings.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace saim::ising {

void SparseCouplings::add(std::size_t i, std::size_t j, double v) {
  if (j < i) std::swap(i, j);
  auto& row = rows_[i];
  const auto col = static_cast<std::uint32_t>(j);
  auto it = row.end();
  if (!row.empty() && row.back().col >= col) {
    it = std::ranges::lower_bound(row, col, {}, &Entry::col);
  }
  if (it == row.end() || it->col != col) it = row.insert(it, Entry{col, 0.0});
  it->value += v;
}

double SparseCouplings::get(std::size_t i, std::size_t j) const noexcept {
  if (j < i) std::swap(i, j);
  const auto col = static_cast<std::uint32_t>(j);
  const auto it = std::ranges::lower_bound(rows_[i], col, {}, &Entry::col);
  return it != rows_[i].end() && it->col == col ? it->value : 0.0;
}

std::size_t SparseCouplings::nnz() const noexcept {
  std::size_t count = 0;
  for_each([&](std::size_t, std::size_t, double) { ++count; });
  return count;
}

double SparseCouplings::max_abs() const noexcept {
  double m = 0.0;
  for (const auto& row : rows_) {
    for (const Entry& e : row) m = std::max(m, std::abs(e.value));
  }
  return m;
}

}  // namespace saim::ising
