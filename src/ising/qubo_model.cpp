#include "ising/qubo_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace saim::ising {

QuboModel::QuboModel(std::size_t n)
    : n_(n), couplings_(n), linear_(n, 0.0) {}

void QuboModel::check_index(std::size_t i) const {
  if (i >= n_) {
    throw std::out_of_range("QuboModel: index " + std::to_string(i) +
                            " out of range for n=" + std::to_string(n_));
  }
}

void QuboModel::add_linear(std::size_t i, double v) {
  check_index(i);
  linear_[i] += v;
}

double QuboModel::linear(std::size_t i) const {
  check_index(i);
  return linear_[i];
}

void QuboModel::add_quadratic(std::size_t i, std::size_t j, double v) {
  check_index(i);
  check_index(j);
  if (i == j) {
    // x_i^2 == x_i for binaries: a diagonal term is a linear term.
    linear_[i] += v;
    return;
  }
  couplings_.add(i, j, v);
}

double QuboModel::quadratic(std::size_t i, std::size_t j) const {
  check_index(i);
  check_index(j);
  return i == j ? 0.0 : couplings_.get(i, j);
}

double QuboModel::energy(std::span<const std::uint8_t> x) const {
  double e = offset_;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!x[i]) continue;
    e += linear_[i];
    for (const auto& [j, q] : couplings_.row(i)) {
      if (x[j]) e += q;
    }
  }
  return e;
}

double QuboModel::density() const noexcept {
  if (n_ < 2) return 0.0;
  const double pairs = 0.5 * static_cast<double>(n_) *
                       static_cast<double>(n_ - 1);
  return static_cast<double>(nnz()) / pairs;
}

double QuboModel::max_abs_coefficient() const noexcept {
  double m = couplings_.max_abs();
  for (const double v : linear_) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace saim::ising
