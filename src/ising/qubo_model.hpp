// Quadratic Unconstrained Binary Optimization model:
//
//   E(x) = sum_{i<j} Q_ij x_i x_j + sum_i q_i x_i + c ,  x in {0,1}^n
//
// This is the binary-variable view the paper's energies are written in
// (eq. 3 and eq. 5); the p-bit machine consumes its ±1 (Ising) image via
// ising/convert.hpp. Q is held sparsely (ising/couplings.hpp), so a model
// costs O(n + nnz(Q)) memory and every walk over it O(n + nnz(Q)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ising/couplings.hpp"

namespace saim::ising {

using Bits = std::vector<std::uint8_t>;  ///< binary configuration, values 0/1

class QuboModel {
 public:
  QuboModel() = default;
  explicit QuboModel(std::size_t n);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// Accumulates into the linear coefficient q_i.
  void add_linear(std::size_t i, double v);
  [[nodiscard]] double linear(std::size_t i) const;
  [[nodiscard]] std::span<const double> linear_terms() const noexcept {
    return linear_;
  }

  /// Accumulates into the symmetric coupling Q_ij. The value `v` is the
  /// full coefficient of the product x_i x_j; a diagonal term (i == j)
  /// joins q_i, since x_i^2 == x_i.
  void add_quadratic(std::size_t i, std::size_t j, double v);
  [[nodiscard]] double quadratic(std::size_t i, std::size_t j) const;

  void add_offset(double v) noexcept { offset_ += v; }
  void set_offset(double v) noexcept { offset_ = v; }
  [[nodiscard]] double offset() const noexcept { return offset_; }

  /// Full energy E(x). O(n + nnz).
  [[nodiscard]] double energy(std::span<const std::uint8_t> x) const;

  /// Number of strictly-upper-triangle nonzero couplings.
  [[nodiscard]] std::size_t nnz() const noexcept { return couplings_.nnz(); }

  /// Coupling density d = nnz / (n(n-1)/2); the paper's penalty heuristic
  /// P = alpha * d * N uses this quantity.
  [[nodiscard]] double density() const noexcept;

  /// Largest absolute coefficient over couplings and linear terms.
  [[nodiscard]] double max_abs_coefficient() const noexcept;

  /// Calls f(i, j, Q_ij) for every nonzero coupling with i < j.
  template <typename F>
  void for_each_quadratic(F&& f) const {
    couplings_.for_each(std::forward<F>(f));
  }

 private:
  void check_index(std::size_t i) const;

  std::size_t n_ = 0;
  SparseCouplings couplings_;
  std::vector<double> linear_;
  double offset_ = 0.0;
};

}  // namespace saim::ising
