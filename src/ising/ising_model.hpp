// Ising model in the paper's sign convention (eq. 1), plus an optional
// low-rank penalty block:
//
//   H(m) = - sum_{i<j} J_ij m_i m_j - sum_i h_i m_i + offset
//          + (P/4) sum_r (S_r^2 - sum_i a_ri^2) ,   m in {-1,+1}^n
//
// with the row activities S_r = sum_i a_ri m_i. J holds only the
// objective's own couplings J_f; the penalty block keeps P ||Ax - b||^2's
// pair part in factored form (P and the constraint rows a_r) instead of
// expanding it into the dense couplings -(P/2) a_ri a_rj. The block's
// linear and constant parts live in h and the offset like any others, so
// a lambda update still touches only h and the offset.
//
// The p-bit machine (src/pbit) minimizes H by Gibbs sampling from
// exp(-beta * H). J is held sparsely in the same layout as QuboModel's Q
// (ising/couplings.hpp), so a model costs O(n + nnz(J) + nnz(A)) memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ising/couplings.hpp"

namespace saim::ising {

using Spins = std::vector<std::int8_t>;  ///< spin configuration, values ±1

/// One nonzero a_ri of a penalty row.
struct PenaltyTerm {
  std::uint32_t spin = 0;
  double coef = 0.0;
};

class IsingModel {
 public:
  IsingModel() = default;
  explicit IsingModel(std::size_t n);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// Accumulates into the symmetric coupling J_ij. A diagonal term
  /// (i == j) is the constant -v in H, since m_i^2 == 1.
  void add_coupling(std::size_t i, std::size_t j, double v);
  [[nodiscard]] double coupling(std::size_t i, std::size_t j) const;

  void add_field(std::size_t i, double v);
  void set_field(std::size_t i, double v);
  [[nodiscard]] double field(std::size_t i) const;
  [[nodiscard]] std::span<const double> fields() const noexcept {
    return field_;
  }
  [[nodiscard]] std::span<double> mutable_fields() noexcept { return field_; }

  void add_offset(double v) noexcept { offset_ += v; }
  [[nodiscard]] double offset() const noexcept { return offset_; }
  void set_offset(double v) noexcept { offset_ = v; }

  /// P of the penalty block (>= 0).
  void set_penalty(double p);
  [[nodiscard]] double penalty() const noexcept { return penalty_; }

  /// Appends penalty row a_r. Terms are merged by spin, sorted by spin and
  /// zero coefficients dropped; an empty row still takes its index r.
  void add_penalty_row(
      std::span<const std::pair<std::uint32_t, double>> terms);
  [[nodiscard]] std::size_t penalty_rows() const noexcept {
    return row_sq_.size();
  }
  [[nodiscard]] std::span<const PenaltyTerm> penalty_row(
      std::size_t r) const;
  /// nnz(A) over all penalty rows.
  [[nodiscard]] std::size_t penalty_nnz() const noexcept {
    return row_terms_.size();
  }

  /// S_r = sum_i a_ri m_i, summed in row (= ascending spin) order.
  [[nodiscard]] double activity(std::span<const std::int8_t> m,
                                std::size_t r) const;

  /// Full Hamiltonian H(m), penalty block included. O(n + nnz(J) + nnz(A)).
  [[nodiscard]] double energy(std::span<const std::int8_t> m) const;

  /// p-bit input I_i = sum_j J_ij m_j + h_i - (P/2) sum_{r∋i} a_ri
  /// (S_r - a_ri m_i)  (paper eq. 9 with the block), from scratch, summing
  /// J_ij m_j in ascending j. The reference the parity suites check every
  /// sweep engine against; O(i log n + deg(i)) for J plus O(nnz(A)).
  [[nodiscard]] double input(std::span<const std::int8_t> m,
                             std::size_t i) const;

  /// Energy change of flipping spin i: dH = 2 m_i I_i.
  [[nodiscard]] double flip_delta(std::span<const std::int8_t> m,
                                  std::size_t i) const;

  /// Nonzero couplings of J (the penalty block is not counted).
  [[nodiscard]] std::size_t nnz() const noexcept { return couplings_.nnz(); }

  /// Calls f(i, j, J_ij) for every nonzero J coupling with i < j.
  template <typename F>
  void for_each_coupling(F&& f) const {
    couplings_.for_each(std::forward<F>(f));
  }

 private:
  void check_index(std::size_t i) const;

  std::size_t n_ = 0;
  SparseCouplings couplings_;
  std::vector<double> field_;
  double offset_ = 0.0;

  double penalty_ = 0.0;
  std::vector<std::size_t> row_start_{0};  ///< penalty_rows()+1 entries
  std::vector<PenaltyTerm> row_terms_;
  std::vector<double> row_sq_;  ///< sum_i a_ri^2 per row
};

/// The reference form of a penalty model: the same H with the block folded
/// into couplings J_ij -= (P/2) a_ri a_rj and no block. For tests and
/// benchmarks; no solver path uses it.
[[nodiscard]] IsingModel expand_penalty(const IsingModel& model);

}  // namespace saim::ising
