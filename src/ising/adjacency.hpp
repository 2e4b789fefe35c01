// Sparse sweep view of an IsingModel: the compressed-sparse-row couplings
// of J plus the per-spin column view of the penalty block's rows A.
//
// IsingModel keeps each coupling once (in row min(i, j)); a Monte-Carlo
// sweep instead wants every spin's full neighbour list in one contiguous
// run, so the CSR stores both directions, filled in O(n + nnz(J)) from
// ascending for_each_coupling walks. The penalty P ||Ax - b||^2 is never
// expanded into couplings: a spin's share of it is read through its column
// of A (the rows r with a_ri != 0) and the row activities
// S_r = sum_j a_rj m_j, so a Lagrangian model with a linear objective has
// no CSR edges at all. Both views are
// built once per SAIM run: lambda updates change only the fields h (see
// lagrange/lagrangian_model.hpp), never J or A.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ising/ising_model.hpp"
#include "util/simd.hpp"

namespace saim::ising {

/// One nonzero a_ri of spin i's column of A.
struct ColumnEntry {
  std::uint32_t row = 0;
  double coef = 0.0;
};

class Adjacency {
 public:
  Adjacency() = default;

  /// Builds the CSR from the model's nonzero couplings (both directions
  /// stored) and, when the model has a penalty block with P != 0, the
  /// column view of its rows.
  explicit Adjacency(const IsingModel& model);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return weights_.size() / 2;
  }

  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t i) const noexcept {
    return {indices_.data() + offsets_[i],
            offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::span<const double> weights(std::size_t i) const noexcept {
    return {weights_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Coupling contribution sum_j J_ij m_j for spin i. O(deg(i)).
  ///
  /// Vectorized with the portable SIMD shim: four independent accumulators
  /// over the CSR row, folded as (a0+a1)+(a2+a3), then a sequential scalar
  /// tail. The summation order is fixed by this definition — identical for
  /// the AVX2/NEON and scalar-emulation builds — and shared by every
  /// consumer (LocalFieldState::reset, the parity-test references, the
  /// bit-sliced engine's lane init), so all engines agree bit for bit.
  [[nodiscard]] double coupling_input(std::span<const std::int8_t> m,
                                      std::size_t i) const noexcept {
    const auto nbr = neighbors(i);
    const auto w = weights(i);
    const std::size_t deg = nbr.size();
    const std::size_t deg4 = deg & ~std::size_t{3};
    std::size_t k = 0;
    double acc = 0.0;
    if (deg4 != 0) {
      util::F64x4 accv = util::F64x4::zero();
      for (; k < deg4; k += 4) {
        const util::F64x4 wv = util::F64x4::load(w.data() + k);
        const util::F64x4 mv =
            util::F64x4::set(static_cast<double>(m[nbr[k]]),
                             static_cast<double>(m[nbr[k + 1]]),
                             static_cast<double>(m[nbr[k + 2]]),
                             static_cast<double>(m[nbr[k + 3]]));
        accv = accv + wv * mv;
      }
      double lanes[4];
      util::store4(accv, lanes);
      acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
    for (; k < deg; ++k) {
      acc += w[k] * static_cast<double>(m[nbr[k]]);
    }
    return acc;
  }

  /// Rows of the penalty block this view carries (0 when the model has
  /// none or P == 0).
  [[nodiscard]] std::size_t penalty_rows() const noexcept { return rows_; }

  /// Spin i's column of A, in ascending row order.
  [[nodiscard]] std::span<const ColumnEntry> column(
      std::size_t i) const noexcept {
    return {column_.data() + col_offsets_[i],
            col_offsets_[i + 1] - col_offsets_[i]};
  }

  /// -P/2, the factor of the penalty share of a spin's input.
  [[nodiscard]] double neg_half_penalty() const noexcept {
    return neg_half_penalty_;
  }

  /// The penalty block's share of I_i,
  ///     -(P/2) * sum_{r∋i} a_ri (S_r - a_ri m_i) ,
  /// accumulated from +0.0 in column order with one rounding per
  /// operation as written. The bit-sliced engine mirrors this expression
  /// lane by lane; keep the two in step. O(nnz(A[:,i])).
  [[nodiscard]] double penalty_input(const double* activity, std::int8_t mi,
                                     std::size_t i) const noexcept {
    const auto m = static_cast<double>(mi);
    double acc = 0.0;
    for (const ColumnEntry& e : column(i)) {
      acc += e.coef * (activity[e.row] - e.coef * m);
    }
    return neg_half_penalty_ * acc;
  }

  /// S_r = sum_i a_ri m_i for every row, summed in ascending spin order —
  /// the row order IsingModel::activity uses, so the two agree bit for
  /// bit. `out` has penalty_rows() entries.
  void activities(std::span<const std::int8_t> m,
                  std::span<double> out) const noexcept;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;    ///< n+1 entries
  std::vector<std::uint32_t> indices_;  ///< neighbour spin ids
  std::vector<double> weights_;         ///< matching J_ij values

  std::size_t rows_ = 0;
  double neg_half_penalty_ = 0.0;
  std::vector<std::size_t> col_offsets_;  ///< n+1 entries
  std::vector<ColumnEntry> column_;
};

}  // namespace saim::ising
