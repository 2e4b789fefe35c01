// The shaped energy landscape SAIM minimizes (paper eq. 3 + eq. 5):
//
//   L(x; lambda) = f(x) + P * ||g(x)||^2 + lambda^T g(x)
//
// kept as a cost plus per-constraint terms, never expanded. With linear
// g_r(x) = a_r.x - b_r the Ising image (ising() — what the samplers read)
// holds f's own couplings J_f and the penalty's pair part as a low-rank
// block: P and the rows a_r, evaluated through the row activities
// S_r = sum_i a_ri m_i (see ising/ising_model.hpp). An MKP's linear
// objective therefore yields a model with no couplings at all, and a sweep
// pays O(nnz(A[:,i])) per visit instead of a dense O(n) neighbourhood.
//
// The penalty's linear and constant parts and the Lagrange term
// lambda^T g are all linear in x, so they live in the fields h and the
// offset. Updating lambda between SAIM iterations therefore never touches
// J or A: set_lambda() costs O(nnz(A) + n), and the backends' sweep
// structures built at bind() stay valid for the whole run. This mirrors
// the paper's "the Ising coefficients J and h are consequently updated at
// each iteration" at the minimal possible cost.
#pragma once

#include <span>
#include <vector>

#include "ising/ising_model.hpp"
#include "problems/constrained_problem.hpp"

namespace saim::lagrange {

class LagrangianModel {
 public:
  /// Builds the lambda = 0 landscape: f + P ||g||^2. Lowering f costs
  /// O(n + nnz(Q_f)); the penalty costs O(nnz(A)). The problem
  /// reference must outlive the model.
  LagrangianModel(const problems::ConstrainedProblem& problem, double penalty);

  [[nodiscard]] std::size_t n() const noexcept { return ising_.n(); }
  [[nodiscard]] double penalty() const noexcept { return penalty_; }
  [[nodiscard]] const problems::ConstrainedProblem& problem() const noexcept {
    return *problem_;
  }

  /// Current multipliers (size = number of constraints).
  [[nodiscard]] std::span<const double> lambda() const noexcept {
    return lambda_;
  }

  /// Rewrites the landscape for new multipliers. O(nnz(A) + n); J and the
  /// penalty block untouched. The IsingModel's fields/offset are refreshed
  /// in place.
  void set_lambda(std::span<const double> lambda);

  /// The current L as an Ising model (what the p-bit machine samples):
  /// H(m(x)) == L(x; lambda). Stable address across set_lambda() calls.
  [[nodiscard]] const ising::IsingModel& ising() const noexcept {
    return ising_;
  }

  /// L(x; lambda) evaluated directly from f, g and lambda — used by tests to
  /// cross-check the Ising image.
  [[nodiscard]] double lagrangian(std::span<const std::uint8_t> x) const;

 private:
  void rebuild_fields();

  const problems::ConstrainedProblem* problem_;
  double penalty_;
  std::vector<double> lambda_;

  ising::IsingModel ising_;
  std::vector<double> base_field_;  ///< h of f + P||g||^2 (lambda = 0)
  double base_offset_ = 0.0;        ///< offset of f + P||g||^2
  std::vector<double> row_shift_;   ///< c_r = sum_i a_ri / 2 - b_r
};

/// The paper's penalty heuristic P = alpha * d * N (section III-A, after
/// [16],[17]): d = density of the coupling matrix (with the fixed-spin
/// convention for linear objectives), N = total spin count incl. slack.
double heuristic_penalty(const problems::ConstrainedProblem& problem,
                         double alpha);

}  // namespace saim::lagrange
