#include "lagrange/lagrangian_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "ising/convert.hpp"

namespace saim::lagrange {

LagrangianModel::LagrangianModel(const problems::ConstrainedProblem& problem,
                                 double penalty)
    : problem_(&problem),
      penalty_(penalty),
      lambda_(problem.num_constraints(), 0.0) {
  if (penalty_ < 0.0) {
    throw std::invalid_argument("LagrangianModel: penalty must be >= 0");
  }

  // f part through the QUBO lowering: J_f = -Q_f/4 plus f's own fields and
  // offset.
  ising_ = ising::qubo_to_ising(problem.objective());
  base_field_.assign(ising_.fields().begin(), ising_.fields().end());
  base_offset_ = ising_.offset();

  // P * ||g||^2 part in the spin picture: with x = (1 + m)/2 and the row
  // activity S_r = sum_i a_ri m_i,
  //   g_r = S_r/2 + c_r ,   c_r = R_r/2 - b_r ,   R_r = sum_i a_ri ,
  //   P g_r^2 = (P/4) (S_r^2 - sum_i a_ri^2)     (the factored block)
  //             + P c_r S_r + P (c_r^2 + sum_i a_ri^2 / 4) .
  // The S_r term is linear in m, so it joins the fields (rebuild_fields).
  ising_.set_penalty(penalty_);
  const auto& constraints = problem.constraints();
  row_shift_.reserve(constraints.size());
  for (std::size_t r = 0; r < constraints.size(); ++r) {
    ising_.add_penalty_row(constraints[r].terms);
    double total = 0.0;
    double sq = 0.0;
    for (const auto& t : ising_.penalty_row(r)) {
      total += t.coef;
      sq += t.coef * t.coef;
    }
    const double c = total / 2.0 - constraints[r].rhs;
    row_shift_.push_back(c);
    base_offset_ += penalty_ * (c * c + sq / 4.0);
  }
  rebuild_fields();
}

void LagrangianModel::set_lambda(std::span<const double> lambda) {
  if (lambda.size() != lambda_.size()) {
    throw std::invalid_argument("LagrangianModel::set_lambda: size mismatch");
  }
  lambda_.assign(lambda.begin(), lambda.end());
  rebuild_fields();
}

void LagrangianModel::rebuild_fields() {
  // lambda_r g_r = (lambda_r/2) S_r + lambda_r c_r, so row r moves h by
  // -(P c_r + lambda_r/2) a_r and the offset by lambda_r c_r; J and the
  // penalty block stay fixed.
  auto h = ising_.mutable_fields();
  std::copy(base_field_.begin(), base_field_.end(), h.begin());
  double offset = base_offset_;
  for (std::size_t r = 0; r < row_shift_.size(); ++r) {
    const double c = row_shift_[r];
    const double w = penalty_ * c + lambda_[r] / 2.0;
    for (const auto& t : ising_.penalty_row(r)) {
      h[t.spin] -= w * t.coef;
    }
    offset += lambda_[r] * c;
  }
  ising_.set_offset(offset);
}

double LagrangianModel::lagrangian(std::span<const std::uint8_t> x) const {
  double acc = problem_->objective_value(x);
  const auto& constraints = problem_->constraints();
  for (std::size_t m = 0; m < constraints.size(); ++m) {
    const double g = constraints[m].eval(x);
    acc += penalty_ * g * g + lambda_[m] * g;
  }
  return acc;
}

double heuristic_penalty(const problems::ConstrainedProblem& problem,
                         double alpha) {
  return alpha * problem.density_for_penalty() *
         static_cast<double>(problem.n());
}

}  // namespace saim::lagrange
