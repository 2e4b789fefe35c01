#include "ising/local_field.hpp"

namespace saim::ising {

void LocalFieldState::reset(const Spins& m) {
  const std::size_t size = n();
  for (std::size_t i = 0; i < size; ++i) {
    coupling_in_[i] = adjacency_->coupling_input(m, i);
  }
  adjacency_->activities(m, activity_);
  // The from-scratch evaluation reproduces, bit for bit, the energy every
  // pre-engine backend computed at run start, so trajectories stay
  // identical to the recompute era on arbitrary (non-dyadic) models too.
  // (An O(n) form exists — H = offset - 0.5 sum m_i C_i - sum h_i m_i —
  // but its different rounding perturbs seed-sensitive trajectories.)
  energy_ = model_->energy(m);
}

void LocalFieldState::flip(Spins& m, std::size_t i, double delta) {
  m[i] = static_cast<std::int8_t>(-m[i]);
  const auto mi = static_cast<double>(m[i]);  // new value of spin i
  const auto nbr = adjacency_->neighbors(i);
  const auto w = adjacency_->weights(i);
  for (std::size_t k = 0; k < nbr.size(); ++k) {
    // m_i went from -mi to mi, so C_j = sum J_jl m_l shifts by 2 J_ij mi.
    coupling_in_[nbr[k]] += 2.0 * w[k] * mi;
  }
  // Likewise S_r shifts by 2 a_ri mi for every row holding spin i.
  for (const ColumnEntry& e : adjacency_->column(i)) {
    activity_[e.row] += 2.0 * e.coef * mi;
  }
  energy_ += delta;
}

}  // namespace saim::ising
