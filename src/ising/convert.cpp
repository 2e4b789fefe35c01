#include "ising/convert.hpp"

namespace saim::ising {

IsingModel qubo_to_ising(const QuboModel& qubo) {
  const std::size_t n = qubo.n();
  IsingModel ising(n);
  double offset = qubo.offset();
  std::vector<double> row_sum(n, 0.0);

  qubo.for_each_quadratic([&](std::size_t i, std::size_t j, double q) {
    ising.add_coupling(i, j, -q / 4.0);
    row_sum[i] += q;
    row_sum[j] += q;
    offset += q / 4.0;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const double qi = qubo.linear(i);
    ising.set_field(i, -(qi / 2.0 + row_sum[i] / 4.0));
    offset += qi / 2.0;
  }
  ising.set_offset(offset);
  return ising;
}

QuboModel ising_to_qubo(const IsingModel& ising) {
  if (ising.penalty_rows() != 0) return ising_to_qubo(expand_penalty(ising));
  // Inverse map: m_i = 2 x_i - 1 gives
  //   -J_ij m_i m_j = -4 J_ij x_i x_j + 2 J_ij (x_i + x_j) - J_ij
  //   -h_i m_i      = -2 h_i x_i + h_i
  const std::size_t n = ising.n();
  QuboModel qubo(n);
  double offset = ising.offset();
  ising.for_each_coupling([&](std::size_t i, std::size_t j, double jij) {
    qubo.add_quadratic(i, j, -4.0 * jij);
    qubo.add_linear(i, 2.0 * jij);
    qubo.add_linear(j, 2.0 * jij);
    offset -= jij;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const double hi = ising.field(i);
    qubo.add_linear(i, -2.0 * hi);
    offset += hi;
  }
  qubo.set_offset(offset);
  return qubo;
}

Spins bits_to_spins(std::span<const std::uint8_t> x) {
  Spins m(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    m[i] = x[i] ? std::int8_t{1} : std::int8_t{-1};
  }
  return m;
}

Bits spins_to_bits(std::span<const std::int8_t> m) {
  Bits x(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    x[i] = m[i] > 0 ? std::uint8_t{1} : std::uint8_t{0};
  }
  return x;
}

}  // namespace saim::ising
