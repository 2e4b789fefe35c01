#include "ising/adjacency.hpp"

namespace saim::ising {

Adjacency::Adjacency(const IsingModel& model) : n_(model.n()) {
  std::vector<std::size_t> degree(n_, 0);
  model.for_each_coupling([&](std::size_t i, std::size_t j, double) {
    ++degree[i];
    ++degree[j];
  });

  offsets_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    offsets_[i + 1] = offsets_[i] + degree[i];
  }
  indices_.resize(offsets_[n_]);
  weights_.resize(offsets_[n_]);

  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  model.for_each_coupling([&](std::size_t i, std::size_t j, double v) {
    indices_[cursor[i]] = static_cast<std::uint32_t>(j);
    weights_[cursor[i]] = v;
    ++cursor[i];
    indices_[cursor[j]] = static_cast<std::uint32_t>(i);
    weights_[cursor[j]] = v;
    ++cursor[j];
  });

  col_offsets_.assign(n_ + 1, 0);
  if (model.penalty() == 0.0) return;
  rows_ = model.penalty_rows();
  neg_half_penalty_ = -0.5 * model.penalty();
  for (std::size_t r = 0; r < rows_; ++r) {
    for (const PenaltyTerm& t : model.penalty_row(r)) {
      ++col_offsets_[t.spin + 1];
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    col_offsets_[i + 1] += col_offsets_[i];
  }
  column_.resize(col_offsets_[n_]);
  std::vector<std::size_t> col_cursor(col_offsets_.begin(),
                                      col_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (const PenaltyTerm& t : model.penalty_row(r)) {
      column_[col_cursor[t.spin]++] =
          ColumnEntry{static_cast<std::uint32_t>(r), t.coef};
    }
  }
}

void Adjacency::activities(std::span<const std::int8_t> m,
                           std::span<double> out) const noexcept {
  for (double& s : out) s = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const auto mi = static_cast<double>(m[i]);
    for (const ColumnEntry& e : column(i)) out[e.row] += e.coef * mi;
  }
}

}  // namespace saim::ising
