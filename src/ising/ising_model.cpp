#include "ising/ising_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace saim::ising {

IsingModel::IsingModel(std::size_t n)
    : n_(n), couplings_(n), field_(n, 0.0) {}

void IsingModel::check_index(std::size_t i) const {
  if (i >= n_) {
    throw std::out_of_range("IsingModel: index " + std::to_string(i) +
                            " out of range for n=" + std::to_string(n_));
  }
}

void IsingModel::add_coupling(std::size_t i, std::size_t j, double v) {
  check_index(i);
  check_index(j);
  if (i == j) {
    // m_i^2 == 1: a diagonal coupling is a constant shift of -v in H.
    offset_ -= v;
    return;
  }
  couplings_.add(i, j, v);
}

double IsingModel::coupling(std::size_t i, std::size_t j) const {
  check_index(i);
  check_index(j);
  return i == j ? 0.0 : couplings_.get(i, j);
}

void IsingModel::add_field(std::size_t i, double v) {
  check_index(i);
  field_[i] += v;
}

void IsingModel::set_field(std::size_t i, double v) {
  check_index(i);
  field_[i] = v;
}

double IsingModel::field(std::size_t i) const {
  check_index(i);
  return field_[i];
}

void IsingModel::set_penalty(double p) {
  if (!(p >= 0.0)) {
    throw std::invalid_argument("IsingModel: penalty must be >= 0");
  }
  penalty_ = p;
}

void IsingModel::add_penalty_row(
    std::span<const std::pair<std::uint32_t, double>> terms) {
  std::vector<PenaltyTerm> row;
  row.reserve(terms.size());
  for (const auto& [spin, coef] : terms) {
    check_index(spin);
    row.push_back({spin, coef});
  }
  std::stable_sort(row.begin(), row.end(),
                   [](const PenaltyTerm& a, const PenaltyTerm& b) {
                     return a.spin < b.spin;
                   });
  double sq = 0.0;
  for (std::size_t k = 0; k < row.size();) {
    PenaltyTerm merged = row[k];
    for (++k; k < row.size() && row[k].spin == merged.spin; ++k) {
      merged.coef += row[k].coef;
    }
    if (merged.coef == 0.0) continue;
    row_terms_.push_back(merged);
    sq += merged.coef * merged.coef;
  }
  row_start_.push_back(row_terms_.size());
  row_sq_.push_back(sq);
}

std::span<const PenaltyTerm> IsingModel::penalty_row(std::size_t r) const {
  if (r >= penalty_rows()) {
    throw std::out_of_range("IsingModel: penalty row " + std::to_string(r) +
                            " out of range");
  }
  return {row_terms_.data() + row_start_[r], row_start_[r + 1] - row_start_[r]};
}

double IsingModel::activity(std::span<const std::int8_t> m,
                            std::size_t r) const {
  double s = 0.0;
  for (const PenaltyTerm& t : penalty_row(r)) {
    s += t.coef * static_cast<double>(m[t.spin]);
  }
  return s;
}

double IsingModel::energy(std::span<const std::int8_t> m) const {
  double e = offset_;
  for (std::size_t i = 0; i < n_; ++i) {
    const auto mi = static_cast<double>(m[i]);
    e -= field_[i] * mi;
    double acc = 0.0;
    for (const auto& [j, v] : couplings_.row(i)) {
      acc += v * static_cast<double>(m[j]);
    }
    e -= mi * acc;
  }
  if (!row_sq_.empty()) {
    double pair = 0.0;
    for (std::size_t r = 0; r < row_sq_.size(); ++r) {
      const double s = activity(m, r);
      pair += s * s - row_sq_[r];
    }
    e += (0.25 * penalty_) * pair;
  }
  return e;
}

double IsingModel::input(std::span<const std::int8_t> m, std::size_t i) const {
  // Column i (J_ki lives in row k < i), then row i: ascending j.
  double acc = field_[i];
  for (std::size_t k = 0; k < i; ++k) {
    acc += couplings_.get(k, i) * static_cast<double>(m[k]);
  }
  for (const auto& [j, v] : couplings_.row(i)) {
    acc += v * static_cast<double>(m[j]);
  }
  if (row_sq_.empty()) return acc;
  double pen = 0.0;
  const auto mi = static_cast<double>(m[i]);
  for (std::size_t row = 0; row < row_sq_.size(); ++row) {
    const auto terms = penalty_row(row);
    const auto it = std::lower_bound(
        terms.begin(), terms.end(), i,
        [](const PenaltyTerm& t, std::size_t s) { return t.spin < s; });
    if (it == terms.end() || it->spin != i) continue;
    pen += it->coef * (activity(m, row) - it->coef * mi);
  }
  return acc + (-0.5 * penalty_) * pen;
}

double IsingModel::flip_delta(std::span<const std::int8_t> m,
                              std::size_t i) const {
  // H contains -m_i * I_i (with I_i independent of m_i); flipping m_i
  // changes H by 2 m_i I_i.
  return 2.0 * static_cast<double>(m[i]) * input(m, i);
}

IsingModel expand_penalty(const IsingModel& model) {
  IsingModel flat(model.n());
  model.for_each_coupling([&](std::size_t i, std::size_t j, double v) {
    flat.add_coupling(i, j, v);
  });
  for (std::size_t i = 0; i < model.n(); ++i) {
    flat.set_field(i, model.field(i));
  }
  flat.set_offset(model.offset());
  // (P/4)(S_r^2 - sum a^2) = sum_{u<v} (P/2) a_u a_v m_u m_v, and H carries
  // -J m m, so each pair adds -(P/2) a_u a_v to J.
  const double half = 0.5 * model.penalty();
  for (std::size_t r = 0; r < model.penalty_rows(); ++r) {
    const auto terms = model.penalty_row(r);
    for (std::size_t u = 0; u < terms.size(); ++u) {
      for (std::size_t v = u + 1; v < terms.size(); ++v) {
        flat.add_coupling(terms[u].spin, terms[v].spin,
                          -(half * terms[u].coef * terms[v].coef));
      }
    }
  }
  return flat;
}

}  // namespace saim::ising
