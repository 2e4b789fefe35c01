#include "anneal/exact_backend.hpp"

#include <stdexcept>

#include "ising/local_field.hpp"

namespace saim::anneal {

void ExactBackend::bind(const ising::IsingModel& model) {
  if (model.n() > 26) {
    throw std::invalid_argument(
        "ExactBackend: model too large for enumeration (n > 26)");
  }
  model_ = &model;
  adjacency_ = ising::Adjacency(model);
}

RunResult ExactBackend::run(util::Xoshiro256pp& rng) {
  (void)rng;
  if (model_ == nullptr) {
    throw std::logic_error("ExactBackend::run called before bind()");
  }
  const std::size_t n = model_->n();
  RunResult result;

  // Gray-code enumeration: consecutive codes differ in one spin, so the
  // incremental engine carries the energy from code to code in
  // O(deg(i) + nnz(A[:,i])) per step. Float drift over 2^n additions is
  // bounded by the deltas' magnitudes; energies are re-derived exactly for
  // the winner.
  ising::Spins m(n, std::int8_t{-1});  // Gray code 0 = all -1
  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(m);
  result.best = m;
  result.best_energy = lfs.energy();
  for (std::uint64_t code = 1; code < (1ULL << n); ++code) {
    const auto bit = static_cast<std::size_t>(__builtin_ctzll(code));
    lfs.flip(m, bit);
    if (lfs.energy() < result.best_energy) {
      result.best_energy = lfs.energy();
      result.best = m;
    }
  }
  result.best_energy = model_->energy(result.best);  // exact re-derivation
  result.last = result.best;
  result.last_energy = result.best_energy;
  result.sweeps = sweeps_per_run();
  return result;
}

std::size_t ExactBackend::sweeps_per_run() const {
  if (model_ == nullptr || model_->n() == 0) return 0;
  return static_cast<std::size_t>((1ULL << model_->n()) / model_->n());
}

}  // namespace saim::anneal
