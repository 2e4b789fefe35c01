#include "anneal/parallel_tempering.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "ising/local_field.hpp"

namespace saim::anneal {

ParallelTempering::ParallelTempering(const ising::IsingModel& model,
                                     PtOptions options)
    : model_(&model), adjacency_(model), options_(options) {
  if (options_.replicas < 2) {
    throw std::invalid_argument("ParallelTempering: need >= 2 replicas");
  }
  if (options_.beta_min <= 0.0 || options_.beta_max <= options_.beta_min) {
    throw std::invalid_argument(
        "ParallelTempering: require 0 < beta_min < beta_max");
  }
  if (options_.swap_interval == 0) options_.swap_interval = 1;
}

std::vector<double> ParallelTempering::ladder() const {
  std::vector<double> betas(options_.replicas);
  const double ratio = options_.beta_max / options_.beta_min;
  const auto r = static_cast<double>(options_.replicas - 1);
  for (std::size_t k = 0; k < options_.replicas; ++k) {
    betas[k] =
        options_.beta_min * std::pow(ratio, static_cast<double>(k) / r);
  }
  return betas;
}

void ParallelTempering::metropolis_sweep(ising::Spins& m,
                                         ising::LocalFieldState& lfs,
                                         double beta,
                                         util::Xoshiro256pp& rng) const {
  const std::size_t n = model_->n();
  for (std::size_t i = 0; i < n; ++i) {
    const double delta = lfs.flip_delta(m, i);
    if (delta <= 0.0 || rng.uniform01() < std::exp(-beta * delta)) {
      lfs.flip(m, i, delta);
    }
  }
}

RunResult ParallelTempering::run(util::Xoshiro256pp& rng) const {
  const std::vector<double> betas = ladder();
  const std::size_t r = options_.replicas;
  const std::size_t n = model_->n();

  std::vector<ising::Spins> states(r);
  std::vector<ising::LocalFieldState> fields(r);
  for (std::size_t k = 0; k < r; ++k) {
    states[k].resize(n);
    for (auto& s : states[k]) {
      s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
    }
    fields[k] = ising::LocalFieldState(*model_, adjacency_);
    fields[k].reset(states[k]);
  }

  RunResult result;
  // Best over all replicas at any time.
  std::size_t best_replica = 0;
  for (std::size_t k = 1; k < r; ++k) {
    if (fields[k].energy() < fields[best_replica].energy()) best_replica = k;
  }
  result.best = states[best_replica];
  result.best_energy = fields[best_replica].energy();

  std::size_t swap_attempts = 0;
  std::size_t swap_accepts = 0;

  for (std::size_t t = 0; t < options_.sweeps; ++t) {
    for (std::size_t k = 0; k < r; ++k) {
      metropolis_sweep(states[k], fields[k], betas[k], rng);
      if (fields[k].energy() < result.best_energy) {
        result.best_energy = fields[k].energy();
        result.best = states[k];
      }
    }
    if ((t + 1) % options_.swap_interval == 0) {
      // Alternate even/odd neighbour pairs so every ladder edge is tried.
      const std::size_t parity = (t / options_.swap_interval) % 2;
      for (std::size_t k = parity; k + 1 < r; k += 2) {
        ++swap_attempts;
        const double arg = (betas[k] - betas[k + 1]) *
                           (fields[k].energy() - fields[k + 1].energy());
        if (arg >= 0.0 || rng.uniform01() < std::exp(arg)) {
          std::swap(states[k], states[k + 1]);
          swap(fields[k], fields[k + 1]);
          ++swap_accepts;
        }
      }
    }
  }

  last_swap_acceptance_.store(
      swap_attempts ? static_cast<double>(swap_accepts) /
                          static_cast<double>(swap_attempts)
                    : 0.0,
      std::memory_order_relaxed);

  // The "measured sample" of a PT run is the coldest replica's final state.
  result.last = states[r - 1];
  result.last_energy = fields[r - 1].energy();
  result.sweeps = options_.replicas * options_.sweeps;
  return result;
}

ParallelTemperingBackend::ParallelTemperingBackend(PtOptions options)
    : options_(options) {}

void ParallelTemperingBackend::bind(const ising::IsingModel& model) {
  pt_ = std::make_unique<ParallelTempering>(model, options_);
}

RunResult ParallelTemperingBackend::run(util::Xoshiro256pp& rng) {
  if (!pt_) {
    throw std::logic_error(
        "ParallelTemperingBackend::run called before bind()");
  }
  return pt_->run(rng);
}

std::vector<RunResult> ParallelTemperingBackend::run_batch(
    util::Xoshiro256pp& rng, std::size_t replicas) {
  if (!pt_) {
    throw std::logic_error(
        "ParallelTemperingBackend::run_batch called before bind()");
  }
  return run_replicas_parallel(
      [this](util::Xoshiro256pp& replica_rng) {
        return pt_->run(replica_rng);
      },
      rng, replicas, batch_threads(), stop_token());
}

}  // namespace saim::anneal
