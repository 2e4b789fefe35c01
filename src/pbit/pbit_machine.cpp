#include "pbit/pbit_machine.hpp"

#include <cmath>
#include <numeric>
#include <utility>

#include "util/accept_bounds.hpp"

namespace saim::pbit {

PBitMachine::PBitMachine(const ising::IsingModel& model)
    : model_(&model), adjacency_(model) {}

ising::Spins PBitMachine::random_state(util::Xoshiro256pp& rng) const {
  ising::Spins m(n());
  for (auto& s : m) {
    s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
  }
  return m;
}

void PBitMachine::sweep(ising::Spins& m, ising::LocalFieldState& lfs,
                        double beta, SweepOrder order,
                        util::Xoshiro256pp& rng,
                        std::vector<std::uint32_t>& scratch) const {
  const std::size_t size = n();

  auto update_one = [&](std::size_t i) {
    const double in = lfs.field(m, i);
    // m_i = sign(tanh(beta*I_i) + U(-1,1)): +1 with prob (1+tanh)/2. The
    // tiered sign test is bit-identical to calling std::tanh every visit
    // but saturation/bounds decide ~all draws without libm (the
    // bit-sliced engine's test, scalar lane); one uniform_sym draw per
    // visit, as before.
    const std::int8_t next =
        util::tanh_sign_nonneg(beta * in, rng.uniform_sym())
            ? std::int8_t{1}
            : std::int8_t{-1};
    if (next != m[i]) {
      lfs.flip(m, i, 2.0 * static_cast<double>(m[i]) * in);
    }
  };

  switch (order) {
    case SweepOrder::kSequential:
      for (std::size_t i = 0; i < size; ++i) update_one(i);
      break;
    case SweepOrder::kRandomPermutation: {
      scratch.resize(size);
      std::iota(scratch.begin(), scratch.end(), 0u);
      // Fisher-Yates with the solver's own RNG for determinism.
      for (std::size_t i = size; i > 1; --i) {
        const std::size_t j = rng.below(i);
        std::swap(scratch[i - 1], scratch[j]);
      }
      for (const auto i : scratch) update_one(i);
      break;
    }
    case SweepOrder::kRandomUniform:
      for (std::size_t k = 0; k < size; ++k) update_one(rng.below(size));
      break;
  }
}

AnnealResult PBitMachine::anneal(const Schedule& schedule,
                                 const AnnealOptions& options,
                                 util::Xoshiro256pp& rng) const {
  return anneal_from(random_state(rng), schedule, options, rng);
}

AnnealResult PBitMachine::anneal_from(ising::Spins start,
                                      const Schedule& schedule,
                                      const AnnealOptions& options,
                                      util::Xoshiro256pp& rng) const {
  AnnealResult result;
  result.last = std::move(start);
  result.sweeps = options.sweeps;

  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(result.last);
  if (options.track_best) {
    result.best = result.last;
    result.best_energy = lfs.energy();
  }

  const std::size_t stop_interval =
      options.stop_interval == 0 ? 1 : options.stop_interval;
  std::vector<std::uint32_t> scratch;
  for (std::size_t t = 0; t < options.sweeps; ++t) {
    if (options.stop && t != 0 && t % stop_interval == 0 &&
        options.stop->stop_requested()) {
      result.sweeps = t;  // partial run: sweeps actually performed
      break;
    }
    const double beta = schedule.beta(t, options.sweeps);
    sweep(result.last, lfs, beta, options.order, rng, scratch);
    if (options.track_best && lfs.energy() < result.best_energy) {
      result.best_energy = lfs.energy();
      result.best = result.last;
    }
  }
  result.last_energy = lfs.energy();
  if (!options.track_best) {
    result.best = result.last;
    result.best_energy = result.last_energy;
  }
  return result;
}

void PBitMachine::sample(
    double beta, std::size_t burn_in, std::size_t samples,
    util::Xoshiro256pp& rng,
    const std::function<void(const ising::Spins&)>& observer) const {
  ising::Spins m = random_state(rng);
  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(m);
  std::vector<std::uint32_t> scratch;
  for (std::size_t t = 0; t < burn_in; ++t) {
    sweep(m, lfs, beta, SweepOrder::kSequential, rng, scratch);
  }
  for (std::size_t t = 0; t < samples; ++t) {
    sweep(m, lfs, beta, SweepOrder::kSequential, rng, scratch);
    observer(m);
  }
}

}  // namespace saim::pbit
