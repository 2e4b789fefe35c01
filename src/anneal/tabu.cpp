#include "anneal/tabu.hpp"

#include <limits>
#include <stdexcept>

#include "ising/local_field.hpp"

namespace saim::anneal {

TabuSearch::TabuSearch(const ising::IsingModel& model, TabuOptions options)
    : model_(&model), adjacency_(model), options_(options) {
  if (options_.tenure == 0) {
    throw std::invalid_argument("TabuSearch: tenure must be positive");
  }
}

RunResult TabuSearch::run(util::Xoshiro256pp& rng) const {
  const std::size_t n = model_->n();
  RunResult result;

  auto random_state = [&] {
    ising::Spins m(n);
    for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
    return m;
  };

  ising::Spins state = random_state();
  // The engine maintains every spin's input I_i incrementally, so the move
  // deltas 2 m_i I_i are O(1) reads in the scan and a stall restart no
  // longer pays the old O(n^2) dense delta recompute (reset keeps one
  // dense energy evaluation for bit-compatibility with the old path).
  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(state);
  result.best = state;
  result.best_energy = lfs.energy();

  std::vector<std::size_t> tabu_until(n, 0);
  std::size_t stall = 0;

  for (std::size_t step = 1; step <= options_.steps; ++step) {
    std::size_t best_move = n;
    double best_delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = lfs.flip_delta(state, i);
      const bool is_tabu = tabu_until[i] >= step;
      // Aspiration: a tabu move is allowed if it beats the incumbent.
      const bool aspirated =
          is_tabu && lfs.energy() + delta < result.best_energy;
      if (is_tabu && !aspirated) continue;
      if (delta < best_delta) {
        best_delta = delta;
        best_move = i;
      }
    }
    if (best_move == n) {
      // Everything tabu and nothing aspirated — age out by one step.
      continue;
    }

    // Apply the move.
    lfs.flip(state, best_move, best_delta);
    tabu_until[best_move] = step + options_.tenure;

    if (lfs.energy() < result.best_energy - 1e-15) {
      result.best_energy = lfs.energy();
      result.best = state;
      stall = 0;
    } else if (options_.stall_limit != 0 &&
               ++stall >= options_.stall_limit) {
      state = random_state();
      lfs.reset(state);
      std::fill(tabu_until.begin(), tabu_until.end(), 0);
      stall = 0;
    }
  }

  result.last = state;
  result.last_energy = lfs.energy();
  result.sweeps = (options_.steps + n - 1) / (n == 0 ? 1 : n);
  return result;
}

TabuBackend::TabuBackend(TabuOptions options) : options_(options) {}

void TabuBackend::bind(const ising::IsingModel& model) {
  tabu_ = std::make_unique<TabuSearch>(model, options_);
  n_ = model.n();
}

RunResult TabuBackend::run(util::Xoshiro256pp& rng) {
  if (!tabu_) {
    throw std::logic_error("TabuBackend::run called before bind()");
  }
  return tabu_->run(rng);
}

std::vector<RunResult> TabuBackend::run_batch(util::Xoshiro256pp& rng,
                                              std::size_t replicas) {
  if (!tabu_) {
    throw std::logic_error("TabuBackend::run_batch called before bind()");
  }
  return run_replicas_parallel(
      [this](util::Xoshiro256pp& replica_rng) {
        return tabu_->run(replica_rng);
      },
      rng, replicas, batch_threads(), stop_token());
}

std::size_t TabuBackend::sweeps_per_run() const {
  return n_ == 0 ? options_.steps : (options_.steps + n_ - 1) / n_;
}

}  // namespace saim::anneal
