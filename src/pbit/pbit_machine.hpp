// Software emulation of a probabilistic-bit (p-bit) Ising machine,
// following Camsari et al. and the paper's section III-B.
//
// Each p-bit i computes its input (eq. 9)
//     I_i = sum_j J_ij m_j + h_i
// and updates its state (eq. 10)
//     m_i = sign( tanh(beta * I_i) + rand(-1, 1) )
// Sequential updates of (9)-(10) implement Gibbs sampling of the Boltzmann
// distribution P{m} ∝ exp(-beta * H{m}) (eq. 11) — verified by the
// chi-square tests in tests/pbit_boltzmann_test.cpp.
//
// Here I_i also carries the model's factored penalty block (see
// ising/local_field.hpp), read through the spin's column of A. The
// machine keeps a reference to its IsingModel: SAIM's lambda updates
// rewrite only the model's fields h between runs, which the machine reads
// live, while the sweep view of J and A (built once) stays valid.
#pragma once

#include <cstddef>
#include <functional>

#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"
#include "ising/local_field.hpp"
#include "pbit/schedule.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace saim::pbit {

/// Order in which spins are updated within one Monte-Carlo sweep (MCS).
enum class SweepOrder {
  kSequential,  ///< 0,1,...,n-1 — the paper's choice ("sequentially updating")
  kRandomPermutation,  ///< fresh random permutation each sweep
  kRandomUniform,      ///< n independent uniform picks per sweep (may repeat)
};

struct AnnealOptions {
  std::size_t sweeps = 1000;  ///< MCS per run (paper Table I: 1000)
  SweepOrder order = SweepOrder::kSequential;
  bool track_best = false;  ///< also record the lowest-energy state visited

  /// Cooperative stop, polled every `stop_interval` sweeps (never inside a
  /// sweep). On stop the run returns its current state as a valid partial
  /// sample with `sweeps` reflecting the MCS actually performed. Null (the
  /// default) keeps the anneal loop check-free.
  const util::StopToken* stop = nullptr;
  std::size_t stop_interval = 64;
};

struct AnnealResult {
  ising::Spins last;         ///< state after the final sweep (paper reads this)
  double last_energy = 0.0;  ///< H(last)
  ising::Spins best;         ///< lowest-energy state seen (if track_best)
  double best_energy = 0.0;  ///< H(best)
  std::size_t sweeps = 0;    ///< MCS actually performed
};

class PBitMachine {
 public:
  /// The model must outlive the machine. Builds the sweep view once.
  explicit PBitMachine(const ising::IsingModel& model);

  [[nodiscard]] std::size_t n() const noexcept { return model_->n(); }

  /// Runs one annealed Gibbs-sampling run from a fresh random state.
  AnnealResult anneal(const Schedule& schedule, const AnnealOptions& options,
                      util::Xoshiro256pp& rng) const;

  /// As above but continues from `start` (used by warm-restart ablation).
  AnnealResult anneal_from(ising::Spins start, const Schedule& schedule,
                           const AnnealOptions& options,
                           util::Xoshiro256pp& rng) const;

  /// Equilibrium sampling at fixed beta: performs `burn_in` sweeps, then
  /// calls `observer(state)` after each of `samples` further sweeps.
  /// Used by distribution tests and by diagnostics.
  void sample(double beta, std::size_t burn_in, std::size_t samples,
              util::Xoshiro256pp& rng,
              const std::function<void(const ising::Spins&)>& observer) const;

  /// Uniform random ±1 configuration.
  ising::Spins random_state(util::Xoshiro256pp& rng) const;

  /// Bound model / sweep view — shared with the bit-sliced batch path so it
  /// runs over the exact same J, A and live fields as the scalar sweeps.
  [[nodiscard]] const ising::IsingModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const ising::Adjacency& adjacency() const noexcept {
    return adjacency_;
  }

 private:
  /// One Monte-Carlo sweep at inverse temperature beta. Reads each p-bit's
  /// input from the incremental engine (O(1) per visit) and pushes accepted
  /// flips back through it; `lfs` tracks the running energy.
  void sweep(ising::Spins& m, ising::LocalFieldState& lfs, double beta,
             SweepOrder order, util::Xoshiro256pp& rng,
             std::vector<std::uint32_t>& scratch) const;

  const ising::IsingModel* model_;
  ising::Adjacency adjacency_;
};

}  // namespace saim::pbit
