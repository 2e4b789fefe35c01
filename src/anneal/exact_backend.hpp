// Exact inner minimizer: solves argmin_m H(m) by enumeration (n <= 26).
//
// Two uses:
//   * In tests it isolates SAIM's lambda dynamics from sampler noise — with
//     an exact inner solve, Algorithm 1 *is* the textbook subgradient dual
//     ascent, so its convergence properties can be asserted deterministically.
//   * It powers the duality-gap study (examples/duality_gap.cpp): computing
//     LB_L = min_x L(x; lambda) exactly shows how the Lagrange term closes
//     the gap G = OPT - LB_L that a too-small penalty P < P_C leaves open
//     (paper Fig. 2).
#pragma once

#include "anneal/backend.hpp"
#include "ising/adjacency.hpp"

namespace saim::anneal {

class ExactBackend final : public IsingSolverBackend {
 public:
  ExactBackend() = default;

  void bind(const ising::IsingModel& model) override;

  /// Deterministic: always returns the true ground state (ties resolve to
  /// the first minimizer in Gray-code enumeration order). The rng is
  /// unused.
  RunResult run(util::Xoshiro256pp& rng) override;

  /// One exact solve enumerates 2^n states; report 2^n / n "sweeps" so MCS
  /// budget comparisons against samplers stay meaningful.
  [[nodiscard]] std::size_t sweeps_per_run() const override;
  [[nodiscard]] std::string name() const override { return "exact"; }

 private:
  const ising::IsingModel* model_ = nullptr;
  ising::Adjacency adjacency_;
};

}  // namespace saim::anneal
