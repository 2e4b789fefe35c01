// Incremental local-field sweep engine — the shared numeric core of every
// Monte-Carlo backend in this repo.
//
// A sweep visits each spin and needs its p-bit input (paper eq. 9)
//     I_i = sum_j J_ij m_j + h_i - (P/2) sum_{r∋i} a_ri (S_r - a_ri m_i) ,
// where J holds the objective's couplings and the last term is the
// factored penalty block (see ising/ising_model.hpp), with row activities
// S_r = sum_j a_rj m_j. Recomputing the sums on every visit costs
// O(sum_i deg(i)) per sweep even when almost nothing flips — which is
// exactly the regime late-anneal betas live in. LocalFieldState instead
// keeps the coupling inputs  C_i = sum_j J_ij m_j  and the activities S_r
// as persistent state:
//
//   * reset(m)  rebuilds C[] and S[] in O(sum deg + nnz(A)) (plus one
//     from-scratch energy evaluation) — once per run, not once per visit;
//   * field(m,i) reads C_i + h_i and adds the penalty share from spin i's
//     column of A in O(nnz(A[:,i]));
//   * flip(m,i) flips spin i and pushes the change to its J neighbours'
//     C_j and its rows' S_r in O(deg(i) + nnz(A[:,i])) — the penalty
//     never becomes a dense neighbourhood.
//
// The field part h_i is read live from the bound IsingModel on every
// field() call: SAIM's lambda updates rewrite only h between runs, so the
// incremental state never goes stale across outer iterations and backends
// need no refresh in fields_updated().
//
// All updates are plain additions of the same terms a from-scratch
// evaluation sums, so for models whose couplings, fields and partial sums
// are exactly representable (e.g. dyadic rationals — the parity tests use
// these) the engine's trajectory is bit-identical to the
// recompute-every-visit implementation and to the same model with its
// penalty expanded into couplings (ising::expand_penalty).
#pragma once

#include <cstddef>
#include <vector>

#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"

namespace saim::ising {

class LocalFieldState {
 public:
  LocalFieldState() = default;

  /// Borrows `model` and `adjacency` (both must outlive the engine; the
  /// adjacency must have been built from the model). Backends already own
  /// one Adjacency per bound model and share it across replicas/slices.
  LocalFieldState(const IsingModel& model, const Adjacency& adjacency)
      : model_(&model),
        adjacency_(&adjacency),
        coupling_in_(model.n(), 0.0),
        activity_(adjacency.penalty_rows(), 0.0) {}

  [[nodiscard]] std::size_t n() const noexcept { return coupling_in_.size(); }

  /// Rebuilds the coupling inputs and row activities (O(sum deg +
  /// nnz(A))) and the tracked energy (one IsingModel::energy evaluation,
  /// O(n + nnz(J) + nnz(A)), kept bit-compatible with the pre-engine
  /// backends). Call once per run (or after externally replacing the
  /// state, e.g. a restart).
  void reset(const Spins& m);

  /// p-bit input I_i for the state `m` last synced via reset()/flip().
  /// O(nnz(A[:,i])); O(1) without a penalty block.
  [[nodiscard]] double field(const Spins& m, std::size_t i) const noexcept {
    const double base = coupling_in_[i] + model_->field(i);
    if (activity_.empty()) return base;
    return base + adjacency_->penalty_input(activity_.data(), m[i], i);
  }

  /// Energy change of flipping spin i in the synced state: dH = 2 m_i I_i.
  [[nodiscard]] double flip_delta(const Spins& m,
                                  std::size_t i) const noexcept {
    return 2.0 * static_cast<double>(m[i]) * field(m, i);
  }

  /// Flips m[i], updates the neighbours' coupling inputs and the rows'
  /// activities in O(deg(i) + nnz(A[:,i])) and the tracked energy.
  /// Returns the energy change dH.
  double flip(Spins& m, std::size_t i) {
    const double delta = flip_delta(m, i);
    flip(m, i, delta);
    return delta;
  }

  /// The same flip for a caller that already holds delta = flip_delta(m, i)
  /// from its accept test, so the penalty share is evaluated once.
  void flip(Spins& m, std::size_t i, double delta);

  /// Hamiltonian of the synced state, maintained incrementally.
  [[nodiscard]] double energy() const noexcept { return energy_; }

  /// PT replica exchange swaps whole configurations; swapping the engines
  /// alongside the states keeps both consistent in O(1).
  friend void swap(LocalFieldState& a, LocalFieldState& b) noexcept {
    std::swap(a.model_, b.model_);
    std::swap(a.adjacency_, b.adjacency_);
    a.coupling_in_.swap(b.coupling_in_);
    a.activity_.swap(b.activity_);
    std::swap(a.energy_, b.energy_);
  }

 private:
  const IsingModel* model_ = nullptr;
  const Adjacency* adjacency_ = nullptr;
  std::vector<double> coupling_in_;  ///< C_i = sum_j J_ij m_j
  std::vector<double> activity_;     ///< S_r = sum_j a_rj m_j
  double energy_ = 0.0;              ///< H(m) for the synced state
};

}  // namespace saim::ising
