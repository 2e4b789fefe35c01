// Bit-sliced multi-replica sweep engine.
//
// Packs the ±1 spins of up to 64 replicas ("lanes") into one machine word
// per spin: bit b of the spin word of site i holds lane b's sign. One pass
// over spin i's CSR neighborhood then advances the local-field
// bookkeeping for every lane at once. Each 4-lane chunk keeps its
// coupling inputs C_i (n x 4 doubles) and, for a model with a factored
// penalty block (ising/ising_model.hpp), its row activities S_r (M x 4
// doubles) in contiguous planes, so the masked updates after a flip are
// contiguous SIMD loads/stores: the objective's J neighbours plus the
// flipped spin's rows of A — never a dense penalty neighbourhood. A visit
// whose flip nibble is zero (the common case at late beta) skips the
// updates entirely.
//
// Per-lane trajectories are BIT-IDENTICAL to the scalar engines
// (pbit::PBitMachine::anneal_from and anneal::MetropolisSa::run_from over
// ising::LocalFieldState) on every model, not just dyadic ones:
//
//   * every fp expression of the scalar visit is mirrored operation for
//     operation (no FMA contraction, same rounding);
//   * each lane runs its own xoshiro256++ stream (util::simd SoA step),
//     advanced exactly when the scalar loop would draw — Metropolis lanes
//     with delta <= 0 skip the draw via a masked state update;
//   * the exp/tanh acceptance tests are decided through conservative
//     bounds (util/accept_bounds.hpp) that bracket the libm result; the
//     rare ambiguous lane falls back to the identical libm call.
//
// Lanes are independent: each carries its own initial state, energy, RNG
// state and fields pointer, so one dispatch can fuse the replicas of many
// batch members (different lambda = different h) — core::solve_batch's
// fused rounds — without any cross-talk. Groups of 64 lanes run
// independently and may be spread over a thread pool; results do not
// depend on the grouping or thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"
#include "util/stop_token.hpp"

namespace saim::ising {

/// Which scalar engine's per-visit semantics a run reproduces.
enum class SliceDynamics {
  kPbit,        ///< m_i = sign(tanh(beta*I_i) + U(-1,1)), one draw per visit
  kMetropolis,  ///< flip if dH <= 0 or U(0,1) < exp(-beta*dH)
};

/// One replica's slice of a run. `rng` is the xoshiro256++ state positioned
/// exactly where the scalar engine's stream would be after the initial
/// state draws (cold lanes) or immediately after seeding (warm lanes).
/// `energy` must equal the scalar run-start energy, i.e. what
/// LocalFieldState::reset computes for `spins` under `fields`.
struct SliceLane {
  Spins spins;
  double energy = 0.0;
  std::array<std::uint64_t, 4> rng{};
  const double* fields = nullptr;  ///< h_i, n doubles, caller-owned
};

struct SliceResult {
  Spins last;
  double last_energy = 0.0;
  Spins best;
  double best_energy = 0.0;
  std::size_t sweeps = 0;  ///< sweeps actually performed (stop may truncate)
};

struct SliceOptions {
  SliceDynamics dynamics = SliceDynamics::kMetropolis;
  /// betas[t] for sweep t; size() is the sweep count. Callers precompute
  /// schedule.beta(t, sweeps) so the values match the scalar loop exactly.
  std::span<const double> betas;
  bool track_best = true;
  /// Polled between sweeps every `stop_interval` (pbit's chunked-check
  /// pattern); a stopped group returns valid partial results with
  /// `sweeps` < betas.size().
  const util::StopToken* stop = nullptr;
  std::size_t stop_interval = 64;
  std::size_t threads = 1;  ///< 64-lane groups run via util::parallel_for
};

class BitSliceEngine {
 public:
  static constexpr std::size_t kWord = 64;  ///< lanes per group word

  /// Borrows the adjacency (must outlive the engine). Fields are per-lane,
  /// so one engine serves any mix of batch members over the same J and A.
  explicit BitSliceEngine(const Adjacency& adjacency) noexcept
      : adjacency_(&adjacency) {}

  /// Runs every lane for options.betas.size() sweeps. Results are in lane
  /// order and bit-identical to running each lane through the matching
  /// scalar engine. Lanes are read, not modified.
  [[nodiscard]] std::vector<SliceResult> run(
      std::span<SliceLane> lanes, const SliceOptions& options) const;

 private:
  const Adjacency* adjacency_;
};

}  // namespace saim::ising
