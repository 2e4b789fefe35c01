// Glue between the backend layer and the bit-sliced sweep engine.
//
// A backend that dispatches a batch to ising::BitSliceEngine must hand each
// lane exactly what the scalar replica would have seen: the stream
// Xoshiro256pp(derive_seed(base, r)) positioned after the initial-state
// draws, the warm seed (if any) for replica r, the run-start energy, and a
// snapshot of the model's fields. SlicePlan captures that per batch member;
// run_slice_plans packs any number of plans — one for a plain run_batch,
// several for core::solve_batch's fused rounds — into a single engine
// dispatch and splits the results back per plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "anneal/run_result.hpp"
#include "ising/bitslice.hpp"
#include "ising/ising_model.hpp"
#include "pbit/schedule.hpp"

namespace saim::anneal {

/// Replica batches at or above this size go through the bit-sliced engine
/// (when the backend's configuration allows it — see the backends'
/// run_batch). Below it the per-batch packing overhead outweighs the
/// word-parallel sweeps; results are bit-identical either way, so the
/// threshold is pure performance policy.
inline constexpr std::size_t kBitsliceMinReplicas = 32;

/// One batch member's share of a bit-sliced dispatch. `fields` keeps the
/// member's h-snapshot alive (lambda updates rewrite the model's fields
/// between enqueue and run in fused rounds); the lanes' `fields` pointers
/// are set by run_slice_plans once the plan list stops moving.
struct SlicePlan {
  std::vector<double> fields;
  std::vector<ising::SliceLane> lanes;
};

/// Builds the lanes for `replicas` replicas of `model` exactly as the
/// scalar run_batch contract: lane r runs Xoshiro256pp(derive_seed(base,
/// r)); warm lanes start from seeds[r] with an untouched stream, cold
/// lanes draw their ±1 start from it (PBitMachine::random_state order);
/// energies are the from-scratch model.energy of the start state, matching
/// LocalFieldState::reset.
SlicePlan make_slice_plan(const ising::IsingModel& model, std::uint64_t base,
                          std::size_t replicas,
                          const std::vector<ising::Spins>& seeds);

/// betas[t] = schedule.beta(t, sweeps) — the exact doubles the scalar
/// anneal loop would compute.
std::vector<double> make_beta_table(const pbit::Schedule& schedule,
                                    std::size_t sweeps);

/// Runs every plan's lanes through one BitSliceEngine dispatch over
/// `adjacency` and returns RunResults split per plan (results[p][r] is
/// plan p's replica r). options.betas/dynamics/track_best/stop/threads are
/// the caller's; lane fields pointers are wired here.
std::vector<std::vector<RunResult>> run_slice_plans(
    const ising::Adjacency& adjacency, std::span<SlicePlan> plans,
    ising::SliceOptions options);

}  // namespace saim::anneal
