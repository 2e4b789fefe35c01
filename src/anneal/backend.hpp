// Solver-backend abstraction: SAIM's outer loop (Algorithm 1) only needs
// "minimize the current Hamiltonian and hand back the sample you ended on".
// The paper stresses the method "is compatible with any programmable IM";
// this interface is that compatibility point. Three backends ship in-repo:
//
//   * PBitBackend            — annealed p-bit Gibbs machine (paper's choice)
//   * MetropolisSaBackend    — classical single-flip simulated annealing
//   * ParallelTemperingBackend — replica-exchange MC (the PT-DA stand-in)
//
// A backend is bound to one IsingModel whose couplings and penalty block
// stay fixed for its lifetime; SAIM rewrites the model's fields h between
// runs and calls fields_updated().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anneal/run_result.hpp"
#include "anneal/slice_driver.hpp"
#include "ising/ising_model.hpp"
#include "pbit/pbit_machine.hpp"
#include "pbit/schedule.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace saim::anneal {

class IsingSolverBackend {
 public:
  virtual ~IsingSolverBackend() = default;

  /// Binds to `model` (must outlive the backend) and builds sweep structures.
  virtual void bind(const ising::IsingModel& model) = 0;

  /// Called after the bound model's fields (not J or A) changed.
  virtual void fields_updated() {}

  /// One independent minimization run from a random initial state.
  virtual RunResult run(util::Xoshiro256pp& rng) = 0;

  /// `replicas` independent runs. The base implementation loops run() on
  /// the caller's rng; the in-repo engine backends override it to draw one
  /// base value from `rng` and run replica r with its own
  /// Xoshiro256pp(derive_seed(base, r)) stream over a thread pool, so the
  /// result vector is bit-identical regardless of thread count (and equal
  /// to running the replicas one-by-one with those derived seeds).
  virtual std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                           std::size_t replicas);

  /// Caps the worker threads run_batch may use (0 = all hardware
  /// threads). Set to 1 when batches run inside an already-parallel
  /// context (e.g. multi_start restarts) to avoid oversubscription —
  /// results are identical either way, only scheduling changes.
  void set_batch_threads(std::size_t threads) noexcept {
    batch_threads_ = threads;
  }
  [[nodiscard]] std::size_t batch_threads() const noexcept {
    return batch_threads_;
  }

  /// Initial-state seeding (warm starts): when a backend reports
  /// supports_initial_states(), the NEXT run() / run_batch() call starts
  /// replica r from states[r] (r < states.size(); remaining replicas
  /// cold-start as usual) instead of a fresh random configuration, then
  /// discards the seeds — one injection warms exactly one inner solve, so
  /// later iterations explore from their own samples. The service feeds
  /// this from its per-problem warm-start pool (ResultCache). Seeded runs
  /// skip the initial random-state draws, so their RNG stream differs from
  /// a cold run's — which is why warm starts are strictly opt-in at the
  /// request level. Backends without a warm path keep the default
  /// supports_initial_states() == false and are never handed seeds.
  [[nodiscard]] virtual bool supports_initial_states() const noexcept {
    return false;
  }
  void set_initial_states(std::vector<ising::Spins> states) noexcept {
    initial_states_ = std::move(states);
  }

  /// Cooperative cancellation: SaimSolver installs the solve's StopToken
  /// here before the outer loop and clears it afterwards. Backends poll it
  /// at coarse points only — between the runs of a sequential batch, at
  /// batch entry for the parallel path, and between sweep chunks inside
  /// the p-bit anneal — so a default (never-stopping) token adds nothing
  /// to the hot loop. Bit-reproducibility holds for any batch that
  /// finishes without observing a stop; once a stop fires, replicas may
  /// truncate at timing-dependent sweep counts, which is why stopped
  /// solves are tagged with a non-kCompleted Status and never cached.
  void set_stop_token(util::StopToken token) noexcept {
    stop_token_ = std::move(token);
  }
  [[nodiscard]] const util::StopToken& stop_token() const noexcept {
    return stop_token_;
  }

  /// Fused batches — batch-aware replica fusion for core::solve_batch.
  /// The lockstep batch loop runs many SAIM members against the SAME
  /// backend in one round; when each member's replicas would dispatch to
  /// the bit-sliced engine anyway, their lanes can be packed into ONE
  /// engine dispatch per round instead of one per member. Protocol:
  /// enqueue_fused(rng, replicas) once per member — it consumes exactly
  /// what run_batch would from `rng` and the pending initial states, and
  /// snapshots the bound model's current fields (the caller rewrites them
  /// between enqueues) — then one run_fused() returns per-member results
  /// in enqueue order, each vector bit-identical to the run_batch the
  /// member would have made on its own. Backends without a bit-sliced
  /// path keep the default supports_fused_batch() == false; calling the
  /// other two then is a logic error.
  [[nodiscard]] virtual bool supports_fused_batch() const noexcept {
    return false;
  }
  virtual void enqueue_fused(util::Xoshiro256pp& rng, std::size_t replicas);
  virtual std::vector<std::vector<RunResult>> run_fused();

  /// MCS consumed per run() call — used for sample-budget accounting
  /// (Fig. 4b compares methods at equal MCS).
  [[nodiscard]] virtual std::size_t sweeps_per_run() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Claims (and clears) the pending seeds; implementations call this once
  /// per run/run_batch so stale seeds can never leak into a later solve.
  [[nodiscard]] std::vector<ising::Spins> take_initial_states() noexcept {
    return std::exchange(initial_states_, {});
  }

 private:
  std::size_t batch_threads_ = 0;
  util::StopToken stop_token_;
  std::vector<ising::Spins> initial_states_;
};

/// Shared implementation of the deterministic parallel run_batch contract:
/// draws one base value from `rng`, then runs `run_one` for each replica r
/// with a fresh Xoshiro256pp(derive_seed(base, r)) over util::parallel_for.
/// `run_one` must be safe to invoke concurrently (all in-repo sweep
/// engines are: they only read the bound model/adjacency).
///
/// `stop` is checked once at entry: a batch whose stop already fired
/// returns empty instead of starting. A batch that did start runs every
/// replica — but a stop firing mid-batch may still truncate individual
/// replicas inside `run_one` (e.g. the p-bit anneal's chunked checks), so
/// only batches that complete without observing a stop are bit-identical
/// across thread counts. The base value is drawn from `rng` regardless,
/// so the caller's RNG stream position does not depend on stop timing.
std::vector<RunResult> run_replicas_parallel(
    const std::function<RunResult(util::Xoshiro256pp&)>& run_one,
    util::Xoshiro256pp& rng, std::size_t replicas,
    std::size_t threads = 0, const util::StopToken& stop = {});

/// As above, with the replica index passed through to `run_one` — the hook
/// warm-started batches use to give replica r its pooled initial state
/// while keeping the same derive_seed(base, r) stream (so a seeded batch is
/// still bit-identical across thread counts).
std::vector<RunResult> run_replicas_parallel(
    const std::function<RunResult(util::Xoshiro256pp&, std::size_t)>& run_one,
    util::Xoshiro256pp& rng, std::size_t replicas,
    std::size_t threads = 0, const util::StopToken& stop = {});

/// The paper's backend: p-bit machine annealed with a (linear) beta ramp.
class PBitBackend final : public IsingSolverBackend {
 public:
  PBitBackend(pbit::Schedule schedule, std::size_t sweeps,
              pbit::SweepOrder order = pbit::SweepOrder::kSequential,
              bool track_best = false);

  void bind(const ising::IsingModel& model) override;
  RunResult run(util::Xoshiro256pp& rng) override;
  /// Parallel cold-start replicas; falls back to the sequential base loop
  /// when warm restarts are enabled (those are inherently order-dependent).
  /// Sequential-order batches of kBitsliceMinReplicas+ replicas dispatch
  /// to the bit-sliced engine — same results, one word-parallel pass.
  std::vector<RunResult> run_batch(util::Xoshiro256pp& rng,
                                   std::size_t replicas) override;
  [[nodiscard]] bool supports_fused_batch() const noexcept override;
  void enqueue_fused(util::Xoshiro256pp& rng, std::size_t replicas) override;
  std::vector<std::vector<RunResult>> run_fused() override;
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return options_.sweeps;
  }
  [[nodiscard]] std::string name() const override { return "pbit"; }
  /// anneal_from gives the p-bit machine a native seeded path.
  [[nodiscard]] bool supports_initial_states() const noexcept override {
    return true;
  }

  /// Warm restarts (ablation; off by default = the paper's cold starts):
  /// each run() continues from the previous run's final state instead of a
  /// fresh random one. SAIM's landscape changes only slightly per lambda
  /// update once the multipliers settle, so the previous sample is a
  /// near-equilibrium start.
  void set_warm_restart(bool enabled) noexcept { warm_restart_ = enabled; }

 private:
  [[nodiscard]] ising::SliceOptions slice_options(
      std::span<const double> betas) const noexcept;

  pbit::Schedule schedule_;
  pbit::AnnealOptions options_;
  std::unique_ptr<pbit::PBitMachine> machine_;
  bool warm_restart_ = false;
  ising::Spins previous_state_;
  std::vector<SlicePlan> fused_plans_;
};

}  // namespace saim::anneal
