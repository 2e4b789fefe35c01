#include "anneal/simulated_annealing.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "ising/local_field.hpp"
#include "util/accept_bounds.hpp"

namespace saim::anneal {

MetropolisSa::MetropolisSa(const ising::IsingModel& model)
    : model_(&model), adjacency_(model) {}

RunResult MetropolisSa::run(const pbit::Schedule& schedule,
                            const SaOptions& options,
                            util::Xoshiro256pp& rng) const {
  ising::Spins start(model_->n());
  for (auto& s : start) {
    s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
  }
  return run_from(std::move(start), schedule, options, rng);
}

RunResult MetropolisSa::run_from(ising::Spins start,
                                 const pbit::Schedule& schedule,
                                 const SaOptions& options,
                                 util::Xoshiro256pp& rng) const {
  RunResult result;
  result.last = std::move(start);
  result.sweeps = options.sweeps;

  const std::size_t n = model_->n();
  ising::LocalFieldState lfs(*model_, adjacency_);
  lfs.reset(result.last);
  result.best = result.last;
  result.best_energy = lfs.energy();

  for (std::size_t t = 0; t < options.sweeps; ++t) {
    const double beta = schedule.beta(t, options.sweeps);
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = lfs.flip_delta(result.last, i);
      // Tiered acceptance: bit-identical to u < std::exp(-beta*delta) but
      // ~all visits decide from u's exponent / the exp bounds without a
      // libm call (the bit-sliced engine's test, scalar lane). The
      // short-circuit keeps the RNG stream unchanged: a draw happens only
      // when delta > 0.
      if (delta <= 0.0 ||
          util::exp_accept(rng.uniform01(), -beta * delta)) {
        lfs.flip(result.last, i, delta);
      }
    }
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

MetropolisSaBackend::MetropolisSaBackend(pbit::Schedule schedule,
                                         std::size_t sweeps, bool track_best)
    : schedule_(schedule) {
  options_.sweeps = sweeps;
  options_.track_best = track_best;
}

void MetropolisSaBackend::bind(const ising::IsingModel& model) {
  sa_ = std::make_unique<MetropolisSa>(model);
  model_n_ = model.n();
}

RunResult MetropolisSaBackend::run(util::Xoshiro256pp& rng) {
  if (!sa_) {
    throw std::logic_error("MetropolisSaBackend::run called before bind()");
  }
  const std::vector<ising::Spins> seeds = take_initial_states();
  if (!seeds.empty() && seeds.front().size() == model_n_) {
    return sa_->run_from(seeds.front(), schedule_, options_, rng);
  }
  return sa_->run(schedule_, options_, rng);
}

ising::SliceOptions MetropolisSaBackend::slice_options(
    std::span<const double> betas) const noexcept {
  ising::SliceOptions so;
  so.dynamics = ising::SliceDynamics::kMetropolis;
  so.betas = betas;
  so.track_best = options_.track_best;
  // The scalar Metropolis loop has no mid-run stop checks; the engine's
  // between-sweep polls are a strict improvement (completed batches are
  // still bit-identical — stops only ever truncate).
  so.stop = &stop_token();
  so.threads = batch_threads();
  return so;
}

std::vector<RunResult> MetropolisSaBackend::run_batch(
    util::Xoshiro256pp& rng, std::size_t replicas) {
  if (!sa_) {
    throw std::logic_error(
        "MetropolisSaBackend::run_batch called before bind()");
  }
  if (replicas >= kBitsliceMinReplicas) {
    // Bit-sliced path: same derive_seed(base, r) streams, word-parallel
    // sweeps. Base draw / entry stop check mirror run_replicas_parallel.
    const std::vector<ising::Spins> seeds = take_initial_states();
    const std::uint64_t base = rng();
    if (stop_token().stop_requested()) return {};
    SlicePlan plan = make_slice_plan(sa_->model(), base, replicas, seeds);
    const std::vector<double> betas =
        make_beta_table(schedule_, options_.sweeps);
    auto split =
        run_slice_plans(sa_->adjacency(), {&plan, 1}, slice_options(betas));
    return std::move(split.front());
  }
  // Replica r warm-starts from seeds[r]; the rest cold-start.
  const std::vector<ising::Spins> seeds = take_initial_states();
  return run_replicas_parallel(
      [this, &seeds](util::Xoshiro256pp& replica_rng, std::size_t r) {
        if (r < seeds.size() && seeds[r].size() == model_n_) {
          return sa_->run_from(seeds[r], schedule_, options_, replica_rng);
        }
        return sa_->run(schedule_, options_, replica_rng);
      },
      rng, replicas, batch_threads(), stop_token());
}

bool MetropolisSaBackend::supports_fused_batch() const noexcept {
  return sa_ != nullptr;
}

void MetropolisSaBackend::enqueue_fused(util::Xoshiro256pp& rng,
                                        std::size_t replicas) {
  if (!sa_) {
    throw std::logic_error(
        "MetropolisSaBackend::enqueue_fused called before bind()");
  }
  const std::vector<ising::Spins> seeds = take_initial_states();
  const std::uint64_t base = rng();
  fused_plans_.push_back(make_slice_plan(sa_->model(), base, replicas, seeds));
}

std::vector<std::vector<RunResult>> MetropolisSaBackend::run_fused() {
  std::vector<SlicePlan> plans = std::exchange(fused_plans_, {});
  if (stop_token().stop_requested()) {
    return std::vector<std::vector<RunResult>>(plans.size());
  }
  const std::vector<double> betas =
      make_beta_table(schedule_, options_.sweeps);
  return run_slice_plans(sa_->adjacency(), plans, slice_options(betas));
}

}  // namespace saim::anneal
