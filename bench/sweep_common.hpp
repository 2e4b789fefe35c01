// Shared fixtures and measurement helpers for the sweep-throughput
// benchmarks. Used by both bench/micro_ops.cpp (google-benchmark
// micro benchmarks) and bench/sweep_rates.cpp (the standalone
// BENCH_sweep.json writer, deliberately free of the google-benchmark
// dependency so CI can always build and run it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/simulated_annealing.hpp"
#include "anneal/slice_driver.hpp"
#include "ising/adjacency.hpp"
#include "ising/bitslice.hpp"
#include "ising/ising_model.hpp"
#include "ising/local_field.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "pbit/schedule.hpp"
#include "problems/qkp.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace saim::benchfix {

/// Keeps a value (and everything reachable from it) alive past the
/// optimizer, like benchmark::DoNotOptimize but dependency-free.
template <typename T>
inline void keep(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

inline problems::QkpInstance bench_instance(std::size_t n, int density) {
  return problems::make_paper_qkp(n, density, 1);
}

// Both sweep variants run identical Metropolis dynamics; the only
// difference is how the local field I_i is obtained: computed from
// scratch per visit (a CSR scan of J plus the penalty share with every
// row activity S_r re-summed from its row — the pre-LocalFieldState code
// path) vs a read of the incrementally maintained engine. The gap is
// largest at late-anneal betas where hardly anything flips, which is
// where SAIM spends most of its MCS budget.

/// I_i from scratch: J_f's CSR row, h_i, and -(P/2) sum_{r∋i} a_ri
/// (S_r - a_ri m_i) with each S_r summed afresh from its row.
inline double recompute_input(const ising::IsingModel& model,
                              const ising::Adjacency& adj,
                              const ising::Spins& m, std::size_t i) {
  const double base = adj.coupling_input(m, i) + model.field(i);
  if (adj.penalty_rows() == 0) return base;
  const auto mi = static_cast<double>(m[i]);
  double acc = 0.0;
  for (const ising::ColumnEntry& e : adj.column(i)) {
    acc += e.coef * (model.activity(m, e.row) - e.coef * mi);
  }
  return base + adj.neg_half_penalty() * acc;
}

inline void recompute_sweep(const ising::IsingModel& model,
                            const ising::Adjacency& adj, ising::Spins& m,
                            double beta, util::Xoshiro256pp& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double in = recompute_input(model, adj, m, i);
    const double delta = 2.0 * static_cast<double>(m[i]) * in;
    if (delta <= 0.0 || rng.uniform01() < std::exp(-beta * delta)) {
      m[i] = static_cast<std::int8_t>(-m[i]);
    }
  }
}

inline void incremental_sweep(ising::LocalFieldState& lfs, ising::Spins& m,
                              double beta, util::Xoshiro256pp& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double delta = lfs.flip_delta(m, i);
    if (delta <= 0.0 || rng.uniform01() < std::exp(-beta * delta)) {
      lfs.flip(m, i, delta);
    }
  }
}

struct SweepRates {
  double recompute_sweeps_per_sec = 0.0;
  double incremental_sweeps_per_sec = 0.0;
  [[nodiscard]] double speedup() const {
    return incremental_sweeps_per_sec / recompute_sweeps_per_sec;
  }
};

/// Best-of-N wall-clock rate: the box running CI is shared, so a single
/// timed block can absorb another tenant's burst; the fastest repeat is
/// the least-contended estimate.
template <typename Fn>
inline double best_rate(std::size_t repeats, Fn&& timed_run) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    best = std::max(best, timed_run());
  }
  return best;
}

inline constexpr std::size_t kBenchRepeats = 3;

inline SweepRates measure_sweep_rates(const ising::IsingModel& model,
                                      const ising::Adjacency& adj,
                                      double beta, std::size_t burn_in,
                                      std::size_t timed) {
  // Equilibrate at the target beta so both variants see realistic flip
  // rates, then time each from the same configuration.
  util::Xoshiro256pp rng(42);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  ising::LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (std::size_t t = 0; t < burn_in; ++t) {
    incremental_sweep(lfs, m, beta, rng);
  }

  SweepRates rates;
  rates.recompute_sweeps_per_sec = best_rate(kBenchRepeats, [&] {
    ising::Spins state = m;
    util::Xoshiro256pp sweep_rng(7);
    util::WallTimer timer;
    for (std::size_t t = 0; t < timed; ++t) {
      recompute_sweep(model, adj, state, beta, sweep_rng);
    }
    const double rate = static_cast<double>(timed) / timer.seconds();
    keep(state.data());
    return rate;
  });
  rates.incremental_sweeps_per_sec = best_rate(kBenchRepeats, [&] {
    ising::Spins state = m;
    ising::LocalFieldState timed_lfs(model, adj);
    timed_lfs.reset(state);
    util::Xoshiro256pp sweep_rng(7);
    util::WallTimer timer;
    for (std::size_t t = 0; t < timed; ++t) {
      incremental_sweep(timed_lfs, state, beta, sweep_rng);
    }
    const double rate = static_cast<double>(timed) / timer.seconds();
    keep(state.data());
    return rate;
  });
  return rates;
}

// Aggregate per-replica sweep rate of the bit-sliced engine: `replicas`
// lanes advance together, so the per-replica rate is replicas * sweeps /
// wall time. Lanes start from the same equilibrated configuration (their
// trajectories diverge immediately through per-lane RNG streams), matching
// the flip-rate regime the scalar measurement sees. replicas == 1 times
// the SIMD-vectorized sweep kernels without any word-level parallelism.
inline double measure_bitsliced_rate(const ising::IsingModel& model,
                                     const ising::Adjacency& adj,
                                     double beta, std::size_t burn_in,
                                     std::size_t timed,
                                     std::size_t replicas) {
  util::Xoshiro256pp rng(42);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  ising::LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (std::size_t t = 0; t < burn_in; ++t) {
    incremental_sweep(lfs, m, beta, rng);
  }

  std::vector<ising::SliceLane> lanes(replicas);
  const double energy = model.energy(m);
  for (std::size_t r = 0; r < replicas; ++r) {
    lanes[r].spins = m;
    lanes[r].energy = energy;
    lanes[r].fields = model.fields().data();
    lanes[r].rng = util::Xoshiro256pp(util::derive_seed(7, r)).state();
  }
  const std::vector<double> betas(timed, beta);
  ising::SliceOptions so;
  so.dynamics = ising::SliceDynamics::kMetropolis;
  so.betas = betas;
  so.track_best = false;

  const ising::BitSliceEngine engine(adj);
  return best_rate(kBenchRepeats, [&] {
    util::WallTimer timer;
    auto results = engine.run(lanes, so);
    const double rate =
        static_cast<double>(replicas * timed) / timer.seconds();
    keep(results.data());
    return rate;
  });
}

// Production-engine aggregate: MetropolisSa::run_from (the scalar
// incremental engine, best-tracking on) vs the bit-sliced engine running
// the same replicas word-parallel — both over the paper's linear anneal
// ramp, both through the run_batch seeding contract
// (Xoshiro256pp(derive_seed(base, r)) per replica). This is the number
// the run_batch dispatch at >= kBitsliceMinReplicas actually buys.
struct AggregateRates {
  double scalar_replica_sweeps_per_sec = 0.0;
  double bitsliced_replica_sweeps_per_sec = 0.0;
  [[nodiscard]] double speedup() const {
    return bitsliced_replica_sweeps_per_sec / scalar_replica_sweeps_per_sec;
  }
};

inline AggregateRates measure_anneal_aggregate(
    const ising::IsingModel& model, const ising::Adjacency& adj,
    double beta_end, std::size_t sweeps, std::size_t replicas) {
  const pbit::Schedule schedule = pbit::Schedule::linear(beta_end);
  const std::uint64_t base = 99;

  anneal::SaOptions sa_opts;
  sa_opts.sweeps = sweeps;
  sa_opts.track_best = true;
  const anneal::MetropolisSa sa(model);
  // One full scalar replica per repeat is enough to estimate the
  // per-replica rate; running all 64 scalar replicas would just burn CI
  // minutes re-measuring the same loop.
  AggregateRates rates;
  rates.scalar_replica_sweeps_per_sec = best_rate(kBenchRepeats, [&] {
    util::Xoshiro256pp replica_rng(util::derive_seed(base, 0));
    ising::Spins start(model.n());
    for (auto& s : start) s = replica_rng.bernoulli(0.5) ? 1 : -1;
    util::WallTimer timer;
    auto result = sa.run_from(std::move(start), schedule, sa_opts,
                              replica_rng);
    const double rate = static_cast<double>(sweeps) / timer.seconds();
    keep(result.best_energy);
    return rate;
  });

  const std::vector<double> betas = anneal::make_beta_table(schedule, sweeps);
  ising::SliceOptions so;
  so.dynamics = ising::SliceDynamics::kMetropolis;
  so.betas = betas;
  so.track_best = true;
  rates.bitsliced_replica_sweeps_per_sec = best_rate(kBenchRepeats, [&] {
    anneal::SlicePlan plan =
        anneal::make_slice_plan(model, base, replicas, {});
    util::WallTimer timer;
    auto results = anneal::run_slice_plans(adj, {&plan, 1}, so);
    const double rate =
        static_cast<double>(replicas * sweeps) / timer.seconds();
    keep(results.front().data());
    return rate;
  });
  return rates;
}

/// Fraction of spin visits that flip over one scalar Metropolis anneal
/// (MetropolisSa's dynamics on the paper's linear ramp) — the rate every
/// flip-apply cost is multiplied by.
inline double measure_flips_per_visit(const ising::IsingModel& model,
                                      const ising::Adjacency& adj,
                                      double beta_end, std::size_t sweeps) {
  const pbit::Schedule schedule = pbit::Schedule::linear(beta_end);
  util::Xoshiro256pp rng(util::derive_seed(99, 0));
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  ising::LocalFieldState lfs(model, adj);
  lfs.reset(m);
  std::size_t flips = 0;
  for (std::size_t t = 0; t < sweeps; ++t) {
    const double beta = schedule.beta(t, sweeps);
    for (std::size_t i = 0; i < m.size(); ++i) {
      const double delta = lfs.flip_delta(m, i);
      if (delta <= 0.0 || rng.uniform01() < std::exp(-beta * delta)) {
        lfs.flip(m, i, delta);
        ++flips;
      }
    }
  }
  return static_cast<double>(flips) /
         static_cast<double>(sweeps * model.n());
}

// Sparse ±1 spin glass, ~deg-6, with half-integer fields so no spin ever
// sees an exactly-zero local field (no delta == 0 plateau oscillation).
// Dense objective couplings (QKP) keep the bit-sliced engine memory-bound
// in apply-flips; sparse couplings are where the word-level parallelism
// pays in full, and they are the standard Ising-machine sweep benchmark.
inline ising::IsingModel sparse_glass(std::size_t n, std::uint64_t seed) {
  ising::IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    // Ring edge + two random chords: average degree ~6.
    model.add_coupling(i, (i + 1) % n, rng.bernoulli(0.5) ? 1.0 : -1.0);
    for (int c = 0; c < 2; ++c) {
      const std::size_t j = rng.below(n);
      if (j != i) {
        model.add_coupling(i, j, rng.bernoulli(0.5) ? 1.0 : -1.0);
      }
    }
    model.add_field(i, rng.bernoulli(0.5) ? 0.5 : -0.5);
  }
  return model;
}

}  // namespace saim::benchfix
