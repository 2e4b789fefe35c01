// Trajectory parity between the refactored backends (incremental
// LocalFieldState engine) and the recompute-every-visit sweep loops they
// replaced. One reference implementation of each backend's dynamics is
// kept here, transcribed from the pre-refactor code: the local field
// I_i = sum_j J_ij m_j + h_i is re-summed through the CSR on every visit
// and energies are accumulated exactly as the old loops did.
//
// On a model whose couplings, fields and all partial sums are dyadic
// rationals (multiples of 1/8 with bounded magnitude) every floating-point
// operation on both paths is exact, so the engines must reproduce the
// reference trajectories BIT-FOR-BIT: same RNG draws, same accept
// decisions, same final state and energy.
//
// The same exactness pins the factored penalty block: each backend run on
// a dyadic penalty model must match the run on ising::expand_penalty of
// that model (the block folded into dense couplings) bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "anneal/parallel_tempering.hpp"
#include "anneal/simulated_annealing.hpp"
#include "anneal/sqa.hpp"
#include "anneal/tabu.hpp"
#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"
#include "pbit/pbit_machine.hpp"
#include "pbit/schedule.hpp"
#include "util/rng.hpp"

namespace saim {
namespace {

using ising::Adjacency;
using ising::IsingModel;
using ising::Spins;

/// Couplings and fields are multiples of 1/8 in [-2, 2]: every local-field
/// partial sum and energy stays an exactly-representable dyadic rational,
/// making incremental and recomputed arithmetic bit-identical.
IsingModel dyadic_model(std::size_t n, double density, std::uint64_t seed) {
  IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < density) {
        const double w = static_cast<double>(rng.range(-16, 16)) / 8.0;
        if (w != 0.0) model.add_coupling(i, j, w);
      }
    }
    model.add_field(i, static_cast<double>(rng.range(-16, 16)) / 8.0);
  }
  return model;
}

/// dyadic_model plus a penalty block: P = 3/4 and `rows` rows whose
/// coefficients are nonzero multiples of 1/2 in [-3/2, 3/2], so the
/// expanded couplings -(P/2) a_ri a_rj stay small multiples of 1/32.
IsingModel dyadic_penalty_model(std::size_t n, std::size_t rows,
                                std::uint64_t seed) {
  IsingModel model = dyadic_model(n, 0.2, seed);
  util::Xoshiro256pp rng(seed + 1000);
  model.set_penalty(0.75);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::pair<std::uint32_t, double>> terms;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(0.5)) continue;
      const auto a = static_cast<double>(rng.range(1, 3)) / 2.0;
      terms.emplace_back(static_cast<std::uint32_t>(i),
                         rng.bernoulli(0.5) ? a : -a);
    }
    model.add_penalty_row(terms);
  }
  return model;
}

template <typename Run>
void expect_same_run(const Run& factored, const Run& expanded) {
  EXPECT_EQ(factored.last, expanded.last);
  EXPECT_EQ(factored.last_energy, expanded.last_energy);
  EXPECT_EQ(factored.best, expanded.best);
  EXPECT_EQ(factored.best_energy, expanded.best_energy);
}

Spins draw_state(std::size_t n, util::Xoshiro256pp& rng) {
  Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1};
  return m;
}

/// Recompute-every-visit local field — the pattern all backends used.
double reference_input(const IsingModel& model, const Adjacency& adj,
                       const Spins& m, std::size_t i) {
  return adj.coupling_input(m, i) + model.field(i);
}

// ------------------------------------------------------------------ p-bit

struct RefAnneal {
  Spins last;
  double last_energy = 0.0;
  Spins best;
  double best_energy = 0.0;
};

RefAnneal reference_pbit(const IsingModel& model, const pbit::Schedule& sched,
                         std::size_t sweeps, bool track_best,
                         util::Xoshiro256pp& rng) {
  const Adjacency adj(model);
  RefAnneal result;
  result.last = draw_state(model.n(), rng);
  double energy = model.energy(result.last);
  if (track_best) {
    result.best = result.last;
    result.best_energy = energy;
  }
  for (std::size_t t = 0; t < sweeps; ++t) {
    const double beta = sched.beta(t, sweeps);
    double delta_energy = 0.0;
    for (std::size_t i = 0; i < model.n(); ++i) {
      const double in = reference_input(model, adj, result.last, i);
      const double activation = std::tanh(beta * in);
      const std::int8_t next =
          (activation + rng.uniform_sym()) >= 0.0 ? std::int8_t{1}
                                                  : std::int8_t{-1};
      if (next != result.last[i]) {
        delta_energy += 2.0 * static_cast<double>(result.last[i]) * in;
        result.last[i] = next;
      }
    }
    energy += delta_energy;
    if (track_best && energy < result.best_energy) {
      result.best_energy = energy;
      result.best = result.last;
    }
  }
  result.last_energy = energy;
  if (!track_best) {
    result.best = result.last;
    result.best_energy = energy;
  }
  return result;
}

TEST(LocalFieldParity, PBitMachineMatchesRecomputeReference) {
  const auto model = dyadic_model(40, 0.35, 11);
  const auto sched = pbit::Schedule::linear(4.0);

  pbit::PBitMachine machine(model);
  pbit::AnnealOptions opts;
  opts.sweeps = 120;
  opts.track_best = true;

  util::Xoshiro256pp rng_engine(99);
  const auto engine = machine.anneal(sched, opts, rng_engine);

  util::Xoshiro256pp rng_ref(99);
  const auto ref =
      reference_pbit(model, sched, opts.sweeps, opts.track_best, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(engine.best, ref.best);
  EXPECT_EQ(engine.best_energy, ref.best_energy);
  // Both consumed identical draw counts iff the streams are aligned.
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ------------------------------------------------------------- Metropolis

RefAnneal reference_metropolis(const IsingModel& model,
                               const pbit::Schedule& sched,
                               std::size_t sweeps, util::Xoshiro256pp& rng) {
  const Adjacency adj(model);
  RefAnneal result;
  result.last = draw_state(model.n(), rng);
  double energy = model.energy(result.last);
  result.best = result.last;
  result.best_energy = energy;
  for (std::size_t t = 0; t < sweeps; ++t) {
    const double beta = sched.beta(t, sweeps);
    for (std::size_t i = 0; i < model.n(); ++i) {
      const double in = reference_input(model, adj, result.last, i);
      const double delta = 2.0 * static_cast<double>(result.last[i]) * in;
      if (delta <= 0.0 || rng.uniform01() < std::exp(-beta * delta)) {
        result.last[i] = static_cast<std::int8_t>(-result.last[i]);
        energy += delta;
      }
    }
    if (energy < result.best_energy) {
      result.best_energy = energy;
      result.best = result.last;
    }
  }
  result.last_energy = energy;
  return result;
}

TEST(LocalFieldParity, MetropolisSaMatchesRecomputeReference) {
  const auto model = dyadic_model(40, 0.35, 13);
  const auto sched = pbit::Schedule::linear(3.0);

  anneal::MetropolisSa sa(model);
  anneal::SaOptions opts;
  opts.sweeps = 150;
  opts.track_best = true;

  util::Xoshiro256pp rng_engine(7);
  const auto engine = sa.run(sched, opts, rng_engine);

  util::Xoshiro256pp rng_ref(7);
  const auto ref = reference_metropolis(model, sched, opts.sweeps, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(engine.best, ref.best);
  EXPECT_EQ(engine.best_energy, ref.best_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ------------------------------------------------------ parallel tempering

RefAnneal reference_pt(const IsingModel& model,
                       const anneal::PtOptions& options,
                       util::Xoshiro256pp& rng) {
  const Adjacency adj(model);
  const std::size_t r = options.replicas;

  std::vector<double> betas(r);
  const double ratio = options.beta_max / options.beta_min;
  for (std::size_t k = 0; k < r; ++k) {
    betas[k] = options.beta_min *
               std::pow(ratio, static_cast<double>(k) /
                                   static_cast<double>(r - 1));
  }

  std::vector<Spins> states(r);
  std::vector<double> energies(r);
  for (std::size_t k = 0; k < r; ++k) {
    states[k] = draw_state(model.n(), rng);
    energies[k] = model.energy(states[k]);
  }

  RefAnneal result;
  std::size_t best_replica = 0;
  for (std::size_t k = 1; k < r; ++k) {
    if (energies[k] < energies[best_replica]) best_replica = k;
  }
  result.best = states[best_replica];
  result.best_energy = energies[best_replica];

  for (std::size_t t = 0; t < options.sweeps; ++t) {
    for (std::size_t k = 0; k < r; ++k) {
      for (std::size_t i = 0; i < model.n(); ++i) {
        const double in = reference_input(model, adj, states[k], i);
        const double delta = 2.0 * static_cast<double>(states[k][i]) * in;
        if (delta <= 0.0 ||
            rng.uniform01() < std::exp(-betas[k] * delta)) {
          states[k][i] = static_cast<std::int8_t>(-states[k][i]);
          energies[k] += delta;
        }
      }
      if (energies[k] < result.best_energy) {
        result.best_energy = energies[k];
        result.best = states[k];
      }
    }
    if ((t + 1) % options.swap_interval == 0) {
      const std::size_t parity = (t / options.swap_interval) % 2;
      for (std::size_t k = parity; k + 1 < r; k += 2) {
        const double arg =
            (betas[k] - betas[k + 1]) * (energies[k] - energies[k + 1]);
        if (arg >= 0.0 || rng.uniform01() < std::exp(arg)) {
          std::swap(states[k], states[k + 1]);
          std::swap(energies[k], energies[k + 1]);
        }
      }
    }
  }
  result.last = states[r - 1];
  result.last_energy = energies[r - 1];
  return result;
}

TEST(LocalFieldParity, ParallelTemperingMatchesRecomputeReference) {
  const auto model = dyadic_model(32, 0.35, 17);
  anneal::PtOptions opts;
  opts.replicas = 6;
  opts.beta_min = 0.2;
  opts.beta_max = 4.0;
  opts.sweeps = 80;
  opts.swap_interval = 5;

  anneal::ParallelTempering pt(model, opts);
  util::Xoshiro256pp rng_engine(21);
  const auto engine = pt.run(rng_engine);

  util::Xoshiro256pp rng_ref(21);
  const auto ref = reference_pt(model, opts, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(engine.best, ref.best);
  EXPECT_EQ(engine.best_energy, ref.best_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ---------------------------------------------------------------------- SQA

RefAnneal reference_sqa(const IsingModel& model,
                        const anneal::SqaOptions& options,
                        util::Xoshiro256pp& rng) {
  const Adjacency adj(model);
  const std::size_t n = model.n();
  const std::size_t slices = options.trotter_slices;
  const auto m_d = static_cast<double>(slices);

  std::vector<Spins> state(slices);
  std::vector<double> classical_energy(slices);
  for (std::size_t k = 0; k < slices; ++k) {
    state[k] = draw_state(n, rng);
    classical_energy[k] = model.energy(state[k]);
  }

  RefAnneal result;
  std::size_t best_k = 0;
  for (std::size_t k = 1; k < slices; ++k) {
    if (classical_energy[k] < classical_energy[best_k]) best_k = k;
  }
  result.best = state[best_k];
  result.best_energy = classical_energy[best_k];

  const double ratio = options.gamma_end / options.gamma_start;
  for (std::size_t t = 0; t < options.sweeps; ++t) {
    const double frac =
        options.sweeps > 1 ? static_cast<double>(t) /
                                 static_cast<double>(options.sweeps - 1)
                           : 1.0;
    const double gamma = options.gamma_start * std::pow(ratio, frac);
    const double jt = std::tanh(options.beta * gamma / m_d);
    const double jperp = -0.5 / options.beta * std::log(jt);

    for (std::size_t k = 0; k < slices; ++k) {
      const std::size_t up = (k + 1) % slices;
      const std::size_t down = (k + slices - 1) % slices;
      for (std::size_t i = 0; i < n; ++i) {
        const double classical_in =
            reference_input(model, adj, state[k], i);
        const double classical_delta =
            2.0 * static_cast<double>(state[k][i]) * classical_in / m_d;
        const double quantum_delta =
            2.0 * jperp * static_cast<double>(state[k][i]) *
            (static_cast<double>(state[up][i]) +
             static_cast<double>(state[down][i]));
        const double delta = classical_delta + quantum_delta;
        if (delta <= 0.0 ||
            rng.uniform01() < std::exp(-options.beta * delta)) {
          classical_energy[k] +=
              2.0 * static_cast<double>(state[k][i]) * classical_in;
          state[k][i] = static_cast<std::int8_t>(-state[k][i]);
          if (classical_energy[k] < result.best_energy) {
            result.best_energy = classical_energy[k];
            result.best = state[k];
          }
        }
      }
    }
  }

  best_k = 0;
  for (std::size_t k = 1; k < slices; ++k) {
    if (classical_energy[k] < classical_energy[best_k]) best_k = k;
  }
  result.last = state[best_k];
  result.last_energy = classical_energy[best_k];
  return result;
}

TEST(LocalFieldParity, SqaMatchesRecomputeReference) {
  const auto model = dyadic_model(28, 0.35, 19);
  anneal::SqaOptions opts;
  opts.trotter_slices = 6;
  opts.beta = 4.0;
  opts.gamma_start = 2.0;
  opts.gamma_end = 0.05;
  opts.sweeps = 60;

  anneal::SimulatedQuantumAnnealer sqa(model, opts);
  util::Xoshiro256pp rng_engine(33);
  const auto engine = sqa.run(rng_engine);

  util::Xoshiro256pp rng_ref(33);
  const auto ref = reference_sqa(model, opts, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(engine.best, ref.best);
  EXPECT_EQ(engine.best_energy, ref.best_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// --------------------------------------------------------------------- tabu

RefAnneal reference_tabu(const IsingModel& model,
                         const anneal::TabuOptions& options,
                         util::Xoshiro256pp& rng) {
  const Adjacency adj(model);
  const std::size_t n = model.n();
  RefAnneal result;

  Spins state = draw_state(n, rng);
  double energy = model.energy(state);
  result.best = state;
  result.best_energy = energy;

  std::vector<double> delta(n);
  auto recompute_deltas = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      delta[i] = model.flip_delta(state, i);
    }
  };
  recompute_deltas();

  std::vector<std::size_t> tabu_until(n, 0);
  std::size_t stall = 0;

  for (std::size_t step = 1; step <= options.steps; ++step) {
    std::size_t best_move = n;
    double best_delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const bool is_tabu = tabu_until[i] >= step;
      const bool aspirated =
          is_tabu && energy + delta[i] < result.best_energy;
      if (is_tabu && !aspirated) continue;
      if (delta[i] < best_delta) {
        best_delta = delta[i];
        best_move = i;
      }
    }
    if (best_move == n) continue;

    const std::size_t j = best_move;
    energy += delta[j];
    state[j] = static_cast<std::int8_t>(-state[j]);
    tabu_until[j] = step + options.tenure;
    delta[j] = -delta[j];
    const auto nbr = adj.neighbors(j);
    const auto w = adj.weights(j);
    for (std::size_t k = 0; k < nbr.size(); ++k) {
      const std::size_t i = nbr[k];
      delta[i] += 4.0 * static_cast<double>(state[i]) * w[k] *
                  static_cast<double>(state[j]);
    }

    if (energy < result.best_energy - 1e-15) {
      result.best_energy = energy;
      result.best = state;
      stall = 0;
    } else if (options.stall_limit != 0 && ++stall >= options.stall_limit) {
      state = draw_state(n, rng);
      energy = model.energy(state);
      recompute_deltas();
      std::fill(tabu_until.begin(), tabu_until.end(), 0);
      stall = 0;
    }
  }

  result.last = state;
  result.last_energy = energy;
  return result;
}

TEST(LocalFieldParity, TabuMatchesRecomputeReference) {
  const auto model = dyadic_model(36, 0.35, 23);
  anneal::TabuOptions opts;
  opts.steps = 400;
  opts.tenure = 7;
  opts.stall_limit = 60;

  anneal::TabuSearch tabu(model, opts);
  util::Xoshiro256pp rng_engine(55);
  const auto engine = tabu.run(rng_engine);

  util::Xoshiro256pp rng_ref(55);
  const auto ref = reference_tabu(model, opts, rng_ref);

  EXPECT_EQ(engine.last, ref.last);
  EXPECT_EQ(engine.last_energy, ref.last_energy);
  EXPECT_EQ(engine.best, ref.best);
  EXPECT_EQ(engine.best_energy, ref.best_energy);
  EXPECT_EQ(rng_engine(), rng_ref());
}

// ------------------------------------- factored penalty vs expanded form

TEST(LocalFieldParity, PBitFactoredPenaltyMatchesExpanded) {
  const auto model = dyadic_penalty_model(30, 4, 41);
  const auto flat = ising::expand_penalty(model);
  ASSERT_GT(flat.nnz(), model.nnz());
  const auto sched = pbit::Schedule::linear(2.0);
  pbit::AnnealOptions opts;
  opts.sweeps = 100;
  opts.track_best = true;

  util::Xoshiro256pp rng_f(5);
  util::Xoshiro256pp rng_e(5);
  const auto factored = pbit::PBitMachine(model).anneal(sched, opts, rng_f);
  const auto expanded = pbit::PBitMachine(flat).anneal(sched, opts, rng_e);
  expect_same_run(factored, expanded);
  EXPECT_EQ(rng_f(), rng_e());
}

TEST(LocalFieldParity, MetropolisSaFactoredPenaltyMatchesExpanded) {
  const auto model = dyadic_penalty_model(30, 5, 43);
  const auto flat = ising::expand_penalty(model);
  const auto sched = pbit::Schedule::linear(2.0);
  anneal::SaOptions opts;
  opts.sweeps = 120;
  opts.track_best = true;

  util::Xoshiro256pp rng_f(6);
  util::Xoshiro256pp rng_e(6);
  const auto factored = anneal::MetropolisSa(model).run(sched, opts, rng_f);
  const auto expanded = anneal::MetropolisSa(flat).run(sched, opts, rng_e);
  expect_same_run(factored, expanded);
  EXPECT_EQ(rng_f(), rng_e());
}

TEST(LocalFieldParity, ParallelTemperingFactoredPenaltyMatchesExpanded) {
  const auto model = dyadic_penalty_model(26, 3, 47);
  const auto flat = ising::expand_penalty(model);
  anneal::PtOptions opts;
  opts.replicas = 5;
  opts.beta_min = 0.1;
  opts.beta_max = 2.0;
  opts.sweeps = 60;
  opts.swap_interval = 4;

  util::Xoshiro256pp rng_f(8);
  util::Xoshiro256pp rng_e(8);
  const auto factored = anneal::ParallelTempering(model, opts).run(rng_f);
  const auto expanded = anneal::ParallelTempering(flat, opts).run(rng_e);
  expect_same_run(factored, expanded);
  EXPECT_EQ(rng_f(), rng_e());
}

TEST(LocalFieldParity, SqaFactoredPenaltyMatchesExpanded) {
  const auto model = dyadic_penalty_model(24, 2, 53);
  const auto flat = ising::expand_penalty(model);
  anneal::SqaOptions opts;
  opts.trotter_slices = 4;
  opts.beta = 2.0;
  opts.gamma_start = 2.0;
  opts.gamma_end = 0.05;
  opts.sweeps = 50;

  util::Xoshiro256pp rng_f(9);
  util::Xoshiro256pp rng_e(9);
  const auto factored =
      anneal::SimulatedQuantumAnnealer(model, opts).run(rng_f);
  const auto expanded =
      anneal::SimulatedQuantumAnnealer(flat, opts).run(rng_e);
  expect_same_run(factored, expanded);
  EXPECT_EQ(rng_f(), rng_e());
}

TEST(LocalFieldParity, TabuFactoredPenaltyMatchesExpanded) {
  const auto model = dyadic_penalty_model(30, 5, 59);
  const auto flat = ising::expand_penalty(model);
  anneal::TabuOptions opts;
  opts.steps = 400;
  opts.tenure = 7;
  opts.stall_limit = 60;

  util::Xoshiro256pp rng_f(10);
  util::Xoshiro256pp rng_e(10);
  const auto factored = anneal::TabuSearch(model, opts).run(rng_f);
  const auto expanded = anneal::TabuSearch(flat, opts).run(rng_e);
  expect_same_run(factored, expanded);
  EXPECT_EQ(rng_f(), rng_e());
}

}  // namespace
}  // namespace saim
