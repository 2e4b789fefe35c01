#include "ising/local_field.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "ising/adjacency.hpp"
#include "ising/ising_model.hpp"
#include "util/rng.hpp"

namespace saim::ising {
namespace {

/// Random model with double-valued couplings (general-precision case).
IsingModel random_model(std::size_t n, double density, std::uint64_t seed) {
  IsingModel model(n);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < density) {
        model.add_coupling(i, j, rng.uniform_sym());
      }
    }
    model.add_field(i, rng.uniform_sym());
  }
  return model;
}

Spins random_spins(std::size_t n, util::Xoshiro256pp& rng) {
  Spins m(n);
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  return m;
}

TEST(LocalFieldState, ResetMatchesDenseInputs) {
  const auto model = random_model(24, 0.4, 1);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(2);
  const Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(lfs.field(m, i), model.input(m, i), 1e-12);
  }
  EXPECT_NEAR(lfs.energy(), model.energy(m), 1e-12);
}

TEST(LocalFieldState, StaysInSyncThroughManyFlips) {
  const auto model = random_model(32, 0.3, 3);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(4);
  Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  for (int step = 0; step < 500; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(model.n()));
    const double expected_delta = model.flip_delta(m, i);
    EXPECT_NEAR(lfs.flip_delta(m, i), expected_delta, 1e-9);
    const double delta = lfs.flip(m, i);
    EXPECT_NEAR(delta, expected_delta, 1e-9);
  }
  // After 500 incremental updates the engine still agrees with the dense
  // recompute to tight tolerance.
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(lfs.field(m, i), model.input(m, i), 1e-9);
  }
  EXPECT_NEAR(lfs.energy(), model.energy(m), 1e-9);
}

TEST(LocalFieldState, PenaltyBlockStaysInSyncThroughManyFlips) {
  // The row activities S_r ride along with every flip; the factored input
  // must keep matching the from-scratch IsingModel::input and energy.
  auto model = random_model(28, 0.2, 11);
  util::Xoshiro256pp rng(12);
  model.set_penalty(1.37);
  for (int r = 0; r < 4; ++r) {
    std::vector<std::pair<std::uint32_t, double>> row;
    for (std::uint32_t i = 0; i < model.n(); ++i) {
      if (rng.bernoulli(0.4)) row.emplace_back(i, 2.0 * rng.uniform_sym());
    }
    model.add_penalty_row(row);
  }
  const Adjacency adj(model);
  ASSERT_EQ(adj.penalty_rows(), 4u);
  Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  EXPECT_NEAR(lfs.energy(), model.energy(m), 1e-12);
  for (int step = 0; step < 500; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(model.n()));
    const double expected_delta = model.flip_delta(m, i);
    EXPECT_NEAR(lfs.flip(m, i), expected_delta, 1e-9);
  }
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(lfs.field(m, i), model.input(m, i), 1e-9);
  }
  EXPECT_NEAR(lfs.energy(), model.energy(m), 1e-9);
}

TEST(LocalFieldState, ReadsFieldUpdatesLive) {
  // SAIM's lambda updates rewrite h between runs; the engine must see the
  // new fields without a reset.
  auto model = random_model(10, 0.5, 5);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(6);
  const Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  const double before = lfs.field(m, 3);
  model.set_field(3, model.field(3) + 2.5);
  EXPECT_NEAR(lfs.field(m, 3), before + 2.5, 1e-12);
}

TEST(LocalFieldState, SwapExchangesConfigurations) {
  const auto model = random_model(16, 0.5, 7);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(8);
  Spins a = random_spins(model.n(), rng);
  Spins b = random_spins(model.n(), rng);

  LocalFieldState fa(model, adj);
  LocalFieldState fb(model, adj);
  fa.reset(a);
  fb.reset(b);
  const double ea = fa.energy();
  const double eb = fb.energy();

  swap(fa, fb);
  EXPECT_DOUBLE_EQ(fa.energy(), eb);
  EXPECT_DOUBLE_EQ(fb.energy(), ea);
  for (std::size_t i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(fa.field(b, i), model.input(b, i), 1e-12);
    EXPECT_NEAR(fb.field(a, i), model.input(a, i), 1e-12);
  }
}

TEST(LocalFieldState, FlipIsAnInvolutionOnEnergy) {
  const auto model = random_model(20, 0.4, 9);
  const Adjacency adj(model);
  util::Xoshiro256pp rng(10);
  Spins m = random_spins(model.n(), rng);

  LocalFieldState lfs(model, adj);
  lfs.reset(m);
  const double e0 = lfs.energy();
  const double d1 = lfs.flip(m, 5);
  const double d2 = lfs.flip(m, 5);
  EXPECT_NEAR(d1, -d2, 1e-12);
  EXPECT_NEAR(lfs.energy(), e0, 1e-12);
}

}  // namespace
}  // namespace saim::ising
