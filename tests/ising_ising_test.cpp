#include "ising/ising_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <tuple>
#include <vector>

#include "coupling_orders.hpp"
#include "util/rng.hpp"

namespace saim::ising {
namespace {

TEST(IsingModel, TwoSpinFerromagnet) {
  // H = -J m0 m1 with J=1: aligned states have energy -1.
  IsingModel ising(2);
  ising.add_coupling(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1, 1}), -1.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{-1, -1}), -1.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1, -1}), 1.0);
}

TEST(IsingModel, FieldTerm) {
  IsingModel ising(1);
  ising.add_field(0, 2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1}), -2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{-1}), 2.0);
}

TEST(IsingModel, OffsetShiftsEnergy) {
  IsingModel ising(1);
  ising.add_offset(3.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1}), 3.0);
}

TEST(IsingModel, DiagonalCouplingIsConstant) {
  // m_i^2 == 1, so -J_ii m_i m_i = -J_ii for every state.
  IsingModel ising(2);
  ising.add_coupling(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{1, 1}), -2.0);
  EXPECT_DOUBLE_EQ(ising.energy(Spins{-1, 1}), -2.0);
}

TEST(IsingModel, CouplingSymmetricAccumulation) {
  IsingModel ising(3);
  ising.add_coupling(0, 2, 1.0);
  ising.add_coupling(2, 0, 0.5);
  EXPECT_DOUBLE_EQ(ising.coupling(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(ising.coupling(2, 0), 1.5);
}

TEST(IsingModel, InputMatchesEquationNine) {
  // I_i = sum_j J_ij m_j + h_i.
  IsingModel ising(3);
  ising.add_coupling(0, 1, 2.0);
  ising.add_coupling(0, 2, -1.0);
  ising.add_field(0, 0.5);
  const Spins m = {1, 1, -1};
  EXPECT_DOUBLE_EQ(ising.input(m, 0), 2.0 * 1 + (-1.0) * (-1) + 0.5);
}

TEST(IsingModel, SetFieldOverwrites) {
  IsingModel ising(2);
  ising.add_field(0, 1.0);
  ising.set_field(0, -4.0);
  EXPECT_DOUBLE_EQ(ising.field(0), -4.0);
}

TEST(IsingModel, OutOfRangeThrows) {
  IsingModel ising(2);
  EXPECT_THROW(ising.add_coupling(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(ising.add_field(5, 1.0), std::out_of_range);
  EXPECT_THROW((void)ising.field(2), std::out_of_range);
  EXPECT_THROW((void)ising.coupling(0, 3), std::out_of_range);
}

TEST(IsingModel, NnzCountsUpperTriangle) {
  IsingModel ising(4);
  ising.add_coupling(0, 1, 1.0);
  ising.add_coupling(1, 3, 1.0);
  EXPECT_EQ(ising.nnz(), 2u);
}

// Property sweep: dH of a flip equals 2 m_i I_i and matches recomputation,
// and the couplings added out of order (reversed or shuffled, each value
// as two halves, plus a pair that cancels to 0) give the lexicographic
// build's walk, nnz and bit-identical energies and flip deltas.
class IsingFlipDelta : public ::testing::TestWithParam<std::uint64_t> {};

IsingModel random_ising(std::uint64_t seed, BuildOrder order) {
  util::Xoshiro256pp rng(seed);
  const std::size_t n = 2 + rng.below(14);
  IsingModel ising(n);
  std::vector<PairTerm> lex;
  for (std::size_t i = 0; i < n; ++i) {
    ising.add_field(i, rng.uniform_sym() * 3.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      // The last pair stays out: the out-of-order builds cancel it.
      if (rng.bernoulli(0.5) && !(i == n - 2 && j == n - 1)) {
        lex.push_back({i, j, rng.uniform_sym() * 3.0});
      }
    }
  }
  for (const auto& t : in_order(lex, n, order, seed)) {
    ising.add_coupling(t.i, t.j, t.v);
  }
  return ising;
}

std::vector<std::tuple<std::size_t, std::size_t, double>> walk(
    const IsingModel& ising) {
  std::vector<std::tuple<std::size_t, std::size_t, double>> out;
  ising.for_each_coupling([&](std::size_t i, std::size_t j, double v) {
    out.emplace_back(i, j, v);
  });
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST_P(IsingFlipDelta, MatchesFullRecomputation) {
  const std::uint64_t seed = GetParam();
  const IsingModel ref = random_ising(seed, BuildOrder::kLexicographic);
  for (const auto order : {BuildOrder::kLexicographic, BuildOrder::kReversed,
                           BuildOrder::kShuffled}) {
    SCOPED_TRACE(order);
    const IsingModel ising = random_ising(seed, order);
    const std::size_t n = ising.n();
    EXPECT_EQ(walk(ising), walk(ref));
    EXPECT_EQ(ising.nnz(), ref.nnz());

    util::Xoshiro256pp rng(seed + 1000);
    Spins m(n);
    for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;

    for (std::size_t i = 0; i < n; ++i) {
      const double base = ising.energy(m);
      const double predicted = ising.flip_delta(m, i);
      EXPECT_EQ(bits(base), bits(ref.energy(m)));
      EXPECT_EQ(bits(predicted), bits(ref.flip_delta(m, i)));
      Spins w = m;
      w[i] = static_cast<std::int8_t>(-w[i]);
      EXPECT_NEAR(ising.energy(w) - base, predicted, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, IsingFlipDelta,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace saim::ising
