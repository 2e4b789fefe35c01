#include "ising/qubo_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <tuple>
#include <vector>

#include "coupling_orders.hpp"
#include "util/rng.hpp"

namespace saim::ising {
namespace {

TEST(QuboModel, EmptyModelZeroEnergy) {
  QuboModel q(3);
  const Bits x = {1, 0, 1};
  EXPECT_EQ(q.energy(x), 0.0);
}

TEST(QuboModel, LinearOnly) {
  QuboModel q(3);
  q.add_linear(0, 2.0);
  q.add_linear(2, -5.0);
  EXPECT_DOUBLE_EQ(q.energy(Bits{1, 0, 1}), -3.0);
  EXPECT_DOUBLE_EQ(q.energy(Bits{0, 1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(q.energy(Bits{1, 1, 0}), 2.0);
}

TEST(QuboModel, QuadraticCountedOnce) {
  QuboModel q(2);
  q.add_quadratic(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(q.energy(Bits{1, 1}), 3.0);
  EXPECT_DOUBLE_EQ(q.energy(Bits{1, 0}), 0.0);
}

TEST(QuboModel, QuadraticSymmetricStorage) {
  QuboModel q(3);
  q.add_quadratic(2, 0, 4.0);
  EXPECT_DOUBLE_EQ(q.quadratic(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(q.quadratic(2, 0), 4.0);
}

TEST(QuboModel, QuadraticAccumulates) {
  QuboModel q(2);
  q.add_quadratic(0, 1, 1.0);
  q.add_quadratic(1, 0, 2.0);
  EXPECT_DOUBLE_EQ(q.quadratic(0, 1), 3.0);
}

TEST(QuboModel, DiagonalFoldsIntoLinear) {
  // x_i^2 == x_i for binary variables.
  QuboModel q(2);
  q.add_quadratic(1, 1, 5.0);
  EXPECT_DOUBLE_EQ(q.linear(1), 5.0);
  EXPECT_DOUBLE_EQ(q.quadratic(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(q.energy(Bits{0, 1}), 5.0);
}

TEST(QuboModel, OffsetAddsToAllStates) {
  QuboModel q(1);
  q.add_offset(7.5);
  EXPECT_DOUBLE_EQ(q.energy(Bits{0}), 7.5);
  EXPECT_DOUBLE_EQ(q.energy(Bits{1}), 7.5);
}

TEST(QuboModel, OutOfRangeThrows) {
  QuboModel q(2);
  EXPECT_THROW(q.add_linear(2, 1.0), std::out_of_range);
  EXPECT_THROW(q.add_quadratic(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW((void)q.linear(9), std::out_of_range);
  EXPECT_THROW((void)q.quadratic(0, 2), std::out_of_range);
}

TEST(QuboModel, NnzAndDensity) {
  QuboModel q(4);
  EXPECT_EQ(q.nnz(), 0u);
  q.add_quadratic(0, 1, 1.0);
  q.add_quadratic(2, 3, -1.0);
  EXPECT_EQ(q.nnz(), 2u);
  EXPECT_DOUBLE_EQ(q.density(), 2.0 / 6.0);
}

TEST(QuboModel, CancelledCouplingNotCounted) {
  QuboModel q(2);
  q.add_quadratic(0, 1, 1.0);
  q.add_quadratic(0, 1, -1.0);
  EXPECT_EQ(q.nnz(), 0u);
}

TEST(QuboModel, MaxAbsCoefficient) {
  QuboModel q(3);
  q.add_linear(0, -9.0);
  q.add_quadratic(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(q.max_abs_coefficient(), 9.0);
}

TEST(QuboModel, ForEachQuadraticVisitsUpperTriangle) {
  QuboModel q(3);
  q.add_quadratic(0, 2, 1.5);
  q.add_quadratic(1, 2, -2.5);
  int visits = 0;
  q.for_each_quadratic([&](std::size_t i, std::size_t j, double v) {
    EXPECT_LT(i, j);
    if (i == 0) EXPECT_DOUBLE_EQ(v, 1.5);
    if (i == 1) EXPECT_DOUBLE_EQ(v, -2.5);
    ++visits;
  });
  EXPECT_EQ(visits, 2);
}

// Property sweep on random models: the couplings added out of order
// (reversed or shuffled, each value as two halves, plus a pair that
// cancels to 0) give the lexicographic build's walk, nnz, density and
// bit-identical energies.
class QuboBuildOrder : public ::testing::TestWithParam<std::uint64_t> {};

QuboModel random_qubo(std::uint64_t seed, BuildOrder order) {
  util::Xoshiro256pp rng(seed);
  const std::size_t n = 3 + rng.below(12);
  QuboModel q(n);
  std::vector<PairTerm> lex;
  for (std::size_t i = 0; i < n; ++i) {
    q.add_linear(i, rng.uniform_sym() * 5.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      // The last pair stays out: the out-of-order builds cancel it.
      if (rng.bernoulli(0.6) && !(i == n - 2 && j == n - 1)) {
        lex.push_back({i, j, rng.uniform_sym() * 5.0});
      }
    }
  }
  q.add_offset(rng.uniform_sym());
  for (const auto& t : in_order(lex, n, order, seed)) {
    q.add_quadratic(t.i, t.j, t.v);
  }
  return q;
}

std::vector<std::tuple<std::size_t, std::size_t, double>> walk(
    const QuboModel& q) {
  std::vector<std::tuple<std::size_t, std::size_t, double>> out;
  q.for_each_quadratic([&](std::size_t i, std::size_t j, double v) {
    out.emplace_back(i, j, v);
  });
  return out;
}

TEST_P(QuboBuildOrder, MatchesLexicographicBuild) {
  const std::uint64_t seed = GetParam();
  const QuboModel ref = random_qubo(seed, BuildOrder::kLexicographic);
  for (const auto order : {BuildOrder::kReversed, BuildOrder::kShuffled}) {
    SCOPED_TRACE(order);
    const QuboModel q = random_qubo(seed, order);
    EXPECT_EQ(walk(q), walk(ref));
    EXPECT_EQ(q.nnz(), ref.nnz());
    EXPECT_EQ(q.density(), ref.density());
    EXPECT_EQ(q.max_abs_coefficient(), ref.max_abs_coefficient());

    util::Xoshiro256pp rng(seed + 1000);
    Bits x(q.n());
    for (int trial = 0; trial < 16; ++trial) {
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(q.energy(x)),
                std::bit_cast<std::uint64_t>(ref.energy(x)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, QuboBuildOrder,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace saim::ising
