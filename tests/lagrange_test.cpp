#include "lagrange/lagrangian_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ising/convert.hpp"
#include "problems/mkp.hpp"
#include "problems/portfolio.hpp"
#include "problems/qkp.hpp"
#include "util/rng.hpp"

namespace saim::lagrange {
namespace {

using problems::ConstrainedProblem;
using problems::LinearConstraint;

/// L(x) read off the factored Ising image: H(m(x)).
double ising_energy(const LagrangianModel& model,
                    std::span<const std::uint8_t> x) {
  return model.ising().energy(ising::bits_to_spins(x));
}

/// |a - b| within `rel` of max(1, |b|).
::testing::AssertionResult near_rel(double a, double b, double rel) {
  const double tol = rel * std::max(1.0, std::abs(b));
  if (std::abs(a - b) <= tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (tolerance " << tol << ")";
}

ConstrainedProblem toy_problem() {
  // min -x0 - 2 x1  s.t.  x0 + x1 = 1  over 2 binaries.
  ising::QuboModel f(2);
  f.add_linear(0, -1.0);
  f.add_linear(1, -2.0);
  LinearConstraint g;
  g.terms = {{0, 1.0}, {1, 1.0}};
  g.rhs = 1.0;
  return ConstrainedProblem(std::move(f), {g}, 2);
}

TEST(LagrangianModel, PenaltyExpansionMatchesDirectEvaluation) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 3.0);
  for (std::uint64_t code = 0; code < 4; ++code) {
    const std::vector<std::uint8_t> x = {
        static_cast<std::uint8_t>(code & 1),
        static_cast<std::uint8_t>((code >> 1) & 1)};
    const double g = static_cast<double>(x[0]) + x[1] - 1.0;
    const double expected = -1.0 * x[0] - 2.0 * x[1] + 3.0 * g * g;
    EXPECT_NEAR(ising_energy(model, x), expected, 1e-12) << "code=" << code;
    EXPECT_NEAR(model.lagrangian(x), expected, 1e-12);
  }
}

TEST(LagrangianModel, LambdaTermAddsLinearly) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 3.0);
  const std::vector<double> lambda = {2.5};
  model.set_lambda(lambda);
  for (std::uint64_t code = 0; code < 4; ++code) {
    const std::vector<std::uint8_t> x = {
        static_cast<std::uint8_t>(code & 1),
        static_cast<std::uint8_t>((code >> 1) & 1)};
    const double g = static_cast<double>(x[0]) + x[1] - 1.0;
    const double expected =
        -1.0 * x[0] - 2.0 * x[1] + 3.0 * g * g + 2.5 * g;
    EXPECT_NEAR(ising_energy(model, x), expected, 1e-12);
    EXPECT_NEAR(model.lagrangian(x), expected, 1e-12);
  }
}

TEST(LagrangianModel, IsingImageMatchesDirectForm) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 2.0);
  model.set_lambda(std::vector<double>{-1.5});
  for (std::uint64_t code = 0; code < 4; ++code) {
    const std::vector<std::uint8_t> x = {
        static_cast<std::uint8_t>(code & 1),
        static_cast<std::uint8_t>((code >> 1) & 1)};
    EXPECT_NEAR(ising_energy(model, x), model.lagrangian(x), 1e-12);
  }
}

TEST(LagrangianModel, SetLambdaMovesOnlyFieldsAndOffset) {
  const auto inst = problems::make_paper_qkp(20, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 1.0);
  const ising::IsingModel before = model.ising();

  model.set_lambda(std::vector<double>{42.0});
  const ising::IsingModel& after = model.ising();
  const std::size_t n = model.n();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(after.coupling(i, j), before.coupling(i, j));
    }
  }
  ASSERT_EQ(after.penalty(), before.penalty());
  ASSERT_EQ(after.penalty_rows(), before.penalty_rows());
  for (std::size_t r = 0; r < after.penalty_rows(); ++r) {
    const auto a = after.penalty_row(r);
    const auto b = before.penalty_row(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k].spin, b[k].spin);
      ASSERT_EQ(a[k].coef, b[k].coef);
    }
  }
  // The multiplier term is linear in x: only h and the offset move.
  std::size_t moved = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (after.field(i) != before.field(i)) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_NE(after.offset(), before.offset());
}

TEST(LagrangianModel, CouplingsCountOnlyTheObjective) {
  // MKP: a linear objective, so the whole penalty stays in the block.
  const auto mkp = problems::make_paper_mkp(30, 5, 1);
  const auto mkp_mapping = problems::mkp_to_problem(mkp);
  const LagrangianModel mkp_model(mkp_mapping.problem, 3.0);
  EXPECT_EQ(mkp_model.ising().nnz(), 0u);
  EXPECT_EQ(mkp_model.ising().penalty_rows(), 5u);

  // QKP: J holds exactly the objective's profit pairs.
  const auto qkp = problems::make_paper_qkp(30, 25, 1);
  const auto qkp_mapping = problems::qkp_to_problem(qkp);
  const LagrangianModel qkp_model(qkp_mapping.problem, 3.0);
  EXPECT_EQ(qkp_model.ising().nnz(), qkp_mapping.problem.objective().nnz());
  EXPECT_GT(qkp_model.ising().nnz(), 0u);
}

TEST(LagrangianModel, FlipDeltaMatchesEnergyDifference) {
  problems::MkpGeneratorParams p;
  p.n = 14;
  p.m = 3;
  p.seed = 4;
  const auto inst = problems::generate_mkp(p);
  const auto mapping = problems::mkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 2.7);
  model.set_lambda(std::vector<double>{0.3, -1.1, 2.9});
  const ising::IsingModel& h = model.ising();

  util::Xoshiro256pp rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    ising::Spins m(h.n());
    for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
    const double e0 = h.energy(m);
    for (std::size_t i = 0; i < h.n(); ++i) {
      ising::Spins flipped = m;
      flipped[i] = static_cast<std::int8_t>(-flipped[i]);
      ASSERT_TRUE(near_rel(h.flip_delta(m, i), h.energy(flipped) - e0, 1e-9))
          << "trial " << trial << " spin " << i;
    }
  }
}

TEST(LagrangianModel, SetLambdaMatchesFreshRebuild) {
  // The incremental field refresh must be bit-equivalent (within fp
  // tolerance) to building a brand-new model with the lambda term folded in.
  const auto inst = problems::make_paper_qkp(15, 50, 2);
  const auto mapping = problems::qkp_to_problem(inst);
  LagrangianModel incremental(mapping.problem, 1.5);
  const std::vector<double> lambda = {0.7};
  incremental.set_lambda(lambda);

  // Fresh model: same problem but with lambda*g folded into the objective.
  ising::QuboModel f2(mapping.problem.n());
  mapping.problem.objective().for_each_quadratic(
      [&](std::size_t i, std::size_t j, double q) {
        f2.add_quadratic(i, j, q);
      });
  for (std::size_t i = 0; i < mapping.problem.n(); ++i) {
    f2.add_linear(i, mapping.problem.objective().linear(i));
  }
  f2.set_offset(mapping.problem.objective().offset());
  for (const auto& [j, aj] : mapping.problem.constraints()[0].terms) {
    f2.add_linear(j, lambda[0] * aj);
  }
  f2.add_offset(-lambda[0] * mapping.problem.constraints()[0].rhs);
  ConstrainedProblem folded(std::move(f2), mapping.problem.constraints(),
                            mapping.problem.num_decision());
  LagrangianModel fresh(folded, 1.5);

  util::Xoshiro256pp rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> x(mapping.problem.n());
    for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
    ASSERT_TRUE(
        near_rel(ising_energy(incremental, x), ising_energy(fresh, x), 1e-9));
  }
}

TEST(LagrangianModel, MultipleConstraints) {
  // Two constraints with distinct multipliers.
  ising::QuboModel f(3);
  f.add_linear(0, -1.0);
  LinearConstraint g1;
  g1.terms = {{0, 1.0}, {1, 1.0}};
  g1.rhs = 1.0;
  LinearConstraint g2;
  g2.terms = {{1, 2.0}, {2, 1.0}};
  g2.rhs = 2.0;
  ConstrainedProblem problem(std::move(f), {g1, g2}, 3);
  LagrangianModel model(problem, 0.5);
  model.set_lambda(std::vector<double>{1.0, -2.0});

  for (std::uint64_t code = 0; code < 8; ++code) {
    std::vector<std::uint8_t> x(3);
    for (std::size_t i = 0; i < 3; ++i) {
      x[i] = static_cast<std::uint8_t>((code >> i) & 1ULL);
    }
    const double ga = static_cast<double>(x[0]) + x[1] - 1.0;
    const double gb = 2.0 * x[1] + x[2] - 2.0;
    const double expected =
        -1.0 * x[0] + 0.5 * (ga * ga + gb * gb) + 1.0 * ga - 2.0 * gb;
    EXPECT_NEAR(ising_energy(model, x), expected, 1e-12);
  }
}

TEST(LagrangianModel, SetLambdaSizeMismatchThrows) {
  const auto problem = toy_problem();
  LagrangianModel model(problem, 1.0);
  EXPECT_THROW(model.set_lambda(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(LagrangianModel, NegativePenaltyThrows) {
  const auto problem = toy_problem();
  EXPECT_THROW(LagrangianModel(problem, -1.0), std::invalid_argument);
}

TEST(HeuristicPenalty, QkpFormulaMatchesPaper) {
  // P = alpha d N with d the coupling density and N incl. slack.
  const auto inst = problems::make_paper_qkp(50, 50, 1);
  const auto mapping = problems::qkp_to_problem(inst);
  const double d = mapping.problem.objective().density();
  const double n = static_cast<double>(mapping.problem.n());
  EXPECT_NEAR(heuristic_penalty(mapping.problem, 2.0), 2.0 * d * n, 1e-12);
}

TEST(HeuristicPenalty, LinearObjectiveUsesFixedSpinConvention) {
  ising::QuboModel f(9);
  f.add_linear(0, -1.0);
  ConstrainedProblem problem(std::move(f), {}, 9);
  // d = 2/(N+1) = 0.2 for N=9; P = 5 * 0.2 * 9 = 9.
  EXPECT_NEAR(heuristic_penalty(problem, 5.0), 9.0, 1e-12);
}

// Property sweep: the Ising image equals direct Lagrangian for random lambda on
// random QKP mappings.
class LagrangianProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagrangianProperty, IsingImageEqualsDirectForm) {
  problems::QkpGeneratorParams p;
  p.n = 10;
  p.density = 0.5;
  p.seed = GetParam();
  const auto inst = problems::generate_qkp(p);
  const auto mapping = problems::qkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 0.8);

  util::Xoshiro256pp rng(GetParam() + 77);
  for (int round = 0; round < 5; ++round) {
    const std::vector<double> lambda = {rng.uniform_sym() * 10.0};
    model.set_lambda(lambda);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint8_t> x(mapping.problem.n());
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      ASSERT_TRUE(near_rel(ising_energy(model, x), model.lagrangian(x), 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LagrangianProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

// Same property on multi-constraint MKP mappings: the incremental lambda
// refresh must stay consistent when several constraints move at once.
class LagrangianMkpProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LagrangianMkpProperty, IsingImageEqualsDirectForm) {
  problems::MkpGeneratorParams p;
  p.n = 12;
  p.m = 4;
  p.seed = GetParam();
  const auto inst = problems::generate_mkp(p);
  const auto mapping = problems::mkp_to_problem(inst);
  LagrangianModel model(mapping.problem, 5.0);

  util::Xoshiro256pp rng(GetParam() + 321);
  std::vector<double> lambda(mapping.problem.num_constraints());
  for (int round = 0; round < 4; ++round) {
    for (auto& l : lambda) l = rng.uniform_sym() * 8.0;
    model.set_lambda(lambda);
    for (int trial = 0; trial < 15; ++trial) {
      std::vector<std::uint8_t> x(mapping.problem.n());
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      ASSERT_TRUE(near_rel(ising_energy(model, x), model.lagrangian(x), 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LagrangianMkpProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

// And on the real-valued quadratic portfolio mapping, which exercises
// dense float couplings rather than integer-derived ones.
class LagrangianPortfolioProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagrangianPortfolioProperty, IsingImageEqualsDirectForm) {
  problems::PortfolioGeneratorParams p;
  p.n = 12;
  p.seed = GetParam();
  const auto inst = problems::generate_portfolio(p);
  const auto mapping = problems::portfolio_to_problem(inst);
  LagrangianModel model(mapping.problem, 1.3);

  util::Xoshiro256pp rng(GetParam() + 654);
  for (int round = 0; round < 4; ++round) {
    const std::vector<double> lambda = {rng.uniform_sym() * 5.0};
    model.set_lambda(lambda);
    for (int trial = 0; trial < 15; ++trial) {
      std::vector<std::uint8_t> x(mapping.problem.n());
      for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
      ASSERT_TRUE(near_rel(ising_energy(model, x), model.lagrangian(x), 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LagrangianPortfolioProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace saim::lagrange
