#include "reference.hpp"

#include <cstdio>
#include <span>

#include "core/penalty_method.hpp"
#include "exact/exhaustive.hpp"
#include "exact/mkp_branch_bound.hpp"
#include "heuristics/greedy.hpp"

namespace perfbench {

namespace sp = saim::problems;

Reference mkp_reference(const sp::MkpInstance& instance) {
  const auto bnb = saim::exact::solve_mkp_bnb(instance);
  return {static_cast<double>(bnb.best_profit), "optimum",
          bnb.proven_optimal};
}

Reference qkp_reference(const sp::QkpInstance& instance) {
  const auto x = saim::heuristics::greedy_qkp(instance);
  return {static_cast<double>(instance.profit(x)), "heuristic", false};
}

namespace {

saim::exact::ExhaustiveResult enumerate(
    std::size_t n, const saim::core::SampleEvaluator& judge) {
  return saim::exact::exhaustive_minimize(
      n, [&](std::span<const std::uint8_t> x) {
        const auto v = judge(x);
        return saim::exact::Verdict{v.feasible, v.cost};
      });
}

}  // namespace

std::string reference_selftest() {
  sp::MkpGeneratorParams params;
  params.n = 16;
  params.m = 3;
  params.seed = 20250917;
  const auto mkp = sp::generate_mkp(params);
  const auto truth = enumerate(mkp.n(), saim::core::make_mkp_evaluator(mkp));
  const auto bnb = saim::exact::solve_mkp_bnb(mkp);
  if (!truth.found || !bnb.proven_optimal ||
      static_cast<double>(bnb.best_profit) != -truth.best_cost ||
      !mkp.feasible(bnb.best_x)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "MKP reference self-test: B&B %lld (proven %d) vs "
                  "exhaustive %.0f",
                  static_cast<long long>(bnb.best_profit),
                  static_cast<int>(bnb.proven_optimal), -truth.best_cost);
    return buf;
  }

  const auto qkp = sp::make_paper_qkp(16, 50, 1);
  const auto qtruth =
      enumerate(qkp.n(), saim::core::make_qkp_evaluator(qkp));
  const auto greedy = saim::heuristics::greedy_qkp(qkp);
  if (!qkp.feasible(greedy) ||
      static_cast<double>(qkp.profit(greedy)) > -qtruth.best_cost) {
    return "QKP reference self-test: greedy infeasible or above the "
           "exhaustive optimum";
  }
  return {};
}

}  // namespace perfbench
