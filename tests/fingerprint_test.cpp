#include "problems/fingerprint.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "problems/mkp.hpp"
#include "problems/portfolio.hpp"
#include "problems/qkp.hpp"
#include "service/solve_service.hpp"

namespace saim {
namespace {

problems::ConstrainedProblem qkp_problem(int index = 1) {
  const auto inst = problems::make_paper_qkp(30, 50, index);
  return problems::qkp_to_problem(inst).problem;
}

TEST(Fingerprint, HasherIsDeterministic) {
  problems::Fingerprint a;
  a.mix(std::uint64_t{42}).mix(3.25).mix("hello");
  problems::Fingerprint b;
  b.mix(std::uint64_t{42}).mix(3.25).mix("hello");
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Fingerprint, HasherIsOrderSensitive) {
  problems::Fingerprint a;
  a.mix(std::uint64_t{1}).mix(std::uint64_t{2});
  problems::Fingerprint b;
  b.mix(std::uint64_t{2}).mix(std::uint64_t{1});
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, StringBoundariesMatter) {
  // ("ab","c") must not collide with ("a","bc"): length is mixed first.
  problems::Fingerprint a;
  a.mix("ab").mix("c");
  problems::Fingerprint b;
  b.mix("a").mix("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, SignedZeroCollapses) {
  problems::Fingerprint a;
  a.mix(0.0);
  problems::Fingerprint b;
  b.mix(-0.0);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Fingerprint, SameContentsSameFingerprint) {
  // Two independently built problems from the same instance agree — the
  // property that makes the service cache content-keyed.
  const auto p1 = qkp_problem();
  const auto p2 = qkp_problem();
  EXPECT_EQ(problems::fingerprint(p1), problems::fingerprint(p2));
}

TEST(Fingerprint, RoundTrippedInstanceAgrees) {
  const auto inst = problems::make_paper_qkp(25, 50, 3);
  std::stringstream ss;
  problems::save_qkp(ss, inst);
  const auto reloaded = problems::load_qkp(ss);
  EXPECT_EQ(
      problems::fingerprint(problems::qkp_to_problem(inst).problem),
      problems::fingerprint(problems::qkp_to_problem(reloaded).problem));
}

TEST(Fingerprint, DifferentInstancesDiffer) {
  EXPECT_NE(problems::fingerprint(qkp_problem(1)),
            problems::fingerprint(qkp_problem(2)));
}

TEST(Fingerprint, QkpAndMkpDiffer) {
  const auto mkp = problems::make_paper_mkp(30, 5, 1);
  EXPECT_NE(problems::fingerprint(qkp_problem()),
            problems::fingerprint(problems::mkp_to_problem(mkp).problem));
}

// Absolute keys, recorded when the couplings were still stored as dense
// n*n arrays. A fingerprint is the result-cache key and the shard routing
// key, so a change to how models store or walk their couplings must leave
// these values where they are.
TEST(Fingerprint, GoldenKeysArePinned) {
  const auto qkp_instance = problems::make_paper_qkp(100, 25, 1);
  const auto qkp = problems::qkp_to_problem(qkp_instance).problem;
  EXPECT_EQ(problems::fingerprint(qkp), 0xca5418b78ff38ffcULL);

  const auto mkp_instance = problems::make_paper_mkp(100, 5, 1);
  const auto mkp = problems::mkp_to_problem(mkp_instance).problem;
  EXPECT_EQ(problems::fingerprint(mkp), 0x8f6178cda258a9baULL);

  problems::PortfolioGeneratorParams params;
  params.n = 40;
  params.seed = 7;
  const auto portfolio_instance = problems::generate_portfolio(params);
  const auto portfolio =
      problems::portfolio_to_problem(portfolio_instance).problem;
  EXPECT_EQ(problems::fingerprint(portfolio), 0x8be3afc2b987f3d2ULL);
}

service::SolveRequest base_request() {
  service::SolveRequest request;
  request.problem =
      std::make_shared<problems::ConstrainedProblem>(qkp_problem());
  request.options.iterations = 10;
  return request;
}

TEST(RequestFingerprint, StableAcrossIdenticalRequests) {
  EXPECT_EQ(service::SolveService::request_fingerprint(base_request()),
            service::SolveService::request_fingerprint(base_request()));
}

TEST(RequestFingerprint, SensitiveToEverySolveParameter) {
  const auto base = service::SolveService::request_fingerprint(base_request());

  auto seed = base_request();
  seed.options.seed = 7;
  EXPECT_NE(base, service::SolveService::request_fingerprint(seed));

  auto backend = base_request();
  backend.backend.name = "tabu";
  EXPECT_NE(base, service::SolveService::request_fingerprint(backend));

  auto sweeps = base_request();
  sweeps.backend.sweeps = 123;
  EXPECT_NE(base, service::SolveService::request_fingerprint(sweeps));

  auto eta = base_request();
  eta.options.eta = 0.05;
  EXPECT_NE(base, service::SolveService::request_fingerprint(eta));

  auto replicas = base_request();
  replicas.options.replicas = 4;
  EXPECT_NE(base, service::SolveService::request_fingerprint(replicas));
}

TEST(RequestFingerprint, IgnoresServingOnlyFields) {
  const auto base = service::SolveService::request_fingerprint(base_request());

  auto req = base_request();
  req.priority = service::Priority::kHigh;
  req.timeout = std::chrono::milliseconds(500);
  req.tag = "some-label";
  req.use_cache = false;
  EXPECT_EQ(base, service::SolveService::request_fingerprint(req));
}

}  // namespace
}  // namespace saim
