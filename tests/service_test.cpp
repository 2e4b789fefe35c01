#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/penalty_method.hpp"
#include "problems/qkp.hpp"
#include "service/backend_factory.hpp"

namespace saim {
namespace {

using namespace std::chrono_literals;

struct TestProblem {
  std::shared_ptr<problems::QkpInstance> instance;
  std::shared_ptr<const problems::ConstrainedProblem> problem;
};

TestProblem make_test_problem(std::size_t n = 30, int index = 1) {
  TestProblem t;
  t.instance = std::make_shared<problems::QkpInstance>(
      problems::make_paper_qkp(n, 50, index));
  t.problem = std::make_shared<problems::ConstrainedProblem>(
      problems::qkp_to_problem(*t.instance).problem);
  return t;
}

service::SolveRequest make_request(const TestProblem& t,
                                   std::size_t iterations = 20,
                                   std::uint64_t seed = 1) {
  service::SolveRequest request;
  request.problem = t.problem;
  request.evaluator = [inst = t.instance,
                       ev = core::make_qkp_evaluator(*t.instance)](
                          std::span<const std::uint8_t> x) { return ev(x); };
  request.backend.sweeps = 100;
  request.options.iterations = iterations;
  request.options.seed = seed;
  return request;
}

TEST(SolveService, SolvesOneJobEndToEnd) {
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto t = make_test_problem();
  auto handle = svc.submit(make_request(t));
  const auto response = handle.wait();
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->status, core::Status::kCompleted);
  EXPECT_FALSE(response->cache_hit);
  EXPECT_EQ(response->result->total_runs, 20u);
  EXPECT_TRUE(response->result->found_feasible);
}

TEST(SolveService, MatchesDirectSolverBitForBit) {
  // The service must be a pure scheduling layer: same problem, options and
  // seed give exactly the blocking-call result.
  const auto t = make_test_problem();
  service::SolveService svc({.workers = 3});
  const auto via_service = svc.submit(make_request(t)).wait();
  ASSERT_EQ(via_service->status, core::Status::kCompleted);

  auto backend = service::make_backend(make_request(t).backend);
  core::SaimSolver solver(*t.problem, *backend, make_request(t).options);
  const auto direct = solver.solve(core::make_qkp_evaluator(*t.instance));

  EXPECT_EQ(via_service->result->best_cost, direct.best_cost);
  EXPECT_EQ(via_service->result->best_x, direct.best_x);
  EXPECT_EQ(via_service->result->feasible_count, direct.feasible_count);
  EXPECT_EQ(via_service->result->total_sweeps, direct.total_sweeps);
}

TEST(SolveService, CacheHitReturnsIdenticalResultWithoutRecompute) {
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto t = make_test_problem();

  const auto first = svc.submit(make_request(t)).wait();
  ASSERT_EQ(first->status, core::Status::kCompleted);

  const auto second = svc.submit(make_request(t)).wait();
  EXPECT_TRUE(second->cache_hit);
  // Same SolveResult *object*: bit-identical by construction, provably no
  // recompute.
  EXPECT_EQ(second->result.get(), first->result.get());

  const auto stats = svc.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_GT(stats.cache.hit_rate(), 0.0);
}

TEST(SolveService, DifferentSeedsMissTheCache) {
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto t = make_test_problem();
  const auto a = svc.submit(make_request(t, 20, 1)).wait();
  const auto b = svc.submit(make_request(t, 20, 2)).wait();
  EXPECT_FALSE(b->cache_hit);
  EXPECT_NE(a->fingerprint, b->fingerprint);
  EXPECT_EQ(svc.stats().executed, 2u);
}

TEST(SolveService, ContentKeyedCacheHitsAcrossRebuiltProblems) {
  // A twin problem object built independently from the same instance must
  // hit: the cache is keyed by content, not pointer.
  service::SolveService svc({.workers = 2, .cache_capacity = 8});
  const auto a = make_test_problem();
  const auto b = make_test_problem();
  ASSERT_NE(a.problem.get(), b.problem.get());
  const auto first = svc.submit(make_request(a)).wait();
  const auto second = svc.submit(make_request(b)).wait();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.get(), first->result.get());
}

TEST(SolveService, CoalescesDuplicateInFlightRequests) {
  // One worker + a long job in front: twin submissions of the same request
  // sit in flight together and must collapse onto one computation.
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();

  auto head = svc.submit(make_request(blocker, 200));
  auto first = svc.submit(make_request(t, 50));
  auto twin = svc.submit(make_request(t, 50));
  EXPECT_EQ(first.fingerprint(), twin.fingerprint());

  const auto r1 = first.wait();
  const auto r2 = twin.wait();
  EXPECT_EQ(r1.get(), r2.get());  // the same response object
  EXPECT_FALSE(r2->cache_hit);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  // 3 submissions, 2 actual solves.
  EXPECT_EQ(stats.executed, 2u);
  head.wait();
}

TEST(SolveService, CancelReturnsPartialResultWithCancelledStatus) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  // Effectively endless job so the cancel lands mid-solve.
  auto handle = svc.submit(make_request(t, 1000000));
  std::this_thread::sleep_for(30ms);
  handle.cancel();
  const auto response = handle.wait();
  EXPECT_EQ(response->status, core::Status::kCancelled);
  EXPECT_LT(response->result->total_runs, 1000000u);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(SolveService, DeadlineReturnsPartialResultWithDeadlineStatus) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  auto request = make_request(t, 1000000);
  request.timeout = 50ms;
  auto handle = svc.submit(std::move(request));
  const auto response = handle.wait();
  EXPECT_EQ(response->status, core::Status::kDeadline);
  EXPECT_LT(response->result->total_runs, 1000000u);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(SolveService, StoppedResultsAreNeverCached) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto t = make_test_problem();
  auto request = make_request(t, 1000000);
  request.timeout = 30ms;
  svc.submit(std::move(request)).wait();

  // Identical request without the timeout: must be computed, not served
  // from a poisoned cache entry.
  auto full = make_request(t, 1000000);
  full.timeout = 30ms;
  const auto again = svc.submit(std::move(full)).wait();
  EXPECT_FALSE(again->cache_hit);
}

TEST(SolveService, CoalescedJobSurvivesOneHandleCancelling) {
  service::SolveService svc({.workers = 1});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 100));
  auto first = svc.submit(make_request(t, 60));
  auto twin = svc.submit(make_request(t, 60));

  // Only one of two subscribers cancels: the computation must complete for
  // the other.
  EXPECT_FALSE(first.cancel());
  const auto response = twin.wait();
  EXPECT_EQ(response->status, core::Status::kCompleted);
  EXPECT_EQ(response->result->total_runs, 60u);
  head.wait();
}

TEST(SolveService, DoesNotCoalesceOntoCancelledTwin) {
  // A twin whose sole subscriber already cancelled can only deliver a
  // partial result; a new identical request must compute fresh.
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 300));
  auto first = svc.submit(make_request(t, 40));
  EXPECT_TRUE(first.cancel());  // sole subscriber: the stop trips
  auto fresh = svc.submit(make_request(t, 40));
  const auto response = fresh.wait();
  EXPECT_EQ(response->status, core::Status::kCompleted);
  EXPECT_EQ(response->result->total_runs, 40u);
  head.wait();
  first.wait();
}

TEST(SolveService, DeadlinedTwinsDoNotCoalesce) {
  // Timeouts are not fingerprinted, so coalescing across them would hand
  // one caller the other's time budget; deadline-carrying requests run
  // independently instead.
  service::SolveService svc({.workers = 2, .cache_capacity = 0});
  const auto t = make_test_problem();
  auto a_req = make_request(t, 1000000);
  a_req.timeout = 40ms;
  auto b_req = make_request(t, 1000000);
  b_req.timeout = 40ms;
  auto a = svc.submit(std::move(a_req));
  auto b = svc.submit(std::move(b_req));
  EXPECT_EQ(a.wait()->status, core::Status::kDeadline);
  EXPECT_EQ(b.wait()->status, core::Status::kDeadline);
  EXPECT_EQ(svc.stats().coalesced, 0u);
  EXPECT_EQ(svc.stats().executed, 2u);
}

TEST(SolveService, DroppedTwinHandleDoesNotBlockCancel) {
  // A coalesced handle discarded without voting must leave the quorum,
  // or the remaining holder's cancel() could never trip the stop.
  service::SolveService svc({.workers = 1});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 300));
  auto first = svc.submit(make_request(t, 1000000));
  {
    auto twin = svc.submit(make_request(t, 1000000));
  }  // dropped without cancelling
  EXPECT_TRUE(first.cancel());  // quorum is 1-of-1 again
  EXPECT_EQ(first.wait()->status, core::Status::kCancelled);
  head.wait();
}

TEST(JobHandle, InvalidHandleIsInertEverywhere) {
  service::JobHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.wait(), nullptr);
  EXPECT_EQ(handle.wait_for(1ms), nullptr);
  EXPECT_EQ(handle.try_get(), nullptr);
  EXPECT_FALSE(handle.cancel());
  EXPECT_EQ(handle.fingerprint(), 0u);
}

TEST(SolveService, PriorityOrdersQueuedJobs) {
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();
  // Head job occupies the single worker while the queue builds up.
  auto head = svc.submit(make_request(t, 150, 99));

  std::vector<service::JobHandle> handles;
  auto low = make_request(t, 10, 1);
  low.priority = service::Priority::kLow;
  auto normal = make_request(t, 10, 2);
  auto high = make_request(t, 10, 3);
  high.priority = service::Priority::kHigh;
  handles.push_back(svc.submit(std::move(low)));
  handles.push_back(svc.submit(std::move(normal)));
  handles.push_back(svc.submit(std::move(high)));

  for (auto& h : handles) h.wait();
  head.wait();
  // All completed; ordering itself is covered by the JobQueue unit tests
  // (observing cross-thread completion order here would be flaky).
  for (auto& h : handles) {
    EXPECT_EQ(h.try_get()->status, core::Status::kCompleted);
  }
}

TEST(SolveService, ShutdownCancelsQueuedJobsAndUnblocksWaiters) {
  auto svc = std::make_unique<service::SolveService>(
      service::ServiceOptions{.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();

  // One running job + several queued behind it. The running one is long
  // enough that the queued jobs are still queued when shutdown lands; the
  // sleep gives the (possibly not-yet-scheduled) worker time to dequeue it
  // so it is genuinely running, not still queued.
  auto running = svc->submit(make_request(t, 5000, 50));
  std::this_thread::sleep_for(50ms);
  std::vector<service::JobHandle> queued;
  for (int j = 0; j < 4; ++j) {
    queued.push_back(svc->submit(make_request(t, 50, 100 + j)));
  }

  svc->shutdown();

  // Queued-but-unstarted jobs fail fast as kCancelled...
  for (auto& h : queued) {
    const auto response = h.wait();
    EXPECT_EQ(response->status, core::Status::kCancelled);
    EXPECT_EQ(response->result->total_runs, 0u);
  }
  // ...while the running job finished cooperatively (completed: shutdown
  // does not cancel in-flight work, it only stops feeding it).
  const auto head = running.wait();
  EXPECT_EQ(head->status, core::Status::kCompleted);

  EXPECT_THROW(svc->submit(make_request(t)), std::runtime_error);
  svc.reset();  // double-shutdown via destructor must be safe
}

TEST(JobHandleCompletion, FiresOnceAfterPublishAndInlineForCacheHits) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  // A job in front keeps `job` queued while its callback is registered,
  // so the callback cannot run inline here.
  auto head = svc.submit(make_request(blocker, 200));
  auto job = svc.submit(make_request(t, 20));
  std::atomic<int> fired{0};
  std::atomic<bool> on_worker{false};
  const auto test_thread = std::this_thread::get_id();
  job.on_complete([&] {
    on_worker = std::this_thread::get_id() != test_thread;
    ++fired;
  });
  // The callback runs inside the publishing critical section, so by the
  // time wait() can see the response it has already returned.
  const auto response = job.wait();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(on_worker.load()) << "fires on the thread that finished it";
  EXPECT_FALSE(response->cache_hit);

  // A cache hit is finished at submit: the callback fires inline, on the
  // registering thread, before on_complete returns.
  auto hit = svc.submit(make_request(t, 20));
  int hit_fired = 0;
  hit.on_complete([&] {
    EXPECT_EQ(std::this_thread::get_id(), test_thread);
    ++hit_fired;
  });
  EXPECT_EQ(hit_fired, 1);
  EXPECT_TRUE(hit.wait()->cache_hit);

  head.wait();
  svc.shutdown();
  EXPECT_EQ(fired.load(), 1) << "exactly once";
  EXPECT_EQ(hit_fired, 1);
}

TEST(JobHandleCompletion, EveryCoalescedTwinFiresItsOwnCallback) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 200));
  std::vector<service::JobHandle> twins;
  for (int i = 0; i < 3; ++i) twins.push_back(svc.submit(make_request(t, 50)));
  std::atomic<int> fired[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) twins[i].on_complete([&, i] { ++fired[i]; });
  for (auto& twin : twins) twin.wait();
  EXPECT_EQ(svc.stats().coalesced, 2u) << "one computation, three handles";
  for (int i = 0; i < 3; ++i) EXPECT_EQ(fired[i].load(), 1) << "twin " << i;
  head.wait();
}

TEST(JobHandleCompletion, ReleasedHandleWithdrawsItsCallback) {
  service::SolveService svc({.workers = 1, .cache_capacity = 8});
  const auto blocker = make_test_problem(30, 7);
  const auto t = make_test_problem();
  auto head = svc.submit(make_request(blocker, 200));
  auto keeper = svc.submit(make_request(t, 50));
  std::atomic<int> dropped_fired{0};
  {
    auto dropped = svc.submit(make_request(t, 50));  // coalesced twin
    dropped.on_complete([&] { ++dropped_fired; });
  }  // released before the job finishes: its callback must never run
  keeper.wait();
  EXPECT_EQ(dropped_fired.load(), 0);
  head.wait();
}

TEST(JobHandleCompletion, FiresForQueuedJobsCancelledByShutdown) {
  service::SolveService svc({.workers = 1, .cache_capacity = 0});
  const auto t = make_test_problem();
  auto running = svc.submit(make_request(t, 5000, 50));
  std::this_thread::sleep_for(50ms);  // let the worker claim it
  std::vector<service::JobHandle> queued;
  for (int j = 0; j < 4; ++j) {
    queued.push_back(svc.submit(make_request(t, 50, 100 + j)));
  }
  std::atomic<int> fired{0};
  for (auto& h : queued) h.on_complete([&] { ++fired; });
  running.on_complete([&] { ++fired; });

  svc.shutdown();
  EXPECT_EQ(fired.load(), 5) << "4 cancelled in the drain + the running one";
  for (auto& h : queued) {
    EXPECT_EQ(h.try_get()->status, core::Status::kCancelled);
  }
  // Registering on a handle that is already finished fires inline.
  int late = 0;
  queued.front().on_complete([&] { ++late; });
  EXPECT_EQ(late, 1);
}

TEST(SolveService, UnknownBackendSurfacesAsError) {
  service::SolveService svc({.workers = 1});
  const auto t = make_test_problem();
  auto request = make_request(t);
  request.backend.name = "quantum-toaster";
  const auto response = svc.submit(std::move(request)).wait();
  EXPECT_EQ(response->status, core::Status::kError);
  EXPECT_NE(response->error.find("quantum-toaster"), std::string::npos);
  EXPECT_EQ(svc.stats().errors, 1u);
}

TEST(SolveService, NullProblemIsRejected) {
  service::SolveService svc({.workers = 1});
  EXPECT_THROW(svc.submit(service::SolveRequest{}), std::invalid_argument);
}

TEST(SolveService, RunsEveryKnownBackend) {
  service::SolveService svc({.workers = 2, .cache_capacity = 0});
  const auto t = make_test_problem(20);
  std::vector<service::JobHandle> handles;
  for (const auto& name : service::known_backends()) {
    auto request = make_request(t, 5);
    request.backend.name = name;
    request.backend.sweeps = 50;
    handles.push_back(svc.submit(std::move(request)));
  }
  for (auto& h : handles) {
    const auto response = h.wait();
    EXPECT_EQ(response->status, core::Status::kCompleted) << response->error;
  }
}

}  // namespace
}  // namespace saim
