#include "service/solve_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch_solver.hpp"
#include "problems/fingerprint.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace saim::service {

namespace detail {

struct JobState {
  std::uint64_t fingerprint = 0;
  /// Content hash of the problem alone — the warm-start pool's key.
  std::uint64_t problem_fp = 0;
  /// Batchability key: problem_fp + backend spec + penalty shaping. Jobs
  /// sharing it can run on one model build + one backend bind; seeds,
  /// iteration budgets, deadlines etc. stay per-member.
  std::uint64_t batch_key = 0;
  SolveRequest request;
  util::StopSource stop;

  /// Stage timestamps for JobTiming. submitted_at is set under the
  /// submit path; claimed_at/solve_started_at are written by the one
  /// worker that claimed the job and read by the same thread in
  /// finish() — no synchronization needed. Epoch (default) = the stage
  /// never happened (e.g. cancelled before a claim).
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point claimed_at{};
  std::chrono::steady_clock::time_point solve_started_at{};

  /// Set once by the first worker (or shutdown) that claims the job; a
  /// JobState may sit in the queue more than once (a coalescing submit
  /// re-pushes a queued twin at a higher priority band), and this flag is
  /// what makes the duplicates harmless.
  std::atomic<bool> started{false};

  util::Mutex mutex;
  std::condition_variable cv;
  /// Set exactly once (finish()), then read-only behind the lock.
  std::shared_ptr<const SolveResponse> response SAIM_GUARDED_BY(mutex);

  /// Handles sharing this computation (first submit + coalesced twins)
  /// and how many of them voted to cancel. Guarded by `mutex` — cancel,
  /// coalesce and handle teardown must see each other's updates in order,
  /// or a cancel racing a coalesce could kill the new subscriber's job.
  std::size_t subscribers SAIM_GUARDED_BY(mutex) = 1;
  std::size_t cancel_votes SAIM_GUARDED_BY(mutex) = 0;

  /// Completion callbacks not yet fired, keyed by the registering
  /// handle's callback id (JobHandle::on_complete). finish() runs and
  /// clears them in the critical section that publishes `response`.
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks
      SAIM_GUARDED_BY(mutex);
  std::uint64_t next_callback_id SAIM_GUARDED_BY(mutex) = 0;

  void remove_callback_locked(std::uint64_t id) SAIM_REQUIRES(mutex) {
    std::erase_if(callbacks, [id](const auto& entry) {
      return entry.first == id;
    });
  }

  /// With `mutex` held: trips the stop iff no live subscriber still wants
  /// the result and the job has not already finished.
  void maybe_stop_locked() SAIM_REQUIRES(mutex) {
    if (cancel_votes >= subscribers && response == nullptr) {
      stop.request_stop();
    }
  }
};

}  // namespace detail

using detail::JobState;

// ---------------------------------------------------------------- JobHandle

std::shared_ptr<const SolveResponse> JobHandle::wait() const {
  if (!state_) return nullptr;  // invalid handles never block
  util::MutexLock lock(state_->mutex);
  while (state_->response == nullptr) state_->cv.wait(lock.native());
  return state_->response;
}

std::shared_ptr<const SolveResponse> JobHandle::wait_for(
    std::chrono::milliseconds timeout) const {
  if (!state_) return nullptr;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  util::MutexLock lock(state_->mutex);
  while (state_->response == nullptr) {
    if (state_->cv.wait_until(lock.native(), deadline) ==
        std::cv_status::timeout) {
      break;
    }
  }
  return state_->response;
}

std::shared_ptr<const SolveResponse> JobHandle::try_get() const {
  if (!state_) return nullptr;
  util::MutexLock lock(state_->mutex);
  return state_->response;
}

bool JobHandle::cancel() {
  if (!state_ || cancel_voted_) return false;
  cancel_voted_ = true;
  util::MutexLock lock(state_->mutex);
  ++state_->cancel_votes;
  if (state_->cancel_votes < state_->subscribers ||
      state_->response != nullptr) {
    return false;  // a twin still wants the result, or it's already done
  }
  state_->stop.request_stop();
  return true;
}

void JobHandle::on_complete(std::function<void()> callback) {
  if (!state_) return;
  util::MutexLock lock(state_->mutex);
  if (state_->response != nullptr) {
    callback();  // already finished: fire inline, exactly once
    return;
  }
  if (callback_id_ != 0) state_->remove_callback_locked(callback_id_);
  callback_id_ = ++state_->next_callback_id;
  state_->callbacks.emplace_back(callback_id_, std::move(callback));
}

void JobHandle::release() noexcept {
  if (!state_) return;
  {
    util::MutexLock lock(state_->mutex);
    // An unfired callback must never outlive its handle: whoever
    // registered it may be gone by the time the job finishes.
    if (callback_id_ != 0) state_->remove_callback_locked(callback_id_);
    if (!cancel_voted_) {
      // A handle dropped without voting no longer counts toward the
      // cancellation quorum — otherwise one discarded twin handle would
      // disable cancel() for every remaining holder. If nobody is left at
      // all, the job is abandoned and stops itself.
      --state_->subscribers;
      state_->maybe_stop_locked();
    }
  }
  state_.reset();
  cancel_voted_ = false;
  callback_id_ = 0;
}

JobHandle::~JobHandle() { release(); }

JobHandle::JobHandle(JobHandle&& other) noexcept
    : state_(std::move(other.state_)),
      cancel_voted_(std::exchange(other.cancel_voted_, false)),
      callback_id_(std::exchange(other.callback_id_, 0)) {}

JobHandle& JobHandle::operator=(JobHandle&& other) noexcept {
  if (this != &other) {
    release();
    state_ = std::move(other.state_);
    cancel_voted_ = std::exchange(other.cancel_voted_, false);
    callback_id_ = std::exchange(other.callback_id_, 0);
  }
  return *this;
}

std::uint64_t JobHandle::fingerprint() const noexcept {
  return state_ ? state_->fingerprint : 0;
}

// ------------------------------------------------------------ SolveService

SolveService::SolveService(ServiceOptions options)
    : options_(options),
      hist_queue_ms_(registry_.histogram(
          "saim_job_queue_ms", "submit to worker claim, milliseconds")),
      hist_setup_ms_(registry_.histogram(
          "saim_job_setup_ms",
          "worker claim to solve start (batch drain + model build), ms")),
      hist_solve_ms_(registry_.histogram(
          "saim_job_solve_ms", "solve start to job completion, ms")),
      hist_total_ms_(registry_.histogram(
          "saim_job_total_ms", "submit to response ready, milliseconds")),
      cache_(options.cache_capacity, options.warm_pool_capacity),
      pool_(options.workers == 0 ? util::hardware_threads()
                                 : options.workers) {
  for (std::size_t w = 0; w < pool_.thread_count(); ++w) {
    pool_.submit([this] { worker_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

std::size_t SolveService::worker_count() const noexcept {
  return pool_.thread_count();
}

namespace {

/// Extends a problem content hash with the solve parameters.
std::uint64_t request_fingerprint_with(std::uint64_t problem_fp,
                                       const SolveRequest& request) {
  problems::Fingerprint fp;
  fp.mix(problem_fp);

  fp.mix(request.backend.name);
  fp.mix(static_cast<std::uint64_t>(request.backend.sweeps));
  fp.mix(request.backend.beta_max);

  const core::SaimOptions& o = request.options;
  fp.mix(static_cast<std::uint64_t>(o.iterations));
  fp.mix(o.eta);
  fp.mix(o.penalty_alpha);
  fp.mix(o.penalty);
  fp.mix(static_cast<std::uint64_t>(o.step_rule));
  fp.mix(o.seed);
  fp.mix(static_cast<std::uint64_t>(o.replicas));
  fp.mix(static_cast<std::uint64_t>(o.record_history));
  fp.mix(static_cast<std::uint64_t>(o.use_best_sample));
  fp.mix(static_cast<std::uint64_t>(o.collect_feasible_costs));
  fp.mix(static_cast<std::uint64_t>(o.convergence_patience));
  fp.mix(o.convergence_tol);
  // Warm and cold twins are different computations: a warm job's output
  // depends on the pool, so it must never collide with a cold twin in the
  // cache or the in-flight table.
  fp.mix(static_cast<std::uint64_t>(request.warm_start));
  return fp.digest();
}

/// Batchability: everything that shapes the shared model/backend — and
/// nothing that is legitimately per-member (seed, eta, iterations,
/// replicas, deadline, warm_start).
std::uint64_t batch_key_with(std::uint64_t problem_fp,
                             const SolveRequest& request) {
  problems::Fingerprint fp;
  fp.mix(problem_fp);
  fp.mix(request.backend.name);
  fp.mix(static_cast<std::uint64_t>(request.backend.sweeps));
  fp.mix(request.backend.beta_max);
  fp.mix(request.options.penalty);
  fp.mix(request.options.penalty_alpha);
  return fp.digest();
}

}  // namespace

std::uint64_t SolveService::request_fingerprint(const SolveRequest& request) {
  if (!request.problem) {
    throw std::invalid_argument("request_fingerprint: null problem");
  }
  return request_fingerprint_with(problems::fingerprint(*request.problem),
                                  request);
}

std::uint64_t SolveService::problem_fingerprint(
    const std::shared_ptr<const problems::ConstrainedProblem>& problem) {
  const void* key = problem.get();
  {
    util::MutexLock lock(memo_mutex_);
    const auto it = problem_fp_memo_.find(key);
    if (it != problem_fp_memo_.end()) {
      // The memo is only valid while the original object is alive — an
      // expired weak_ptr means this address was freed and possibly reused
      // by a different problem.
      if (it->second.first.lock() == problem) return it->second.second;
      problem_fp_memo_.erase(it);
    }
  }
  const std::uint64_t fp = problems::fingerprint(*problem);
  constexpr std::size_t kMemoCapacity = 1024;
  util::MutexLock lock(memo_mutex_);
  if (problem_fp_memo_.size() >= kMemoCapacity) {
    // Prune dead handles first; if every entry is still live (a huge
    // all-distinct job stream), drop an arbitrary one — the memo is a
    // cache, staying bounded beats keeping any particular entry.
    for (auto it = problem_fp_memo_.begin(); it != problem_fp_memo_.end();) {
      it = it->second.first.expired() ? problem_fp_memo_.erase(it)
                                      : std::next(it);
    }
    if (problem_fp_memo_.size() >= kMemoCapacity) {
      problem_fp_memo_.erase(problem_fp_memo_.begin());
    }
  }
  problem_fp_memo_.emplace(key, std::make_pair(problem, fp));
  return fp;
}

JobHandle SolveService::submit(SolveRequest request) {
  if (!request.problem) {
    throw std::invalid_argument("SolveService::submit: null problem");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t problem_fp = problem_fingerprint(request.problem);
  const std::uint64_t fp = request_fingerprint_with(problem_fp, request);

  auto job = std::make_shared<JobState>();
  job->fingerprint = fp;
  job->problem_fp = problem_fp;
  job->batch_key = batch_key_with(problem_fp, request);
  job->submitted_at = std::chrono::steady_clock::now();

  {
    util::MutexLock lock(inflight_mutex_);
    if (!accepting_) {
      throw std::runtime_error("SolveService::submit after shutdown");
    }

    // Warm jobs bypass the replay machinery wholesale: their result is a
    // function of the pool's state at execution time, so serving a stored
    // twin (cache) or joining a running one (coalescing) would hand the
    // caller a different pool snapshot than the one they asked to use.
    if (request.use_cache && !request.warm_start) {
      // Completed twin: serve the very SolveResult object computed the
      // first time — bit-identical by construction, no recompute.
      if (auto cached = cache_.get(fp)) {
        auto response = std::make_shared<SolveResponse>();
        response->result = std::move(cached);
        response->status = response->result->status;
        response->cache_hit = true;
        response->fingerprint = fp;
        response->tag = std::move(request.tag);
        // A hit runs nothing: every stage is zero except the (tiny)
        // submit-to-ready total, which still feeds the latency picture.
        response->finished_at = std::chrono::steady_clock::now();
        response->timing.total_ms =
            std::chrono::duration<double, std::milli>(response->finished_at -
                                                      job->submitted_at)
                .count();
        hist_total_ms_.observe(response->timing.total_ms);
        {
          // `job` is still thread-local here, but response is guarded
          // state: take the (uncontended) lock so the store is ordered
          // for any thread the returned handle travels to.
          util::MutexLock job_lock(job->mutex);
          job->response = std::move(response);
        }
        return JobHandle(std::move(job));
      }
    }

    // Running twin: join the in-flight computation instead of queueing a
    // duplicate. The joiner keeps its own cancel vote via `subscribers`.
    // Join only when the twin can still complete and neither side carries
    // a deadline (timeouts are not fingerprinted, so coalescing across
    // them would hand one caller the other's time budget) — otherwise
    // fall through and compute independently.
    if (const auto it = request.warm_start ? inflight_.end()
                                           : inflight_.find(fp);
        it != inflight_.end()) {
      if (auto twin = it->second.lock();
          twin && twin->request.timeout.count() == 0 &&
          request.timeout.count() == 0) {
        bool joined = false;
        {
          // Same lock as cancel()/release(): either our subscription is
          // visible before a cancel quorum is evaluated, or the stop is
          // already requested and we decline — a joiner can never be
          // handed a cancellation it did not vote for.
          util::MutexLock job_lock(twin->mutex);
          if (!twin->stop.stop_requested()) {
            ++twin->subscribers;
            joined = true;
          }
        }
        if (joined) {
          coalesced_.fetch_add(1, std::memory_order_relaxed);
          // No priority inversion: a joiner from a higher band re-pushes
          // the still-queued twin there; the duplicate queue entry is
          // skipped via JobState::started.
          if (request.priority > twin->request.priority &&
              !twin->started.load(std::memory_order_acquire)) {
            queue_.push(twin, request.priority);
          }
          return JobHandle(std::move(twin));
        }
      }
    }

    job->request = std::move(request);
    if (job->request.timeout.count() > 0) {
      // Clamp before the ms -> steady_clock-tick (ns) conversion, which
      // overflows int64 past ~292 years; a decade is indistinguishable
      // from "no deadline" for a solve job.
      constexpr std::chrono::milliseconds kMaxTimeout =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::hours(24 * 3650));
      job->stop = util::StopSource::after(
          std::min(job->request.timeout, kMaxTimeout));
    }
    // Register for coalescing only if the slot is free: a job that
    // *declined* to join a live twin (deadline mismatch) must not evict
    // that twin's entry — later deadline-free duplicates should still
    // find and join the original. Warm jobs never coalesce, so they do
    // not register either.
    if (!job->request.warm_start) {
      if (auto& slot = inflight_[fp]; slot.expired()) slot = job;
    }
  }

  if (!queue_.push(job, job->request.priority)) {
    // Shutdown raced us between the lock and the push: fail the job the
    // same way drained queue entries fail (stat included).
    auto response = std::make_shared<SolveResponse>();
    auto result = std::make_shared<core::SolveResult>();
    result->status = core::Status::kCancelled;
    response->result = std::move(result);
    response->status = core::Status::kCancelled;
    response->fingerprint = fp;
    response->tag = job->request.tag;
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    finish(job, std::move(response));
  }
  return JobHandle(std::move(job));
}

void SolveService::worker_loop() {
  while (true) {
    idle_workers_.fetch_add(1, std::memory_order_relaxed);
    auto popped = queue_.pop();
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (!popped) break;
    const std::shared_ptr<JobState> job = *popped;
    // A job can appear in the queue more than once (priority re-push on
    // coalesce); whoever flips `started` first owns it.
    if (job->started.exchange(true, std::memory_order_acq_rel)) continue;
    job->claimed_at = std::chrono::steady_clock::now();

    // Same-instance batching: pull this job's queued batch-key twins from
    // its own priority band into one shared execution. Budget rules (see
    // ServiceOptions::max_batch): a deadline-carrying job batches nothing
    // extra, and idle workers are left enough queued jobs to stay busy —
    // batching amortizes setup, but parallel solo execution beats
    // lockstep sharing of one thread whenever threads are free. The idle
    // read is racy-by-design: a stale value costs one suboptimal batch,
    // never correctness.
    std::size_t budget =
        options_.max_batch > 1 && job->request.timeout.count() == 0
            ? options_.max_batch - 1
            : 0;
    if (budget > 0) {
      const std::size_t idle = idle_workers_.load(std::memory_order_relaxed);
      const std::size_t backlog = queue_.size();
      budget = std::min(budget, backlog > idle ? backlog - idle : 0);
    }
    std::vector<std::shared_ptr<JobState>> members{job};
    if (budget > 0) {
      auto twins = queue_.drain_matching(
          budget, [&](const std::shared_ptr<JobState>& t) {
            return t->batch_key == job->batch_key &&
                   t->request.priority == job->request.priority &&
                   !t->started.load(std::memory_order_acquire);
          });
      for (auto& twin : twins) {
        // A drained entry can be a duplicate of an already-claimed job
        // (priority re-push); the exchange makes claiming it idempotent.
        if (twin->started.exchange(true, std::memory_order_acq_rel)) {
          continue;
        }
        twin->claimed_at = std::chrono::steady_clock::now();
        members.push_back(std::move(twin));
      }
    }
    if (members.size() == 1 && !job->request.warm_start) {
      execute(job);  // the proven solo path; nothing to amortize or seed
    } else {
      execute_batch(members);
    }
  }
}

void SolveService::record_outcome(
    const std::shared_ptr<JobState>& job,
    const std::shared_ptr<core::SolveResult>& result) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  switch (result->status) {
    case core::Status::kCompleted:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Status::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Status::kDeadline:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Status::kError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (result->status != core::Status::kCompleted) return;
  // Only full solves are worth replaying; partial (stopped) results depend
  // on wall-clock timing and must never be served to a future request.
  // Warm results are excluded too: they depend on the pool snapshot.
  if (job->request.use_cache && !job->request.warm_start) {
    cache_.put(job->fingerprint, result);
  }
  // Every completed feasible job deposits its best configuration into the
  // problem's warm-start pool (no opt-in needed to GIVE — only to TAKE).
  if (result->found_feasible && !result->best_config.empty()) {
    cache_.put_warm(job->problem_fp, result->best_config, result->best_cost);
  }
}

void SolveService::execute(const std::shared_ptr<JobState>& job) {
  const SolveRequest& request = job->request;
  const util::StopToken stop = job->stop.token();

  auto response = std::make_shared<SolveResponse>();
  response->fingerprint = job->fingerprint;
  response->tag = request.tag;

  util::WallTimer timer;
  std::shared_ptr<core::SolveResult> result;
  try {
    auto backend = make_backend(request.backend);
    backend->set_batch_threads(options_.backend_batch_threads);
    core::SaimSolver solver(*request.problem, *backend, request.options);
    job->solve_started_at = std::chrono::steady_clock::now();
    result = std::make_shared<core::SolveResult>(
        solver.solve(request.evaluator, stop));
  } catch (const std::exception& e) {
    result = std::make_shared<core::SolveResult>();
    result->status = core::Status::kError;
    response->error = e.what();
  } catch (...) {
    // User-supplied evaluators can throw anything; letting it escape the
    // worker thread would terminate the whole service.
    result = std::make_shared<core::SolveResult>();
    result->status = core::Status::kError;
    response->error = "unknown exception in solve job";
  }
  response->wall_ms = timer.milliseconds();
  response->status = result->status;

  record_outcome(job, result);
  response->result = std::move(result);
  finish(job, std::move(response));
}

void SolveService::execute_batch(
    const std::vector<std::shared_ptr<JobState>>& members) {
  util::WallTimer timer;
  if (members.size() > 1) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_jobs_.fetch_add(members.size(), std::memory_order_relaxed);
  }

  std::vector<bool> seeded(members.size(), false);

  // Finishes one member the moment its DualAscent settles — waiters on a
  // short or deadline-stopped member wake while its batch-mates run on.
  std::vector<bool> finished(members.size(), false);
  const auto finish_member = [&](std::size_t i, core::BatchOutcome& outcome) {
    const auto& member = members[i];
    auto response = std::make_shared<SolveResponse>();
    response->fingerprint = member->fingerprint;
    response->tag = member->request.tag;
    response->batch_size = members.size();
    response->warm_started = seeded[i];
    response->wall_ms = timer.milliseconds();
    response->error = std::move(outcome.error);
    auto result =
        std::make_shared<core::SolveResult>(std::move(outcome.result));
    response->status = result->status;
    record_outcome(member, result);
    response->result = std::move(result);
    finished[i] = true;
    finish(member, std::move(response));
  };

  // Every member that had not yet settled when a batch-level failure
  // lands (unknown backend, model build, a throwing evaluator copy) fails
  // with the same diagnosis instead of leaving its waiters hanging.
  const auto fail_rest = [&](const char* what) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (finished[i]) continue;
      core::BatchOutcome outcome;
      outcome.result.status = core::Status::kError;
      outcome.error = what;
      finish_member(i, outcome);
    }
  };

  try {
    // Inside the try: evaluator copies are user code and may throw, like
    // everything else user-supplied on this path (mirrors execute()'s
    // "letting it escape the worker thread would terminate the service").
    std::vector<core::BatchJob> jobs;
    jobs.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const SolveRequest& request = members[i]->request;
      core::BatchJob batch_job;
      batch_job.options = request.options;
      batch_job.evaluator = request.evaluator;
      batch_job.stop = members[i]->stop.token();
      if (request.warm_start) {
        batch_job.warm_starts = cache_.warm_samples(members[i]->problem_fp);
        seeded[i] = !batch_job.warm_starts.empty();
        if (seeded[i]) warm_seeded_.fetch_add(1, std::memory_order_relaxed);
      }
      jobs.push_back(std::move(batch_job));
    }
    auto backend = make_backend(members.front()->request.backend);
    backend->set_batch_threads(options_.backend_batch_threads);
    const auto solve_start = std::chrono::steady_clock::now();
    for (const auto& member : members) member->solve_started_at = solve_start;
    core::solve_batch(*members.front()->request.problem, *backend,
                      std::move(jobs), finish_member);
  } catch (const std::exception& e) {
    fail_rest(e.what());
  } catch (...) {
    fail_rest("unknown exception in solve batch");
  }
}

void SolveService::finish(const std::shared_ptr<JobState>& job,
                          std::shared_ptr<SolveResponse> response) {
  // Stamp the stage timings before the response goes const-visible. Epoch
  // timestamps mean the stage never happened (queued job failed at
  // shutdown, batch build threw before the solve) — those stages read 0.
  using float_ms = std::chrono::duration<double, std::milli>;
  constexpr std::chrono::steady_clock::time_point kEpoch{};
  const auto now = std::chrono::steady_clock::now();
  response->finished_at = now;
  if (job->submitted_at != kEpoch) {
    response->timing.total_ms = float_ms(now - job->submitted_at).count();
    hist_total_ms_.observe(response->timing.total_ms);
  }
  if (job->claimed_at != kEpoch) {
    response->timing.queue_ms =
        float_ms(job->claimed_at - job->submitted_at).count();
    hist_queue_ms_.observe(response->timing.queue_ms);
    if (job->solve_started_at != kEpoch) {
      response->timing.setup_ms =
          float_ms(job->solve_started_at - job->claimed_at).count();
      response->timing.solve_ms =
          float_ms(now - job->solve_started_at).count();
      hist_setup_ms_.observe(response->timing.setup_ms);
      hist_solve_ms_.observe(response->timing.solve_ms);
    }
  }
  {
    util::MutexLock lock(inflight_mutex_);
    const auto it = inflight_.find(job->fingerprint);
    if (it != inflight_.end() && it->second.lock() == job) {
      inflight_.erase(it);
    }
  }
  {
    // Callbacks fire inside the publishing critical section: nobody can
    // observe the response (and, say, drop the handle) while one runs.
    util::MutexLock lock(job->mutex);
    job->response = std::move(response);
    for (auto& [id, callback] : job->callbacks) callback();
    job->callbacks.clear();
  }
  job->cv.notify_all();
}

void SolveService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      util::MutexLock lock(inflight_mutex_);
      accepting_ = false;
    }
    // Fail everything still queued; running jobs finish cooperatively.
    // Re-pushed duplicates of already-claimed jobs are skipped, same as
    // in worker_loop.
    for (auto& job : queue_.drain()) {
      if (job->started.exchange(true, std::memory_order_acq_rel)) continue;
      job->stop.request_stop();
      auto response = std::make_shared<SolveResponse>();
      auto result = std::make_shared<core::SolveResult>();
      result->status = core::Status::kCancelled;
      response->result = std::move(result);
      response->status = core::Status::kCancelled;
      response->fingerprint = job->fingerprint;
      response->tag = job->request.tag;
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      finish(job, std::move(response));
    }
    queue_.close();
    pool_.shutdown();
  });
}

SolveService::Stats SolveService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
  s.warm_seeded = warm_seeded_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace saim::service
