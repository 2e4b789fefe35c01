// mkp-scalar and qkp-bitslice: the solve path with no front door.
//
// End-to-end (untraced) run: one SolveService (1 worker, cache off, one
// replica-batch thread) and one closed-loop client that keeps one job in
// flight for the measuring window. The traced run pushes a fixed job list
// through the service untraced, then replays the same list through the
// public calls the service makes (request_for, the LagrangianModel
// constructor, make_backend + bind, DualAscent::step) with a forwarding
// backend decorator and an evaluator wrapper recording spans, and checks
// the replay reproduces the service's results bit for bit.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "reference.hpp"
#include "service/backend_factory.hpp"
#include "service/request_builders.hpp"
#include "service/solve_service.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = saim::service;
namespace sp = saim::problems;
using saim::anneal::IsingSolverBackend;
using saim::anneal::RunResult;
using saim::util::mean_of;

struct SolveShape {
  const char* family;  ///< "mkp" or "qkp"
  std::size_t n;
  std::size_t param;     ///< MKP: constraints; QKP: density percent
  std::size_t replicas;  ///< 1 = scalar engine; >= 32 = bit-sliced engine
  /// Fixed job prefix that quality_ratio is taken over and the traced
  /// run replays, so both repeat exactly for one workload seed.
  std::size_t fixed_jobs;
};

constexpr std::size_t kInstances = 4;
constexpr std::size_t kIterations = 30;
constexpr std::size_t kSweeps = 100;
/// The window stays open, in whole rounds, until this many jobs are timed,
/// so that p90 always has at least 10 samples beyond it.
constexpr std::size_t kMinTimedJobs = 100;

SolveShape shape_of(const std::string& workload) {
  if (workload == "mkp-scalar") return {"mkp", 100, 5, 1, 64};
  return {"qkp", 100, 25, 64, 48};
}

struct Instance {
  std::string spec;
  std::shared_ptr<const sp::MkpInstance> mkp;
  std::shared_ptr<const sp::QkpInstance> qkp;
  svc::SolveRequest base;  ///< request_for lowering
};

Instance make_instance(const SolveShape& shape, int k) {
  Instance inst;
  inst.spec = std::string(shape.family) + ":" + std::to_string(shape.n) +
              "-" + std::to_string(shape.param) + "-" + std::to_string(k);
  if (std::string(shape.family) == "mkp") {
    inst.mkp = std::make_shared<const sp::MkpInstance>(
        sp::make_paper_mkp(shape.n, shape.param, k));
    inst.base = svc::request_for(inst.mkp);
  } else {
    inst.qkp = std::make_shared<const sp::QkpInstance>(sp::make_paper_qkp(
        shape.n, static_cast<int>(shape.param), k));
    inst.base = svc::request_for(inst.qkp);
  }
  return inst;
}

svc::SolveRequest job_request(const svc::SolveRequest& base,
                              const SolveShape& shape, std::uint64_t seed,
                              const std::string& tag) {
  svc::SolveRequest r = base;
  r.backend.name = "pbit";
  r.backend.sweeps = kSweeps;
  r.options.iterations = kIterations;
  r.options.replicas = shape.replicas;
  r.options.seed = seed;
  r.use_cache = false;
  r.tag = tag;
  return r;
}

std::uint64_t job_seed(std::uint64_t workload_seed, std::size_t j) {
  return splitmix(workload_seed * 1000003ULL + j);
}

struct Service {
  std::vector<Instance> instances;
  std::unique_ptr<svc::SolveService> service;
  double seconds = 0.0;
  std::size_t warmup_failures = 0;
};

/// Workload start to the first timed job: instance generation, lowering,
/// service construction and one untimed warm-up job per instance.
Service set_up(const SolveShape& shape, std::uint64_t seed) {
  const auto t0 = Clock::now();
  Service s;
  for (std::size_t i = 0; i < kInstances; ++i) {
    s.instances.push_back(make_instance(shape, instance_index(i)));
  }
  svc::ServiceOptions so;
  so.workers = 1;
  so.cache_capacity = 0;
  so.backend_batch_threads = 1;
  s.service = std::make_unique<svc::SolveService>(so);
  for (std::size_t i = 0; i < kInstances; ++i) {
    const auto response =
        s.service
            ->submit(job_request(s.instances[i].base, shape,
                                 splitmix(~seed - i), "warm" + std::to_string(i)))
            .wait();
    if (!response || response->status != saim::core::Status::kCompleted) {
      ++s.warmup_failures;
    }
  }
  s.seconds = ms_between(t0, Clock::now()) / 1000.0;
  return s;
}

struct Job {
  std::size_t instance = 0;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;
  bool timed = false;
  std::shared_ptr<const svc::SolveResponse> response;
};

// ------------------------------------------------------------ traced replay

/// Per-job counters gathered by the decorator and the evaluator wrapper.
struct JobCounters {
  std::size_t iteration = 0;
  std::uint64_t spin_visits = 0;
  std::uint64_t samples = 0;
  std::uint64_t feasible = 0;
  long first_feasible_iter = -1;
};

/// Forwards every IsingSolverBackend virtual to `inner`, recording a span
/// around each call. Stop tokens and initial states live in the
/// non-virtual base and are not forwarded: the replayed jobs never stop
/// early and never warm start, so the inner backend's defaults match the
/// service's.
class TracedBackend final : public IsingSolverBackend {
 public:
  TracedBackend(IsingSolverBackend& inner, Tracer& tracer, std::int64_t job,
                JobCounters& counters)
      : inner_(inner), tracer_(tracer), job_(job), counters_(counters) {}

  void bind(const saim::ising::IsingModel& model) override {
    Tracer::Scope span(tracer_, "anneal.bind", job_);
    inner_.bind(model);
    spins_ = model.n();
  }
  void fields_updated() override {
    Tracer::Scope span(tracer_, "anneal.fields", job_);
    inner_.fields_updated();
  }
  RunResult run(saim::util::Xoshiro256pp& rng) override {
    Tracer::Scope span(tracer_, "anneal.run", job_);
    RunResult r = inner_.run(rng);
    counters_.spin_visits += r.sweeps * spins_;
    return r;
  }
  std::vector<RunResult> run_batch(saim::util::Xoshiro256pp& rng,
                                   std::size_t replicas) override {
    Tracer::Scope span(tracer_, "anneal.run", job_);
    auto runs = inner_.run_batch(rng, replicas);
    for (const auto& r : runs) counters_.spin_visits += r.sweeps * spins_;
    return runs;
  }
  [[nodiscard]] bool supports_initial_states() const noexcept override {
    return inner_.supports_initial_states();
  }
  [[nodiscard]] bool supports_fused_batch() const noexcept override {
    return inner_.supports_fused_batch();
  }
  void enqueue_fused(saim::util::Xoshiro256pp& rng,
                     std::size_t replicas) override {
    inner_.enqueue_fused(rng, replicas);
  }
  std::vector<std::vector<RunResult>> run_fused() override {
    Tracer::Scope span(tracer_, "anneal.run", job_);
    return inner_.run_fused();
  }
  [[nodiscard]] std::size_t sweeps_per_run() const override {
    return inner_.sweeps_per_run();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  IsingSolverBackend& inner_;
  Tracer& tracer_;
  std::int64_t job_;
  JobCounters& counters_;
  std::size_t spins_ = 0;
};

/// Layer a span name belongs to (the prefix before the dot).
std::string layer_of(const char* span) {
  const std::string s(span);
  return s.substr(0, s.find('.'));
}

}  // namespace

Outcome run_solve_workload(const RunOptions& options) {
  const SolveShape shape = shape_of(options.workload);
  Outcome out;

  if (const std::string err = reference_selftest(); !err.empty()) {
    out.fail(err);
  }

  std::vector<double> setups;
  Service s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    s = Service{};  // tear the previous service down before timing anew
    s = set_up(shape, options.seed);
    setups.push_back(s.seconds);
    for (std::size_t f = 0; f < s.warmup_failures; ++f) {
      out.fail("warm-up job did not complete");
    }
  }

  // The traced run needs no measuring window: it runs the fixed job list
  // untraced, then replays it.
  const double window_s = options.trace ? 0.0 : options.seconds;
  std::vector<Job> jobs;
  const auto t_start = Clock::now();
  auto t_window_end = t_start;
  // Jobs go round-robin over the instances, and the window closes only
  // between whole rounds: instances differ in solve time, so a partial
  // round would shift the latency quantiles between instance clusters.
  const std::size_t min_timed = options.trace ? 0 : kMinTimedJobs;
  bool round_timed = false;
  std::size_t timed = 0;
  for (std::size_t j = 0;; ++j) {
    if (j % kInstances == 0) {
      const double elapsed = ms_between(t_start, Clock::now()) / 1000.0;
      round_timed = elapsed < window_s || timed < min_timed;
      if (!round_timed && j >= shape.fixed_jobs) break;
    }
    Job job;
    job.instance = j % kInstances;
    job.seed = job_seed(options.seed, j);
    job.timed = round_timed;
    auto request = job_request(s.instances[job.instance].base, shape,
                               job.seed, "j" + std::to_string(j));
    const auto t0 = Clock::now();
    job.response = s.service->submit(std::move(request)).wait();
    const auto t1 = Clock::now();
    job.latency_ms = ms_between(t0, t1);
    if (job.timed) {
      t_window_end = t1;
      ++timed;
    }
    jobs.push_back(std::move(job));
  }
  const double peak_mb = peak_rss_mb(getpid());

  // ---- correctness and quality, outside every timed region
  std::vector<Reference> refs;
  saim::util::JsonValue::Array ref_json;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance& inst = s.instances[i];
    refs.push_back(inst.mkp ? mkp_reference(*inst.mkp)
                            : qkp_reference(*inst.qkp));
    if (inst.mkp && !refs.back().proven) {
      out.fail("MKP reference not proven optimal for " + inst.spec);
    }
    ref_json.push_back(saim::util::JsonValue::Object{
        {"instance", inst.spec},
        {"profit", refs.back().profit},
        {"kind", refs.back().kind}});
  }

  double quality_sum = 0.0;
  std::size_t feasible_jobs = 0;
  std::vector<double> latencies;
  std::vector<double> queue_ms, setup_ms, solve_ms, total_ms, wall_ms;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    ++out.attempted;
    const auto& resp = job.response;
    const std::string id = "j" + std::to_string(j);
    if (!resp || !resp->result ||
        resp->status != saim::core::Status::kCompleted || resp->tag != id) {
      out.fail(id + ": not completed exactly once under its id");
      continue;
    }
    const auto& res = *resp->result;
    double ratio = 0.0;
    if (res.found_feasible) {
      const Instance& inst = s.instances[job.instance];
      const auto judge = inst.mkp ? saim::core::make_mkp_evaluator(*inst.mkp)
                                  : saim::core::make_qkp_evaluator(*inst.qkp);
      const auto verdict = judge(res.best_x);
      if (!verdict.feasible || verdict.cost != res.best_cost) {
        out.fail(id + ": best_x re-judged infeasible or at another cost");
        continue;
      }
      ratio = -res.best_cost / refs[job.instance].profit;
      if (inst.mkp && ratio > 1.0) {
        out.fail(id + ": MKP profit above the proven optimum");
        continue;
      }
    }
    if (j < shape.fixed_jobs) {
      quality_sum += ratio;
      if (res.found_feasible) ++feasible_jobs;
    }
    if (job.timed) latencies.push_back(job.latency_ms);
    queue_ms.push_back(resp->timing.queue_ms);
    setup_ms.push_back(resp->timing.setup_ms);
    solve_ms.push_back(resp->timing.solve_ms);
    total_ms.push_back(resp->timing.total_ms);
    wall_ms.push_back(resp->wall_ms);
  }
  const double quality =
      quality_sum / static_cast<double>(shape.fixed_jobs);

  out.note("instances", std::move(ref_json));
  out.note("reference_kind", refs.front().kind);
  out.note("fixed_jobs", static_cast<double>(shape.fixed_jobs));
  out.note("fixed_jobs_feasible", static_cast<double>(feasible_jobs));
  out.note("setup_samples_s", json_array(setups));

  if (!options.trace) {
    const std::size_t n = latencies.size();
    const double window = ms_between(t_start, t_window_end) / 1000.0;
    out.note("timed_jobs", static_cast<double>(n));
    out.note("p90_samples_beyond", samples_beyond(n, 0.90));
    out.metric("setup_s", quantile(setups, 0.5), "s");
    out.metric("jobs_per_s", window > 0 ? static_cast<double>(n) / window : 0,
               "1/s");
    out.metric("p50_ms", quantile(latencies, 0.50), "ms");
    out.metric("p90_ms", quantile(latencies, 0.90), "ms");
    out.metric("quality_ratio", quality, "ratio");
    out.metric("peak_rss_mb", peak_mb, "MiB");
    out.metric("completed_frac",
               1.0 - static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted),
               "ratio");
    return out;
  }

  // ---- traced replay of the same job list
  Tracer tracer;
  std::vector<svc::SolveRequest> lowered;
  for (const Instance& inst : s.instances) {
    Tracer::Scope span(tracer, "problems.lower", -1);
    lowered.push_back(inst.mkp ? svc::request_for(inst.mkp)
                               : svc::request_for(inst.qkp));
  }
  std::vector<JobCounters> counters(jobs.size());
  std::vector<double> couplings;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const auto jid = static_cast<std::int64_t>(j);
    JobCounters& c = counters[j];
    const svc::SolveRequest request =
        job_request(lowered[job.instance], shape, job.seed, "");
    saim::core::SampleEvaluator judged =
        [&tracer, &c, jid, inner = request.evaluator](
            std::span<const std::uint8_t> x) {
          Tracer::Scope span(tracer, "core.judge", jid);
          const auto v = inner(x);
          ++c.samples;
          if (v.feasible) {
            ++c.feasible;
            if (c.first_feasible_iter < 0) {
              c.first_feasible_iter = static_cast<long>(c.iteration);
            }
          }
          return v;
        };
    saim::core::SolveResult result;
    {
      Tracer::Scope job_span(tracer, "job", jid);
      std::unique_ptr<saim::lagrange::LagrangianModel> model;
      {
        Tracer::Scope span(tracer, "lagrange.build", jid);
        const auto& o = request.options;
        model = std::make_unique<saim::lagrange::LagrangianModel>(
            *request.problem,
            o.penalty >= 0.0 ? o.penalty
                             : saim::lagrange::heuristic_penalty(
                                   *request.problem, o.penalty_alpha));
      }
      std::unique_ptr<IsingSolverBackend> backend;
      {
        Tracer::Scope span(tracer, "anneal.make", jid);
        backend = svc::make_backend(request.backend);
        backend->set_batch_threads(1);
      }
      TracedBackend traced(*backend, tracer, jid, c);
      traced.bind(model->ising());
      saim::core::DualAscent ascent(*request.problem, request.options,
                                    judged, saim::util::StopToken{});
      for (;; ++c.iteration) {
        Tracer::Scope span(tracer, "core.step", jid);
        if (ascent.step(*model, traced)) break;
      }
      result = std::move(ascent.result());
      couplings.push_back(static_cast<double>(model->ising().nnz()));
    }
    const auto& served = job.response->result;
    if (served && (result.best_cost != served->best_cost ||
                   result.feasible_count != served->feasible_count ||
                   result.total_sweeps != served->total_sweeps)) {
      out.fail("j" + std::to_string(j) +
               ": traced replay differs from the service result");
    }
  }
  tracer.dump(options.work_dir + "/spans-" + options.workload + ".jsonl");

  // Fold spans into per-layer totals. Layer self time is span time minus
  // the time its child spans cover; the job span's own self time is what
  // no layer accounts for.
  const auto self = tracer.self_ms();
  const auto& spans = tracer.spans();
  double lower_ms = 0, lower_n = 0, build = 0, bind = 0, fields = 0, run = 0,
         judge = 0, step_self = 0, job_wall = 0, unattributed = 0;
  std::vector<double> unattributed_frac(jobs.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double dur = ms_between(spans[i].start, spans[i].end);
    if (name == "problems.lower") {
      lower_ms += dur;
      lower_n += 1;
    } else if (name == "lagrange.build") {
      build += dur;
    } else if (name == "anneal.bind") {
      bind += dur;
    } else if (name == "anneal.fields") {
      fields += dur;
    } else if (name == "anneal.run") {
      run += dur;
    } else if (name == "core.judge") {
      judge += dur;
    } else if (name == "core.step") {
      step_self += self[i];
    } else if (name == "job") {
      job_wall += dur;
      unattributed += self[i];
      unattributed_frac[static_cast<std::size_t>(spans[i].job)] =
          self[i] / dur;
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Per job, the layer self-times must account for the job's wall time.
    if (unattributed_frac[j] > 0.05) {
      out.fail("j" + std::to_string(j) + ": layers cover only " +
               std::to_string(100.0 * (1.0 - unattributed_frac[j])) +
               "% of the job's traced wall time");
    }
  }
  std::map<std::string, double> layer_self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    layer_self[layer_of(spans[i].name)] += self[i];
  }
  saim::util::JsonValue::Object layer_json;
  for (const auto& [layer, ms] : layer_self) {
    layer_json[layer] = ms / static_cast<double>(jobs.size());
  }
  out.note("layer_self_ms_per_job", std::move(layer_json));

  const auto nj = static_cast<double>(jobs.size());
  double visits = 0, samples = 0, feasible = 0, first_feasible = 0;
  for (const JobCounters& c : counters) {
    visits += static_cast<double>(c.spin_visits);
    samples += static_cast<double>(c.samples);
    feasible += static_cast<double>(c.feasible);
    first_feasible += c.first_feasible_iter < 0
                          ? static_cast<double>(kIterations)
                          : static_cast<double>(c.first_feasible_iter);
  }
  const double untraced_wall = mean_of(wall_ms);
  const double traced_wall = job_wall / nj;
  out.metric("problems.lower_ms", lower_n > 0 ? lower_ms / lower_n : 0, "ms");
  out.metric("lagrange.build_ms", build / nj, "ms");
  out.metric("lagrange.couplings", mean_of(couplings), "count");
  out.metric("anneal.bind_ms", bind / nj, "ms");
  out.metric("anneal.fields_ms", fields / nj, "ms");
  out.metric("anneal.run_ms", run / nj, "ms");
  out.metric("anneal.spin_visits", visits / nj, "count");
  out.metric("anneal.visits_per_us", run > 0 ? visits / (run * 1000.0) : 0,
             "1/us");
  out.metric("anneal.share", job_wall > 0 ? run / job_wall : 0, "ratio");
  out.metric("core.judge_ms", judge / nj, "ms");
  out.metric("core.step_self_ms", step_self / nj, "ms");
  out.metric("core.samples", samples / nj, "count");
  out.metric("core.feasible_frac", samples > 0 ? feasible / samples : 0,
             "ratio");
  out.metric("core.first_feasible_iter", first_feasible / nj, "count");
  out.metric("service.queue_ms", mean_of(queue_ms), "ms");
  out.metric("service.setup_ms", mean_of(setup_ms), "ms");
  out.metric("service.solve_ms", mean_of(solve_ms), "ms");
  out.metric("service.total_ms", mean_of(total_ms), "ms");
  out.metric("trace.overhead_ms", traced_wall - untraced_wall, "ms");
  out.metric("trace.overhead_frac",
             untraced_wall > 0 ? (traced_wall - untraced_wall) / untraced_wall
                               : 0,
             "ratio");
  out.metric("trace.unattributed_frac",
             job_wall > 0 ? unattributed / job_wall : 0, "ratio");
  return out;
}

}  // namespace perfbench
