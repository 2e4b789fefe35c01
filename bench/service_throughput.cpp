// Service-layer throughput bench: jobs/sec of SolveService on a mixed
// QKP/MKP job stream at 1/4/8 workers, plus the cache hit-rate when the
// stream repeats itself, plus the same-instance batching and warm-start
// wins. Every phase records per-job end-to-end latency into an
// obs::Histogram and reports count/mean/p50/p95/p99; most phases are
// closed-loop (each wave submits everything then waits), and the
// open_loop phase (bench/load_gen) measures the TCP front door at fixed
// arrival rates free of coordinated omission. Writes BENCH_service.json.
//
// Four phases:
//   * scaling — a stream of unique jobs (distinct seeds, cache off) timed
//     at each worker count. Jobs are independent single-threaded solves,
//     so throughput should scale with workers up to the machine's cores;
//     `hardware_threads` is recorded so a 1-core CI box explains itself.
//   * cache — the same mixed stream submitted twice through a caching
//     service: the second wave is pure cache hits, and the measured
//     hit-rate and hit-serving throughput quantify what the cache buys.
//   * batch — a duplicated-instance stream (one hot problem, distinct
//     seeds) through one worker with batching off vs on: batching
//     amortizes the model build + backend bind across members, so
//     batched jobs/sec should be >= unbatched. One worker isolates the
//     amortization from scheduling effects.
//   * warm — a hot-instance workload: a cold wave populates the
//     warm-start pool, then a warm wave (distinct seeds, warm_start on)
//     must reach at least the cold wave's best objective — pooled best
//     samples are imported, so warm_best <= cold_best (costs negative)
//     holds by construction and the JSON records it.
//   * sharded — the same mixed stream as JSONL lines through the
//     multi-process front door (service/shard_router + saim_serve
//     children, 1 worker each, driven by the Supervisor pump that
//     saim_shard ships, self-healing off) at 1/2/4 shards and over BOTH
//     transports:
//     fork/exec pipes (transport "pipe") and loopback TCP against
//     `saim_serve --listen` servers (transport "socket"), so pipe-vs-TCP
//     overhead is tracked release over release. Throughput should scale
//     with shard count on multicore boxes. Skipped (and marked so in the
//     JSON) when the saim_serve binary is not next to the bench.
//   * skewed — a single-hot-key stream (every job a twin of one instance)
//     through 2 shards at replication R=1 vs R=2 with hot-key routing:
//     under R=1 the whole stream serializes on the key's owner while the
//     other shard idles; under R=2 twins spread over the replica set, so
//     R=2 should beat R=1 on multicore boxes. The two configurations
//     alternate over several waves each and the JSON records their
//     median jobs/sec, the speedup of the medians and how many twins
//     were replica-routed.
//   * open_loop — the event-driven `saim_serve --listen` front door
//     under an open-loop generator (bench/load_gen.hpp): jobs arrive on
//     a fixed Poisson schedule at several rates and latency is measured
//     from each job's SCHEDULED send time, so queueing delay at
//     saturation is measured, not coordinated-omitted away. Each rate
//     runs against a fresh server whose own stage latencies (submit to
//     response, response to result line written) are read back with a
//     {"cmd":"stats"} probe, so the client-visible latency can be held
//     against what the server itself accounts for.
//   * hedge — the mixed stream through 2 shards with hedging on
//     (R=2, window >= jobs so everything is in flight), then one shard is
//     SIGSTOPped mid-wave: no EOF ever fires, so hedged re-dispatch to
//     the replica is the ONLY thing that can finish the stopped shard's
//     jobs. The phase records that the wave completed and how many hedge
//     copies won.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "load_gen.hpp"
#include "net/event_loop.hpp"
#include "net/socket_child.hpp"
#include "obs/metrics.hpp"
#include "problems/mkp.hpp"
#include "problems/qkp.hpp"
#include "service/process_child.hpp"
#include "service/service_stats.hpp"
#include "service/request_builders.hpp"
#include "service/shard_router.hpp"
#include "service/solve_service.hpp"
#include "service/supervisor.hpp"
#include "util/cli.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace saim;

/// One reusable request skeleton per instance (shared problem handle +
/// evaluator); copied and specialized per submission.
std::vector<service::SolveRequest> make_mixed_stream(std::size_t instances,
                                                     std::size_t n) {
  std::vector<service::SolveRequest> templates;
  for (std::size_t i = 0; i < instances; ++i) {
    if (i % 2 == 0) {
      templates.push_back(
          service::request_for(std::make_shared<problems::QkpInstance>(
              problems::make_paper_qkp(n, 25, static_cast<int>(i / 2 + 1)))));
    } else {
      templates.push_back(
          service::request_for(std::make_shared<problems::MkpInstance>(
              problems::make_paper_mkp(n, 5, static_cast<int>(i / 2 + 1)))));
    }
  }
  return templates;
}

service::SolveRequest make_request(const service::SolveRequest& base,
                                   std::size_t iterations,
                                   std::size_t sweeps, std::uint64_t seed,
                                   bool use_cache, bool warm_start = false) {
  service::SolveRequest request = base;
  request.backend.sweeps = sweeps;
  request.options.iterations = iterations;
  request.options.seed = seed;
  request.use_cache = use_cache;
  request.warm_start = warm_start;
  return request;
}

/// Submits `jobs` same-instance requests (distinct seeds starting at
/// `seed0`) and waits; returns wall seconds and min best_cost via out-param.
double run_hot_wave(service::SolveService& svc,
                    const service::SolveRequest& hot, std::size_t jobs,
                    std::size_t iterations, std::size_t sweeps,
                    std::uint64_t seed0, bool warm_start,
                    double* best_cost = nullptr,
                    obs::Histogram* latency = nullptr) {
  std::vector<service::JobHandle> handles;
  handles.reserve(jobs);
  util::WallTimer timer;
  for (std::size_t j = 0; j < jobs; ++j) {
    handles.push_back(svc.submit(make_request(hot, iterations, sweeps,
                                              seed0 + j, /*use_cache=*/false,
                                              warm_start)));
  }
  double best = std::numeric_limits<double>::infinity();
  for (auto& h : handles) {
    const auto response = h.wait();
    if (latency) latency->observe(response->timing.total_ms);
    if (response->result->found_feasible) {
      best = std::min(best, response->result->best_cost);
    }
  }
  if (best_cost) *best_cost = best;
  return timer.seconds();
}

/// Submits `jobs` requests (seed = job index when unique_seeds) and waits
/// for all; returns wall seconds.
double run_wave(service::SolveService& svc,
                const std::vector<service::SolveRequest>& templates,
                std::size_t jobs, std::size_t iterations, std::size_t sweeps,
                bool use_cache, bool unique_seeds,
                obs::Histogram* latency = nullptr) {
  std::vector<service::JobHandle> handles;
  handles.reserve(jobs);
  util::WallTimer timer;
  for (std::size_t j = 0; j < jobs; ++j) {
    const auto& t = templates[j % templates.size()];
    handles.push_back(svc.submit(make_request(
        t, iterations, sweeps, unique_seeds ? j + 1 : 1, use_cache)));
  }
  for (auto& h : handles) {
    const auto response = h.wait();
    if (latency) latency->observe(response->timing.total_ms);
  }
  return timer.seconds();
}

/// The mixed stream as PROTOCOL.md job lines (distinct ids and seeds, no
/// caching) for the sharded phase.
std::vector<std::string> make_job_lines(std::size_t jobs,
                                        std::size_t instances, std::size_t n,
                                        std::size_t iterations,
                                        std::size_t sweeps) {
  std::vector<std::string> lines;
  lines.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t i = j % instances;
    const std::string gen =
        i % 2 == 0 ? "qkp:" + std::to_string(n) + "-25-" +
                         std::to_string(i / 2 + 1)
                   : "mkp:" + std::to_string(n) + "-5-" +
                         std::to_string(i / 2 + 1);
    util::JsonWriter line;
    line.field("id", "j" + std::to_string(j))
        .field("gen", gen)
        .field("iterations", static_cast<std::uint64_t>(iterations))
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("seed", static_cast<std::uint64_t>(j + 1))
        .field("cache", false);
    lines.push_back(line.str());
  }
  return lines;
}

/// The Supervisor pump saim_shard ships, over `serve --stream` pipe
/// children (1 worker, cache off), with self-healing off: a dead shard
/// stays dead and a stopped one is never pinged away.
service::SupervisorOptions static_fleet_options(const std::string& serve) {
  service::SupervisorOptions options;
  options.local_argv = {serve, "--stream", "--workers", "1", "--cache", "0"};
  options.respawn = false;
  options.reconnect_remotes = false;
  options.ping_ms = 0;
  return options;
}

/// Spawns one loopback `saim_serve --listen` server (streaming, cache
/// off), parks the process in `servers`, and returns its bound port — 0
/// when it fails to come up in time.
int spawn_listen_server(
    const std::string& serve, const std::string& tag, std::size_t workers,
    std::vector<std::unique_ptr<service::ProcessChild>>* servers) {
  const std::string port_file = "bench_listen_port_" + tag + ".tmp";
  std::remove(port_file.c_str());
  servers->push_back(std::make_unique<service::ProcessChild>(
      std::vector<std::string>{serve, "--listen", "127.0.0.1:0",
                               "--port-file", port_file, "--stream",
                               "--workers", std::to_string(workers),
                               "--cache", "0"}));
  int port = 0;
  for (int spin = 0; spin < 5000 && port == 0; ++spin) {
    std::ifstream pf(port_file);
    if (!(pf >> port)) {
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::remove(port_file.c_str());
  return port;
}

/// Spawns `shards` loopback `saim_serve --listen` servers (1 worker
/// each) and returns their ports. The server processes ride along in
/// `servers` (torn down by the caller). Returns an empty vector when a
/// server fails to come up in time.
std::vector<int> spawn_socket_fleet(
    const std::string& serve, std::size_t shards,
    std::vector<std::unique_ptr<service::ProcessChild>>* servers) {
  std::vector<int> ports;
  for (std::size_t s = 0; s < shards; ++s) {
    const int port =
        spawn_listen_server(serve, std::to_string(s), /*workers=*/1, servers);
    if (port == 0) return {};
    ports.push_back(port);
  }
  return ports;
}

/// Routes `lines` through `shards` shards under the Supervisor pump:
/// local `serve` pipe children, or — when `ports` is nonempty — one
/// loopback TCP session per listed server. Returns wall seconds, or a
/// negative value when any job failed. `router_options` carries
/// replication/hedging knobs (its shard count is overwritten); the
/// router's final stats land in `stats_out`.
double run_sharded_wave(const std::string& serve, std::size_t shards,
                        const std::vector<int>& ports,
                        const std::vector<std::string>& lines,
                        obs::HistogramSnapshot* latency = nullptr,
                        service::RouterOptions router_options = {},
                        service::ShardRouter::Stats* stats_out = nullptr) {
  if (shards == 0) return -1.0;
  router_options.shards = shards;
  service::ShardRouter router(router_options);
  net::EventLoop loop;
  service::Supervisor fleet(router, loop, static_fleet_options(serve));
  for (std::size_t s = 0; s < shards; ++s) {
    if (ports.empty()) {
      fleet.attach_local(s);
    } else {
      fleet.attach_remote(s, "127.0.0.1", ports[s]);
    }
  }

  util::WallTimer timer;
  std::size_t line_no = 0;
  std::size_t emitted = 0;
  for (const auto& line : lines) {
    emitted += router.accept_line(line, ++line_no).size();
  }
  emitted += fleet.pump().size();
  while (!router.idle()) {
    loop.run_once(100);
    emitted += fleet.pump().size();
    if (router.live_shards() == 0) break;
    if (timer.seconds() > 300.0) return -1.0;  // wedged child: fail loudly
  }
  const double seconds = timer.seconds();
  if (latency) {
    // Per-shard round trips merged into one phase-level distribution.
    for (std::size_t s = 0; s < router.shard_slots(); ++s) {
      latency->merge(router.latency_snapshot(s));
    }
  }
  if (stats_out) *stats_out = router.stats();
  if (router.any_error() || emitted != lines.size()) return -1.0;
  return seconds;
}

/// The server's own "latency" object (docs/PROTOCOL.md stats reply),
/// read with one {"cmd":"stats"} probe on a fresh connection. Null when
/// the server does not answer within ~5 s.
util::JsonValue probe_server_latency(int port) {
  net::SocketChild probe("127.0.0.1", port);
  probe.send_line(R"({"cmd":"stats","id":"probe"})");
  for (int spin = 0; spin < 50 && !probe.eof(); ++spin) {
    probe.pump_writes();
    for (const auto& line : probe.read_lines()) {
      const util::JsonValue reply = util::parse_json(line);
      if (const auto* service = reply.find("service")) {
        if (const auto* latency = service->find("latency")) return *latency;
      }
    }
    pollfd pfd{probe.read_fd(), POLLIN, 0};
    ::poll(&pfd, 1, 100);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_service_throughput",
                       "SolveService jobs/sec and cache hit-rate");
  args.add_flag("jobs", "jobs per measured wave", "24")
      .add_flag("instances", "distinct instances in the mixed stream", "6")
      .add_flag("n", "instance size (QKP items / MKP items)", "50")
      .add_flag("iterations", "SAIM outer iterations per job", "30")
      .add_flag("sweeps", "MCS per inner run", "200")
      .add_flag("batch-n", "hot-instance size for the batch phase", "200")
      .add_flag("batch-iterations",
                "outer iterations per batch-phase job (the online-serving "
                "shape: many cheap solves of one hot instance)",
                "2")
      .add_flag("batch-sweeps", "MCS per inner run in the batch phase", "30")
      .add_flag("serve",
                "saim_serve binary for the sharded phase (skipped when "
                "missing)",
                "./saim_serve")
      .add_flag("out", "output JSON path", "BENCH_service.json");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const auto positive = [&](const char* flag) {
    const std::int64_t v = args.get_int(flag);
    if (v <= 0) {
      std::fprintf(stderr, "--%s must be positive (got %lld)\n", flag,
                   static_cast<long long>(v));
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  };
  const auto jobs = positive("jobs");
  const auto instances = positive("instances");
  const auto n = positive("n");
  const auto iterations = positive("iterations");
  const auto sweeps = positive("sweeps");
  const auto batch_n = positive("batch-n");
  const auto batch_iterations = positive("batch-iterations");
  const auto batch_sweeps = positive("batch-sweeps");

  const auto templates = make_mixed_stream(instances, n);
  std::printf("service_throughput: %zu jobs over %zu instances (n=%zu, "
              "%zu iter x %zu MCS), %zu hardware threads\n",
              jobs, instances, n, iterations, sweeps,
              util::hardware_threads());

  // -------------------------------------------------------- scaling phase
  const std::size_t worker_counts[] = {1, 4, 8};
  double jobs_per_sec[3] = {0, 0, 0};
  std::string workers_json = "[";
  for (std::size_t w = 0; w < 3; ++w) {
    service::ServiceOptions options;
    options.workers = worker_counts[w];
    options.cache_capacity = 0;  // measure compute, not replay
    options.max_batch = 1;       // and worker scaling, not batching
    service::SolveService svc(options);
    obs::Histogram latency;
    const double seconds =
        run_wave(svc, templates, jobs, iterations, sweeps,
                 /*use_cache=*/false, /*unique_seeds=*/true, &latency);
    const auto snap = latency.snapshot();
    jobs_per_sec[w] = static_cast<double>(jobs) / seconds;
    std::printf("  %zu worker%s: %6.2f jobs/sec (%.2fs, e2e p50/p95 "
                "%.0f/%.0f ms)\n",
                worker_counts[w], worker_counts[w] == 1 ? " " : "s",
                jobs_per_sec[w], seconds, snap.quantile(0.50),
                snap.quantile(0.95));
    util::JsonWriter row;
    row.field("workers", static_cast<std::uint64_t>(worker_counts[w]))
        .field("jobs_per_sec", jobs_per_sec[w])
        .field("seconds", seconds)
        .raw_field("latency", service::latency_quantiles_json(snap));
    workers_json += (w ? "," : "") + row.str();
  }
  workers_json += "]";
  const double scaling_1_to_4 =
      jobs_per_sec[0] > 0 ? jobs_per_sec[1] / jobs_per_sec[0] : 0.0;
  std::printf("  scaling 1 -> 4 workers: %.2fx\n", scaling_1_to_4);

  // ---------------------------------------------------------- cache phase
  service::ServiceOptions cache_options;
  cache_options.workers = 4;
  cache_options.cache_capacity = 256;
  service::SolveService cached(cache_options);
  obs::Histogram cache_latency;  // both waves: misses cold, hits warm
  const double cold_seconds =
      run_wave(cached, templates, jobs, iterations, sweeps,
               /*use_cache=*/true, /*unique_seeds=*/false, &cache_latency);
  const double warm_seconds =
      run_wave(cached, templates, jobs, iterations, sweeps,
               /*use_cache=*/true, /*unique_seeds=*/false, &cache_latency);
  const auto stats = cached.stats();
  const double hit_rate = stats.cache.hit_rate();
  std::printf("  mixed stream x2: cold %.2fs, warm %.2fs, cache hit-rate "
              "%.2f (%llu coalesced)\n",
              cold_seconds, warm_seconds, hit_rate,
              static_cast<unsigned long long>(stats.coalesced));

  util::JsonWriter cache_json;
  cache_json.field("hit_rate", hit_rate)
      .field("cold_seconds", cold_seconds)
      .field("warm_seconds", warm_seconds)
      .field("warm_jobs_per_sec",
             warm_seconds > 0 ? static_cast<double>(jobs) / warm_seconds
                              : 0.0)
      .field("coalesced", stats.coalesced)
      .field("hits", stats.cache.hits)
      .field("misses", stats.cache.misses)
      .raw_field("latency",
                 service::latency_quantiles_json(cache_latency.snapshot()));

  // ---------------------------------------------------------- batch phase
  // One hot instance, distinct seeds, one worker: batching off vs on.
  // Its own job shape (batch-n / batch-iterations / batch-sweeps): the
  // amortized cost is the per-job model build + bind, so the win shows on
  // online-serving traffic — many cheap solves of one big hot instance —
  // and would drown under the long-iteration jobs of the scaling phase.
  const service::SolveRequest hot_batch =
      service::request_for(std::make_shared<problems::QkpInstance>(
          problems::make_paper_qkp(batch_n, 25, 1)));
  const std::size_t max_batch = 8;
  double unbatched_seconds = 0.0;
  double batched_seconds = 0.0;
  std::uint64_t batched_jobs_stat = 0;
  obs::Histogram unbatched_latency;
  obs::Histogram batched_latency;
  {
    service::ServiceOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    options.warm_pool_capacity = 0;
    options.max_batch = 1;  // off
    service::SolveService unbatched(options);
    unbatched_seconds =
        run_hot_wave(unbatched, hot_batch, jobs, batch_iterations,
                     batch_sweeps, /*seed0=*/1, /*warm_start=*/false,
                     /*best_cost=*/nullptr, &unbatched_latency);
  }
  {
    service::ServiceOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    options.warm_pool_capacity = 0;
    options.max_batch = max_batch;
    service::SolveService batched(options);
    batched_seconds =
        run_hot_wave(batched, hot_batch, jobs, batch_iterations,
                     batch_sweeps, /*seed0=*/1, /*warm_start=*/false,
                     /*best_cost=*/nullptr, &batched_latency);
    batched_jobs_stat = batched.stats().batched_jobs;
  }
  const double unbatched_jps =
      unbatched_seconds > 0 ? static_cast<double>(jobs) / unbatched_seconds
                            : 0.0;
  const double batched_jps =
      batched_seconds > 0 ? static_cast<double>(jobs) / batched_seconds : 0.0;
  std::printf("  hot instance x%zu (n=%zu, %zu iter x %zu MCS), 1 worker: "
              "unbatched %6.2f jobs/sec, batched %6.2f jobs/sec "
              "(%.2fx, %llu jobs in batches)\n",
              jobs, batch_n, batch_iterations, batch_sweeps, unbatched_jps,
              batched_jps,
              unbatched_jps > 0 ? batched_jps / unbatched_jps : 0.0,
              static_cast<unsigned long long>(batched_jobs_stat));

  util::JsonWriter batch_json;
  batch_json.field("max_batch", static_cast<std::uint64_t>(max_batch))
      .field("n", static_cast<std::uint64_t>(batch_n))
      .field("iterations", static_cast<std::uint64_t>(batch_iterations))
      .field("sweeps", static_cast<std::uint64_t>(batch_sweeps))
      .field("unbatched_jobs_per_sec", unbatched_jps)
      .field("batched_jobs_per_sec", batched_jps)
      .field("speedup",
             unbatched_jps > 0 ? batched_jps / unbatched_jps : 0.0)
      .field("batched_jobs", batched_jobs_stat)
      .raw_field("unbatched_latency",
                 service::latency_quantiles_json(unbatched_latency.snapshot()))
      .raw_field("batched_latency",
                 service::latency_quantiles_json(batched_latency.snapshot()));

  // ----------------------------------------------------------- warm phase
  // Cold wave fills the pool; warm wave must reach >= its best objective.
  double cold_best = 0.0;
  double warm_best = 0.0;
  std::uint64_t warm_seeded = 0;
  obs::Histogram warm_latency;  // both waves of the phase
  {
    service::ServiceOptions options;
    options.workers = 1;
    options.cache_capacity = 0;  // isolate the pool from result replay
    service::SolveService svc(options);
    const auto& hot = templates.front();
    run_hot_wave(svc, hot, jobs, iterations, sweeps, /*seed0=*/1,
                 /*warm_start=*/false, &cold_best, &warm_latency);
    run_hot_wave(svc, hot, jobs, iterations, sweeps, /*seed0=*/1000,
                 /*warm_start=*/true, &warm_best, &warm_latency);
    warm_seeded = svc.stats().warm_seeded;
  }
  const bool warm_reaches_cold = warm_best <= cold_best;
  std::printf("  warm start: cold best %.0f, warm best %.0f (%s, %llu jobs "
              "seeded)\n",
              cold_best, warm_best,
              warm_reaches_cold ? "warm >= cold objective" : "WARM FELL SHORT",
              static_cast<unsigned long long>(warm_seeded));

  util::JsonWriter warm_json;
  warm_json.field("cold_best_cost", cold_best)
      .field("warm_best_cost", warm_best)
      .field("warm_reaches_cold", warm_reaches_cold)
      .field("warm_seeded", warm_seeded)
      .raw_field("latency",
                 service::latency_quantiles_json(warm_latency.snapshot()));

  // -------------------------------------------------------- sharded phase
  // The same mixed stream through the multi-process front door at growing
  // shard counts (1 solver worker per shard, cache off): jobs/sec should
  // grow with shards up to the core count. Run over both transports —
  // pipes (local forks) and loopback TCP (saim_serve --listen) — so the
  // socket overhead is a tracked number, not a guess.
  const std::string serve = args.get("serve");
  util::JsonWriter sharded_json;
  if (::access(serve.c_str(), X_OK) != 0) {
    std::printf("  sharded: skipped ('%s' not executable)\n", serve.c_str());
    sharded_json.field("skipped", true);
  } else {
    const auto lines = make_job_lines(jobs, instances, n, iterations, sweeps);
    const std::size_t shard_counts[] = {1, 2, 4};
    double pipe_jps[3] = {0, 0, 0};
    double socket_jps_1 = 0.0;
    std::string rows = "[";
    bool first_row = true;
    const auto add_row = [&](const char* transport, std::size_t shards,
                             double jps, double seconds,
                             const obs::HistogramSnapshot& latency) {
      util::JsonWriter row;
      row.field("transport", transport)
          .field("shards", static_cast<std::uint64_t>(shards))
          .field("jobs_per_sec", jps)
          .field("seconds", seconds)
          .raw_field("latency", service::latency_quantiles_json(latency));
      rows += (first_row ? "" : ",") + row.str();
      first_row = false;
    };
    for (std::size_t i = 0; i < 3; ++i) {
      obs::HistogramSnapshot latency;
      const double seconds =
          run_sharded_wave(serve, shard_counts[i], {}, lines, &latency);
      pipe_jps[i] = seconds > 0 ? static_cast<double>(jobs) / seconds : 0.0;
      std::printf("  pipe   %zu shard%s: %6.2f jobs/sec (%.2fs, round-trip "
                  "p50/p95 %.0f/%.0f ms)\n",
                  shard_counts[i], shard_counts[i] == 1 ? " " : "s",
                  pipe_jps[i], seconds, latency.quantile(0.50),
                  latency.quantile(0.95));
      add_row("pipe", shard_counts[i], pipe_jps[i], seconds, latency);
    }
    // Socket transport at 1 and 2 shards: enough to price the transport
    // without re-measuring the scaling curve twice.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      std::vector<std::unique_ptr<service::ProcessChild>> servers;
      obs::HistogramSnapshot latency;
      const auto ports = spawn_socket_fleet(serve, shards, &servers);
      const double seconds =
          ports.empty()
              ? -1.0
              : run_sharded_wave(serve, shards, ports, lines, &latency);
      for (auto& server : servers) server->terminate();
      const double jps =
          seconds > 0 ? static_cast<double>(jobs) / seconds : 0.0;
      if (shards == 1) socket_jps_1 = jps;
      std::printf("  socket %zu shard%s: %6.2f jobs/sec (%.2fs, round-trip "
                  "p50/p95 %.0f/%.0f ms)\n",
                  shards, shards == 1 ? " " : "s", jps, seconds,
                  latency.quantile(0.50), latency.quantile(0.95));
      add_row("socket", shards, jps, seconds, latency);
    }
    rows += "]";
    const double scaling = pipe_jps[0] > 0 ? pipe_jps[1] / pipe_jps[0] : 0.0;
    const double socket_overhead =
        socket_jps_1 > 0 ? pipe_jps[0] / socket_jps_1 : 0.0;
    std::printf("  shard scaling 1 -> 2 (pipe): %.2fx; pipe/socket at 1 "
                "shard: %.2fx\n",
                scaling, socket_overhead);
    sharded_json.field("skipped", false)
        .raw_field("shards", rows)
        .field("scaling_1_to_2", scaling)
        .field("pipe_over_socket_1shard", socket_overhead);
  }

  // ------------------------------------------------------ open-loop phase
  // The event-driven front door under fixed arrival rates. Each rate
  // gets a fresh 4-worker server, connection and Poisson schedule of
  // tiny hot-instance jobs. Latency is measured from each job's
  // SCHEDULED send time (bench/load_gen.hpp), so when a rate exceeds
  // capacity the growing queue shows up as growing quantiles instead of
  // silently stretching the schedule. The server's own submit-to-ready
  // and ready-to-written medians ride along in each row: what the client
  // sees beyond their sum is transport and reactor overhead.
  util::JsonWriter open_loop_json;
  if (::access(serve.c_str(), X_OK) != 0) {
    std::printf("  open_loop: skipped ('%s' not executable)\n", serve.c_str());
    open_loop_json.field("skipped", true);
  } else {
    const double rates[] = {50.0, 100.0, 200.0};
    std::string rows = "[";
    bool all_completed = true;
    bool started = true;
    for (std::size_t r = 0; r < 3 && started; ++r) {
      std::vector<std::unique_ptr<service::ProcessChild>> servers;
      const int port =
          spawn_listen_server(serve, "openloop", /*workers=*/4, &servers);
      started = port != 0;
      if (!started) break;
      bench::LoadGenOptions options;
      options.rate_per_sec = rates[r];
      options.total_jobs = static_cast<std::size_t>(rates[r] * 2.0);
      options.seed = r + 1;
      const auto report = bench::run_open_loop(
          "127.0.0.1", port, options, [&](std::size_t i) {
            util::JsonWriter line;
            line.field("id", "ol" + std::to_string(i))
                .field("gen", "qkp:30-25-" + std::to_string(i % 4 + 1))
                .field("iterations", std::uint64_t{2})
                .field("sweeps", std::uint64_t{30})
                .field("seed", static_cast<std::uint64_t>(i + 1))
                .field("cache", false);
            return line.take();
          });
      const util::JsonValue server_latency = probe_server_latency(port);
      const auto server_p50 = [&](const char* stage) {
        const auto* obj = server_latency.find(stage);
        const auto* p50 = obj ? obj->find("p50_ms") : nullptr;
        return p50 ? p50->as_double() : -1.0;
      };
      const double total_p50 = server_p50("total_ms");
      const double emit_p50 = server_p50("emit_ms");
      for (auto& server : servers) server->terminate();
      all_completed = all_completed && report.completed_all();
      std::printf("  open loop %5.0f jobs/sec offered: %zu/%zu done, "
                  "sched-send p50/p99/p99.9 %.1f/%.1f/%.1f ms (server "
                  "total/emit p50 %.2f/%.2f ms)\n",
                  rates[r], report.completed, report.sent,
                  report.latency.quantile(0.50),
                  report.latency.quantile(0.99),
                  report.latency.quantile(0.999), total_p50, emit_p50);
      auto row = bench::load_gen_report_json(report);
      row.field("server_total_p50_ms", total_p50)
          .field("server_emit_p50_ms", emit_p50);
      rows += (r ? "," : "") + row.str();
    }
    rows += "]";
    if (!started) {
      std::printf("  open_loop: skipped (server failed to start)\n");
      open_loop_json.field("skipped", true);
    } else {
      open_loop_json.field("skipped", false)
          .field("workers", std::uint64_t{4})
          .field("all_completed", all_completed)
          .raw_field("rates", rows);
    }
  }

  // ----------------------------------------------------- skewed-key phase
  // Every job is a twin of one hot instance. R=1: the owner serializes
  // the whole stream. R=2 + hot-key routing: twins overflow to the
  // least-loaded replica, so both shards work.
  util::JsonWriter skewed_json;
  if (::access(serve.c_str(), X_OK) != 0) {
    skewed_json.field("skipped", true);
  } else {
    std::vector<std::string> hot_lines;
    for (std::size_t j = 0; j < jobs; ++j) {
      util::JsonWriter line;
      line.field("id", "hot" + std::to_string(j))
          .field("gen", "qkp:" + std::to_string(batch_n) + "-25-1")
          .field("iterations", static_cast<std::uint64_t>(batch_iterations))
          .field("sweeps", static_cast<std::uint64_t>(batch_sweeps))
          .field("seed", static_cast<std::uint64_t>(j + 1))
          .field("cache", false);
      hot_lines.push_back(line.str());
    }
    // One wave is ~30 ms, so a single wave per configuration is at the
    // mercy of whatever else the box does in that slice, and a fixed
    // R=1-then-R=2 order hands any warm-up drift to one side. Alternate
    // the configurations over kSkewWaves waves each (the leader swaps
    // every round) and compare the medians.
    constexpr std::size_t kSkewWaves = 7;
    std::vector<double> wave_jps[2];
    std::uint64_t replica_hits = 0;
    for (std::size_t w = 0; w < kSkewWaves; ++w) {
      const std::size_t order[2][2] = {{1, 2}, {2, 1}};
      for (const std::size_t replicas : order[w % 2]) {
        service::RouterOptions router_options;
        router_options.replicas = replicas;
        router_options.hot_key_depth = replicas == 2 ? 2 : 0;
        service::ShardRouter::Stats stats;
        const double seconds =
            run_sharded_wave(serve, 2, {}, hot_lines, /*latency=*/nullptr,
                             router_options, &stats);
        wave_jps[replicas - 1].push_back(
            seconds > 0 ? static_cast<double>(jobs) / seconds : 0.0);
        if (replicas == 2) replica_hits += stats.replica_hits;
      }
    }
    const util::QuartileSummary r1 = util::summarize(wave_jps[0]);
    const util::QuartileSummary r2 = util::summarize(wave_jps[1]);
    std::printf("  skewed R=1: median %6.2f jobs/sec (IQR %.2f) over %zu "
                "waves\n",
                r1.median, r1.iqr(), kSkewWaves);
    std::printf("  skewed R=2: median %6.2f jobs/sec (IQR %.2f) over %zu "
                "waves, %llu twins replica-routed\n",
                r2.median, r2.iqr(), kSkewWaves,
                static_cast<unsigned long long>(replica_hits));
    const double speedup = r1.median > 0 ? r2.median / r1.median : 0.0;
    std::printf("  skewed-key replication win (R=2 over R=1): %.2fx\n",
                speedup);
    skewed_json.field("skipped", false)
        .field("waves", static_cast<std::uint64_t>(kSkewWaves))
        .field("r1_jobs_per_sec", r1.median)
        .field("r2_jobs_per_sec", r2.median)
        .field("r1_iqr", r1.iqr())
        .field("r2_iqr", r2.iqr())
        .field("speedup", speedup)
        .field("replica_hits", replica_hits)
        .field("r2_beats_r1", r2.median > r1.median);
  }

  // ---------------------------------------------------------- hedge phase
  // SIGSTOP (not SIGKILL) one shard mid-wave: the pipe never EOFs, so the
  // failover path cannot fire — only hedged re-dispatch finishes the
  // stopped shard's in-flight jobs. window >= jobs keeps everything in
  // flight (pending jobs would not be hedged).
  util::JsonWriter hedge_json;
  if (::access(serve.c_str(), X_OK) != 0) {
    hedge_json.field("skipped", true);
  } else {
    const auto lines = make_job_lines(jobs, instances, n, iterations, sweeps);
    service::RouterOptions router_options;
    router_options.shards = 2;
    router_options.window = jobs;
    router_options.replicas = 2;
    router_options.hedge_min_ms = 25.0;
    service::ShardRouter router(router_options);
    net::EventLoop loop;
    service::Supervisor fleet(router, loop, static_fleet_options(serve));
    fleet.attach_local(0);
    fleet.attach_local(1);

    util::WallTimer timer;
    std::size_t line_no = 0;
    std::size_t emitted = 0;
    for (const auto& line : lines) {
      emitted += router.accept_line(line, ++line_no).size();
    }
    // Mid-wave: a quarter of the results are out, both shards are busy.
    emitted += fleet.pump().size();
    while (emitted < jobs / 4 && timer.seconds() < 300.0) {
      loop.run_once(100);
      emitted += fleet.pump().size();
    }
    const std::size_t victim =
        router.inflight(0) + router.pending(0) >=
                router.inflight(1) + router.pending(1)
            ? 0
            : 1;
    auto* victim_child =
        dynamic_cast<service::ProcessChild*>(fleet.endpoint(victim));
    if (victim_child) ::kill(victim_child->pid(), SIGSTOP);
    while (!router.idle() && timer.seconds() < 300.0) {
      loop.run_once(100);
      emitted += fleet.pump().size();
      if (router.live_shards() == 0) break;
    }
    const double seconds = timer.seconds();
    if (victim_child) ::kill(victim_child->pid(), SIGCONT);

    const auto& stats = router.stats();
    const bool completed =
        router.idle() && !router.any_error() && emitted == lines.size();
    std::printf("  hedge: shard %zu SIGSTOPped mid-wave -> %s in %.2fs "
                "(%llu hedges, %llu wins)\n",
                victim, completed ? "all jobs completed" : "WAVE INCOMPLETE",
                seconds, static_cast<unsigned long long>(stats.hedges),
                static_cast<unsigned long long>(stats.hedge_wins));
    hedge_json.field("skipped", false)
        .field("completed", completed)
        .field("seconds", seconds)
        .field("hedges", stats.hedges)
        .field("hedge_wins", stats.hedge_wins)
        .raw_field("hedge_win_latency",
                   service::latency_quantiles_json(router.hedge_win_snapshot()));
  }

  util::JsonWriter doc;
  doc.field("bench", "service_throughput")
      .field("jobs", static_cast<std::uint64_t>(jobs))
      .field("instances", static_cast<std::uint64_t>(instances))
      .field("n", static_cast<std::uint64_t>(n))
      .field("iterations", static_cast<std::uint64_t>(iterations))
      .field("sweeps", static_cast<std::uint64_t>(sweeps))
      .field("hardware_threads",
             static_cast<std::uint64_t>(util::hardware_threads()))
      .raw_field("workers", workers_json)
      .field("scaling_1_to_4", scaling_1_to_4)
      .raw_field("cache", cache_json.str())
      .raw_field("batch", batch_json.str())
      .raw_field("warm", warm_json.str())
      .raw_field("sharded", sharded_json.str())
      .raw_field("open_loop", open_loop_json.str())
      .raw_field("skewed", skewed_json.str())
      .raw_field("hedge", hedge_json.str());

  const std::string out_path = args.get("out");
  std::ofstream out(out_path);
  out << doc.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
