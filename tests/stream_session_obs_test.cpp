// Session-level observability tests: the {"cmd":"stats"} control line
// returning one service snapshot, the "trace":true per-job timing echo,
// the service_stats JSON/Prometheus renderers over a live SolveService,
// and the session's memory staying flat over a long run of jobs.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "service/service_stats.hpp"
#include "service/solve_service.hpp"
#include "service/stream_session.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

std::string job_line(const std::string& id, std::uint64_t seed,
                     bool trace = false) {
  return "{\"id\":\"" + id +
         "\",\"gen\":\"qkp:30-25-1\",\"iterations\":2,\"sweeps\":20,"
         "\"seed\":" + std::to_string(seed) +
         (trace ? ",\"trace\":true}" : "}");
}

/// Runs one whole session over string streams and returns output lines.
std::vector<std::string> run_session(SolveService& service,
                                     const std::string& input,
                                     bool stream = true) {
  std::istringstream in(input);
  std::ostringstream out;
  SessionOptions options;
  options.stream = stream;
  run_stream_session(service, in, out, options);
  std::vector<std::string> lines;
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line)) lines.push_back(line);
  return lines;
}

const util::JsonValue* find_line_with(const std::vector<std::string>& lines,
                                      const std::string& field,
                                      util::JsonValue* storage) {
  for (const auto& line : lines) {
    *storage = util::parse_json(line);
    if (storage->find(field)) return storage;
  }
  return nullptr;
}

TEST(StreamSessionStats, StatsCmdReturnsOneServiceSnapshot) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  // stats answers immediately on read (it is a probe, not a barrier), so
  // run the jobs to completion in one session, then ask in a second one
  // over the same service.
  (void)run_session(service, job_line("a", 1) + "\n" + job_line("b", 2) +
                                 "\n");
  const auto lines =
      run_session(service, R"({"cmd":"stats","id":"s1"})" + std::string("\n"));

  util::JsonValue parsed;
  const auto* stats = find_line_with(lines, "service", &parsed);
  ASSERT_NE(stats, nullptr) << "no stats reply in the session output";
  EXPECT_EQ(stats->find("id")->as_string(), "s1");

  const auto* service_obj = stats->find("service");
  EXPECT_GE(service_obj->find("submitted")->as_int(), 2);
  EXPECT_GE(service_obj->find("completed")->as_int(), 2);
  EXPECT_NE(service_obj->find("workers"), nullptr);

  const auto* cache = service_obj->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->find("hit_rate"), nullptr);
  EXPECT_NE(cache->find("warm_pool_size"), nullptr);

  // Per-stage latency quantiles, fed by the finished jobs above.
  const auto* latency = service_obj->find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* stage : {"queue_ms", "setup_ms", "solve_ms", "total_ms"}) {
    const auto* obj = latency->find(stage);
    ASSERT_NE(obj, nullptr) << stage;
    EXPECT_GE(obj->find("count")->as_int(), 2) << stage;
    EXPECT_GE(obj->find("p95_ms")->as_double(),
              obj->find("p50_ms")->as_double())
        << stage;
  }
}

TEST(StreamSessionStats, TraceEchoesATimingObjectOnlyWhenAsked) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const auto lines = run_session(
      service, job_line("traced", 1, /*trace=*/true) + "\n" +
                   job_line("plain", 2) + "\n");

  bool saw_traced = false;
  bool saw_plain = false;
  for (const auto& line : lines) {
    const auto v = util::parse_json(line);
    if (!v.find("id")) continue;
    if (v.find("id")->as_string() == "traced") {
      saw_traced = true;
      const auto* timing = v.find("timing");
      ASSERT_NE(timing, nullptr) << line;
      const double queue = timing->find("queue_ms")->as_double();
      const double setup = timing->find("setup_ms")->as_double();
      const double solve = timing->find("solve_ms")->as_double();
      const double emit = timing->find("emit_ms")->as_double();
      const double total = timing->find("total_ms")->as_double();
      EXPECT_GE(queue, 0.0);
      EXPECT_GE(setup, 0.0);
      EXPECT_GT(solve, 0.0);
      EXPECT_GE(emit, 0.0);
      // Stages nest inside the submit->response total.
      EXPECT_LE(solve, total + 1e-6);
      EXPECT_LE(queue + setup + solve, total + 1.0);
      // "timing" must precede "seq": the shard router remaps seq by
      // rewriting the line's ,"seq":N} tail.
      EXPECT_LT(line.find("\"timing\""), line.find("\"seq\"")) << line;
    }
    if (v.find("id")->as_string() == "plain") {
      saw_plain = true;
      EXPECT_EQ(v.find("timing"), nullptr)
          << "untraced lines must stay byte-identical to PR 4 output";
    }
  }
  EXPECT_TRUE(saw_traced);
  EXPECT_TRUE(saw_plain);
}

TEST(StreamSessionStats, PrometheusRenderCoversServiceCountersAndLatency) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  (void)run_session(service, job_line("a", 1) + "\n");

  const std::string text = service_metrics_prometheus(service);
  EXPECT_NE(text.find("# TYPE saim_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("saim_jobs_submitted_total 1"), std::string::npos);
  EXPECT_NE(text.find("saim_jobs_completed_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_workers gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_job_total_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("saim_job_total_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("saim_emit_ms_count 1"), std::string::npos)
      << "the session must record its emit delay on the service registry";
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SAIM_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SAIM_SANITIZED_HEAP 1
#endif
#endif

/// Resident set size of this process in KiB (VmRSS), 0 when unknown.
long resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

TEST(StreamSessionMemory, RenderedJobsReleaseTheirResults) {
#ifdef SAIM_SANITIZED_HEAP
  GTEST_SKIP() << "sanitizer allocators quarantine freed memory; RSS "
                  "says nothing about what the session retains";
#else
  if (resident_kib() == 0) GTEST_SKIP() << "no /proc/self/status";
  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.cache_capacity = 0;  // the session is the only holder
  SolveService service(service_options);
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
  bool woken = false;
  SessionOptions options;
  options.stream = true;
  StreamSessionCore core(service, options, [&] {
    {
      std::lock_guard lock(wake_mutex);
      woken = true;
    }
    wake_cv.notify_one();
  });
  // Emits until nothing is in flight; returns the lines rendered.
  const auto drain = [&] {
    std::size_t lines = 0;
    while (core.unemitted_count() > 0) {
      {
        std::unique_lock lock(wake_mutex);
        wake_cv.wait_for(lock, std::chrono::seconds(5), [&] { return woken; });
        woken = false;
      }
      std::vector<std::string> out;
      core.poll_emittable(out);
      lines += out.size();
    }
    return lines;
  };

  // Tiny cache-off jobs fed in pipelined chunks, the shape of a long
  // serving session. Until its line is rendered each job pins its whole
  // SolveResult; afterwards the session must let go of it, so resident
  // memory after a warm-up quarter stays flat instead of growing with
  // the job count (~20 KiB per job when results are retained).
  constexpr int kJobs = 4000;
  constexpr int kChunk = 64;
  long warm_kib = 0;
  std::size_t emitted = 0;
  std::vector<std::string> replies;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(core.on_line(
        "{\"id\":\"m" + std::to_string(i) + "\",\"gen\":\"qkp:30-25-" +
            std::to_string(i % 4 + 1) +
            "\",\"iterations\":2,\"sweeps\":30,\"cache\":false,\"seed\":" +
            std::to_string(i + 1) + "}",
        replies));
    if (i % kChunk == kChunk - 1) emitted += drain();
    if (i == kJobs / 4) warm_kib = resident_kib();
  }
  core.finish_input();
  emitted += drain();
  ASSERT_EQ(emitted, static_cast<std::size_t>(kJobs));
  EXPECT_TRUE(core.drained());
  const long growth_kib = resident_kib() - warm_kib;
  EXPECT_LT(growth_kib, 16 * 1024)
      << "resident memory grew " << growth_kib << " KiB over "
      << kJobs * 3 / 4 << " emitted jobs";
#endif
}

}  // namespace
}  // namespace saim::service
