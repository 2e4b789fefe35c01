#include "report.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/simd.hpp"
#include "util/stats.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return saim::util::percentile(values, 100.0 * q);
}

double samples_beyond(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q);
}

saim::util::JsonValue json_array(const std::vector<double>& values) {
  return saim::util::JsonValue::Array(values.begin(), values.end());
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The catalogues of BENCHMARK.json, in print order.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"jobs_per_s", "1/s"},
    {"p50_ms", "ms"},           {"p90_ms", "ms"},
    {"quality_ratio", "ratio"}, {"peak_rss_mb", "MiB"},
    {"completed_frac", "ratio"}};

const std::vector<MetricSpec> kPerLayer = {
    // The layers below the service, from the solve workloads' traced
    // replay.
    {"problems.lower_ms", "ms"},
    {"lagrange.build_ms", "ms"},
    {"lagrange.couplings", "count"},
    {"anneal.bind_ms", "ms"},
    {"anneal.fields_ms", "ms"},
    {"anneal.run_ms", "ms"},
    {"anneal.spin_visits", "count"},
    {"anneal.visits_per_us", "1/us"},
    {"anneal.share", "ratio"},
    {"core.judge_ms", "ms"},
    {"core.step_self_ms", "ms"},
    {"core.samples", "count"},
    {"core.feasible_frac", "ratio"},
    {"core.first_feasible_iter", "count"},
    // The service's stage timing: SolveResponse::timing in process, the
    // "trace":true echo when served.
    {"service.queue_ms", "ms"},
    {"service.setup_ms", "ms"},
    {"service.solve_ms", "ms"},
    {"service.total_ms", "ms"},
    {"service.cache_hit_frac", "ratio"},
    {"service.coalesced", "count"},
    // What lies between the service and a served client.
    {"session.emit_ms", "ms"},
    {"net.frontdoor_ms", "ms"},
    {"net.frontdoor_p99_ms", "ms"},
    {"server.cpu_ms_per_job", "ms"},
    {"router.rtt_ms", "ms"},
    {"router.self_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    // The tracing itself.
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"}};

}  // namespace

void finalize_metrics(Outcome& outcome, bool trace) {
  const auto& catalogue = trace ? kPerLayer : kEndToEnd;
  std::vector<Metric> ordered;
  saim::util::JsonValue::Array missing;
  for (const MetricSpec& spec : catalogue) {
    const auto it =
        std::find_if(outcome.metrics.begin(), outcome.metrics.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (it != outcome.metrics.end()) {
      ordered.push_back({spec.name, it->value, spec.unit});
      continue;
    }
    if (!trace) {
      throw std::logic_error(std::string("metric not measured: ") +
                             spec.name);
    }
    ordered.push_back({spec.name, 0.0, spec.unit});
    missing.emplace_back(spec.name);
  }
  outcome.metrics = std::move(ordered);
  if (!missing.empty()) outcome.note("not_on_path", std::move(missing));
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

constexpr const char* simd_level() {
#if defined(SAIM_SIMD_AVX2)
  return "AVX2";
#elif defined(SAIM_SIMD_NEON)
  return "NEON";
#else
  return "scalar";
#endif
}

}  // namespace

void print_outcome(const RunOptions& options, const Outcome& outcome) {
  namespace u = saim::util;
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  u::JsonWriter units;
  u::JsonWriter metrics;
  for (const Metric& m : outcome.metrics) {
    units.field(m.name, m.unit);
    metrics.raw_field(m.name, u::JsonWriter()
                                  .field("value", m.value)
                                  .field("unit", m.unit)
                                  .str());
  }
  u::JsonValue::Array failures(outcome.failures.begin(),
                               outcome.failures.end());
  u::JsonWriter report;
  report.field("workload", options.workload)
      .field("seed", options.seed)
      .field("seconds", options.seconds)
      .field("trace", options.trace)
      .field("commit", options.commit)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("simd", simd_level())
      .field("nproc", static_cast<std::uint64_t>(
                          std::thread::hardware_concurrency()))
      .field("cpu", cpu_model())
      .raw_field("units", units.str());
  for (const auto& [key, value] : outcome.info) {
    report.raw_field(key, u::to_json(value));
  }
  report.raw_field("failures", u::to_json(u::JsonValue(std::move(failures))));
  std::printf("%s\n", u::JsonWriter().raw_field("report", report.str())
                          .str()
                          .c_str());

  u::JsonWriter result;
  result.field("correct", correct)
      .field("attempted", outcome.attempted)
      .field("failed", outcome.failed)
      .raw_field("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ /proc

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// Fields of /proc/<pid>/stat after the parenthesised comm (which may
/// itself hold spaces); field 3 (state) is element 0.
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<std::string> fields;
  const auto close = text.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream rest(text.substr(close + 1));
  std::string f;
  while (rest >> f) fields.push_back(f);
  return fields;
}

/// Direct children of `pid` (scans /proc).
std::vector<pid_t> children_of(pid_t pid) {
  std::vector<pid_t> kids;
  DIR* dir = opendir("/proc");
  if (!dir) return kids;
  while (const dirent* entry = readdir(dir)) {
    char* end = nullptr;
    const long candidate = std::strtol(entry->d_name, &end, 10);
    if (*end != '\0' || candidate <= 0) continue;
    const auto f = stat_fields(static_cast<pid_t>(candidate));
    // ppid is stat field 4 (element 1).
    if (f.size() > 1 && std::strtol(f[1].c_str(), nullptr, 10) == pid) {
      kids.push_back(static_cast<pid_t>(candidate));
    }
  }
  closedir(dir);
  return kids;
}

}  // namespace

double cpu_ms(pid_t pid) {
  const auto f = stat_fields(pid);
  if (f.size() < 13) return 0.0;
  // utime / stime are stat fields 14 and 15 (elements 11 and 12 here).
  const double ticks = std::strtod(f[11].c_str(), nullptr) +
                       std::strtod(f[12].c_str(), nullptr);
  return 1000.0 * ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<pid_t> process_tree(pid_t root) {
  std::vector<pid_t> tree{root};
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (const pid_t kid : children_of(tree[i])) tree.push_back(kid);
  }
  return tree;
}

// ------------------------------------------------------------------ tracing

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t job)
    : tracer_(tracer), index_(static_cast<std::int32_t>(tracer.spans_.size())) {
  const std::int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back({name, job, parent, Clock::now(), {}});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = ms_between(spans_[i].start, spans_[i].end);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= ms_between(s.start, s.end);
    }
  }
  return self;
}

void Tracer::dump(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"job\":%lld,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name, static_cast<long long>(s.job), s.parent, us(s.start),
                 us(s.end));
  }
  std::fclose(out);
}

}  // namespace perfbench
