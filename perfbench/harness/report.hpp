// Shared pieces of the benchmark harness: run options, the metric
// catalogues, sample statistics, the result printer, /proc readers for the
// system's own processes, and the in-memory span recorder used by the
// traced runs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/jsonl.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< where saim_serve / saim_shard were built
  std::string work_dir;  ///< scratch for port files, logs and span dumps
  std::string commit;    ///< source revision label handed in by run.py
};

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;

/// splitmix64 finaliser: the harness's one source of derived seeds.
inline std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The instance set of every workload is fixed (k = 1, 2, ...); the
/// workload seed drives solver seeds and job order. Instance difficulty
/// differs far more than solver seeds do (qkp-bitslice quality read 0.25,
/// 0.75, 1.01 and 1.01 over four seed-chosen instance sets), so
/// seed-chosen instances would make every cross-seed comparison a
/// comparison of instance sets.
inline int instance_index(std::size_t i) { return static_cast<int>(1 + i); }

/// One metric as printed on the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the metrics for the requested mode
/// plus free-form report fields.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  saim::util::JsonValue::Object info;
  std::vector<std::string> failures;  ///< first few violations, for humans

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& key, saim::util::JsonValue value) {
    info[key] = std::move(value);
  }
  /// Counts one failed job and keeps its reason (up to a handful).
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Orders `outcome.metrics` by the catalogue of the run's mode (the lists
/// in BENCHMARK.json). Every workload prints every metric of its mode. An
/// end-to-end metric the workload did not set is a harness bug (thrown);
/// a per-layer metric it did not set belongs to a layer the workload does
/// not pass through (router.* on serve-open, lagrange.* on the served
/// workloads), prints as 0 and is listed in the report under
/// "not_on_path".
void finalize_metrics(Outcome& outcome, bool trace);

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> values, double q);
/// Samples strictly above the q-quantile's rank: n * (1 - q).
double samples_beyond(std::size_t n, double q);
saim::util::JsonValue json_array(const std::vector<double>& values);

/// Prints the report line (everything a human needs to interpret the run)
/// and then, as the LAST stdout line, the result object.
void print_outcome(const RunOptions& options, const Outcome& outcome);

// ------------------------------------------------------------ /proc

/// Peak resident set (VmHWM) of one process in MiB; 0 if unreadable.
double peak_rss_mb(pid_t pid);
/// utime + stime of one process in milliseconds; 0 if unreadable.
double cpu_ms(pid_t pid);
/// `root` plus all descendants.
std::vector<pid_t> process_tree(pid_t root);

// ------------------------------------------------------------ tracing

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory span log. Spans nest by call order (a span opened while
/// another is open becomes its child); all spans of one job share its id.
/// Nothing is written until dump().
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t job;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };

  /// RAII handle: closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Span duration minus the time its direct children cover, per span.
  [[nodiscard]] std::vector<double> self_ms() const;
  /// Writes one JSON object per span (name, job, parent, start/end in
  /// microseconds from the first span) to `path`.
  void dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
