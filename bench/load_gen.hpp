// Open-loop load generator for the saim_serve TCP front door.
//
// Closed-loop benches (submit everything, wait) measure service time but
// hide queueing delay: a slow reply delays the NEXT request, so the
// generator involuntarily backs off exactly when the server struggles —
// the classic coordinated-omission blind spot. This generator is
// open-loop: a fixed arrival schedule (Poisson or uniform) is computed up
// front, each job is SENT when its slot arrives regardless of how many
// replies are outstanding, and each job's latency is measured from its
// SCHEDULED send time — queueing behind a saturated server (including
// time spent in our own outbound buffer when the socket blocks) counts
// against the server, never silently dropped.
//
// One thread drives one non-blocking net::Connection through poll():
// wake at the next scheduled send or on socket readiness, send what is
// due, read what arrived. The driven server must be in --stream mode
// (results return in completion order, matched back by id).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "util/jsonl.hpp"

namespace saim::bench {

struct LoadGenOptions {
  double rate_per_sec = 100.0;  ///< offered arrival rate
  std::size_t total_jobs = 200;
  /// true: exponential inter-arrivals (Poisson process, the open-loop
  /// default — bursts probe queueing); false: uniform spacing.
  bool poisson = true;
  std::uint64_t seed = 1;  ///< schedule RNG seed (reproducible arrivals)
  /// Give up (reporting what completed) this long after the LAST
  /// scheduled send. Bounds a wedged-server run, not the schedule.
  double drain_timeout_sec = 60.0;
};

struct LoadGenReport {
  double offered_rate = 0.0;  ///< options.rate_per_sec
  bool poisson = true;
  std::size_t sent = 0;
  std::size_t completed = 0;
  double seconds = 0.0;        ///< first scheduled send -> last reply
  double achieved_rate = 0.0;  ///< completed / seconds
  /// Per-job ms from SCHEDULED send time to reply arrival.
  obs::HistogramSnapshot latency;

  [[nodiscard]] bool completed_all() const { return completed == sent; }
};

/// Produces the JSONL job line for schedule slot `index`. The line's
/// "id" field MUST be exactly "ol<index>" — that is how replies are
/// matched back to their scheduled send time.
using JobLineFn = std::function<std::string(std::size_t index)>;

/// Runs one open-loop wave against a saim_serve --listen --stream server.
/// Connects, plays the whole schedule, half-closes, drains replies.
/// Throws std::runtime_error when the connection cannot be established.
LoadGenReport run_open_loop(const std::string& host, int port,
                            const LoadGenOptions& options,
                            const JobLineFn& make_line);

/// The report as the fields of BENCH_service.json's "open_loop" rows:
/// rate_per_sec, schedule, sent, completed, achieved_rate, seconds, and
/// p50/p95/p99/p99.9 (+ mean) of the scheduled-send latency. Returned as
/// an open writer so the caller can append its own fields to the row.
util::JsonWriter load_gen_report_json(const LoadGenReport& report);

}  // namespace saim::bench
