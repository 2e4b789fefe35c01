#include "load_gen.hpp"

#include <poll.h>

#include <chrono>
#include <random>
#include <stdexcept>
#include <vector>

#include "net/connection.hpp"
#include "util/jsonl.hpp"

namespace saim::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Send offsets (seconds from wave start) for the whole schedule,
/// computed BEFORE the wave: the schedule must not depend on how the
/// server behaves, or the generator is closed-loop again.
std::vector<double> make_schedule(const LoadGenOptions& options) {
  std::vector<double> offsets;
  offsets.reserve(options.total_jobs);
  if (options.poisson) {
    std::mt19937_64 rng(options.seed);
    std::exponential_distribution<double> gap(options.rate_per_sec);
    double t = 0.0;
    for (std::size_t i = 0; i < options.total_jobs; ++i) {
      t += gap(rng);
      offsets.push_back(t);
    }
  } else {
    for (std::size_t i = 0; i < options.total_jobs; ++i) {
      offsets.push_back(static_cast<double>(i) / options.rate_per_sec);
    }
  }
  return offsets;
}

/// Reply id -> schedule slot: ids are "ol<index>" by contract.
std::ptrdiff_t slot_from_id(const std::string& id, std::size_t total) {
  if (id.size() < 3 || id[0] != 'o' || id[1] != 'l') return -1;
  std::size_t index = 0;
  for (std::size_t i = 2; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return -1;
    index = index * 10 + static_cast<std::size_t>(id[i] - '0');
  }
  return index < total ? static_cast<std::ptrdiff_t>(index) : -1;
}

}  // namespace

LoadGenReport run_open_loop(const std::string& host, int port,
                            const LoadGenOptions& options,
                            const JobLineFn& make_line) {
  const std::vector<double> offsets = make_schedule(options);
  net::Connection conn = net::connect_to(host, port);

  LoadGenReport report;
  report.offered_rate = options.rate_per_sec;
  report.poisson = options.poisson;

  obs::Histogram latency;
  std::vector<Clock::time_point> scheduled(options.total_jobs);
  std::vector<bool> seen(options.total_jobs, false);

  const Clock::time_point start = Clock::now();
  Clock::time_point last_reply = start;
  std::size_t next_send = 0;
  std::size_t completed = 0;
  bool sent_eof = false;

  const auto deadline_for = [&](std::size_t sent) {
    // Drain deadline: measured from the last SCHEDULED send (not the
    // last reply — a server that answers slowly must not extend its own
    // exam time indefinitely, only by the configured drain budget).
    const double last_offset = sent > 0 ? offsets[sent - 1] : 0.0;
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           last_offset + options.drain_timeout_sec));
  };

  while (completed < next_send || next_send < offsets.size()) {
    const Clock::time_point now = Clock::now();

    // Send everything whose slot has arrived. The SCHEDULED time is
    // what latency is measured from — if this loop is late (we were
    // blocked in poll, or the socket back-pressured us), the delay
    // counts into the measurement instead of shifting the schedule.
    while (next_send < offsets.size() &&
           now >= start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  offsets[next_send]))) {
      scheduled[next_send] =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[next_send]));
      conn.send_line(make_line(next_send));
      ++next_send;
    }
    report.sent = next_send;

    if (!conn.pump_writes()) break;  // peer gone; report what we have
    // Schedule played out AND every queued byte flushed: half-close so
    // EOF ends the session (SHUT_WR before the flush would drop the
    // tail of the schedule).
    if (next_send == offsets.size() && !sent_eof &&
        conn.outbound_bytes() == 0) {
      conn.shutdown_write();
      sent_eof = true;
    }

    const auto ready_lines = conn.read_lines();
    const Clock::time_point arrival = Clock::now();
    for (const auto& line : ready_lines) {
      std::ptrdiff_t slot = -1;
      try {
        const util::JsonValue parsed = util::parse_json(line);
        if (const auto* id = parsed.find("id")) {
          slot = slot_from_id(id->as_string(), options.total_jobs);
        }
      } catch (const std::exception&) {
        slot = -1;  // bye/error lines: not a measured reply
      }
      if (slot < 0 || seen[static_cast<std::size_t>(slot)]) continue;
      seen[static_cast<std::size_t>(slot)] = true;
      ++completed;
      last_reply = arrival;
      latency.observe(std::chrono::duration<double, std::milli>(
                          arrival - scheduled[static_cast<std::size_t>(slot)])
                          .count());
    }
    if (conn.eof() && completed < next_send) break;  // server quit early
    if (arrival > deadline_for(next_send)) break;    // wedged server

    // Sleep in poll until the next scheduled send, a reply, or (while
    // the outbound queue is nonempty) writability.
    int wait_ms = 50;
    if (next_send < offsets.size()) {
      const auto until =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[next_send])) -
          Clock::now();
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(until)
              .count();
      wait_ms = ms < 0 ? 0 : static_cast<int>(ms < 50 ? ms : 50);
    }
    pollfd pfd{conn.fd(),
               static_cast<short>(POLLIN |
                                  (conn.outbound_bytes() > 0 ? POLLOUT : 0)),
               0};
    ::poll(&pfd, 1, wait_ms);
  }

  report.completed = completed;
  report.seconds =
      std::chrono::duration<double>(last_reply - start).count();
  report.achieved_rate =
      report.seconds > 0 ? static_cast<double>(completed) / report.seconds
                         : 0.0;
  report.latency = latency.snapshot();
  return report;
}

util::JsonWriter load_gen_report_json(const LoadGenReport& report) {
  util::JsonWriter json;
  json.field("rate_per_sec", report.offered_rate)
      .field("schedule", report.poisson ? "poisson" : "uniform")
      .field("sent", static_cast<std::uint64_t>(report.sent))
      .field("completed", static_cast<std::uint64_t>(report.completed))
      .field("completed_all", report.completed_all())
      .field("achieved_rate", report.achieved_rate)
      .field("seconds", report.seconds)
      .field("mean_ms", report.latency.mean())
      .field("p50_ms", report.latency.quantile(0.50))
      .field("p95_ms", report.latency.quantile(0.95))
      .field("p99_ms", report.latency.quantile(0.99))
      .field("p999_ms", report.latency.quantile(0.999));
  return json;
}

}  // namespace saim::bench
