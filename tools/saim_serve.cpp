// saim_serve — JSONL front-end to the asynchronous solve service.
//
// Reads one job per line, runs every job through one SolveService
// (priority queue, worker pool, content-keyed result cache, duplicate
// coalescing, same-instance batching, warm-start pool), and emits one
// JSON result line per job. The full wire protocol — every request and
// response field, control lines, error lines, exit codes, worked
// examples — is specified in docs/PROTOCOL.md; keep that file in
// lockstep with this one (CI greps it for every emitted field name).
// The protocol loop itself lives in service/stream_session.{hpp,cpp}
// (shared between transports); the job-line parser in
// service/job_parser.{hpp,cpp} (shared with tools/saim_shard).
//
// Transports:
//   * default — one session over --input/--output (stdin/stdout or
//     files): the classic filter invocation.
//   * --listen host:port — serve the same protocol over TCP through the
//     event-driven front door (service/EventServer: one epoll/poll
//     reactor thread multiplexing every connection, woken by job
//     completions, per-connection write backpressure, a
//     --max-connections fail-fast cap, --auth-timeout-ms /
//     --idle-timeout-ms deadlines). Every connection speaks its own
//     session over ONE shared SolveService (cache, batcher and
//     warm-start pool are shared), byte-identical to a stdin/stdout
//     session. Port 0 picks an ephemeral port; --port-file writes the
//     bound port for race-free rendezvous. This is how a remote shard
//     joins a `saim_shard --connect host:port` fleet — start it with
//     --stream, which the sharding router requires. With --auth-token
//     the first line of every connection must be the {"auth":"<token>"}
//     handshake or the connection is closed unserved (fail-closed).
//
// Output modes (per session): default collects results until EOF and
// prints them in input order; --stream emits each result the moment it
// completes, tagged with a per-session "seq" in completion order.
//
// Control lines (docs/PROTOCOL.md): ping, drain, shutdown (drain +
// {"bye":true}; also stops a --listen server), stats (one
// {"id":...,"service":{...}} snapshot: counters, cache/warm-pool state,
// per-stage latency quantiles), export_warm/import_warm (warm-pool
// handoff between processes). --metrics host:port serves the same
// service state as a Prometheus text-format scrape; jobs with
// "trace":true get a per-stage "timing" object on their result line.
//
// Example:
//   printf '%s\n' '{"id":"a","gen":"qkp:60-25-1","iterations":100}' \
//     | saim_serve --workers 4 --stream
//
// Exit status: 0 when every line produced a result, 1 when any line was
// rejected (malformed JSON, unknown backend, unreadable instance); bad
// lines emit {"id":...,"error":...} and do not sink the rest of the
// stream.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics_server.hpp"
#include "service/event_server.hpp"
#include "service/service_stats.hpp"
#include "service/solve_service.hpp"
#include "service/stream_session.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

using namespace saim;

/// --listen settings.
struct ListenConfig {
  std::string spec;
  std::string port_file;
  std::string auth_token;
  std::size_t max_connections = 1024;
  int auth_timeout_ms = 10'000;
  int idle_timeout_ms = 0;
};

/// --metrics: the scrape endpoint on a loop of its own, run by the one
/// thread this process spends on metrics. Stops and joins on scope exit.
struct MetricsThread {
  net::EventLoop loop;
  std::unique_ptr<obs::MetricsServer> server;
  std::thread thread;

  MetricsThread() = default;
  MetricsThread(const MetricsThread&) = delete;
  MetricsThread& operator=(const MetricsThread&) = delete;
  ~MetricsThread() {
    if (!thread.joinable()) return;
    loop.stop();
    thread.join();
  }
};

/// The port file is the rendezvous for port 0 (ephemeral): written
/// atomically enough for a single int — readers poll until nonempty.
bool write_port_file(const std::string& path, int port) {
  if (path.empty()) return true;
  std::ofstream pf(path);
  if (!pf) {
    util::log_error() << "saim_serve: cannot write '" << path << "'";
    return false;
  }
  pf << port << "\n";
  return true;
}

/// The --listen server: the event-driven front door (service/EventServer
/// — see its header for the backpressure, cap and deadline semantics).
int serve_listen(service::SolveService& svc,
                 const service::SessionOptions& session_options,
                 const ListenConfig& config) {
  const auto hostport = net::parse_hostport(config.spec);
  if (!hostport) {
    util::log_error() << "saim_serve: bad --listen '" << config.spec
                      << "' (want host:port)";
    return 2;
  }
  service::EventServerOptions options;
  options.host = hostport->host;
  options.port = hostport->port;
  options.auth_token = config.auth_token;
  options.session = session_options;
  options.max_connections = config.max_connections;
  options.auth_timeout_ms = config.auth_timeout_ms;
  options.idle_timeout_ms = config.idle_timeout_ms;
  std::unique_ptr<service::EventServer> server;
  try {
    server = std::make_unique<service::EventServer>(svc, options);
  } catch (const std::exception& e) {
    util::log_error() << "saim_serve: " << e.what();
    return 2;
  }
  if (!write_port_file(config.port_file, server->port())) return 2;
  util::log_info() << "saim_serve: listening on " << hostport->host << ":"
                   << server->port();
  return server->run();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("saim_serve",
                       "serve a JSONL stream of SAIM solve jobs");
  args.add_flag("input", "job stream path, - for stdin", "-")
      .add_flag("output", "result stream path, - for stdout", "-")
      .add_flag("listen",
                "serve the protocol on host:port (TCP) instead of "
                "input/output; port 0 picks an ephemeral port",
                "")
      .add_flag("port-file",
                "write the bound --listen port to this file (rendezvous "
                "for port 0)",
                "")
      .add_flag("auth-token",
                "shared secret for --listen: clients must open with "
                "{\"auth\":\"<token>\"} or the connection is closed",
                "")
      .add_flag("max-connections",
                "open-connection cap for --listen; further accepts are "
                "closed immediately",
                "1024")
      .add_flag("auth-timeout-ms",
                "drop a --listen connection that has not completed the "
                "--auth-token handshake within this deadline (0 disables)",
                "10000")
      .add_flag("idle-timeout-ms",
                "drop a --listen connection idle this long with nothing "
                "in flight (0 disables)",
                "0")
      .add_flag("workers", "solver worker threads (0 = hardware)", "0")
      .add_flag("cache", "result-cache capacity (0 disables)", "256")
      .add_flag("max-batch",
                "same-instance jobs executed per model build (1 disables)",
                "8")
      .add_bool("warm-start",
                "seed jobs from the per-problem pool by default "
                "(per-job \"warm_start\" field overrides)")
      .add_bool("stream",
                "emit result lines as jobs finish (tagged with \"seq\") "
                "instead of in input order after EOF")
      .add_flag("metrics",
                "serve Prometheus text-format metrics on host:port "
                "(port 0 picks an ephemeral port)",
                "")
      .add_flag("metrics-port-file",
                "write the bound --metrics port to this file (rendezvous "
                "for port 0)",
                "")
      .add_flag("log-level", "stderr log threshold: debug, info, warn or "
                "error", "info")
      .add_bool("stats", "append a final summary line to stderr");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const auto log_level = util::parse_log_level(args.get("log-level"));
  if (!log_level) {
    std::fprintf(stderr,
                 "saim_serve: bad --log-level '%s' (want debug, info, warn "
                 "or error)\n",
                 args.get("log-level").c_str());
    return 2;
  }
  util::set_log_level(*log_level);

  service::ServiceOptions service_options;
  // Negative values would wrap to huge size_t counts; clamp to the
  // "pick for me" / "disabled" zero instead.
  service_options.workers =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("workers")));
  service_options.cache_capacity =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("cache")));
  service_options.max_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("max-batch")));
  service::SolveService svc(service_options);

  // --metrics: scrapes render straight off the service on the metrics
  // thread — its stats struct and metrics registry are atomic, so the
  // producer is safe to run concurrently with every session.
  MetricsThread metrics;
  const std::string metrics_spec = args.get("metrics");
  if (!metrics_spec.empty()) {
    const auto hostport = net::parse_hostport(metrics_spec);
    if (!hostport) {
      util::log_error() << "saim_serve: bad --metrics '" << metrics_spec
                        << "' (want host:port)";
      return 2;
    }
    try {
      metrics.server = std::make_unique<obs::MetricsServer>(
          metrics.loop, hostport->host, hostport->port,
          [&svc] { return service::service_metrics_prometheus(svc); });
    } catch (const std::exception& e) {
      util::log_error() << "saim_serve: " << e.what();
      return 2;
    }
    const std::string metrics_port_file = args.get("metrics-port-file");
    if (!metrics_port_file.empty()) {
      std::ofstream pf(metrics_port_file);
      if (!pf) {
        util::log_error() << "saim_serve: cannot write '" << metrics_port_file
                          << "'";
        return 2;
      }
      pf << metrics.server->port() << "\n";
    }
    util::log_info() << "saim_serve: metrics on " << hostport->host << ":"
                     << metrics.server->port();
    metrics.thread = std::thread([&metrics] { metrics.loop.run(); });
  }

  service::SessionOptions session_options;
  session_options.stream = args.get_bool("stream");
  session_options.warm_default = args.get_bool("warm-start");

  int exit_code = 0;
  if (!args.get("listen").empty()) {
    ListenConfig listen_config;
    listen_config.spec = args.get("listen");
    listen_config.port_file = args.get("port-file");
    listen_config.auth_token = args.get("auth-token");
    listen_config.max_connections = static_cast<std::size_t>(
        std::max<std::int64_t>(1, args.get_int("max-connections")));
    listen_config.auth_timeout_ms = static_cast<int>(
        std::max<std::int64_t>(0, args.get_int("auth-timeout-ms")));
    listen_config.idle_timeout_ms = static_cast<int>(
        std::max<std::int64_t>(0, args.get_int("idle-timeout-ms")));
    exit_code = serve_listen(svc, session_options, listen_config);
  } else {
    std::ifstream file_in;
    const std::string input = args.get("input");
    if (input != "-") {
      file_in.open(input);
      if (!file_in) {
        util::log_error() << "saim_serve: cannot open '" << input << "'";
        return 2;
      }
    }
    std::istream& in = input == "-" ? std::cin : file_in;

    std::ofstream file_out;
    const std::string output = args.get("output");
    if (output != "-") {
      file_out.open(output);
      if (!file_out) {
        util::log_error() << "saim_serve: cannot open '" << output << "'";
        return 2;
      }
    }
    std::ostream& out = output == "-" ? std::cout : file_out;

    const auto result =
        service::run_stream_session(svc, in, out, session_options);
    exit_code = result.any_error ? 1 : 0;
  }

  if (args.get_bool("stats")) {
    const auto s = svc.stats();
    std::fprintf(stderr,
                 "saim_serve: %llu submitted, %llu executed, %llu coalesced, "
                 "%llu batched in %llu batches, %llu warm-seeded, "
                 "cache hit-rate %.2f\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.executed),
                 static_cast<unsigned long long>(s.coalesced),
                 static_cast<unsigned long long>(s.batched_jobs),
                 static_cast<unsigned long long>(s.batches),
                 static_cast<unsigned long long>(s.warm_seeded),
                 s.cache.hit_rate());
  }
  return exit_code;
}
