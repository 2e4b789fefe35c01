// saim_shard — self-healing sharded serving front door.
//
// Speaks the docs/PROTOCOL.md JSONL wire format on both sides: clients
// talk to saim_shard exactly as they would to `saim_serve --stream`, and
// saim_shard runs a fleet of saim_serve shards — local `--stream`
// children over fork/exec pipes plus, with `--connect host:port`, remote
// `saim_serve --listen` servers over TCP — routing each job by
// consistent hashing on its canonical problem fingerprint. All jobs over
// one instance land on one shard, so that shard's result cache,
// coalescer, same-instance batcher and warm-start pool stay hot for its
// keyslice. The routing/remapping brain is service/shard_router; the
// transports are service/process_child (pipes) and net/socket_child
// (TCP) behind net::ShardEndpoint; the self-healing layer —
// crash respawn with backoff, ring rejoin, live resharding, warm-pool
// handoff, health probes — is service/supervisor.
//
// One thread, one net::EventLoop: stdin, every shard endpoint, the
// supervisor's timers and the --metrics listener all sit on the same
// loop, so a job line wakes the loop the moment it arrives and a shard
// reply the moment it is written. Stdin backpressure is read interest:
// past the high-water mark of routed-but-unsent jobs the loop stops
// reading input until the shards catch up. Stdout stays a blocking
// write.
//
// Semantics (inherited from router + supervisor):
//   * results stream in global completion order, each accepted job tagged
//     with a global "seq" (per-shard seqs are remapped; rejected lines
//     carry none);
//   * per-shard bounded in-flight windows give backpressure — a slow
//     shard throttles only its own keyslice;
//   * with --replicas R, warm pools mirror to each key's next R-1 ring
//     neighbors: a job stuck in flight past max(--hedge-min-ms, its
//     shard's round-trip p95) is hedged to a replica (same routing
//     token, first result wins, exactly one client line), twins of a
//     hot key skip a saturated owner for its least-loaded replica, and
//     --max-queue-depth sheds the lowest-priority job past the bound
//     with a "delayed"-tagged error instead of queueing unboundedly;
//   * a crashed or unresponsive LOCAL shard is respawned with backoff
//     and rejoins the ring (its unanswered jobs fail over to survivors
//     first — zero lost jobs; with no survivor they are held and replay
//     into the replacement). Dead remote shards fail over and stay gone;
//   * {"cmd":"stats"} probes every live shard and answers with ONE
//     {"id":...,"fleet":{...}} snapshot line: router totals, supervisor
//     counters, and a per-shard array (queue depth, inflight, restarts,
//     round-trip latency quantiles, the shard's own service snapshot);
//     --metrics host:port additionally serves a Prometheus text-format
//     scrape of the same router/supervisor state (docs/ARCHITECTURE.md,
//     "Observability");
//   * {"cmd":"reshard","shards":N} grows/shrinks the local fleet live;
//     {"cmd":"shutdown"} (or Ctrl-C / SIGTERM) stops intake, drains
//     every accepted job, answers {"bye":true}, and tears the fleet down
//     gracefully — shutdown control lines to the children, waitpid, no
//     SIGKILL unless a child overstays;
//   * on EOF the front door drains every shard before exiting.
//
// Example — 4 local shards plus one remote box:
//   saim_shard --shards 4 --connect 10.0.0.7:7777 < jobs.jsonl
//
// Exit status mirrors saim_serve: 0 all jobs ok, 1 any error line, 2 bad
// invocation.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"
#include "service/job_parser.hpp"
#include "service/shard_router.hpp"
#include "service/supervisor.hpp"
#include "util/cli.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace {

using namespace saim;

volatile std::sig_atomic_t g_signal = 0;
std::atomic<net::EventLoop*> g_loop{nullptr};

void on_signal(int) {
  g_signal = 1;
  if (net::EventLoop* loop = g_loop.load()) loop->wakeup();  // one write(2)
}

/// saim_serve is expected to sit next to saim_shard unless --serve says
/// otherwise.
std::string sibling_serve_path(const char* argv0) {
  const std::string self(argv0 ? argv0 : "");
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "saim_serve";  // rely on PATH
  return self.substr(0, slash + 1) + "saim_serve";
}

/// Mirrors the execvp lookup so a mistyped --serve fails with one clear
/// exit-2 diagnostic instead of N silent child exec failures.
bool executable_exists(const std::string& serve) {
  if (serve.find('/') != std::string::npos) {
    return ::access(serve.c_str(), X_OK) == 0;
  }
  const char* path = std::getenv("PATH");
  if (!path) return false;
  std::string dirs(path);
  std::size_t start = 0;
  while (start <= dirs.size()) {
    const std::size_t colon = dirs.find(':', start);
    std::string dir =
        dirs.substr(start, colon == std::string::npos ? std::string::npos
                                                      : colon - start);
    if (dir.empty()) dir = ".";  // empty PATH component = cwd, per execvp
    if (::access((dir + "/" + serve).c_str(), X_OK) == 0) return true;
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return false;
}

/// One shard's label set, e.g. `shard="3"`.
std::string shard_label(std::size_t s) {
  return "shard=\"" + std::to_string(s) + "\"";
}

/// Prometheus exposition of the router/supervisor state, rendered on the
/// loop thread that owns both when a scrape asks for it.
std::string render_fleet_metrics(const service::ShardRouter& router,
                                 const service::Supervisor& supervisor) {
  obs::PromText text;
  const auto& rs = router.stats();
  const auto& sup = supervisor.stats();
  const auto counter = [&text](std::string_view name, std::uint64_t value,
                               std::string_view help) {
    text.header(name, "counter", help);
    text.series(name, {}, value);
  };
  counter("saim_router_accepted_total", rs.accepted,
          "jobs routed onto the ring");
  counter("saim_router_rejected_total", rs.rejected,
          "lines rejected by the front door (bad input)");
  counter("saim_router_emitted_total", rs.emitted,
          "job result/error lines sent downstream");
  counter("saim_router_requeued_total", rs.requeued,
          "jobs moved off a dead shard");
  counter("saim_router_orphaned_total", rs.orphaned,
          "jobs errored because no live shard remained");
  counter("saim_router_hedges_total", rs.hedges,
          "hedge copies dispatched to a replica");
  counter("saim_router_hedge_wins_total", rs.hedge_wins,
          "jobs whose hedge copy answered before the owner");
  counter("saim_router_sheds_total", rs.sheds,
          "jobs shed by admission control with a delayed-tagged error");
  counter("saim_router_replica_hits_total", rs.replica_hits,
          "hot-key twins routed to a replica instead of the owner");
  counter("saim_supervisor_respawns_total", sup.respawns,
          "successful local shard re-execs");
  counter("saim_supervisor_remote_reconnects_total", sup.remote_reconnects,
          "successful remote shard redials");
  counter("saim_supervisor_respawn_failures_total", sup.respawn_failures,
          "shard slots abandoned after max restarts");
  counter("saim_supervisor_reshards_total", sup.reshards,
          "live fleet membership changes");
  counter("saim_supervisor_retired_total", sup.retired,
          "shards removed by a shrink");
  counter("saim_supervisor_warm_forwarded_total", sup.warm_forwarded,
          "warm-pool entries moved to a new owner");
  counter("saim_supervisor_unresponsive_kills_total", sup.unresponsive_kills,
          "shards terminated by the health watchdog");

  text.header("saim_shards_live", "gauge", "shard slots currently on the ring");
  text.series("saim_shards_live", {},
              static_cast<std::uint64_t>(router.live_shards()));
  text.header("saim_shard_slots", "gauge",
              "shard slots ever created (live + dead)");
  text.series("saim_shard_slots", {},
              static_cast<std::uint64_t>(router.shard_slots()));
  text.header("saim_router_outstanding", "gauge",
              "jobs accepted but not yet answered");
  text.series("saim_router_outstanding", {},
              static_cast<std::uint64_t>(router.outstanding()));

  const std::size_t slots = router.shard_slots();
  text.header("saim_shard_alive", "gauge", "1 while the slot is on the ring");
  for (std::size_t s = 0; s < slots; ++s) {
    text.series("saim_shard_alive", shard_label(s),
                static_cast<std::uint64_t>(router.alive(s) ? 1 : 0));
  }
  text.header("saim_shard_queue_depth", "gauge",
              "jobs routed to the shard, not yet written");
  for (std::size_t s = 0; s < slots; ++s) {
    text.series("saim_shard_queue_depth", shard_label(s),
                static_cast<std::uint64_t>(router.pending(s)));
  }
  text.header("saim_shard_inflight", "gauge",
              "jobs written to the shard, awaiting a result");
  for (std::size_t s = 0; s < slots; ++s) {
    text.series("saim_shard_inflight", shard_label(s),
                static_cast<std::uint64_t>(router.inflight(s)));
  }
  text.header("saim_shard_routed_total", "counter",
              "jobs ever routed to the shard");
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint64_t routed =
        s < rs.routed_per_shard.size() ? rs.routed_per_shard[s] : 0;
    text.series("saim_shard_routed_total", shard_label(s), routed);
  }
  text.header("saim_shard_roundtrip_ms", "histogram",
              "job written to the shard until its result line came back, "
              "milliseconds");
  for (std::size_t s = 0; s < slots; ++s) {
    text.histogram_series("saim_shard_roundtrip_ms", shard_label(s),
                          router.latency_snapshot(s));
  }
  text.histogram("saim_hedge_win_ms", {}, router.hedge_win_snapshot(),
                 "round trip of hedge copies that answered before the "
                 "owner, milliseconds");
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("saim_shard",
                       "shard a JSONL solve-job stream across a "
                       "self-healing fleet of saim_serve shards");
  args.add_flag("shards", "local saim_serve child processes to spawn", "2")
      .add_multi("connect",
                 "host:port of a remote `saim_serve --listen --stream` to "
                 "join the ring (repeatable)")
      .add_flag("serve", "path to the saim_serve binary (default: next to "
                "this one)", "")
      .add_flag("input", "job stream path, - for stdin", "-")
      .add_flag("output", "result stream path, - for stdout", "-")
      .add_flag("workers", "solver worker threads PER SHARD (0 = hardware)",
                "1")
      .add_flag("cache", "result-cache capacity per shard (0 disables)",
                "256")
      .add_flag("max-batch",
                "same-instance jobs fused per model build per shard", "8")
      .add_bool("warm-start",
                "make \"warm_start\": true the per-job default on every "
                "shard")
      .add_flag("window", "max in-flight jobs per shard", "32")
      .add_flag("replicas",
                "replication factor R: warm pools/caches mirror to the "
                "next R-1 shards on the ring, enabling hedged requests "
                "and hot-key routing (1 disables)",
                "1")
      .add_flag("hedge-min-ms",
                "re-dispatch a job still in flight after max(this, the "
                "shard's round-trip p95) ms to a replica; first result "
                "wins (0 disables; needs --replicas >= 2)",
                "0")
      .add_flag("max-queue-depth",
                "admission control: once this many routed jobs wait for "
                "a window slot, shed the lowest-priority job with a "
                "\"delayed\"-tagged error (0 = unbounded)",
                "0")
      .add_flag("gossip-ms",
                "re-broadcast every shard's warm pool to its keys' "
                "replica sets on this interval (0 = only on membership "
                "changes)",
                "0")
      .add_flag("auth-token",
                "shared secret presented to --connect shards that were "
                "started with --auth-token",
                "")
      .add_flag("ping-ms",
                "health-probe interval; a shard missing 5 pongs is "
                "terminated and (if local) respawned (0 disables)",
                "1000")
      .add_bool("no-respawn",
                "do not re-exec crashed local shards (PR 4 fail-static "
                "behavior)")
      .add_flag("max-restarts",
                "consecutive crashes before a local shard slot is "
                "abandoned",
                "5")
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
      .add_bool("stats", "per-shard routing summary on stderr at exit");
  if (!args.parse(argc, argv)) return args.error().empty() ? 0 : 2;

  const auto log_level = util::parse_log_level(args.get("log-level"));
  if (!log_level) {
    std::fprintf(stderr,
                 "saim_shard: bad --log-level '%s' (want debug, info, warn "
                 "or error)\n",
                 args.get("log-level").c_str());
    return 2;
  }
  util::set_log_level(*log_level);

  const auto nonneg = [&](const char* flag) {
    return static_cast<std::size_t>(
        std::max<std::int64_t>(0, args.get_int(flag)));
  };

  // Fleet membership: locals first (slots 0..L-1), then remotes.
  std::vector<net::HostPort> remotes;
  for (const auto& spec : args.get_all("connect")) {
    const auto hostport = net::parse_hostport(spec);
    if (!hostport) {
      util::log_error() << "saim_shard: bad --connect '" << spec
                        << "' (want host:port)";
      return 2;
    }
    remotes.push_back(*hostport);
  }
  std::size_t locals = nonneg("shards");
  if (locals == 0 && remotes.empty()) locals = 1;

  service::RouterOptions router_options;
  router_options.shards = locals + remotes.size();
  router_options.window = std::max<std::size_t>(1, nonneg("window"));
  router_options.replicas = std::max<std::size_t>(1, nonneg("replicas"));
  router_options.hedge_min_ms =
      std::max(0.0, args.get_double("hedge-min-ms"));
  router_options.max_queue_depth = nonneg("max-queue-depth");
  // Hot-key routing bound: one full window queued on the owner means a
  // twin would wait a whole batch behind it — a replica is cheaper.
  router_options.hot_key_depth = router_options.window;

  std::string serve = args.get("serve");
  if (serve.empty()) serve = sibling_serve_path(argv[0]);
  if (locals > 0 && !executable_exists(serve)) {
    util::log_error() << "saim_shard: cannot execute '" << serve << "'";
    return 2;
  }

  int in_fd = STDIN_FILENO;
  const std::string input = args.get("input");
  if (input != "-") {
    in_fd = ::open(input.c_str(), O_RDONLY | O_CLOEXEC);
    if (in_fd < 0) {
      util::log_error() << "saim_shard: cannot open '" << input << "'";
      return 2;
    }
  }

  std::ofstream file_out;
  const std::string output = args.get("output");
  if (output != "-") {
    file_out.open(output);
    if (!file_out) {
      util::log_error() << "saim_shard: cannot open '" << output << "'";
      return 2;
    }
  }
  std::ostream& out = output == "-" ? std::cout : file_out;

  // The fleet: router (routing state) + supervisor (endpoints, respawn,
  // resharding, warm handoff, health), both driven by the one loop.
  net::EventLoop loop;
  service::ShardRouter router(router_options);
  service::SupervisorOptions supervisor_options;
  supervisor_options.local_argv = {
      serve,
      "--stream",
      "--workers", args.get("workers"),
      "--cache", args.get("cache"),
      "--max-batch", args.get("max-batch"),
  };
  if (args.get_bool("warm-start")) {
    supervisor_options.local_argv.push_back("--warm-start");
  }
  supervisor_options.respawn = !args.get_bool("no-respawn");
  supervisor_options.max_restarts = static_cast<int>(
      std::max<std::size_t>(1, nonneg("max-restarts")));
  supervisor_options.ping_ms = static_cast<int>(nonneg("ping-ms"));
  supervisor_options.gossip_ms = static_cast<int>(nonneg("gossip-ms"));
  supervisor_options.remote_auth_token = args.get("auth-token");
  service::Supervisor supervisor(router, loop, supervisor_options);
  for (std::size_t s = 0; s < locals; ++s) supervisor.attach_local(s);
  for (std::size_t i = 0; i < remotes.size(); ++i) {
    try {
      supervisor.attach_remote(locals + i, remotes[i].host, remotes[i].port);
    } catch (const std::exception& e) {
      util::log_error() << "saim_shard: " << e.what();
      return 2;
    }
  }

  // --metrics: scrapes are served on the loop and render straight off
  // the router and supervisor, between passes.
  std::unique_ptr<obs::MetricsServer> metrics_server;
  const std::string metrics_spec = args.get("metrics");
  if (!metrics_spec.empty()) {
    const auto hostport = net::parse_hostport(metrics_spec);
    if (!hostport) {
      util::log_error() << "saim_shard: bad --metrics '" << metrics_spec
                        << "' (want host:port)";
      return 2;
    }
    try {
      metrics_server = std::make_unique<obs::MetricsServer>(
          loop, hostport->host, hostport->port, [&router, &supervisor] {
            return render_fleet_metrics(router, supervisor);
          });
    } catch (const std::exception& e) {
      util::log_error() << "saim_shard: " << e.what();
      return 2;
    }
    const std::string metrics_port_file = args.get("metrics-port-file");
    if (!metrics_port_file.empty()) {
      std::ofstream pf(metrics_port_file);
      if (!pf) {
        util::log_error() << "saim_shard: cannot write '" << metrics_port_file
                          << "'";
        return 2;
      }
      pf << metrics_server->port() << "\n";
    }
    util::log_info() << "metrics on " << hostport->host << ":"
                     << metrics_server->port();
  }

  // Ctrl-C / SIGTERM turn into a graceful shutdown: stop intake, drain
  // every accepted job, tear the fleet down, then exit. (Children sit in
  // their own process groups, so the terminal's SIGINT does not reach
  // them directly — the front door stays in charge of the drain.) The
  // handler wakes the loop, so a signal is seen at once even when no
  // timer is armed.
  g_loop = &loop;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Stdin backpressure: stop reading input while this many routed jobs
  // wait for a window slot, so a fast producer cannot balloon RSS with
  // the whole stream. With admission control on, the router's shed bound
  // must engage before the intake gate stalls parsing, or no job would
  // ever be shed.
  std::size_t high_water = router_options.shards *
                           router_options.window * 4;
  if (router_options.max_queue_depth > 0) {
    high_water = std::max(high_water, router_options.max_queue_depth + 1);
  }

  // Input: one read (at most 64 KiB) per readiness, so the fd can stay
  // blocking; complete lines wait in `queued` until the router has room.
  net::LineFramer framer;
  std::deque<std::string> queued;
  bool input_done = false;
  loop.add_fd(in_fd, net::EventLoop::kRead, [&](std::uint32_t) {
    char buf[64 * 1024];
    const ssize_t n = ::read(in_fd, buf, sizeof buf);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
    if (n > 0) {
      framer.feed(buf, static_cast<std::size_t>(n));
    } else {
      // EOF (or a read error): a last line without its newline counts.
      if (framer.partial_bytes() > 0) framer.feed("\n", 1);
      input_done = true;
      loop.remove_fd(in_fd);
    }
    for (auto& line : framer.take_lines()) queued.push_back(std::move(line));
  });

  // One write + one flush per batch of lines, not per line: a pass that
  // completes a burst of shard replies leaves as a single syscall (the
  // stream-mode reader on the other side splits on newlines anyway).
  std::string emit_buffer;
  const auto emit = [&](const std::vector<std::string>& emitted) {
    if (emitted.empty()) return;
    emit_buffer.clear();
    for (const auto& l : emitted) {
      emit_buffer += l;
      emit_buffer += '\n';
    }
    out << emit_buffer;
    out.flush();
  };

  bool intake_open = true;   ///< false after {"cmd":"shutdown"} or a signal
  bool front_error = false;  ///< error lines the front door produced itself
  std::string bye_id;        ///< shutdown ack id; emitted after the drain
  bool saw_shutdown_cmd = false;
  std::size_t line_no = 0;

  // Routes queued input while the router has room, intercepting the
  // fleet-management control lines the router must not see; then reads
  // more input only if every queued line was taken.
  const auto ingest = [&] {
    while (intake_open && !queued.empty() &&
           router.total_pending() < high_water) {
      std::string line = std::move(queued.front());
      queued.pop_front();
      ++line_no;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

      // Fleet-management control lines (reshard/shutdown/stats/
      // export_warm/import_warm) are handled here; ping/drain and job
      // lines flow to the router. The substring test only gates the extra
      // parse — false positives cost one parse_json, nothing else.
      if (line.find("\"cmd\"") != std::string::npos) {
        std::string cmd_id = "job" + std::to_string(line_no);
        try {
          const util::JsonValue parsed = util::parse_json(line);
          if (const auto* id = parsed.find("id")) {
            if (!id->as_string().empty()) cmd_id = id->as_string();
          }
          const auto cmd = service::control_cmd(parsed);
          if (cmd && *cmd == "shutdown") {
            intake_open = false;  // shutdown certifies the past only
            saw_shutdown_cmd = true;
            bye_id = cmd_id;
            break;
          }
          if (cmd && *cmd == "reshard") {
            const auto* shards = parsed.find("shards");
            if (!shards || !shards->is_number()) {
              throw std::runtime_error("reshard needs a numeric \"shards\"");
            }
            const double want = shards->as_double();
            if (!(want >= 0.0) || want > 1024.0) {
              throw std::runtime_error("reshard \"shards\" must be 0..1024");
            }
            const std::size_t applied =
                supervisor.reshard(static_cast<std::size_t>(want));
            util::JsonWriter ack;
            ack.field("id", cmd_id)
                .field("resharded", true)
                .field("shards", static_cast<std::uint64_t>(applied));
            emit({ack.str()});
            continue;
          }
          if (cmd && *cmd == "stats") {
            // Fleet snapshot: the supervisor probes every live shard and a
            // later pump() hands over one {"id":...,"fleet":{...}} line
            // once all replies land (or the 2 s deadline passes).
            supervisor.request_fleet_stats(cmd_id);
            continue;
          }
          if (cmd && (*cmd == "export_warm" || *cmd == "import_warm")) {
            throw std::runtime_error(
                "control cmd \"" + *cmd +
                "\" is not served by the saim_shard front door (warm "
                "pools live in the shards)");
          }
        } catch (const std::exception& e) {
          front_error = true;
          util::JsonWriter err;
          err.field("id", cmd_id).field("error", e.what());
          emit({err.str()});
          continue;
        }
      }
      emit(router.accept_line(line, line_no));
    }
    const bool room = intake_open && queued.empty() &&
                      router.total_pending() < high_water;
    loop.set_interest(in_fd, room ? net::EventLoop::kRead : 0);
  };

  for (;;) {
    if (g_signal && intake_open) {
      intake_open = false;  // drain what was accepted, then leave
      util::log_info() << "signal received, draining";
    }
    ingest();
    emit(supervisor.pump());
    const bool done = !intake_open || (input_done && queued.empty());
    if (done && router.idle()) break;
    loop.run_once(-1);
  }

  if (saw_shutdown_cmd) {
    util::JsonWriter bye;
    bye.field("id", bye_id).field("bye", true);
    emit({bye.str()});
  }

  // Graceful fleet teardown: shutdown control lines + stdin EOF, run the
  // loop until the children close their output, reap — SIGKILL only on an
  // overstay. Scrapes are still answered meanwhile; input is not read.
  loop.remove_fd(in_fd);
  supervisor.shutdown_fleet();
  emit(supervisor.pump());
  out.flush();
  // Shutdown summary, always (Info level): the supervisor's respawn /
  // reconnect / abandonment counts are the operator's only post-mortem
  // when a fleet limped. --stats adds the per-shard routing breakdown.
  {
    const auto& s = router.stats();
    const auto& sup = supervisor.stats();
    util::log_info() << "saim_shard: " << s.accepted << " accepted, "
                     << s.emitted << " emitted, " << s.rejected
                     << " rejected, " << s.requeued << " requeued, "
                     << s.orphaned << " orphaned, " << router.live_shards()
                     << "/" << router.shard_slots() << " shards alive";
    util::log_info() << "saim_shard: supervisor: " << sup.respawns
                     << " respawns, " << sup.remote_reconnects
                     << " remote reconnects, " << sup.respawn_failures
                     << " respawn failures, " << sup.reshards << " reshards, "
                     << sup.retired << " retired, " << sup.warm_forwarded
                     << " warm entries forwarded, " << sup.unresponsive_kills
                     << " unresponsive kills";
    if (args.get_bool("stats")) {
      for (std::size_t i = 0; i < s.routed_per_shard.size(); ++i) {
        util::log_info() << "  shard " << i << ": " << s.routed_per_shard[i]
                         << " jobs routed" << (router.alive(i) ? "" : " (down)")
                         << (supervisor.is_local(i) ? "" : " (remote)");
      }
    }
  }

  g_loop = nullptr;  // the loop dies with this frame
  return (router.any_error() || front_error) ? 1 : 0;
}
