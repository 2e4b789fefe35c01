// service::EventServer — the event-driven front door for saim_serve
// --listen.
//
// One reactor thread (net::EventLoop: epoll on Linux, poll elsewhere)
// multiplexes the listener plus every accepted connection. Each
// connection pairs a net::Connection (non-blocking line IO, writev
// batching) with a StreamSessionCore (the protocol state machine shared
// with the stdin/stdout session — identical bytes by construction). All
// sessions share ONE SolveService, so concurrent connections share the
// cache, batcher and warm pool.
//
// Result emission is completion-driven. Every connection gets a serial
// number (never reused, unlike fds), and its session's `wake` callback
// pushes that serial onto this server's mutex-guarded ready list and
// calls EventLoop::wakeup(). The solver worker that finishes a job thus
// interrupts the poll directly; the loop drains the ready list and
// serves only the connections on it. A completion for a connection that
// has already closed finds no serial and is a no-op. The poll timeout is
// only the housekeeping tick for the auth, idle and shutdown-grace
// deadlines.
//
// What one thread buys:
//   * backpressure instead of unbounded buffering — when a peer stops
//     draining its socket and the connection's outbound queue passes
//     outbound_limit_bytes, the server stops READING that session (jobs
//     stop entering the service) until the queue falls to half the
//     limit. Other sessions are unaffected; server memory per slow
//     reader is bounded by the limit plus one reply.
//   * a global connection cap with fail-fast reject: connection number
//     max_connections+1 is accepted and closed immediately — nothing is
//     written, the peer sees EOF, the service never hears about it.
//   * fail-closed deadlines: with --auth-token, a connection that has
//     not presented {"auth":"<token>"} within auth_timeout_ms is
//     dropped; with idle_timeout_ms > 0, a connection with no traffic
//     and no work in flight for that long is dropped.
//
// Observability (registered on the service's MetricsRegistry, so both
// the Prometheus scrape and the {"cmd":"stats"} "connections" object see
// them):
//   saim_connections_open, saim_connections_accepted_total,
//   saim_connections_rejected_total, saim_sessions_timed_out_total.
//
// Shutdown: a session's {"cmd":"shutdown"} (or stop() from another
// thread) closes the listener, stops intake on every session, lets
// accepted work drain for a 5 s grace period, then force-drops
// stragglers. run() returns saim_serve's session exit code: 0, or 1 if
// any session emitted an error line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/listener.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"
#include "service/stream_session.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

struct EventServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port; see EventServer::port()
  /// Shared secret; empty disables the handshake. With a token set, the
  /// first line of every connection must be exactly {"auth":"<token>"}
  /// or the connection closes unserved (fail-closed).
  std::string auth_token;
  SessionOptions session;
  /// Open-connection cap; further accepts are closed immediately.
  std::size_t max_connections = 1024;
  /// Per-connection outbound-queue bound that pauses reading (see
  /// header comment). Not a hard memory cap: results already accepted
  /// still queue past it — it stops NEW work from entering.
  std::size_t outbound_limit_bytes = 256 * 1024;
  /// Deadline for the auth handshake (only enforced when auth_token is
  /// set); 0 disables.
  int auth_timeout_ms = 10'000;
  /// Drop a connection idle this long with nothing in flight; 0
  /// disables (an idle-parked client is legal by default — the shard
  /// router keeps quiet health-check connections open).
  int idle_timeout_ms = 0;
  /// Test hook: use the portable poll backend even where epoll exists.
  bool force_poll = false;
};

class EventServer {
 public:
  /// Binds the listener (throws std::runtime_error like net::Listener on
  /// failure) and registers the connection metrics on `service`.
  EventServer(SolveService& service, EventServerOptions options);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick).
  [[nodiscard]] int port() const noexcept { return listener_.port(); }

  /// Serves until a session's {"cmd":"shutdown"} or stop(). Returns the
  /// saim_serve exit code: 1 when any session produced an error line,
  /// else 0. Call from exactly one thread.
  int run();

  /// Thread-safe: asks run() to begin the graceful shutdown sequence.
  void stop();

  /// Test-visible counters (readable from any thread while run() spins).
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;   ///< over-cap fail-fast closes
    std::uint64_t timed_out = 0;  ///< auth-deadline + idle drops
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t open = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Client;

  void accept_pending();
  /// Builds the client's session, wired to wake this loop on its serial.
  void start_session(Client& client);
  void on_client_event(std::uint64_t serial, std::uint32_t ready);
  /// Feeds buffered-but-unprocessed lines to the session while the
  /// outbound queue is under the backpressure limit.
  void process_pending_lines(Client& client);
  void read_client(Client& client);
  /// Pumps writes, applies backpressure state, recomputes fd interest;
  /// closes the client when it is finished. Returns false if the client
  /// was destroyed.
  bool update_client(Client& client);
  /// Emits the output of every session on the ready list.
  void serve_ready() SAIM_EXCLUDES(ready_mutex_);
  void housekeeping();
  void begin_shutdown();
  void close_client(Client& client);

  SolveService& service_;
  const EventServerOptions options_;
  net::Listener listener_;
  net::EventLoop loop_;

  /// Serials of connections whose session woke (pushed by solver
  /// workers and by the loop itself). Declared before clients_: a
  /// session's callbacks are withdrawn when its Client dies, so the list
  /// outlives every callback that can touch it.
  util::Mutex ready_mutex_;
  std::vector<std::uint64_t> ready_ SAIM_GUARDED_BY(ready_mutex_);

  /// Open connections by serial (never reused, unlike the fd).
  std::map<std::uint64_t, std::unique_ptr<Client>> clients_;
  std::uint64_t next_serial_ = 0;
  bool stopping_ = false;
  bool done_ = false;
  bool any_error_ = false;
  std::chrono::steady_clock::time_point grace_deadline_{};
  std::atomic<bool> stop_requested_{false};

  // Counters are atomics (tests poll them from outside the loop thread)
  // mirrored into the service registry for scrapes and stats lines.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  obs::Counter& accepted_metric_;
  obs::Counter& rejected_metric_;
  obs::Counter& timed_out_metric_;
  obs::Gauge& open_metric_;
};

}  // namespace saim::service
