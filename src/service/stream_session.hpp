// StreamSession — one JSONL serving conversation over any line IO.
//
// The whole wire protocol (docs/PROTOCOL.md): read job lines, submit to
// the SolveService, emit result lines (input order after EOF, or
// completion order with "seq" under --stream), answer control lines.
// The protocol state machine is StreamSessionCore, a non-blocking,
// push/pull core (feed lines in, pull finished result lines out) that
// never waits on anything. Two front ends sit on it:
//
//   * run_stream_session() — stdin/stdout (or files): a reader thread
//     feeds lines while an emitter thread writes results;
//   * service/event_server — many TCP sockets multiplexed on one
//     net::EventLoop, one StreamSessionCore per connection.
//
// Neither front end polls. The core is built with a `wake` callback that
// it registers as every accepted job's completion callback
// (JobHandle::on_complete) and also calls whenever its own state makes
// new output possible (an error line, a barrier, end of input). The
// stdin loop's emitter sleeps on a condition variable that `wake`
// signals; the event server's `wake` queues the connection on its
// loop's ready list and interrupts the poll.
//
// Per-session state: the unemitted entries, seq counter (stream mode
// numbers each CONNECTION's accepted jobs 0..n-1), drain barriers. An
// entry, and with it its job's result, is dropped the moment its line is
// rendered, so a long session holds only what is still in flight.
// Shared state: the SolveService.
//
// Control lines handled here: ping, stats (immediate service snapshot:
// counters, cache stats, latency quantiles — see service_stats.hpp),
// drain, shutdown (stop intake, drain everything accepted, emit
// {"bye":true}, end the session), export_warm (warm-pool snapshot as
// {"warm":{...}}), import_warm (deposit exported samples). reshard is
// the sharding front door's command and is answered with an error line.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/solve_service.hpp"
#include "util/jsonl.hpp"

namespace saim::service {

struct SessionOptions {
  /// Emit results as jobs finish (tagged with "seq") instead of in input
  /// order after EOF.
  bool stream = false;
  /// --warm-start: per-job "warm_start" default.
  bool warm_default = false;
};

struct SessionResult {
  bool any_error = false;  ///< some line produced an error line
  bool shutdown = false;   ///< {"cmd":"shutdown"} ended the session
};

/// The protocol state machine of one session, decoupled from any
/// transport or thread: feed input lines with on_line() (immediate
/// replies — pong, stats, import acks — come back through `replies`),
/// mark EOF with finish_input(), and pull finished result lines with
/// poll_emittable(), which NEVER blocks. Internally synchronized: the
/// stdin loop calls on_line and poll_emittable from two threads; the
/// event server calls everything from its one reactor thread (the lock
/// is then uncontended).
///
/// `wake` fires whenever poll_emittable may have new output or
/// drained() may have flipped: on every accepted job's completion (from
/// the finishing worker thread, under that job's lock — see
/// JobHandle::on_complete), and from on_line/finish_input for output
/// they make possible themselves. It must be cheap, thread-safe and must
/// not call back into this core. It never fires after the core is
/// destroyed.
///
/// Emission contract (pinned by the transport-equality tests):
///   * stream mode — completion order; every rendered line of an
///     accepted job carries the next "seq"; a drain/shutdown/export
///     barrier waits until every entry before it has emitted;
///   * batch mode — nothing emits before finish_input(); afterwards
///     results render in input order (poll_emittable yields the maximal
///     finished prefix per call).
class StreamSessionCore {
 public:
  StreamSessionCore(SolveService& service, const SessionOptions& options,
                    std::function<void()> wake);
  ~StreamSessionCore();

  StreamSessionCore(const StreamSessionCore&) = delete;
  StreamSessionCore& operator=(const StreamSessionCore&) = delete;

  /// Processes one input line (job, control, or garbage — garbage
  /// becomes a queued error line). Immediate replies are appended to
  /// `replies`. Returns false once intake stops ({"cmd":"shutdown"});
  /// further calls are ignored.
  bool on_line(const std::string& line, std::vector<std::string>& replies);

  /// Marks end of input (EOF or the transport dropping the session).
  void finish_input();

  /// Appends every line emittable right now (non-blocking; see the
  /// emission contract above). Returns true once the session is fully
  /// drained: input finished and nothing left to emit.
  bool poll_emittable(std::vector<std::string>& out);

  /// True when input is finished and every accepted line has emitted.
  [[nodiscard]] bool drained() const;
  /// Accepted-but-unemitted lines (jobs and barriers) — nonzero while
  /// work is still in flight, whatever the mode.
  [[nodiscard]] std::size_t unemitted_count() const;
  [[nodiscard]] SessionResult result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Serves one complete conversation over `in`/`out`: reads until EOF or
/// shutdown, answers every line per docs/PROTOCOL.md, returns once
/// everything accepted has been emitted. Stream mode flushes `out` after
/// every burst of lines (a coprocess is waiting on them); batch mode
/// flushes once at the end (a big file run must not pay one flush per
/// line).
SessionResult run_stream_session(SolveService& service, std::istream& in,
                                 std::ostream& out,
                                 const SessionOptions& options);

// --------------------------------------------------------- warm payloads
// The {"warm":{...}} wire object: problem fingerprints (16 hex digits,
// the same rendering as result-line fingerprints) mapping to arrays of
// {"cost":C,"bits":"0101..."} samples, best cost first.

/// Serializes a pool snapshot as the warm payload object.
std::string warm_pool_to_json(
    const std::vector<ResultCache::WarmSnapshot>& pool);

/// Offers every sample in a parsed warm payload to `service`'s pool.
/// Returns the number of samples offered; throws std::runtime_error on a
/// malformed payload.
std::size_t import_warm_json(SolveService& service,
                             const util::JsonValue& warm);

/// "9c0f4a6e12b35d88" -> the fingerprint; std::nullopt when not 1-16
/// lowercase hex digits.
std::optional<std::uint64_t> parse_fp_hex(const std::string& hex);

}  // namespace saim::service
