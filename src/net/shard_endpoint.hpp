// net::ShardEndpoint — what the sharding layer needs from a transport.
//
// ShardRouter is pure routing state and the Supervisor is pure pump
// logic; everything they ask of a shard is line-oriented: queue a
// line, flush, read complete lines, learn about EOF, offer a pollable
// fd. This interface is that contract, so the fleet can mix transports
// freely:
//
//   * service::ProcessChild — a local `saim_serve --stream` child over
//     fork/exec pipes (respawnable by the Supervisor);
//   * net::SocketChild — a remote `saim_serve --listen` over TCP (joins
//     the same hash ring; crash-handled, but not respawnable from here).
//
// All implementations are non-blocking on both sides: send_line buffers
// in user space, pump_writes flushes what the kernel accepts, read_lines
// drains what arrived. The Supervisor registers read_fd() (and
// write_fd() while output is queued) on its net::EventLoop, so one
// thread multiplexes any number of endpoints. Both fds stay valid for
// the endpoint's whole life — terminate() included — except write_fd()
// after shutdown_input(), so a loop never watches a closed number.
#pragma once

#include <string>
#include <vector>

namespace saim::net {

class ShardEndpoint {
 public:
  virtual ~ShardEndpoint() = default;

  /// Queues `line` (plus the trailing newline) for the shard.
  virtual void send_line(const std::string& line) = 0;

  /// Flushes as much queued output as the transport accepts right now.
  /// Returns false once the write side is broken (shard gone).
  virtual bool pump_writes() = 0;

  /// Non-blocking read of every complete line the shard has produced.
  /// Sets eof() once the shard closed its output.
  virtual std::vector<std::string> read_lines() = 0;

  /// Graceful "no more requests": EOF on the shard's input (close the
  /// pipe / shutdown(SHUT_WR)); its output stays readable for the drain.
  virtual void shutdown_input() = 0;

  /// Hard stop: SIGKILL the child / shut the socket down both ways. The
  /// next read then reaches eof() like any other death.
  virtual void terminate() = 0;

  /// Collects whatever the transport must not leak once the shard died
  /// (reaps a zombie child via waitpid; no-op for sockets). Idempotent.
  virtual void reap() noexcept {}

  /// True once the shard closed its output (all lines received).
  [[nodiscard]] virtual bool eof() const = 0;

  /// The fd to watch for readability; negative when nothing to watch.
  [[nodiscard]] virtual int read_fd() const = 0;

  /// The fd to watch for writability while outbound_bytes() > 0 (may
  /// equal read_fd()); negative when there is none (a pipe after
  /// shutdown_input()).
  [[nodiscard]] virtual int write_fd() const = 0;

  /// Bytes queued but not yet accepted by the transport.
  [[nodiscard]] virtual std::size_t outbound_bytes() const = 0;
};

}  // namespace saim::net
