// ProcessChild — a supervised line-oriented coprocess over pipes.
//
// The sharding front door (tools/saim_shard, service/shard_router) runs
// each local shard as a `saim_serve --stream` child process and speaks
// the JSONL protocol to it through this wrapper: fork/exec with
// stdin/stdout piped back to the parent, both parent ends non-blocking so
// one thread can multiplex many children without ever deadlocking on a
// full pipe (outbound lines buffer in user space until the child drains
// them; inbound bytes accumulate until a full line is available). It is
// the pipe implementation of net::ShardEndpoint — the Supervisor and the
// shard pump drive it and net::SocketChild (TCP) through one interface.
//
// Lifecycle: the child is alive until running() observes its exit via
// waitpid(WNOHANG). A clean shutdown is shutdown_input() (close stdin) —
// saim_serve answers EOF by emitting every remaining result and exiting —
// followed by reading until eof(). The destructor is the crash path: it
// SIGKILLs and reaps whatever is still alive, so a throwing caller never
// leaks a process. SIGPIPE is ignored process-wide on first use (writes
// to a dead child report EPIPE instead of killing the router).
//
// The child starts in its own process group with SIGINT/SIGTERM/SIGPIPE
// restored to their defaults: a Ctrl-C aimed at the front door must not
// also mow down the shard fleet the front door is about to drain, and a
// parent that ignores signals must not leak that disposition through
// exec into every shard.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <string>
#include <vector>

#include "net/framing.hpp"
#include "net/shard_endpoint.hpp"

namespace saim::service {

class ProcessChild : public net::ShardEndpoint {
 public:
  /// Spawns argv[0] with arguments argv[1..] (execvp, so bare names
  /// resolve through PATH; stderr is inherited). Throws std::runtime_error
  /// when pipe/fork fail. An unexecutable path surfaces as the child
  /// exiting 127 with immediate EOF, not as a constructor failure.
  explicit ProcessChild(std::vector<std::string> argv);
  ~ProcessChild() override;

  ProcessChild(const ProcessChild&) = delete;
  ProcessChild& operator=(const ProcessChild&) = delete;

  /// Queues `line` (plus the trailing newline) for the child's stdin.
  void send_line(const std::string& line) override;

  /// Flushes as much queued output as the pipe accepts right now.
  /// Returns false once the pipe is broken (child gone); queued bytes
  /// are then discarded.
  bool pump_writes() override;

  /// Non-blocking read: drains whatever the child has written and returns
  /// the complete lines (without newlines). Sets eof() when the child
  /// closed its end; a trailing half-line at EOF is dropped.
  std::vector<std::string> read_lines() override;

  /// Closes the child's stdin — the graceful drain signal.
  void shutdown_input() override { close_stdin(); }
  void close_stdin();

  /// Sends `signal` (e.g. SIGKILL) if the child has not been reaped yet.
  void kill(int signal);
  void terminate() override { kill(SIGKILL); }

  /// Reaps the child via waitpid(WNOHANG) if it already exited; repeated
  /// supervisor respawns must not accumulate zombies.
  void reap() noexcept override { (void)running(); }

  /// Polls waitpid(WNOHANG); false once the child exited and was reaped.
  [[nodiscard]] bool running();

  /// True once the child closed its stdout (all output received).
  [[nodiscard]] bool eof() const noexcept override { return eof_; }

  /// Raw waitpid status; meaningful once running() returned false.
  [[nodiscard]] int exit_status() const noexcept { return status_; }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] int read_fd() const noexcept override { return out_fd_; }
  [[nodiscard]] int write_fd() const noexcept override { return in_fd_; }
  /// Bytes queued but not yet accepted by the pipe.
  [[nodiscard]] std::size_t outbound_bytes() const noexcept override {
    return outbuf_.size();
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;   ///< parent write end -> child stdin
  int out_fd_ = -1;  ///< parent read end  <- child stdout
  std::string outbuf_;
  net::LineFramer framer_;
  bool write_broken_ = false;
  bool eof_ = false;
  bool reaped_ = false;
  int status_ = 0;
};

}  // namespace saim::service
