// net::EventLoop — the single-threaded reactor under the serving stack.
//
// One loop multiplexes any number of stream fds (accepted connections, a
// listener, a metrics socket) plus one-shot timers on ONE thread: the
// owner registers an fd with an interest mask and a callback, the loop
// polls the whole set at once, and dispatches ready fds back through
// their callbacks. On Linux the backend is epoll (level-triggered; the
// interest set lives in the kernel, so a 10k-connection sweep costs the
// ready count, not the fd count); everywhere else — and under the
// force_poll test hook, which keeps the portable path exercised on Linux
// CI too — it is plain poll(2) over the registered set.
//
// Contracts, chosen for the event-server use case:
//   * single-threaded: every method except wakeup() and stop() must be
//     called from the loop thread (or before run() starts). wakeup()
//     interrupts the current poll so the loop thread can notice
//     externally-set state; it is one write(2), so a signal handler may
//     call it too. stop() is the cross-thread way to end run().
//   * callbacks may freely add_fd/remove_fd/set_interest/add_timer,
//     including removing the fd being dispatched or any other ready fd:
//     the dispatch pass re-checks registration before every callback.
//   * timers are one-shot and fire in the loop thread after their delay
//     elapses (never early, possibly late by one poll round). Re-arm by
//     calling add_timer again from the callback. cancel_timer is lazy —
//     O(1), the heap entry is simply orphaned.
//   * error/hangup conditions are delivered as kError | kRead even when
//     read interest is off, so a paused-for-backpressure connection
//     still learns that its peer vanished instead of leaking.
//   * an fd epoll refuses (a regular file: `saim_shard < jobs.jsonl`) is
//     always ready, as poll(2) reports it: while it has interest, every
//     pass waits zero and dispatches it with its interest bits, so both
//     backends behave alike and callers need no special case.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace saim::net {

class EventLoop {
 public:
  /// Interest / readiness bits. kError is readiness-only (never part of
  /// an interest mask); it always arrives together with kRead so a
  /// read-to-EOF path observes the failure.
  enum : std::uint32_t { kRead = 1u, kWrite = 2u, kError = 4u };

  using FdCallback = std::function<void(std::uint32_t ready)>;
  using TimerCallback = std::function<void()>;
  using Clock = std::chrono::steady_clock;

  /// force_poll skips the epoll backend even on Linux (tests pin both).
  explicit EventLoop(bool force_poll = false);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with an interest mask (kRead/kWrite, possibly 0 for
  /// a fully paused fd). Re-registering an fd replaces its entry.
  void add_fd(int fd, std::uint32_t interest, FdCallback callback);
  /// Updates the interest mask of a registered fd; no-op when unknown.
  void set_interest(int fd, std::uint32_t interest);
  /// Deregisters `fd` (the loop never closes it; the owner does).
  void remove_fd(int fd);

  /// Arms a one-shot timer; returns its id (never 0).
  std::uint64_t add_timer(std::chrono::milliseconds delay,
                          TimerCallback callback);
  /// Disarms a pending timer; false when it already fired or never was.
  bool cancel_timer(std::uint64_t id);

  /// One poll+dispatch pass: waits at most `max_wait_ms` (clamped down
  /// to the next timer deadline; -1 = only timers bound the wait), then
  /// fires due timers and dispatches every ready fd.
  void run_once(int max_wait_ms);
  /// run_once(-1) until stop(); returns at once when stop() came first.
  /// Consumes the stop request, so the loop can run() again.
  void run();
  /// Makes run() return after the current pass (wakes it). Safe from any
  /// thread, also before run() starts.
  void stop();
  /// Thread-safe: interrupts the poll in progress so the loop thread
  /// re-evaluates external state immediately.
  void wakeup();

  [[nodiscard]] bool using_epoll() const noexcept { return epoll_fd_ >= 0; }
  /// Registered fds (the internal wakeup fd is not counted).
  [[nodiscard]] std::size_t fd_count() const noexcept { return fds_.size(); }
  [[nodiscard]] std::size_t pending_timers() const noexcept {
    return timers_.size();
  }

 private:
  struct FdEntry {
    std::uint32_t interest = 0;
    FdCallback callback;
    bool always_ready = false;  ///< refused by epoll; see header contract
  };
  struct TimerEntry {
    Clock::time_point deadline;
    std::uint64_t id = 0;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.deadline > b.deadline;
    }
  };

  /// The poll timeout honouring both the caller's cap and the timer heap.
  [[nodiscard]] int effective_timeout_ms(int max_wait_ms) const;
  void fire_due_timers();
  void drain_wakeup() const;
  void dispatch(int fd, std::uint32_t ready);
  /// True when an always-ready fd has interest: the pass must not block.
  [[nodiscard]] bool always_ready_pending() const;
  void dispatch_always_ready();

  int epoll_fd_ = -1;      ///< -1 on the poll backend
  int wake_read_fd_ = -1;  ///< eventfd (both roles) or pipe read end
  int wake_write_fd_ = -1;
  std::atomic<bool> stop_{false};

  std::unordered_map<int, FdEntry> fds_;
  std::vector<int> always_ready_;  ///< fds epoll refused (epoll backend)
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater>
      timer_heap_;
  std::unordered_map<std::uint64_t, TimerCallback> timers_;
  std::uint64_t next_timer_id_ = 1;

  /// Scratch for the dispatch pass (poll backend); a member so a busy
  /// loop does not reallocate it every round.
  std::vector<std::pair<int, std::uint32_t>> ready_;
};

}  // namespace saim::net
