#include "net/event_loop.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include <algorithm>
#include <array>

namespace saim::net {

namespace {

void set_nonblocking_cloexec(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  const int fd_flags = ::fcntl(fd, F_GETFD, 0);
  if (fd_flags >= 0) ::fcntl(fd, F_SETFD, fd_flags | FD_CLOEXEC);
}

#if defined(__linux__)
std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t ev = 0;
  if (interest & EventLoop::kRead) ev |= EPOLLIN;
  if (interest & EventLoop::kWrite) ev |= EPOLLOUT;
  return ev;
}

std::uint32_t from_epoll(std::uint32_t ev) {
  std::uint32_t ready = 0;
  if (ev & EPOLLIN) ready |= EventLoop::kRead;
  if (ev & EPOLLOUT) ready |= EventLoop::kWrite;
  // Hangup/error always surface as readable too: the consumer's read
  // path is where EOF and ECONNRESET are observed, and it must run even
  // when read interest was paused (see header contract).
  if (ev & (EPOLLERR | EPOLLHUP)) {
    ready |= EventLoop::kError | EventLoop::kRead;
  }
  return ready;
}
#endif

short to_poll(std::uint32_t interest) {
  short ev = 0;
  if (interest & EventLoop::kRead) ev |= POLLIN;
  if (interest & EventLoop::kWrite) ev |= POLLOUT;
  return ev;
}

std::uint32_t from_poll(short revents) {
  std::uint32_t ready = 0;
  if (revents & POLLIN) ready |= EventLoop::kRead;
  if (revents & POLLOUT) ready |= EventLoop::kWrite;
  if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
    ready |= EventLoop::kError | EventLoop::kRead;
  }
  return ready;
}

}  // namespace

EventLoop::EventLoop(bool force_poll) {
#if defined(__linux__)
  if (!force_poll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ >= 0) {
      wake_read_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      wake_write_fd_ = wake_read_fd_;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = wake_read_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);
      return;
    }
  }
#else
  (void)force_poll;
#endif
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) == 0) {
    set_nonblocking_cloexec(pipe_fds[0]);
    set_nonblocking_cloexec(pipe_fds[1]);
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
  }
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0 && wake_write_fd_ != wake_read_fd_) {
    ::close(wake_write_fd_);
  }
}

void EventLoop::add_fd(int fd, std::uint32_t interest, FdCallback callback) {
  if (fd < 0) return;
  remove_fd(fd);  // re-registering replaces the entry
  FdEntry& entry = fds_[fd];
  entry = FdEntry{interest, std::move(callback)};
#if defined(__linux__)
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (epoll_fd_ >= 0 && ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    entry.always_ready = true;
    always_ready_.push_back(fd);
  }
#endif
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  if (it->second.interest == interest) return;
  it->second.interest = interest;
#if defined(__linux__)
  if (epoll_fd_ >= 0 && !it->second.always_ready) {
    epoll_event ev{};
    ev.events = to_epoll(interest);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
#endif
}

void EventLoop::remove_fd(int fd) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  if (it->second.always_ready) {
    std::erase(always_ready_, fd);
  } else if (epoll_fd_ >= 0) {
#if defined(__linux__)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
  }
  fds_.erase(it);
}

std::uint64_t EventLoop::add_timer(std::chrono::milliseconds delay,
                                   TimerCallback callback) {
  const std::uint64_t id = next_timer_id_++;
  timers_.emplace(id, std::move(callback));
  timer_heap_.push(TimerEntry{Clock::now() + delay, id});
  return id;
}

bool EventLoop::cancel_timer(std::uint64_t id) {
  // Lazy: the heap entry stays and is skipped when popped.
  return timers_.erase(id) > 0;
}

int EventLoop::effective_timeout_ms(int max_wait_ms) const {
  int timeout = max_wait_ms;
  if (!timer_heap_.empty()) {
    // Round UP to whole milliseconds: rounding down would busy-spin the
    // final sub-millisecond of every timer.
    const auto until = timer_heap_.top().deadline - Clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(until).count();
    const long long ms = ns <= 0 ? 0 : (ns + 999'999) / 1'000'000;
    const int clamped = static_cast<int>(std::min<long long>(ms, 60'000));
    timeout = timeout < 0 ? clamped : std::min(timeout, clamped);
  }
  return timeout;
}

void EventLoop::fire_due_timers() {
  const auto now = Clock::now();
  while (!timer_heap_.empty() && timer_heap_.top().deadline <= now) {
    const TimerEntry entry = timer_heap_.top();
    timer_heap_.pop();
    const auto it = timers_.find(entry.id);
    if (it == timers_.end()) continue;  // cancelled
    TimerCallback callback = std::move(it->second);
    timers_.erase(it);
    callback();  // may add_timer (re-arm) or mutate the fd set
  }
}

void EventLoop::drain_wakeup() const {
  char buffer[64];
  while (::read(wake_read_fd_, buffer, sizeof buffer) > 0) {
  }
}

void EventLoop::dispatch(int fd, std::uint32_t ready) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;  // removed by an earlier callback this pass
  // Copy: the callback may remove (and thereby destroy) its own entry.
  const FdCallback callback = it->second.callback;
  callback(ready);
}

bool EventLoop::always_ready_pending() const {
  return std::any_of(always_ready_.begin(), always_ready_.end(),
                     [this](int fd) { return fds_.at(fd).interest != 0; });
}

void EventLoop::dispatch_always_ready() {
  // Copy: a callback may remove (or add) always-ready fds.
  const std::vector<int> fds = always_ready_;
  for (const int fd : fds) {
    const auto it = fds_.find(fd);
    if (it == fds_.end() || it->second.interest == 0) continue;
    dispatch(fd, it->second.interest & (kRead | kWrite));
  }
}

void EventLoop::run_once(int max_wait_ms) {
  const int timeout =
      always_ready_pending() ? 0 : effective_timeout_ms(max_wait_ms);
#if defined(__linux__)
  if (epoll_fd_ >= 0) {
    std::array<epoll_event, 64> events;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    fire_due_timers();
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wake_read_fd_) {
        drain_wakeup();
        continue;
      }
      dispatch(fd, from_epoll(events[static_cast<std::size_t>(i)].events));
    }
    dispatch_always_ready();
    return;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size() + 1);
  pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
  for (const auto& [fd, entry] : fds_) {
    pfds.push_back(pollfd{fd, to_poll(entry.interest), 0});
  }
  const int n = ::poll(pfds.data(), pfds.size(), timeout);
  fire_due_timers();
  if (n <= 0) return;
  if (pfds[0].revents & POLLIN) drain_wakeup();
  // Collect first, dispatch second: a callback may mutate fds_, which
  // dispatch() re-checks, but pfds must not be re-read after that.
  ready_.clear();
  for (std::size_t i = 1; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    ready_.emplace_back(pfds[i].fd, from_poll(pfds[i].revents));
  }
  for (const auto& [fd, ev] : ready_) dispatch(fd, ev);
}

void EventLoop::run() {
  while (!stop_.exchange(false)) run_once(-1);
}

void EventLoop::stop() {
  stop_ = true;
  wakeup();
}

void EventLoop::wakeup() {
  if (wake_write_fd_ < 0) return;
#if defined(__linux__)
  if (wake_write_fd_ == wake_read_fd_) {  // eventfd
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n =
        ::write(wake_write_fd_, &one, sizeof one);
    return;
  }
#endif
  const char byte = 0;
  [[maybe_unused]] const auto n = ::write(wake_write_fd_, &byte, 1);
}

}  // namespace saim::net
