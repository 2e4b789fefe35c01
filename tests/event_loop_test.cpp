// Tests for net::EventLoop (the epoll/poll reactor): fd readiness
// dispatch, interest updates, removal from inside a callback, one-shot
// timers with cancellation and re-arm, and the cross-thread wakeup.
// Every case runs on both backends — epoll (Linux default) and the
// portable poll fallback (force_poll) — so the fallback cannot rot.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"

namespace saim {
namespace {

using namespace saim::net;

class EventLoopTest : public ::testing::TestWithParam<bool> {
 protected:
  EventLoop& loop() {
    if (!loop_) loop_ = std::make_unique<EventLoop>(GetParam());
    return *loop_;
  }

 private:
  std::unique_ptr<EventLoop> loop_;
};

/// A connected socketpair the tests poke readiness through.
struct SockPair {
  int a = -1;
  int b = -1;
  SockPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SockPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST_P(EventLoopTest, BackendMatchesRequest) {
#if defined(__linux__)
  EXPECT_EQ(loop().using_epoll(), !GetParam());
#else
  EXPECT_FALSE(loop().using_epoll());
#endif
}

TEST_P(EventLoopTest, ReadReadinessDispatchesOnlyWhenDataArrives) {
  SockPair pair;
  int reads = 0;
  loop().add_fd(pair.a, EventLoop::kRead, [&](std::uint32_t ready) {
    EXPECT_TRUE(ready & EventLoop::kRead);
    ++reads;
    char buf[16];
    (void)::read(pair.a, buf, sizeof buf);
  });
  EXPECT_EQ(loop().fd_count(), 1u);

  loop().run_once(0);
  EXPECT_EQ(reads, 0) << "no data, no dispatch";

  ASSERT_EQ(::write(pair.b, "x", 1), 1);
  loop().run_once(100);
  EXPECT_EQ(reads, 1);
  loop().run_once(0);
  EXPECT_EQ(reads, 1) << "drained fd must not re-fire";
}

TEST_P(EventLoopTest, WriteInterestFiresAndCanBeDropped) {
  SockPair pair;
  int writables = 0;
  loop().add_fd(pair.a, EventLoop::kWrite,
                [&](std::uint32_t) { ++writables; });
  loop().run_once(100);
  EXPECT_EQ(writables, 1) << "an idle socket is writable";

  // Interest 0 parks the fd: registered but silent.
  loop().set_interest(pair.a, 0);
  loop().run_once(0);
  EXPECT_EQ(writables, 1);
  EXPECT_EQ(loop().fd_count(), 1u);

  loop().set_interest(pair.a, EventLoop::kWrite);
  loop().run_once(100);
  EXPECT_EQ(writables, 2);
}

TEST_P(EventLoopTest, PeerCloseReportsToParkedReaders) {
  // A connection under backpressure has read interest OFF; the loop
  // must still deliver the peer-vanished event (kError|kRead via
  // HUP/ERR) or a parked client would leak forever.
  SockPair pair;
  std::uint32_t seen = 0;
  loop().add_fd(pair.a, 0, [&](std::uint32_t ready) { seen |= ready; });
  loop().run_once(0);
  EXPECT_EQ(seen, 0u);

  ::close(pair.b);
  pair.b = -1;
  loop().run_once(100);
  EXPECT_TRUE(seen & EventLoop::kRead) << "HUP must reach interest-0 fds";
}

TEST_P(EventLoopTest, RemoveInsideCallbackIsSafe) {
  SockPair first;
  SockPair second;
  int fired = 0;
  // Both fds ready in one pass; the first callback removes the second.
  // Dispatch must not call into the removed entry.
  const auto make = [&](int self, int other) {
    loop().add_fd(self, EventLoop::kRead, [&, self, other](std::uint32_t) {
      ++fired;
      char buf[4];
      (void)::read(self, buf, sizeof buf);
      if (loop().fd_count() == 2) loop().remove_fd(other);
    });
  };
  make(first.a, second.a);
  make(second.a, first.a);
  ASSERT_EQ(::write(first.b, "x", 1), 1);
  ASSERT_EQ(::write(second.b, "x", 1), 1);
  loop().run_once(100);
  loop().run_once(0);
  EXPECT_EQ(fired, 1) << "the removed fd's callback must not run";
  EXPECT_EQ(loop().fd_count(), 1u);
}

TEST_P(EventLoopTest, TimersFireOnceInDeadlineOrder) {
  std::vector<int> order;
  loop().add_timer(std::chrono::milliseconds(30),
                   [&] { order.push_back(30); });
  loop().add_timer(std::chrono::milliseconds(5),
                   [&] { order.push_back(5); });
  EXPECT_EQ(loop().pending_timers(), 2u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (loop().pending_timers() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop().run_once(50);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 5);
  EXPECT_EQ(order[1], 30);
  loop().run_once(10);
  EXPECT_EQ(order.size(), 2u) << "one-shot timers must not re-fire";
}

TEST_P(EventLoopTest, CancelledTimerNeverFires) {
  bool fired = false;
  const std::uint64_t id =
      loop().add_timer(std::chrono::milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(loop().cancel_timer(id));
  EXPECT_FALSE(loop().cancel_timer(id)) << "second cancel is a no-op";
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  loop().run_once(20);
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop().pending_timers(), 0u);
}

TEST_P(EventLoopTest, TimerCallbackMayReArm) {
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 3) {
      loop().add_timer(std::chrono::milliseconds(1), tick);
    }
  };
  loop().add_timer(std::chrono::milliseconds(1), tick);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fires < 3 && std::chrono::steady_clock::now() < deadline) {
    loop().run_once(20);
  }
  EXPECT_EQ(fires, 3);
}

TEST_P(EventLoopTest, WakeupUnblocksRunFromAnotherThread) {
  EventLoop& l = loop();
  std::thread stopper([&l] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    l.stop();     // run() checks stop_ between passes...
    l.wakeup();   // ...and wakeup() ends the blocking wait now
  });
  const auto start = std::chrono::steady_clock::now();
  l.run();  // would park ~1 s per pass without the wakeup
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopper.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            900)
      << "wakeup() must end the wait early";
}

TEST_P(EventLoopTest, RegularFileIsAlwaysReadyOnBothBackends) {
  // What `saim_shard < jobs.jsonl` hands the loop: epoll refuses regular
  // files (EPERM), poll(2) reports them ready. Both must dispatch.
  char path[] = "/tmp/saim_event_loop_fileXXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::unlink(path);
  ASSERT_EQ(::write(fd, "line\n", 5), 5);
  ASSERT_EQ(::lseek(fd, 0, SEEK_SET), 0);

  std::string got;
  bool eof = false;
  loop().add_fd(fd, EventLoop::kRead, [&](std::uint32_t ready) {
    EXPECT_TRUE(ready & EventLoop::kRead);
    char buf[16];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      got.append(buf, static_cast<std::size_t>(n));
    } else {
      eof = true;
      loop().set_interest(fd, 0);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < 10 && !eof; ++pass) loop().run_once(1000);
  EXPECT_EQ(got, "line\n");
  EXPECT_TRUE(eof);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500))
      << "a ready file must not wait out the poll timeout";

  // Interest off: the file is no longer dispatched, and the pass waits.
  int calls = 0;
  loop().add_fd(fd, 0, [&](std::uint32_t) { ++calls; });
  loop().run_once(10);
  EXPECT_EQ(calls, 0);
  loop().remove_fd(fd);
  ::close(fd);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace saim
