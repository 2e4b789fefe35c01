// ThreadChecker — runtime enforcement for "single-threaded by design".
//
// ShardRouter and Supervisor hold no mutexes on purpose: one event loop
// owns them, so locking would only buy overhead. That contract used to be
// a header comment; this makes it load-bearing. The owning class embeds a
// ThreadChecker and calls assert_current_thread() at its entry points —
// the first call binds the checker to the calling thread, every later
// call from a different thread aborts with a diagnostic instead of
// corrupting unsynchronized state silently.
//
// Cost: one relaxed atomic load + compare per checked call — noise next
// to the work those entry points do, so the check stays on in release
// builds (a cross-thread call is a bug worth an abort in production too,
// and the TSan tier exercises exactly these paths).
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace saim::util {

class ThreadChecker {
 public:
  /// `what` names the checked object in the abort diagnostic; it must be
  /// a string literal (the pointer is kept, not copied).
  explicit ThreadChecker(const char* what) noexcept : what_(what) {}

  /// Binds to the first calling thread; aborts on any other.
  void assert_current_thread() const noexcept {
    const auto self = std::this_thread::get_id();
    std::thread::id bound = owner_.load(std::memory_order_relaxed);
    if (bound == std::thread::id{}) {
      // First call wins; a concurrent first call from another thread loses
      // the CAS and falls through to the mismatch abort — exactly the bug
      // this class exists to catch.
      if (owner_.compare_exchange_strong(bound, self,
                                         std::memory_order_relaxed)) {
        return;
      }
    }
    if (bound != self) {
      std::fprintf(stderr,
                   "FATAL: %s is single-threaded by contract but was "
                   "entered from a second thread\n",
                   what_);
      std::abort();
    }
  }

  /// Re-binds to the next calling thread (ownership handoff, e.g. tests
  /// driving one object from sequential threads with external ordering).
  void detach() noexcept {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
  }

 private:
  const char* what_;
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace saim::util
