// Peak memory of the saim_serve binary on one large, sparse job.
//
// An MKP's objective is linear and its penalty stays factored, so its
// model holds no couplings at all: a 3000-item MKP should cost about what
// a 100-item one does. One n*n array of doubles in either model is
// ~73 MiB at n ~ 3090 (items plus slack bits) and fails the bound. The
// probe reads the child's ru_maxrss through wait4 around one 1-iteration,
// 1-sweep job.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>

namespace saim {
namespace {

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

// saim_serve is built with the same sanitizer flags as this test.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SAIM_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SAIM_SANITIZED_HEAP 1
#endif
#endif

// Measured on x86-64 Linux: 5.2 MB in Release, 46.1 MB under ASan+UBSan,
// 25.4 MB under TSan; with the couplings stored as two dense n*n arrays,
// 151.6 MB in Release.
#ifdef SAIM_SANITIZED_HEAP
constexpr double kPeakBoundMb = 100.0;
#else
constexpr double kPeakBoundMb = 32.0;
#endif

TEST(SaimServeMemory, SparseMkp3000StaysSmall) {
  const char* serve = serve_bin();
  if (serve == nullptr) GTEST_SKIP() << "saim_serve not built";
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  const std::string job =
      "{\"gen\":\"mkp:3000-5-1\",\"iterations\":1,\"sweeps\":1}\n";
  ASSERT_EQ(::write(in[1], job.data(), job.size()),
            static_cast<ssize_t>(job.size()));
  ::close(in[1]);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(in[0]);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(serve, serve, "--workers", "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(out[0], buf, sizeof buf);
    if (r > 0) {
      reply.append(buf, static_cast<std::size_t>(r));
    } else if (r == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(out[0]);

  int status = 0;
  rusage usage{};
  ASSERT_EQ(::wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << reply;
  EXPECT_NE(reply.find("\"status\":\"completed\""), std::string::npos) << reply;
  const double peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf("saim_serve peak RSS on mkp:3000-5-1: %.1f MB\n", peak_mb);
  EXPECT_LT(peak_mb, kPeakBoundMb);
}

}  // namespace
}  // namespace saim
