// In-process tests for service::EventServer (the event-driven --listen
// front door): round-trip + graceful shutdown exit code, the global
// connection cap's fail-fast reject, the fail-closed auth deadline, the
// idle timeout, slow-reader backpressure (bounded outbound queue that
// pauses reading, then drains completely), and completions that land
// after their client vanished. Every case runs on both reactor backends
// — epoll and the portable poll fallback.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/event_server.hpp"
#include "service/solve_service.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

using namespace std::chrono_literals;

/// Blocking TCP client with a receive timeout — the test-side peer.
class BlockingClient {
 public:
  explicit BlockingClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{10, 0};  // nothing in these tests legitimately takes 10 s
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
  }
  ~BlockingClient() { close(); }
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Closes with a TCP reset (SO_LINGER 0): the server's next write to
  /// this connection fails instead of landing in a buffer.
  void abort() {
    linger hard{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    close();
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next full line; false on EOF or receive timeout.
  bool read_line(std::string& line) {
    for (;;) {
      const auto pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer half is closed: recv returns 0 within the
  /// receive timeout without delivering any byte first.
  bool reads_eof_with_no_data() {
    char byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One EventServer on its own thread; joins (and checks the exit code)
/// on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(EventServerOptions options, int workers = 1) {
    ServiceOptions service_options;
    service_options.workers = workers;
    service_ = std::make_unique<SolveService>(service_options);
    server_ = std::make_unique<EventServer>(*service_, std::move(options));
    thread_ = std::thread([this] { exit_code_ = server_->run(); });
  }
  ~ServerFixture() {
    if (thread_.joinable()) {
      server_->stop();
      thread_.join();
    }
  }

  [[nodiscard]] int port() const { return server_->port(); }
  [[nodiscard]] EventServer& server() { return *server_; }

  /// Joins the server thread (run() must return on its own — e.g. after
  /// a {"cmd":"shutdown"}) and returns its exit code.
  int join() {
    thread_.join();
    return exit_code_;
  }

  /// Spins until `predicate(counters())` holds or ~5 s pass.
  template <typename Predicate>
  bool wait_for(Predicate predicate) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate(server_->counters())) return true;
      std::this_thread::sleep_for(2ms);
    }
    return predicate(server_->counters());
  }

 private:
  std::unique_ptr<SolveService> service_;
  std::unique_ptr<EventServer> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

class EventServerTest : public ::testing::TestWithParam<bool> {
 protected:
  EventServerOptions base_options() {
    EventServerOptions options;
    options.session.stream = true;  // replies as they finish
    options.force_poll = GetParam();
    return options;
  }
};

std::string job_line(const std::string& id, std::uint64_t seed) {
  return "{\"id\":\"" + id +
         "\",\"gen\":\"qkp:30-25-1\",\"iterations\":1,\"sweeps\":10,"
         "\"seed\":" + std::to_string(seed) + "}";
}

TEST_P(EventServerTest, RoundTripThenShutdownExitsZero) {
  ServerFixture fixture(base_options());
  BlockingClient client(fixture.port());

  client.send_line(R"({"cmd":"ping","id":"p0"})");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  util::JsonValue pong = util::parse_json(line);
  EXPECT_TRUE(pong.find("pong"));
  EXPECT_EQ(pong.find("id")->as_string(), "p0");

  client.send_line(job_line("j0", 7));
  ASSERT_TRUE(client.read_line(line));
  util::JsonValue result = util::parse_json(line);
  ASSERT_TRUE(result.find("status")) << line;
  EXPECT_EQ(result.find("status")->as_string(), "completed");
  EXPECT_EQ(result.find("id")->as_string(), "j0");

  client.send_line(R"({"id":"end","cmd":"shutdown"})");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_NE(line.find("\"bye\":true"), std::string::npos) << line;
  EXPECT_TRUE(client.reads_eof_with_no_data());
  EXPECT_EQ(fixture.join(), 0);
}

TEST_P(EventServerTest, ConnectionCapRejectsFailFast) {
  EventServerOptions options = base_options();
  options.max_connections = 1;
  ServerFixture fixture(options);

  BlockingClient first(fixture.port());
  first.send_line(R"({"cmd":"ping","id":"warm"})");
  std::string line;
  ASSERT_TRUE(first.read_line(line)) << "first connection must be served";

  BlockingClient second(fixture.port());
  // The reject writes NOTHING: the first read must be a clean EOF.
  EXPECT_TRUE(second.reads_eof_with_no_data());
  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.rejected >= 1 && c.open == 1;
  }));
  const auto counters = fixture.server().counters();
  EXPECT_EQ(counters.accepted, 1u) << "a rejected connection is not accepted";

  // The surviving session is unaffected by its neighbour's reject.
  first.send_line(R"({"cmd":"ping","id":"still"})");
  ASSERT_TRUE(first.read_line(line));
  EXPECT_NE(line.find("\"still\""), std::string::npos);
}

TEST_P(EventServerTest, AuthDeadlineDropsSilentConnections) {
  EventServerOptions options = base_options();
  options.auth_token = "sesame";
  options.auth_timeout_ms = 50;
  ServerFixture fixture(options);

  BlockingClient silent(fixture.port());
  // Fail closed: no token within the deadline -> EOF, nothing written.
  EXPECT_TRUE(silent.reads_eof_with_no_data());
  EXPECT_TRUE(fixture.wait_for(
      [](const EventServer::Counters& c) { return c.timed_out >= 1; }));

  // A prompt, correct handshake still gets in afterwards.
  BlockingClient polite(fixture.port());
  polite.send_line(R"({"auth":"sesame"})");
  polite.send_line(R"({"cmd":"ping","id":"in"})");
  std::string line;
  ASSERT_TRUE(polite.read_line(line));
  EXPECT_NE(line.find("\"pong\""), std::string::npos) << line;
}

TEST_P(EventServerTest, WrongTokenClosesUnserved) {
  EventServerOptions options = base_options();
  options.auth_token = "sesame";
  ServerFixture fixture(options);

  BlockingClient wrong(fixture.port());
  wrong.send_line(R"({"auth":"open says me"})");
  EXPECT_TRUE(wrong.reads_eof_with_no_data())
      << "a bad token must close the connection without a reply";
  EXPECT_TRUE(fixture.wait_for(
      [](const EventServer::Counters& c) { return c.open == 0; }));
}

TEST_P(EventServerTest, IdleTimeoutDropsQuietConnections) {
  EventServerOptions options = base_options();
  options.idle_timeout_ms = 50;
  ServerFixture fixture(options);

  BlockingClient quiet(fixture.port());
  EXPECT_TRUE(quiet.reads_eof_with_no_data());
  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.timed_out >= 1 && c.open == 0;
  }));
}

TEST_P(EventServerTest, SlowReaderHitsBackpressureThenDrainsFully) {
  EventServerOptions options = base_options();
  // A tiny bound so a handful of pong echoes trips the pause.
  options.outbound_limit_bytes = 1024;
  ServerFixture fixture(options);
  BlockingClient client(fixture.port());

  // ~60 KB of pings with fat ids, sent while this client reads nothing.
  // Well under one side's kernel socket buffering, so the blocking
  // sends cannot deadlock against the paused server.
  constexpr int kPings = 100;
  const std::string padding(512, 'x');
  for (int i = 0; i < kPings; ++i) {
    client.send_line("{\"cmd\":\"ping\",\"id\":\"bp" + std::to_string(i) +
                     "-" + padding + "\"}");
  }

  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.backpressure_pauses >= 1;
  })) << "a 1 KiB outbound bound must pause against an unread 60 KB echo";

  // Backpressure pauses intake; it must not drop anything. Once this
  // side drains, every ping is answered, in order.
  std::string line;
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.read_line(line)) << "missing pong " << i;
    EXPECT_NE(line.find("\"bp" + std::to_string(i) + "-"), std::string::npos)
        << "out of order at " << i << ": " << line;
  }

  client.send_line(R"({"id":"end","cmd":"shutdown"})");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_NE(line.find("\"bye\":true"), std::string::npos);
  EXPECT_EQ(fixture.join(), 0);
}

TEST_P(EventServerTest, CompletionAfterClientResetIsHarmless) {
  ServerFixture fixture(base_options(), /*workers=*/2);
  {
    BlockingClient client(fixture.port());
    // Two jobs of different lengths, both still running when the client
    // resets. The first to finish is emitted into the dead socket, which
    // closes the connection; the other then finishes (or is abandoned)
    // with its connection already gone — its wake must find nothing.
    for (const int iterations : {300, 3000}) {
      client.send_line(
          "{\"id\":\"long" + std::to_string(iterations) +
          "\",\"gen\":\"qkp:30-25-1\",\"iterations\":" +
          std::to_string(iterations) + ",\"sweeps\":100,\"cache\":false}");
    }
    client.send_line(R"({"cmd":"ping","id":"seen"})");
    std::string line;
    ASSERT_TRUE(client.read_line(line));  // both jobs were accepted
    EXPECT_NE(line.find("\"seen\""), std::string::npos) << line;
    client.abort();
  }
  EXPECT_TRUE(fixture.wait_for([](const EventServer::Counters& c) {
    return c.accepted == 1 && c.open == 0;
  })) << "the reset connection must close once a completion hits it";

  // The server is unharmed: a new session is served, then shuts down.
  BlockingClient next(fixture.port());
  next.send_line(job_line("after", 3));
  std::string line;
  ASSERT_TRUE(next.read_line(line));
  EXPECT_NE(line.find("\"completed\""), std::string::npos) << line;
  next.send_line(R"({"id":"end","cmd":"shutdown"})");
  ASSERT_TRUE(next.read_line(line));
  EXPECT_NE(line.find("\"bye\":true"), std::string::npos) << line;
  EXPECT_EQ(fixture.join(), 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventServerTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace saim::service
