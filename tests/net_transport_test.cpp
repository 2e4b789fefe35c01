// Tests for the src/net transport subsystem: line framing over stream
// fds (partial lines, short reads, EOF mid-line), the non-blocking
// Connection, host:port parsing, Listener/connect_to over loopback TCP,
// and — when the build provides SAIM_SERVE_BIN — the transport-equality
// contract of ISSUE 5: the same job stream routed through SocketChild
// endpoints (against real `saim_serve --listen` servers) produces
// solver output bit-identical to the pipe-transport fleet.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/listener.hpp"
#include "net/socket_child.hpp"
#include "service/process_child.hpp"
#include "service/shard_router.hpp"
#include "service/supervisor.hpp"
#include "util/jsonl.hpp"

namespace saim {
namespace {

using namespace saim::net;

// ---------------------------------------------------------------- framing

TEST(LineFramer, AssemblesLinesAcrossArbitraryFragments) {
  LineFramer framer;
  framer.feed("he", 2);
  EXPECT_TRUE(framer.take_lines().empty());
  framer.feed("llo\nwor", 7);
  const auto first = framer.take_lines();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], "hello");
  EXPECT_EQ(framer.partial_bytes(), 3u);  // "wor" awaits its newline
  framer.feed("ld\n", 3);
  const auto second = framer.take_lines();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], "world");
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, ManyLinesInOneFragmentAndEmptyLines) {
  LineFramer framer;
  const std::string chunk = "a\n\nb\n";
  framer.feed(chunk.data(), chunk.size());
  const auto lines = framer.take_lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], "b");
}

TEST(LineFramer, ByteAtATimeDelivery) {
  LineFramer framer;
  const std::string line = "{\"id\":\"x\",\"gen\":\"qkp:30-25-1\"}\n";
  std::vector<std::string> got;
  for (const char c : line) {
    framer.feed(&c, 1);
    for (auto& l : framer.take_lines()) got.push_back(std::move(l));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0] + "\n", line);
}

// ------------------------------------------------------------- connection

/// A connected socketpair with `a` wrapped in Connection and `b` raw.
struct Pair {
  Connection a;
  int b_fd = -1;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Connection(fds[0]);
    b_fd = fds[1];
  }
  ~Pair() {
    if (b_fd >= 0) ::close(b_fd);
  }
};

TEST(Connection, ShortReadsReassembleIntoLines) {
  Pair pair;
  // Write a line in torn fragments with pauses the reader cannot see.
  const std::string line = "{\"id\":\"frag\"}";
  ASSERT_EQ(::write(pair.b_fd, line.data(), 5), 5);
  EXPECT_TRUE(pair.a.read_lines().empty()) << "half a line is not a line";
  const std::string rest = line.substr(5) + "\nnext";
  ASSERT_EQ(::write(pair.b_fd, rest.data(), rest.size()),
            static_cast<ssize_t>(rest.size()));
  const auto lines = pair.a.read_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], line);
  EXPECT_FALSE(pair.a.eof());

  // The trailing "next" never gets its newline: dropped at EOF.
  ::close(pair.b_fd);
  pair.b_fd = -1;
  EXPECT_TRUE(pair.a.read_lines().empty());
  EXPECT_TRUE(pair.a.eof());
}

TEST(Connection, LineLargerThanOneReadBuffer) {
  Pair pair;
  std::string big(20000, 'x');  // several 4096-byte reads
  big += "\n";
  std::size_t off = 0;
  std::vector<std::string> lines;
  while (off < big.size()) {
    const auto n = ::write(pair.b_fd, big.data() + off,
                           std::min<std::size_t>(4096, big.size() - off));
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
    for (auto& l : pair.a.read_lines()) lines.push_back(std::move(l));
  }
  for (auto& l : pair.a.read_lines()) lines.push_back(std::move(l));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].size(), 20000u);
}

TEST(Connection, SendBuffersUntilPumpedAndSurvivesBackpressure) {
  Pair pair;
  // Queue more than the kernel buffer will take at once.
  const std::string line(8192, 'y');
  for (int i = 0; i < 100; ++i) pair.a.send_line(line);
  // Pump while the peer drains; everything must arrive.
  std::size_t received = 0;
  while (received < 100 * (line.size() + 1)) {
    pair.a.pump_writes();
    char buf[16384];
    const auto n = ::recv(pair.b_fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(pair.a.outbound_bytes(), 0u);
}

TEST(Connection, WriteToClosedPeerBreaksInsteadOfKilling) {
  Pair pair;
  ::close(pair.b_fd);
  pair.b_fd = -1;
  pair.a.send_line("into the void");
  // One pump may succeed into the kernel buffer; repeated pumps must
  // surface the break without raising SIGPIPE (process-wide ignore is
  // installed by ProcessChild; sockets use send-side error returns).
  for (int i = 0; i < 10 && pair.a.pump_writes(); ++i) {
    pair.a.send_line("more");
  }
  EXPECT_TRUE(pair.a.broken() || pair.a.outbound_bytes() == 0);
}

TEST(ParseHostPort, AcceptsAndRejects) {
  const auto ok = parse_hostport("127.0.0.1:7777");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, "127.0.0.1");
  EXPECT_EQ(ok->port, 7777);

  const auto v6 = parse_hostport("[::1]:80");
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->host, "::1");
  EXPECT_EQ(v6->port, 80);

  const auto zero = parse_hostport("box:0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->port, 0);

  EXPECT_FALSE(parse_hostport("noport").has_value());
  EXPECT_FALSE(parse_hostport("host:").has_value());
  EXPECT_FALSE(parse_hostport(":123").has_value());
  EXPECT_FALSE(parse_hostport("host:abc").has_value());
  EXPECT_FALSE(parse_hostport("host:70000").has_value());
}

// ------------------------------------------------------ listener loopback

TEST(Listener, EphemeralPortAcceptsAndExchangesLines) {
  Listener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);
  EXPECT_FALSE(listener.accept_fd().has_value()) << "nobody connected yet";

  Connection client = connect_to("127.0.0.1", listener.port());
  std::optional<int> server_fd;
  for (int spin = 0; spin < 2000 && !server_fd; ++spin) {
    server_fd = listener.accept_fd();
    if (!server_fd) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server_fd.has_value());
  Connection server(*server_fd);

  client.send_line("ping over tcp");
  client.pump_writes();
  std::vector<std::string> got;
  for (int spin = 0; spin < 2000 && got.empty(); ++spin) {
    got = server.read_lines();
    if (got.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "ping over tcp");

  server.send_line("pong over tcp");
  server.pump_writes();
  got.clear();
  for (int spin = 0; spin < 2000 && got.empty(); ++spin) {
    got = client.read_lines();
    if (got.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "pong over tcp");

  // Half-close from the client is EOF for the server, not an error.
  client.shutdown_write();
  for (int spin = 0; spin < 2000 && !server.eof(); ++spin) {
    server.read_lines();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(server.eof());
}

TEST(Listener, ConnectToNobodyThrows) {
  int dead_port;
  {
    Listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }  // closed: nothing listens there now
  EXPECT_THROW((void)connect_to("127.0.0.1", dead_port), std::runtime_error);
}

// ------------------------------------- transport equality with saim_serve

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

/// Spawns a `saim_serve --listen` server and connects a SocketChild.
/// The server process handle keeps it alive; pass-through of the bound
/// port goes through --port-file (race-free with ephemeral ports).
struct RemoteShard {
  std::unique_ptr<service::ProcessChild> server;
  int port = 0;
};

RemoteShard spawn_listen_serve(const std::string& tag,
                               std::vector<std::string> extra_args = {}) {
  RemoteShard remote;
  const std::string port_file = "net_test_port_" + tag + ".tmp";
  std::remove(port_file.c_str());
  std::vector<std::string> argv{serve_bin(),    "--listen", "127.0.0.1:0",
                                "--port-file",  port_file,  "--stream",
                                "--workers",    "1",        "--cache",
                                "0"};
  argv.insert(argv.end(), extra_args.begin(), extra_args.end());
  remote.server = std::make_unique<service::ProcessChild>(std::move(argv));
  for (int spin = 0; spin < 10000 && remote.port == 0; ++spin) {
    std::ifstream pf(port_file);
    if (!(pf >> remote.port)) {
      remote.port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::remove(port_file.c_str());
  return remote;
}

std::vector<std::string> job_stream() {
  std::vector<std::string> lines;
  for (int k = 1; k <= 3; ++k) {
    for (int j = 1; j <= 2; ++j) {
      lines.push_back("{\"id\":\"k" + std::to_string(k) + "j" +
                      std::to_string(j) + "\",\"gen\":\"qkp:30-25-" +
                      std::to_string(k) +
                      "\",\"iterations\":3,\"sweeps\":50,\"seed\":" +
                      std::to_string(j) + "}");
    }
  }
  return lines;
}

/// Drives `lines` through a `shards`-slot fleet under the Supervisor
/// pump the tool ships (self-healing off); `attach` connects slot s.
/// Returns the result lines.
std::vector<std::string> route_through(
    std::size_t shards,
    const std::function<void(service::Supervisor&, std::size_t)>& attach,
    const std::vector<std::string>& lines) {
  service::RouterOptions options;
  options.shards = shards;
  service::ShardRouter router(options);
  service::SupervisorOptions fleet_options;
  fleet_options.local_argv = {serve_bin(), "--stream", "--workers", "1",
                              "--cache", "0"};
  fleet_options.respawn = false;
  fleet_options.reconnect_remotes = false;
  fleet_options.ping_ms = 0;
  net::EventLoop loop;
  service::Supervisor fleet(router, loop, std::move(fleet_options));
  for (std::size_t s = 0; s < shards; ++s) attach(fleet, s);
  std::vector<std::string> out;
  std::size_t line_no = 0;
  for (const auto& line : lines) {
    for (auto& l : router.accept_line(line, ++line_no)) {
      out.push_back(std::move(l));
    }
  }
  for (int spin = 0; spin < 20000 && !router.idle(); ++spin) {
    loop.run_once(2);
    for (auto& l : fleet.pump()) out.push_back(std::move(l));
    if (router.live_shards() == 0) break;
  }
  EXPECT_TRUE(router.idle());
  fleet.shutdown_fleet();
  return out;
}

/// Solver-produced fields: everything except scheduling artifacts
/// (seq = arrival order, wall_ms = timing, batch_size = whether twins
/// happened to be queued together when a worker popped).
std::map<std::string, std::string> solved_fields(const std::string& line) {
  const auto v = util::parse_json(line);
  std::map<std::string, std::string> fields;
  for (const auto& [key, value] : v.object()) {
    if (key == "seq" || key == "wall_ms" || key == "batch_size") continue;
    fields[key] = util::to_json(value);
  }
  return fields;
}

TEST(TransportEquality, SocketFleetMatchesPipeFleetBitForBit) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  const auto lines = job_stream();

  // Pipe transport: 2 fork/exec children.
  const auto attach_pipe = [](service::Supervisor& fleet, std::size_t s) {
    fleet.attach_local(s);
  };
  const auto pipe_out = route_through(2, attach_pipe, lines);

  // Socket transport: 2 --listen servers over loopback TCP.
  auto remote_a = spawn_listen_serve("a");
  auto remote_b = spawn_listen_serve("b");
  ASSERT_GT(remote_a.port, 0) << "listen server never wrote its port";
  ASSERT_GT(remote_b.port, 0);
  const int ports[] = {remote_a.port, remote_b.port};
  const auto attach_socket = [&](service::Supervisor& fleet, std::size_t s) {
    fleet.attach_remote(s, "127.0.0.1", ports[s]);
  };
  const auto socket_out = route_through(2, attach_socket, lines);

  ASSERT_EQ(pipe_out.size(), lines.size());
  ASSERT_EQ(socket_out.size(), lines.size());
  // Key by id; every solver field must match byte for byte.
  std::map<std::string, std::map<std::string, std::string>> pipe_by_id;
  std::map<std::string, std::map<std::string, std::string>> socket_by_id;
  for (const auto& line : pipe_out) {
    pipe_by_id[util::parse_json(line).find("id")->as_string()] =
        solved_fields(line);
  }
  for (const auto& line : socket_out) {
    socket_by_id[util::parse_json(line).find("id")->as_string()] =
        solved_fields(line);
  }
  ASSERT_EQ(pipe_by_id.size(), lines.size());
  EXPECT_EQ(pipe_by_id, socket_by_id)
      << "socket transport must not perturb any solver output";

  // Both runs numbered their accepted jobs contiguously.
  for (const auto* out : {&pipe_out, &socket_out}) {
    std::set<std::int64_t> seqs;
    for (const auto& line : *out) {
      seqs.insert(util::parse_json(line).find("seq")->as_int());
    }
    EXPECT_EQ(seqs.size(), lines.size());
    EXPECT_EQ(*seqs.begin(), 0);
  }
  remote_a.server->terminate();
  remote_b.server->terminate();
}

// ------------------------------------------------------ shard-side auth

/// Sends one job over `shard` and collects lines until EOF or the first
/// result, whichever comes first.
std::vector<std::string> try_one_job(net::SocketChild& shard) {
  shard.send_line(
      R"({"id":"one","gen":"qkp:30-25-1","iterations":2,"sweeps":20})");
  shard.pump_writes();
  std::vector<std::string> lines;
  for (int spin = 0; spin < 20000 && !shard.eof() && lines.empty(); ++spin) {
    shard.pump_writes();
    for (auto& l : shard.read_lines()) lines.push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& l : shard.read_lines()) lines.push_back(std::move(l));
  return lines;
}

TEST(ShardAuth, TokenGatesTheSessionFailingClosed) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto remote = spawn_listen_serve("auth", {"--auth-token", "s3cr3t"});
  ASSERT_GT(remote.port, 0);

  // Correct token: the SocketChild sends the {"auth":...} handshake
  // before anything else and the session proceeds normally.
  {
    net::SocketChild shard("127.0.0.1", remote.port, "s3cr3t");
    const auto lines = try_one_job(shard);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
    EXPECT_FALSE(shard.eof());
  }

  // Wrong token: the server closes the connection before the job line is
  // ever parsed — EOF, zero result lines.
  {
    net::SocketChild shard("127.0.0.1", remote.port, "wrong");
    const auto lines = try_one_job(shard);
    EXPECT_TRUE(lines.empty()) << lines.front();
    EXPECT_TRUE(shard.eof());
  }

  // Missing token: the first line is a job, not a handshake — same
  // fail-closed close, and the job is NOT executed.
  {
    net::SocketChild shard("127.0.0.1", remote.port);
    const auto lines = try_one_job(shard);
    EXPECT_TRUE(lines.empty()) << lines.front();
    EXPECT_TRUE(shard.eof());
  }

  // The gate is per-session: a good client still works afterwards.
  {
    net::SocketChild shard("127.0.0.1", remote.port, "s3cr3t");
    const auto lines = try_one_job(shard);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  }
  remote.server->terminate();
}

TEST(ShardAuth, NoServerTokenMeansNoHandshakeRequired) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto remote = spawn_listen_serve("noauth");
  ASSERT_GT(remote.port, 0);
  net::SocketChild shard("127.0.0.1", remote.port);
  const auto lines = try_one_job(shard);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  remote.server->terminate();
}

TEST(TransportEquality, ListenServerShutdownCmdExitsZero) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto remote = spawn_listen_serve("bye");
  ASSERT_GT(remote.port, 0);
  // A second, idle client parked with nothing to say: the shutdown
  // below must not hang on it (the server stops intake everywhere).
  Connection idler = connect_to("127.0.0.1", remote.port);
  net::SocketChild shard("127.0.0.1", remote.port);
  shard.send_line(
      R"({"id":"one","gen":"qkp:30-25-1","iterations":2,"sweeps":20})");
  shard.send_line(R"({"cmd":"shutdown","id":"bye"})");
  shard.pump_writes();

  std::vector<std::string> lines;
  for (int spin = 0; spin < 20000 && !shard.eof(); ++spin) {
    for (auto& l : shard.read_lines()) lines.push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& l : shard.read_lines()) lines.push_back(std::move(l));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  const auto bye = util::parse_json(lines[1]);
  EXPECT_TRUE(bye.find("bye")->as_bool());

  // The whole server process exits 0: shutdown is a clean stop.
  auto* server = remote.server.get();
  for (int spin = 0; spin < 20000 && server->running(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(server->running()) << "server must exit after shutdown";
  ASSERT_TRUE(WIFEXITED(server->exit_status()));
  EXPECT_EQ(WEXITSTATUS(server->exit_status()), 0);
}

}  // namespace
}  // namespace saim
