// End-to-end tests of the saim_shard binary: the one event loop that
// carries stdin, the shard pipes, the supervisor's timers and the
// --metrics scrape. Stdin from a regular file and from a pipe, a reply
// before EOF while the writer holds stdin open, SIGTERM and the shutdown
// control line mid-stream, and a scrape while jobs are in flight.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "service/process_child.hpp"
#include "util/jsonl.hpp"

namespace saim {
namespace {

using Clock = std::chrono::steady_clock;
using service::ProcessChild;

const char* shard_bin() {
#ifdef SAIM_SHARD_BIN
  return SAIM_SHARD_BIN;
#else
  return nullptr;
#endif
}

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

/// `count` jobs over six instances; `heavy` makes each take long enough
/// that a signal or a scrape lands mid-stream.
std::string job_lines(int count, bool heavy) {
  std::string lines;
  for (int j = 0; j < count; ++j) {
    lines += "{\"id\":\"j" + std::to_string(j) + "\",\"gen\":\"qkp:" +
             (heavy ? "60" : "30") + "-25-" + std::to_string(j % 6 + 1) +
             "\",\"iterations\":" + (heavy ? "25" : "2") +
             ",\"sweeps\":" + (heavy ? "300" : "20") +
             ",\"seed\":" + std::to_string(j / 6 + 1) + "}\n";
  }
  return lines;
}

std::vector<std::string> shard_argv(std::vector<std::string> extra = {}) {
  std::vector<std::string> argv = {shard_bin(), "--shards", "2",
                                   "--workers", "1", "--serve", serve_bin(),
                                   "--log-level", "warn"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

/// Writes `text` to the child's stdin, all of it.
void send(ProcessChild& child, const std::string& text) {
  child.send_line(text.substr(0, text.size() - 1));  // re-adds the '\n'
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (child.outbound_bytes() > 0 && Clock::now() < deadline) {
    ASSERT_TRUE(child.pump_writes());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Reads result lines until `until` holds, EOF, or 30 s pass.
void read_until(ProcessChild& child, std::vector<std::string>* lines,
                const std::function<bool()>& until) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (!until() && !child.eof() && Clock::now() < deadline) {
    for (auto& l : child.read_lines()) lines->push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Reads to EOF and returns the exit status (-1 if it never exits).
int finish(ProcessChild& child, std::vector<std::string>* lines) {
  read_until(child, lines, [] { return false; });
  for (auto& l : child.read_lines()) lines->push_back(std::move(l));
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (child.running() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (child.running()) return -1;
  const int status = child.exit_status();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Every job line once, no errors, global seq exactly 0..jobs-1.
void expect_exactly_once(const std::vector<std::string>& lines,
                         std::size_t jobs) {
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  std::size_t results = 0;
  for (const auto& line : lines) {
    const auto v = util::parse_json(line);
    if (!v.find("seq")) continue;  // control replies carry none
    ++results;
    EXPECT_EQ(v.find("error"), nullptr) << line;
    ids.insert(v.find("id")->as_string());
    seqs.insert(v.find("seq")->as_int());
  }
  EXPECT_EQ(results, jobs);
  EXPECT_EQ(ids.size(), jobs);
  ASSERT_EQ(seqs.size(), jobs);
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(), static_cast<std::int64_t>(jobs) - 1);
}

class SaimShardTool : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!shard_bin() || !serve_bin()) GTEST_SKIP() << "tools not built";
  }
};

TEST_F(SaimShardTool, StdinFromARegularFile) {
  char path[] = "/tmp/saim_shard_jobsXXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  const std::string jobs = job_lines(12, false);
  ASSERT_EQ(::write(fd, jobs.data(), jobs.size()),
            static_cast<ssize_t>(jobs.size()));
  ::close(fd);

  // `saim_shard < jobs.jsonl`: the shell hands it the file itself.
  std::string command = "exec";
  for (const auto& arg : shard_argv()) command += " '" + arg + "'";
  command += " < '" + std::string(path) + "'";
  ProcessChild shard(std::vector<std::string>{"/bin/sh", "-c", command});
  std::vector<std::string> lines;
  const int code = finish(shard, &lines);
  ::unlink(path);
  EXPECT_EQ(code, 0);
  expect_exactly_once(lines, 12);
}

TEST_F(SaimShardTool, StdinFromAPipe) {
  ProcessChild shard(shard_argv());
  send(shard, job_lines(12, false));
  shard.close_stdin();
  std::vector<std::string> lines;
  EXPECT_EQ(finish(shard, &lines), 0);
  expect_exactly_once(lines, 12);
}

TEST_F(SaimShardTool, RepliesBeforeTheWriterSendsEof) {
  ProcessChild shard(shard_argv());
  send(shard, job_lines(1, false));
  std::vector<std::string> lines;
  read_until(shard, &lines, [&] { return !lines.empty(); });
  ASSERT_EQ(lines.size(), 1u) << "no reply while stdin stayed open";
  EXPECT_EQ(util::parse_json(lines[0]).find("id")->as_string(), "j0");
  shard.close_stdin();
  EXPECT_EQ(finish(shard, &lines), 0);
  expect_exactly_once(lines, 1);
}

TEST_F(SaimShardTool, SigtermDrainsEveryAcceptedJob) {
  ProcessChild shard(shard_argv());
  // One write under PIPE_BUF: the loop reads, and accepts, all 12 lines
  // in one pass.
  send(shard, job_lines(12, true));
  std::vector<std::string> lines;
  read_until(shard, &lines, [&] { return !lines.empty(); });
  ASSERT_FALSE(lines.empty());
  ASSERT_LT(lines.size(), 12u) << "the stream finished before the signal";
  shard.kill(SIGTERM);  // stdin stays open: only the signal ends intake
  EXPECT_EQ(finish(shard, &lines), 0);
  expect_exactly_once(lines, 12);
}

TEST_F(SaimShardTool, ShutdownCmdAnswersBye) {
  ProcessChild shard(shard_argv());
  send(shard, job_lines(4, false) + "{\"cmd\":\"shutdown\",\"id\":\"end\"}\n");
  std::vector<std::string> lines;
  // Stdin stays open: the shutdown line alone ends the stream.
  EXPECT_EQ(finish(shard, &lines), 0);
  ASSERT_FALSE(lines.empty());
  const auto bye = util::parse_json(lines.back());
  EXPECT_EQ(bye.find("id")->as_string(), "end");
  ASSERT_NE(bye.find("bye"), nullptr) << lines.back();
  EXPECT_TRUE(bye.find("bye")->as_bool());
  lines.pop_back();
  expect_exactly_once(lines, 4);
}

TEST_F(SaimShardTool, MetricsScrapeMidStream) {
  const std::string port_file =
      "saim_shard_tool_metrics_" + std::to_string(::getpid()) + ".port";
  std::remove(port_file.c_str());
  ProcessChild shard(shard_argv({"--metrics", "127.0.0.1:0",
                                 "--metrics-port-file", port_file}));
  send(shard, job_lines(12, true));
  std::vector<std::string> lines;
  read_until(shard, &lines, [&] { return !lines.empty(); });

  int port = 0;
  for (int spin = 0; spin < 5000 && port == 0; ++spin) {
    std::ifstream pf(port_file);
    if (!(pf >> port)) {
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::remove(port_file.c_str());
  ASSERT_GT(port, 0) << "saim_shard never wrote its metrics port";

  net::Connection scrape = net::connect_to("127.0.0.1", port);
  scrape.send_line("GET /metrics HTTP/1.0\r");
  scrape.send_line("\r");
  std::string response;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!scrape.eof() && Clock::now() < deadline) {
    scrape.pump_writes();
    for (const auto& l : scrape.read_lines()) response += l + "\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("saim_router_accepted_total 12"), std::string::npos)
      << response;

  shard.close_stdin();
  EXPECT_EQ(finish(shard, &lines), 0);
  expect_exactly_once(lines, 12);
}

}  // namespace
}  // namespace saim
