// Tests for the self-healing fleet layer (ISSUE 5): router support for
// shard revival / growth / in-place requeue, the Supervisor's respawn
// with ring rejoin (SIGKILL mid-stream -> exactly-once, contiguous
// global seq), live resharding under load (2 -> 4 -> 1 with zero lost
// jobs), warm-pool handoff across membership changes, the export_warm /
// import_warm protocol itself against real saim_serve children, and
// graceful fleet teardown without zombie processes.
#include <gtest/gtest.h>

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/socket_child.hpp"
#include "problems/fingerprint.hpp"
#include "problems/qkp.hpp"
#include "service/process_child.hpp"
#include "service/request_builders.hpp"
#include "service/shard_router.hpp"
#include "service/supervisor.hpp"
#include "util/jsonl.hpp"

namespace saim::service {
namespace {

// ------------------------------------------- router units (no processes)

std::string job_line(const std::string& id, int k, std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"gen\":\"qkp:30-25-" + std::to_string(k) +
         "\",\"iterations\":2,\"sweeps\":20,\"seed\":" + std::to_string(seed) +
         "}";
}

TEST(ShardRouterFleet, ReviveRestoresTheExactKeyslice) {
  RouterOptions options;
  options.shards = 3;
  ShardRouter router(options);
  // Owners before the crash, over many fingerprints.
  std::map<std::uint64_t, std::size_t> before;
  for (std::uint64_t k = 1; k <= 512; ++k) {
    const std::uint64_t fp = k * 0x9e3779b97f4a7c15ULL;
    before[fp] = router.owner_of(fp);
  }
  (void)router.on_child_down(1);
  EXPECT_EQ(router.live_shards(), 2u);
  router.revive_shard(1);
  EXPECT_EQ(router.live_shards(), 3u);
  EXPECT_TRUE(router.alive(1));
  for (const auto& [fp, owner] : before) {
    EXPECT_EQ(router.owner_of(fp), owner)
        << "revival must restore the pre-crash key layout exactly";
  }
}

TEST(ShardRouterFleet, AddShardExtendsTheRingAndTakesTraffic) {
  RouterOptions options;
  options.shards = 1;
  ShardRouter router(options);
  const std::size_t added = router.add_shard();
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(router.live_shards(), 2u);
  EXPECT_EQ(router.shard_slots(), 2u);
  // With 64 vnodes each, the new shard owns a real share of keys.
  std::size_t moved = 0;
  for (std::uint64_t k = 1; k <= 512; ++k) {
    if (router.owner_of(k * 0x9e3779b97f4a7c15ULL) == added) ++moved;
  }
  EXPECT_GT(moved, 0u);
  // And jobs route to it end-to-end.
  for (int k = 1; k <= 8; ++k) {
    router.accept_line(job_line("j" + std::to_string(k), k, 1),
                       static_cast<std::size_t>(k));
  }
  EXPECT_GT(router.pending(0) + router.pending(1), 0u);
}

TEST(ShardRouterFleet, RequeueInflightHoldsJobsInAcceptOrder) {
  RouterOptions options;
  options.shards = 1;
  options.window = 8;
  ShardRouter router(options);
  for (int j = 0; j < 4; ++j) {
    router.accept_line(job_line("j" + std::to_string(j), 1, j + 1),
                       static_cast<std::size_t>(j + 1));
  }
  const auto sent = router.take_sendable(0);
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(router.inflight(0), 4u);

  router.requeue_inflight(0);  // the sole-shard crash path
  EXPECT_EQ(router.inflight(0), 0u);
  EXPECT_EQ(router.pending(0), 4u);
  EXPECT_EQ(router.stats().requeued, 4u);
  EXPECT_TRUE(router.alive(0)) << "ring membership must be untouched";
  EXPECT_EQ(router.outstanding(), 4u) << "nothing may orphan";

  // Replay happens in the original accept order.
  const auto replay = router.take_sendable(0);
  ASSERT_EQ(replay.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NE(replay[j].find("\"id\":\"_r" + std::to_string(j) + "\""),
              std::string::npos)
        << replay[j];
  }
}

TEST(ShardRouterFleet, WarmExportsAreStashedAndInternalAcksSwallowed) {
  RouterOptions options;
  options.shards = 2;
  ShardRouter router(options);
  EXPECT_FALSE(router.take_warm_export(0).has_value());
  EXPECT_TRUE(
      router
          .on_child_line(
              0, R"({"id":"_p1","warm":{"00000000000000ff":[{"cost":-1,"bits":"0101"}]}})")
          .empty());
  const auto warm = router.take_warm_export(0);
  ASSERT_TRUE(warm.has_value());
  EXPECT_NE(warm->find("00000000000000ff"), std::string::npos);
  EXPECT_FALSE(router.take_warm_export(0).has_value()) << "clears on read";

  EXPECT_TRUE(router.on_child_line(0, R"({"id":"_w","imported":3})").empty());
  EXPECT_TRUE(router.on_child_line(0, R"({"id":"_bye","bye":true})").empty());
  EXPECT_FALSE(router.any_error());
}

TEST(ShardRouterFleet, FleetManagementCmdsAreRejectedByTheRouter) {
  RouterOptions options;
  options.shards = 1;
  ShardRouter router(options);
  const auto out =
      router.accept_line(R"({"cmd":"reshard","shards":4})", 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(util::parse_json(out[0])
                .find("error")
                ->as_string()
                .find("fleet supervisor"),
            std::string::npos);
}

// -------------------------------------------------- fleets of saim_serve

const char* serve_bin() {
#ifdef SAIM_SERVE_BIN
  return SAIM_SERVE_BIN;
#else
  return nullptr;
#endif
}

SupervisorOptions fast_supervisor_options() {
  SupervisorOptions options;
  options.local_argv = {serve_bin(), "--stream", "--workers", "1"};
  options.backoff_initial_ms = 50;
  options.backoff_max_ms = 200;
  options.ping_ms = 0;  // deterministic tests drive health explicitly
  return options;
}

/// One pass of the fleet's loop, bounded at 2 ms so every spin loop here
/// has a time bound, then the pump that writes routed jobs and hands
/// over what the pass produced.
std::vector<std::string> turn(net::EventLoop& loop, Supervisor& supervisor) {
  loop.run_once(2);
  return supervisor.pump();
}

/// Pumps until the router is idle (plus `extra` holds) or ~40s pass.
std::vector<std::string> pump_to_idle(
    net::EventLoop& loop, ShardRouter& router, Supervisor& supervisor,
    const std::function<bool()>& extra = [] { return true; }) {
  std::vector<std::string> out;
  for (int spin = 0; spin < 20000 && !(router.idle() && extra()); ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  return out;
}

void feed_jobs(ShardRouter& router, std::vector<std::string>* out,
               std::size_t* line_no, int first_k, int last_k,
               std::size_t iterations, std::size_t sweeps) {
  for (int k = first_k; k <= last_k; ++k) {
    for (int j = 1; j <= 2; ++j) {
      const auto id = "k" + std::to_string(k) + "j" + std::to_string(j);
      auto emitted = router.accept_line(
          "{\"id\":\"" + id + "\",\"gen\":\"qkp:60-25-" + std::to_string(k) +
              "\",\"iterations\":" + std::to_string(iterations) +
              ",\"sweeps\":" + std::to_string(sweeps) +
              ",\"seed\":" + std::to_string(j) + "}",
          ++*line_no);
      out->insert(out->end(), emitted.begin(), emitted.end());
    }
  }
}

void expect_exactly_once(const std::vector<std::string>& out,
                         std::size_t jobs) {
  ASSERT_EQ(out.size(), jobs);
  std::set<std::string> ids;
  std::set<std::int64_t> seqs;
  for (const auto& line : out) {
    const auto v = util::parse_json(line);
    ids.insert(v.find("id")->as_string());
    EXPECT_EQ(v.find("error"), nullptr) << line;
    ASSERT_NE(v.find("seq"), nullptr) << line;
    seqs.insert(v.find("seq")->as_int());
  }
  EXPECT_EQ(ids.size(), jobs);
  for (std::size_t s = 0; s < jobs; ++s) {
    EXPECT_TRUE(seqs.contains(static_cast<std::int64_t>(s)));
  }
}

TEST(SupervisorFleet, RespawnsSigkilledShardWhichRejoinsTheRing) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 25, 300);
  ASSERT_GT(router.pending(0), 0u);
  ASSERT_GT(router.pending(1), 0u);

  // Mid-stream: at least two results out, victim still has work.
  for (int spin = 0; spin < 10000 && out.size() < 2; ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  const std::size_t victim =
      router.inflight(0) + router.pending(0) >=
              router.inflight(1) + router.pending(1)
          ? 0
          : 1;
  ASSERT_GT(router.inflight(victim) + router.pending(victim), 0u);
  supervisor.endpoint(victim)->terminate();  // SIGKILL

  for (auto& l : pump_to_idle(loop, router, supervisor,
                              [&] { return router.live_shards() == 2; })) {
    out.push_back(std::move(l));
  }

  // Exactly one line per accepted job, contiguous global seq, no errors
  // — and the victim is back on the ring with a fresh process.
  expect_exactly_once(out, 12);
  EXPECT_TRUE(router.alive(victim));
  EXPECT_EQ(router.live_shards(), 2u);
  EXPECT_GE(supervisor.stats().respawns, 1u);
  EXPECT_GT(router.stats().requeued, 0u);
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
}

/// A `saim_serve --listen` server for the remote-reconnect test. Port 0
/// lets the OS pick; the bound port comes back race-free via
/// --port-file. Passing a fixed port pins the replacement server to the
/// dead one's address (SO_REUSEADDR makes the rebind immediate).
struct ListenServer {
  std::unique_ptr<ProcessChild> process;
  int port = 0;
};

ListenServer spawn_listen_serve(int port, const std::string& tag) {
  ListenServer server;
  const std::string port_file = "supervisor_listen_" + tag + ".port";
  std::remove(port_file.c_str());
  server.process = std::make_unique<ProcessChild>(std::vector<std::string>{
      serve_bin(), "--listen", "127.0.0.1:" + std::to_string(port),
      "--port-file", port_file, "--stream", "--workers", "1"});
  for (int spin = 0; spin < 10000 && server.port == 0; ++spin) {
    std::ifstream pf(port_file);
    if (!(pf >> server.port)) {
      server.port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::remove(port_file.c_str());
  return server;
}

TEST(SupervisorFleet, RemoteShardIsRedialedAfterItsServerRestarts) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  auto remote = spawn_listen_serve(0, "reconnect_a");
  ASSERT_GT(remote.port, 0) << "listen server never reported its port";

  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_remote(1, "127.0.0.1", remote.port);
  ASSERT_FALSE(supervisor.is_local(1));

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 25, 300);
  ASSERT_GT(router.inflight(1) + router.pending(1), 0u)
      << "no job routed to the remote shard; the crash would be invisible";

  // Mid-stream, with results flowing, the remote server dies — taking
  // the TCP session down with it ...
  for (int spin = 0; spin < 10000 && out.size() < 2; ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  remote.process->terminate();
  // SIGKILL is asynchronous: the port stays bound until the process is
  // gone, so reap it before rebinding (bounded, ~10 s).
  for (int spin = 0; spin < 10000 && remote.process->running(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(remote.process->running());

  // ... and its operator brings a replacement up on the same address.
  // The supervisor cannot respawn it (it owns no remote processes), but
  // it must redial the endpoint and put slot 1 back on the ring.
  auto replacement = spawn_listen_serve(remote.port, "reconnect_b");
  ASSERT_EQ(replacement.port, remote.port);

  for (auto& l : pump_to_idle(loop, router, supervisor,
                              [&] { return router.live_shards() == 2; })) {
    out.push_back(std::move(l));
  }

  expect_exactly_once(out, 12);
  EXPECT_TRUE(router.alive(1));
  EXPECT_EQ(router.live_shards(), 2u);
  EXPECT_GE(supervisor.stats().remote_reconnects, 1u);
  EXPECT_EQ(supervisor.stats().respawns, 0u)
      << "a redial must not be booked as a local re-exec";
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
  // Teardown closes only our session; the servers belong to their
  // operator (this test), which stops the survivor explicitly.
  replacement.process->terminate();
}

TEST(SupervisorFleet, SoleShardCrashHoldsJobsInsteadOfOrphaning) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 1;
  router_options.window = 4;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 3, 25, 300);

  for (int spin = 0; spin < 10000 && out.empty(); ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  ASSERT_GT(router.outstanding(), 0u);
  supervisor.endpoint(0)->terminate();

  for (auto& l : pump_to_idle(loop, router, supervisor)) {

    out.push_back(std::move(l));

  }

  // With nowhere to fail over, PR 4 would have orphaned every unanswered
  // job; the supervisor instead held them and replayed into the
  // replacement — zero errors, zero orphans.
  expect_exactly_once(out, 6);
  EXPECT_EQ(router.stats().orphaned, 0u);
  EXPECT_GT(router.stats().requeued, 0u);
  EXPECT_GE(supervisor.stats().respawns, 1u);
  EXPECT_EQ(router.live_shards(), 1u);
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, Reshard2To4To1UnderLoadLosesNothing) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 4, 20, 200);

  // Grow to 4 with the first wave still in flight.
  for (int spin = 0; spin < 200; ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  EXPECT_EQ(supervisor.reshard(4), 4u);
  feed_jobs(router, &out, &line_no, 5, 8, 20, 200);

  // Shrink to 1 with the second wave still in flight.
  for (int spin = 0; spin < 200; ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  EXPECT_EQ(supervisor.reshard(1), 1u);
  feed_jobs(router, &out, &line_no, 9, 10, 20, 200);

  for (auto& l : pump_to_idle(loop, router, supervisor)) {

    out.push_back(std::move(l));

  }

  expect_exactly_once(out, 20);
  EXPECT_EQ(router.stats().orphaned, 0u);
  EXPECT_EQ(supervisor.stats().reshards, 2u);
  EXPECT_EQ(supervisor.stats().retired, 3u);
  EXPECT_EQ(supervisor.desired_locals(), 1u);
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, WarmHandoffSeedsTheNewOwnerOnGrow) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 1;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);

  // Cold wave over many instances: shard 0's warm pool fills with the
  // best feasible configurations per problem fingerprint.
  std::vector<std::string> out;
  std::size_t line_no = 0;
  for (int k = 1; k <= 12; ++k) {
    out = router.accept_line(
        "{\"id\":\"cold" + std::to_string(k) + "\",\"gen\":\"qkp:30-25-" +
            std::to_string(k) + "\",\"iterations\":20,\"sweeps\":200}",
        ++line_no);
    ASSERT_TRUE(out.empty());
  }
  std::vector<std::string> cold;
  for (auto& l : pump_to_idle(loop, router, supervisor)) {
    cold.push_back(std::move(l));
  }
  ASSERT_EQ(cold.size(), 12u);
  std::set<int> feasible;
  for (const auto& line : cold) {
    const auto v = util::parse_json(line);
    if (v.find("found_feasible")->as_bool()) {
      const auto id = v.find("id")->as_string();
      feasible.insert(std::stoi(id.substr(4)));
    }
  }
  ASSERT_FALSE(feasible.empty()) << "no cold job found a feasible sample";

  // Grow: shard 1 joins; the supervisor probes shard 0's pool and
  // forwards the entries shard 1 now owns.
  ASSERT_EQ(supervisor.reshard(2), 2u);

  // A feasible instance whose key moved to the new shard.
  int moved_k = 0;
  for (const int k : feasible) {
    const auto request = request_for(std::make_shared<problems::QkpInstance>(
        problems::make_paper_qkp(30, 25, k)));
    if (router.owner_of(problems::fingerprint(*request.problem)) == 1) {
      moved_k = k;
      break;
    }
  }
  ASSERT_NE(moved_k, 0) << "no feasible instance moved to the new shard "
                           "(would need more instances)";

  // Let the export -> forward -> import round trip complete.
  for (int spin = 0;
       spin < 20000 && supervisor.stats().warm_forwarded == 0; ++spin) {
    (void)turn(loop, supervisor);
  }
  ASSERT_GT(supervisor.stats().warm_forwarded, 0u)
      << "the donor's pool entries never reached the new owner";

  // A warm job on the moved instance runs on shard 1 — which never
  // executed it — and still starts warm: the handoff carried the pool.
  // (The import_warm line was queued on shard 1's pipe before this job,
  // so ordering is guaranteed by the transport.)
  out = router.accept_line(
      "{\"id\":\"w\",\"gen\":\"qkp:30-25-" + std::to_string(moved_k) +
          "\",\"iterations\":5,\"sweeps\":100,\"seed\":77,"
          "\"warm_start\":true}",
      ++line_no);
  ASSERT_TRUE(out.empty());
  std::vector<std::string> warm_out;
  for (auto& l : pump_to_idle(loop, router, supervisor)) {
    warm_out.push_back(std::move(l));
  }
  ASSERT_EQ(warm_out.size(), 1u);
  const auto warm_line = util::parse_json(warm_out[0]);
  EXPECT_EQ(warm_line.find("id")->as_string(), "w");
  EXPECT_TRUE(warm_line.find("warm_started")->as_bool())
      << warm_out[0] << " — the new owner should have imported the pool";
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, ChaosSigkillWithReplicationCompletesWithZeroStall) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  // R=2 with hedging on: when the owner is SIGKILLed mid-stream, its
  // hedged jobs are promoted to the replica copies already running and
  // the rest fail over — nothing waits for the respawn. The respawn
  // backoff is set absurdly high so a single stalled job would hang the
  // test: 12/12 completing proves completion never depended on it.
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.window = 4;
  router_options.replicas = 2;
  router_options.hedge_min_ms = 5.0;
  ShardRouter router(router_options);
  SupervisorOptions supervisor_options = fast_supervisor_options();
  supervisor_options.backoff_initial_ms = 60000;
  supervisor_options.backoff_max_ms = 60000;
  net::EventLoop loop;
  Supervisor supervisor(router, loop, supervisor_options);
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 25, 300);
  ASSERT_GT(router.pending(0), 0u);
  ASSERT_GT(router.pending(1), 0u);

  for (int spin = 0; spin < 10000 && out.size() < 2; ++spin) {
    for (auto& l : turn(loop, supervisor)) out.push_back(std::move(l));
  }
  ASSERT_GE(out.size(), 2u);
  const std::size_t victim =
      router.inflight(0) + router.pending(0) >=
              router.inflight(1) + router.pending(1)
          ? 0
          : 1;
  ASSERT_GT(router.inflight(victim) + router.pending(victim), 0u);
  supervisor.endpoint(victim)->terminate();  // SIGKILL

  for (auto& l : pump_to_idle(loop, router, supervisor)) {

    out.push_back(std::move(l));

  }

  expect_exactly_once(out, 12);
  EXPECT_EQ(supervisor.stats().respawns, 0u)
      << "a respawn happened: completion may have stalled on it";
  EXPECT_FALSE(router.alive(victim));
  EXPECT_EQ(router.live_shards(), 1u);
  EXPECT_EQ(router.stats().orphaned, 0u);
  EXPECT_FALSE(router.any_error());
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, GossipWarmsReplicasWithoutAnyMembershipChange) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  // Replication satellite: with gossip_ms set, warm-pool entries reach
  // every member of their replica set on a timer — no reshard, respawn or
  // other membership event required. Proof: warm_forwarded grows while
  // reshards == respawns == 0; then the owner dies and a warm job on the
  // survivor still starts warm, although the survivor never solved the
  // instance and the dead owner can no longer export anything.
  RouterOptions router_options;
  router_options.shards = 2;
  router_options.replicas = 2;
  ShardRouter router(router_options);
  SupervisorOptions supervisor_options = fast_supervisor_options();
  supervisor_options.gossip_ms = 5;
  supervisor_options.backoff_initial_ms = 60000;
  supervisor_options.backoff_max_ms = 60000;
  net::EventLoop loop;
  Supervisor supervisor(router, loop, supervisor_options);
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  // Cold wave over many instances: each owner's pool fills with the best
  // feasible configurations for its keyslice.
  std::vector<std::string> out;
  std::size_t line_no = 0;
  for (int k = 1; k <= 12; ++k) {
    ASSERT_TRUE(router
                    .accept_line("{\"id\":\"cold" + std::to_string(k) +
                                     "\",\"gen\":\"qkp:30-25-" +
                                     std::to_string(k) +
                                     "\",\"iterations\":20,\"sweeps\":200}",
                                 ++line_no)
                    .empty());
  }
  std::vector<std::string> cold;
  for (auto& l : pump_to_idle(loop, router, supervisor)) {
    cold.push_back(std::move(l));
  }
  ASSERT_EQ(cold.size(), 12u);
  std::set<int> feasible;
  for (const auto& line : cold) {
    const auto v = util::parse_json(line);
    if (v.find("found_feasible")->as_bool()) {
      feasible.insert(std::stoi(v.find("id")->as_string().substr(4)));
    }
  }
  ASSERT_FALSE(feasible.empty()) << "no cold job found a feasible sample";

  // Idle gossip rounds replicate the pools across the fleet.
  for (int spin = 0;
       spin < 20000 && supervisor.stats().warm_forwarded == 0; ++spin) {
    (void)turn(loop, supervisor);
  }
  ASSERT_GT(supervisor.stats().warm_forwarded, 0u)
      << "gossip never moved a pool entry";
  EXPECT_EQ(supervisor.stats().reshards, 0u);
  EXPECT_EQ(supervisor.stats().respawns, 0u);

  // Kill a feasible instance's owner. Its pool dies with it, so any
  // warmth the survivor shows below must have arrived via gossip.
  const int moved_k = *feasible.begin();
  const auto request = request_for(std::make_shared<problems::QkpInstance>(
      problems::make_paper_qkp(30, 25, moved_k)));
  const std::size_t owner =
      router.owner_of(problems::fingerprint(*request.problem));
  supervisor.endpoint(owner)->terminate();
  for (int spin = 0; spin < 20000 && router.live_shards() == 2; ++spin) {
    (void)turn(loop, supervisor);
  }
  ASSERT_EQ(router.live_shards(), 1u);

  ASSERT_TRUE(router
                  .accept_line("{\"id\":\"w\",\"gen\":\"qkp:30-25-" +
                                   std::to_string(moved_k) +
                                   "\",\"iterations\":5,\"sweeps\":100,"
                                   "\"seed\":77,\"warm_start\":true}",
                               ++line_no)
                  .empty());
  std::vector<std::string> warm_out;
  for (auto& l : pump_to_idle(loop, router, supervisor)) {
    warm_out.push_back(std::move(l));
  }
  ASSERT_EQ(warm_out.size(), 1u);
  const auto warm_line = util::parse_json(warm_out[0]);
  EXPECT_EQ(warm_line.find("id")->as_string(), "w");
  EXPECT_TRUE(warm_line.find("warm_started")->as_bool())
      << warm_out[0] << " — gossip should have warmed the replica";
  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, GracefulShutdownReapsEveryChild) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  std::vector<std::string> out;
  std::size_t line_no = 0;
  for (auto& l : router.accept_line(job_line("a", 1, 1), ++line_no)) {
    out.push_back(std::move(l));
  }
  for (auto& l : pump_to_idle(loop, router, supervisor)) {
    out.push_back(std::move(l));
  }
  ASSERT_EQ(out.size(), 1u);

  std::vector<pid_t> pids;
  for (std::size_t s = 0; s < 2; ++s) {
    auto* child = dynamic_cast<ProcessChild*>(supervisor.endpoint(s));
    ASSERT_NE(child, nullptr);
    pids.push_back(child->pid());
  }
  supervisor.shutdown_fleet();
  // Reaped means GONE: a zombie would still answer kill(pid, 0) with 0.
  for (const pid_t pid : pids) {
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH) << "child " << pid << " was not reaped";
  }
}

// --------------------------------- warm handoff protocol (serve <-> serve)

/// Sends `lines` to a fresh saim_serve and returns everything it printed
/// until EOF (stdin closed after the send).
std::vector<std::string> converse(
    ProcessChild& serve, const std::vector<std::string>& lines) {
  for (const auto& line : lines) serve.send_line(line);
  for (int spin = 0; spin < 10000 && serve.outbound_bytes() > 0; ++spin) {
    serve.pump_writes();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  serve.close_stdin();
  std::vector<std::string> out;
  for (int spin = 0; spin < 20000 && !serve.eof(); ++spin) {
    for (auto& l : serve.read_lines()) out.push_back(std::move(l));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& l : serve.read_lines()) out.push_back(std::move(l));
  return out;
}

TEST(WarmHandoffProtocol, ExportedPoolImportsIntoASiblingProcess) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  // Process A: two feasible jobs fill the pool; drain certifies both
  // deposited before export_warm snapshots it.
  ProcessChild a(std::vector<std::string>{serve_bin(), "--stream",
                                          "--workers", "1"});
  const auto a_out = converse(
      a, {R"({"id":"j1","gen":"qkp:40-25-1","iterations":20,"sweeps":200,"seed":1})",
          R"({"id":"j2","gen":"qkp:40-25-1","iterations":20,"sweeps":200,"seed":2})",
          R"({"cmd":"drain"})", R"({"cmd":"export_warm","id":"x"})"});
  std::string warm_payload;
  bool any_feasible = false;
  for (const auto& line : a_out) {
    const auto v = util::parse_json(line);
    if (const auto* warm = v.find("warm")) warm_payload = util::to_json(*warm);
    if (const auto* f = v.find("found_feasible")) {
      any_feasible = any_feasible || f->as_bool();
    }
  }
  ASSERT_FALSE(warm_payload.empty());
  if (!any_feasible) GTEST_SKIP() << "no feasible sample to hand off";
  ASSERT_NE(warm_payload, "{}") << "feasible jobs must deposit to the pool";

  // Process B: import the snapshot, then run a warm job over the same
  // instance — it must report warm_started although B never solved it.
  ProcessChild b(std::vector<std::string>{serve_bin(), "--stream",
                                          "--workers", "1"});
  const auto b_out = converse(
      b, {std::string(R"({"cmd":"import_warm","id":"imp","warm":)") +
              warm_payload + "}",
          R"({"id":"w","gen":"qkp:40-25-1","iterations":5,"sweeps":100,"seed":9,"warm_start":true})"});
  bool imported_some = false;
  bool warm_started = false;
  for (const auto& line : b_out) {
    const auto v = util::parse_json(line);
    if (const auto* imported = v.find("imported")) {
      imported_some = imported->as_int() > 0;
    }
    if (v.find("id") && v.find("id")->as_string() == "w") {
      warm_started = v.find("warm_started")->as_bool();
    }
  }
  EXPECT_TRUE(imported_some);
  EXPECT_TRUE(warm_started);
}

// ------------------------------------------------------------ fleet stats

TEST(SupervisorFleet, FleetStatsAggregatesEveryShardSnapshot) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  ShardRouter router(router_options);
  net::EventLoop loop;
  Supervisor supervisor(router, loop, fast_supervisor_options());
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  // Run real jobs through both shards so the round-trip latency
  // histograms and the children's own service counters are non-empty.
  std::vector<std::string> out;
  std::size_t line_no = 0;
  feed_jobs(router, &out, &line_no, 1, 6, 2, 30);
  for (auto& l : pump_to_idle(loop, router, supervisor)) {
    out.push_back(std::move(l));
  }
  expect_exactly_once(out, 12);

  supervisor.request_fleet_stats("fs1");
  std::string fleet_line;
  for (int spin = 0; spin < 20000 && fleet_line.empty(); ++spin) {
    for (auto& l : turn(loop, supervisor)) {
      if (l.find("\"fleet\"") != std::string::npos) fleet_line = std::move(l);
    }
  }
  ASSERT_FALSE(fleet_line.empty()) << "no fleet snapshot within the deadline";

  const auto v = util::parse_json(fleet_line);
  EXPECT_EQ(v.find("id")->as_string(), "fs1");
  const auto* fleet = v.find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->find("live_shards")->as_int(), 2);
  EXPECT_EQ(fleet->find("shard_slots")->as_int(), 2);

  const auto* router_obj = fleet->find("router");
  ASSERT_NE(router_obj, nullptr);
  EXPECT_EQ(router_obj->find("accepted")->as_int(), 12);
  EXPECT_EQ(router_obj->find("outstanding")->as_int(), 0);

  const auto* sup = fleet->find("supervisor");
  ASSERT_NE(sup, nullptr);
  for (const char* key : {"respawns", "remote_reconnects", "respawn_failures",
                          "reshards", "retired", "warm_forwarded",
                          "unresponsive_kills"}) {
    ASSERT_NE(sup->find(key), nullptr) << key;
  }

  // Per-shard: queue depth, inflight, restart count, latency quantiles,
  // and the shard's own service snapshot (both answered: no nulls).
  const auto* shards = fleet->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array().size(), 2u);
  std::uint64_t latency_total = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const auto& shard = shards->array()[s];
    EXPECT_EQ(shard.find("shard")->as_int(), static_cast<std::int64_t>(s));
    EXPECT_TRUE(shard.find("alive")->as_bool());
    EXPECT_TRUE(shard.find("local")->as_bool());
    EXPECT_EQ(shard.find("restarts")->as_int(), 0);
    EXPECT_EQ(shard.find("queue_depth")->as_int(), 0);
    EXPECT_EQ(shard.find("inflight")->as_int(), 0);

    const auto* latency = shard.find("latency");
    ASSERT_NE(latency, nullptr);
    latency_total += static_cast<std::uint64_t>(
        latency->find("count")->as_int());
    EXPECT_GE(latency->find("p99_ms")->as_double(),
              latency->find("p50_ms")->as_double());

    const auto* service = shard.find("service");
    ASSERT_NE(service, nullptr);
    ASSERT_FALSE(service->is_null())
        << "both live shards must answer the stats probe";
    EXPECT_GE(service->find("completed")->as_int(), 1);
    ASSERT_NE(service->find("cache"), nullptr);
    EXPECT_NE(service->find("cache")->find("hit_rate"), nullptr);
  }
  EXPECT_EQ(latency_total, 12u)
      << "every answered job must land in some shard's latency histogram";

  supervisor.shutdown_fleet();
}

TEST(SupervisorFleet, FleetStatsDoNotWaitOnAShardThatDied) {
  if (!serve_bin()) GTEST_SKIP() << "saim_serve not built";
  RouterOptions router_options;
  router_options.shards = 2;
  ShardRouter router(router_options);
  SupervisorOptions supervisor_options = fast_supervisor_options();
  supervisor_options.respawn = false;  // the dead slot stays dead
  net::EventLoop loop;
  Supervisor supervisor(router, loop, supervisor_options);
  supervisor.attach_local(0);
  supervisor.attach_local(1);

  // Shard 1 is stopped, so it cannot answer the probe, and SIGKILLed
  // right after the probe went out.
  auto* victim = dynamic_cast<ProcessChild*>(supervisor.endpoint(1));
  ASSERT_NE(victim, nullptr);
  ASSERT_EQ(::kill(victim->pid(), SIGSTOP), 0);
  const auto start = std::chrono::steady_clock::now();
  supervisor.request_fleet_stats("fs");
  victim->terminate();

  std::string fleet_line;
  while (fleet_line.empty() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    for (auto& l : turn(loop, supervisor)) {
      if (l.find("\"fleet\"") != std::string::npos) fleet_line = std::move(l);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(fleet_line.empty()) << "no fleet snapshot at all";
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000))
      << "the probe waited out its 2 s deadline on a dead shard";

  const auto v = util::parse_json(fleet_line);
  const auto& shards = v.find("fleet")->find("shards")->array();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_FALSE(shards[0].find("service")->is_null())
      << "the live shard's snapshot must be in the reply";
  EXPECT_FALSE(shards[1].find("alive")->as_bool());
  EXPECT_TRUE(shards[1].find("service")->is_null());
  supervisor.shutdown_fleet();
}

}  // namespace
}  // namespace saim::service
