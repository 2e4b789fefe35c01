// Supervisor — the self-healing layer over the shard fleet.
//
// PR 4's front door was fail-static: a crashed shard was dropped from
// the ring forever and --shards was fixed at spawn. The Supervisor owns
// the fleet's endpoints (local fork/exec children and remote TCP shards
// behind one net::ShardEndpoint interface) and adds the management
// behaviors on top of the ShardRouter:
//
//   * respawn — a crashed LOCAL child is re-exec'd with exponential
//     backoff and re-added to the ring (revive_shard: consistent hashing
//     moves exactly its old keyslice back). While survivors exist its
//     unanswered jobs fail over to them first (PR 4 path); when it was
//     the ONLY shard they are held on its pending queue instead of
//     orphaning, and replay into the replacement. A child that stays up
//     `stable_ms` earns its restart budget back; one that crash-loops
//     `max_restarts` times is declared down for good. A remote shard is
//     not respawned (this process cannot re-exec another machine's
//     server) but its session IS redialed on the same backoff/budget:
//     its jobs fail over immediately, and when the reconnect lands the
//     slot rejoins the ring exactly like a respawned local child.
//
//   * live resharding — reshard(n) grows or shrinks the LOCAL fleet to n
//     while jobs are in flight. Grow spawns children into recycled dead
//     slots first, then brand-new slots. Shrink retires the
//     highest-indexed local shards: each is asked to export_warm, has
//     its unanswered jobs requeued onto the survivors via the PR 4
//     failover path (exactly-once: a late result from the retiree and
//     the rerun's result dedupe by routing token, first one wins), and
//     is then sent {"cmd":"shutdown"} — its tail output is read until
//     the farewell EOF so nothing it already computed is discarded.
//
//   * warm handoff — whenever ring membership changes (respawn rejoin,
//     grow, shrink), every live shard is probed with export_warm; each
//     returned pool entry is forwarded as import_warm to every member of
//     its fingerprint's replica set (owner + next R-1) except the donor,
//     so requeued, hedged and hot-key-routed jobs start from the best
//     configurations already found. With gossip_ms > 0 the same probe
//     also runs on a timer, warming late joiners between membership
//     changes.
//
//   * health — the ping/5-missed-pongs watchdog from PR 4's tool loop
//     lives here now; an unresponsive shard is terminated and flows into
//     the same death/respawn path.
//
// One loop, single-threaded like the router: the Supervisor registers
// every endpoint's read fd (and its write fd while output is queued) on
// the caller's net::EventLoop, and every timed duty is a loop timer armed
// for its actual deadline — respawn/redial backoff, the ping watchdog,
// gossip, the fleet-stats deadline, the retire grace and the hedge
// threshold. Callbacks route shard output through the router as it
// arrives. The owner runs the loop and calls pump() after each pass:
// pump() writes newly routed jobs and hands over the lines produced
// since the previous call. It never waits.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/shard_endpoint.hpp"
#include "service/shard_router.hpp"
#include "util/thread_checker.hpp"

namespace saim::service {

struct SupervisorOptions {
  /// argv to exec one local shard (a `saim_serve --stream` invocation).
  std::vector<std::string> local_argv;
  /// Re-exec crashed local children. Off = PR 4 fail-static behavior.
  bool respawn = true;
  /// Redial remote (--connect) endpoints whose connection dropped, on
  /// the same exponential-backoff/budget machinery as local respawns.
  /// The remote server is never re-exec'd — it belongs to its operator;
  /// this only re-establishes the session (the server may have been
  /// restarted, or the drop may have been transient network weather).
  bool reconnect_remotes = true;
  /// Consecutive crashes before a slot is abandoned (counter resets
  /// after a child survives stable_ms).
  int max_restarts = 5;
  int backoff_initial_ms = 100;
  int backoff_max_ms = 2000;
  int stable_ms = 5000;
  /// Health-probe interval; a shard missing 5 pongs in a row is
  /// terminated (0 disables probing).
  int ping_ms = 1000;
  /// A shard retired by a shrink gets this long to drain its tail and
  /// exit on its own before being terminated (a wedged retiree must not
  /// haunt the fleet until final teardown).
  int retire_grace_ms = 10000;
  /// Periodic warm-pool gossip: every gossip_ms the fleet is probed with
  /// export_warm and each entry is re-forwarded to its key's replica set
  /// (same path as the membership-change handoff), so a late-joining or
  /// respawned replica warms up between membership changes too. 0 = only
  /// membership changes trigger the handoff.
  int gossip_ms = 0;
  /// Auth token presented to remote `--listen` shards on connect and on
  /// every redial (they close unauthenticated sessions when started with
  /// --auth-token). Empty = no handshake line.
  std::string remote_auth_token;
};

class Supervisor {
 public:
  struct Stats {
    std::uint64_t respawns = 0;        ///< successful local re-execs
    std::uint64_t remote_reconnects = 0;  ///< successful remote redials
    std::uint64_t respawn_failures = 0;///< slots abandoned after max_restarts
    std::uint64_t reshards = 0;        ///< reshard() membership changes
    std::uint64_t retired = 0;         ///< shards removed by shrink
    std::uint64_t warm_forwarded = 0;  ///< pool entries moved to a new owner
    std::uint64_t unresponsive_kills = 0;
  };

  /// The router and the loop must outlive the supervisor, and the loop
  /// must run on the thread that calls the supervisor. Slots are
  /// attached (or grown) explicitly; router slot `s` pairs with endpoint
  /// slot `s`.
  Supervisor(ShardRouter& router, net::EventLoop& loop,
             SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns a local child into router slot `slot` (must be < the
  /// router's shard_slots and not yet attached).
  void attach_local(std::size_t slot);
  /// Connects router slot `slot` to a remote `saim_serve --listen`.
  /// Throws std::runtime_error when the connection fails.
  void attach_remote(std::size_t slot, const std::string& host, int port);

  /// Call after each loop pass: fills every live shard's window from the
  /// router, flushes what the transports accept (write interest covers
  /// the rest), re-arms the hedge timer, and returns the lines to emit
  /// downstream, in order. Never waits.
  std::vector<std::string> pump();

  /// Fleet stats: broadcasts a {"cmd":"stats"} probe to every live shard
  /// and registers an aggregation keyed by `reply_id`. Once every probed
  /// shard has answered — or a 2 s deadline passes, whichever is first —
  /// pump() emits one {"id":reply_id,"fleet":{...}} snapshot line
  /// downstream: router totals, supervisor counters, and a per-shard
  /// array with liveness, restart count, queue depth, inflight count,
  /// round-trip latency quantiles and the shard's own service snapshot
  /// (null for shards that did not answer in time or died first).
  void request_fleet_stats(const std::string& reply_id);

  /// Live resharding: grow or shrink the LOCAL fleet so that
  /// `target_locals` local shards serve the ring (remote shards are
  /// never touched; target is clamped to >= 1 when no remotes exist).
  /// Returns the number of local shards after the change is applied
  /// (the membership change itself completes over subsequent pumps).
  std::size_t reshard(std::size_t target_locals);

  /// Graceful teardown: {"cmd":"shutdown"} + input EOF to every child,
  /// runs the loop until each closes its output or `grace_ms` passes,
  /// reaps — no SIGKILL unless a child overstays. Lines harvested during
  /// teardown come out of the next pump().
  void shutdown_fleet(int grace_ms = 5000);

  /// Live local shards wanted (attached or respawning).
  [[nodiscard]] std::size_t desired_locals() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// The endpoint currently serving router slot `s` (nullptr when the
  /// slot is dead/retired). Exposed for tests and the tool's 127 check.
  [[nodiscard]] net::ShardEndpoint* endpoint(std::size_t s) const;
  [[nodiscard]] bool is_local(std::size_t s) const;

 private:
  struct Slot {
    std::unique_ptr<net::ShardEndpoint> endpoint;
    bool local = false;
    bool attached = false;   ///< slot was ever given an endpoint
    bool want = false;       ///< desired fleet member (false once retired)
    bool retiring = false;   ///< removed from ring, draining tail output
    int restarts = 0;
    /// Remote endpoint address, kept for redials (empty host = local).
    std::string host;
    int port = 0;
    std::chrono::steady_clock::time_point spawned_at{};
    int watched_read = -1;   ///< fds registered on the loop (-1: none)
    int watched_write = -1;
    std::uint64_t respawn_timer = 0;  ///< armed while a respawn is due
    std::uint64_t retire_timer = 0;   ///< armed while retiring
    int missed_pongs = 0;
    bool ping_outstanding = false;
  };

  /// One outstanding request_fleet_stats aggregation.
  struct StatsProbe {
    std::uint64_t serial = 0;
    std::string reply_id;
    std::set<std::size_t> waiting;               ///< shards not yet answered
    std::map<std::size_t, std::string> replies;  ///< shard -> service JSON
    std::uint64_t deadline_timer = 0;
  };

  void ensure_slot(std::size_t slot);
  void attach(std::size_t slot, bool local, const std::string& host,
              int port);
  /// Gives slot `s` a fresh endpoint (fork/exec or dial) and watches it.
  /// Throws when the spawn or the connection fails.
  void spawn(std::size_t s);
  /// Syncs slot `s`'s loop registrations with its endpoint: the read fd,
  /// plus the write fd while output is queued.
  void watch(std::size_t s);
  void rewatch(std::size_t s, int& watched, int fd, std::uint32_t interest);
  /// Loop callback for either of slot `s`'s fds.
  void on_ready(std::size_t s, std::uint32_t ready);
  /// Routes what slot `s` sent; handles its EOF.
  void read_from(std::size_t s);
  /// Writes what the transport accepts; half-closes a drained retiree.
  void flush(std::size_t s);
  /// Deregisters, reaps and drops slot `s`'s endpoint.
  void release(std::size_t s);
  /// Handles one observed endpoint death.
  void on_death(std::size_t slot);
  /// Arms slot `s`'s respawn after its backoff; returns the backoff (ms).
  int arm_respawn(std::size_t s);
  /// Spawns (or redials) the replacement for a due slot.
  void try_respawn(std::size_t slot);
  /// Probes every live shard for its warm pool (handoff/gossip trigger).
  void request_warm_rebalance();
  /// Routes one shard's export to each entry's current replica set (the
  /// owner plus the next R-1 shards), skipping the donor itself.
  void forward_warm(std::size_t donor, const std::string& warm_json);
  /// Runs `duty` every `period_ms` (never when <= 0) under `*timer`.
  void every(int period_ms, std::uint64_t* timer, void (Supervisor::*duty)());
  void arm_hedge();
  void send_health_pings();
  void disarm(std::uint64_t& timer);
  /// Emits every complete fleet-stats aggregation.
  void advance_stats_probes();
  [[nodiscard]] std::string fleet_stats_line(const StatsProbe& probe) const;

  /// Same contract as ShardRouter: one loop owns this object; entry
  /// points abort when entered from a second thread.
  util::ThreadChecker thread_checker_{"Supervisor"};

  ShardRouter& router_;
  net::EventLoop& loop_;
  SupervisorOptions options_;
  std::vector<Slot> slots_;
  std::vector<std::string> out_;  ///< lines for downstream, not yet handed over
  std::vector<StatsProbe> stats_probes_;
  std::uint64_t ping_timer_ = 0;
  std::uint64_t gossip_timer_ = 0;
  std::uint64_t hedge_timer_ = 0;
  std::chrono::steady_clock::time_point hedge_at_{};
  std::uint64_t probe_counter_ = 0;
  Stats stats_;
};

}  // namespace saim::service
