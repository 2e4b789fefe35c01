// ShardRouter — the I/O-free brain of the sharded serving front door.
//
// tools/saim_shard runs N `saim_serve --stream` children (one per shard,
// wrapped in ProcessChild) and pumps this router between them and the
// client stream. The router owns every piece of sharding state:
//
//   * a consistent-hash ring (HashRing) over the shards, keyed by the
//     canonical PROBLEM fingerprint (problems/fingerprint) of each job's
//     instance — all jobs over one instance land on one shard, so that
//     shard's ResultCache, coalescer, batcher and warm-start pool stay
//     hot for its keyslice, and removing a shard only remaps the keys it
//     owned (cache locality survives resharding);
//   * per-shard outstanding-job tables: a pending queue (routed, not yet
//     written) and an in-flight set (written, awaiting a result), with a
//     bounded in-flight window per shard for backpressure — the pump
//     never stuffs more than `window` unanswered jobs into one child, so
//     pipes cannot deadlock and a slow shard throttles only itself;
//   * seq remapping: each child numbers ITS accepted jobs 0..k in its own
//     completion order; the router rewrites that per-shard `seq` into one
//     global completion order across all shards. Lines a child rejected
//     at submission carry no seq (per docs/PROTOCOL.md) and keep none
//     here, so accepted jobs always see the contiguous global range;
//   * failover: when a child dies (on_child_down), its unanswered jobs —
//     pending and in-flight — are requeued onto the ring's next live
//     shard and rerun from scratch; cold jobs are deterministic per seed,
//     so a rerun emits the bit-identical result. Every accepted job
//     produces exactly one output line even across a crash. Only when no
//     shard is left do jobs error out (with a `shard` field naming the
//     casualty);
//   * the control dialect on both sides: upstream {"cmd":"ping"}/"drain"
//     lines are answered by the router itself; pongs from children (the
//     router's own health probes) are consumed via take_pong, never
//     forwarded;
//   * replication (RouterOptions::replicas = R): a key's replica set is
//     its owner plus the next R-1 distinct shards clockwise, recomputed
//     deterministically on every membership change. On top of it ride
//     hedged requests (dispatch_hedges: a job stuck in flight past an
//     adaptive per-shard threshold is re-sent — same token — to a
//     replica; first result wins, token dedupe swallows the loser),
//     hot-key routing (an instance twin bound for an overloaded owner
//     runs on its least-loaded replica instead) and admission control
//     (past a global pending bound, the lowest-priority job is shed
//     with a "delayed"-tagged error instead of queueing unboundedly).
//
// To keep every request byte the shard sees equivalent to what a
// single-process saim_serve would have parsed, the router rewrites only
// the job id (to a unique routing token, restored on the way out) and
// validates lines with the exact same parser (service/job_parser) — a
// router-rejected line carries the error text the shard would have
// produced. Result lines pass through byte-identical except for the id
// and seq fields, so objective values are never re-serialized.
//
// Single-threaded by design: the owning pump drives accept_line /
// take_sendable / on_child_line / on_child_down from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_checker.hpp"

namespace saim::service {

/// Consistent-hash ring: every shard owns `vnodes` pseudo-random points
/// on the 64-bit ring; a key belongs to the first point clockwise.
/// Removing a shard redistributes only the keys it owned.
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  void add(std::size_t shard);
  void remove(std::size_t shard);
  [[nodiscard]] bool contains(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// The shard owning `key`. Throws std::runtime_error on an empty ring.
  [[nodiscard]] std::size_t route(std::uint64_t key) const;

  /// The replica set for `key`: up to `count` DISTINCT live shards,
  /// starting at the owner and walking clockwise. Deterministic for a
  /// given membership (a pure function of the vnode points, which are a
  /// pure function of the slot indices), clamped to the live shard count.
  /// Removing a shard that is not in a key's replica set leaves that set
  /// unchanged — the walk skips only the removed shard's points — so
  /// membership changes remap replica sets minimally, like ownership.
  /// Throws std::runtime_error on an empty ring.
  [[nodiscard]] std::vector<std::size_t> replicas(std::uint64_t key,
                                                 std::size_t count) const;

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::size_t> ring_;  ///< point -> shard
  std::set<std::size_t> shards_;
};

struct RouterOptions {
  std::size_t shards = 2;
  /// In-flight (written, unanswered) jobs allowed per shard.
  std::size_t window = 32;
  /// Virtual nodes per shard on the hash ring.
  std::size_t vnodes = 64;
  /// Replication factor R: a job runs on its key's owner, but warm pools
  /// (Supervisor handoff/gossip), hedges and hot-key twins extend to the
  /// next R-1 distinct shards clockwise. 1 = no replication.
  std::size_t replicas = 1;
  /// Hedging (needs replicas >= 2): re-dispatch a job still in flight on
  /// its shard after max(hedge_min_ms, that shard's round-trip p95) to a
  /// replica, deduping by routing token — first result wins, the loser
  /// is swallowed. 0 disables hedging.
  double hedge_min_ms = 0.0;
  /// Hot-key routing (needs replicas >= 2): an instance-twin job (its
  /// fingerprint was seen before, so the replicas' caches/pools can hit)
  /// whose owner already has this many unanswered jobs is routed to the
  /// least-loaded replica instead of queueing on the owner. 0 disables.
  std::size_t hot_key_depth = 0;
  /// Admission control: once this many routed jobs wait for a window
  /// slot, the lowest-priority pending job is shed with a "delayed"-
  /// tagged error instead of growing the backlog. 0 = unbounded.
  std::size_t max_queue_depth = 0;
};

class ShardRouter {
 public:
  struct Stats {
    std::uint64_t accepted = 0;  ///< jobs routed onto the ring
    std::uint64_t rejected = 0;  ///< local error lines (bad input)
    std::uint64_t emitted = 0;   ///< job result/error lines sent downstream
    std::uint64_t requeued = 0;  ///< jobs moved off a dead shard
    std::uint64_t orphaned = 0;  ///< jobs errored: no live shard remained
    std::uint64_t hedges = 0;    ///< hedge copies dispatched to a replica
    std::uint64_t hedge_wins = 0;  ///< jobs whose hedge copy answered first
    std::uint64_t sheds = 0;     ///< jobs shed by admission control
    std::uint64_t replica_hits = 0;  ///< hot-key twins routed to a replica
    std::vector<std::uint64_t> routed_per_shard;
  };

  explicit ShardRouter(RouterOptions options);

  /// Feeds one input line. `line_no` is the 1-based input line number
  /// (blank lines included) so default job ids match saim_serve's jobN.
  /// Returns lines to emit downstream immediately: a local reject's error
  /// line, a ping's pong, or a drain that was already satisfied.
  std::vector<std::string> accept_line(const std::string& line,
                                       std::size_t line_no);

  /// Request lines to write to `shard` now, bounded by the in-flight
  /// window; the returned jobs are marked in flight.
  std::vector<std::string> take_sendable(std::size_t shard);

  /// Processes one line read from `shard`'s stdout. Returns lines to emit
  /// downstream (the id-restored, seq-remapped job line, plus any drain
  /// acknowledgements it unblocked); empty for consumed control replies.
  std::vector<std::string> on_child_line(std::size_t shard,
                                         const std::string& line);

  /// The shard died: drop it from the ring and requeue its unanswered
  /// jobs onto the next live shards. Returns error lines for jobs that
  /// could not be placed (no shards left), plus unblocked drain acks.
  /// Also the graceful-removal path (live resharding): the departing
  /// shard's process may still answer requeued tokens late — the first
  /// result per token wins, the other copy is dropped, so every job
  /// still emits exactly once.
  std::vector<std::string> on_child_down(std::size_t shard);

  /// Re-adds a dead shard slot to the ring (the Supervisor respawned its
  /// process). Its vnode points are a pure function of the slot index,
  /// so exactly the keyslice it owned before the crash moves back — and
  /// with it any warm-pool entries the Supervisor forwards.
  void revive_shard(std::size_t shard);

  /// Appends a brand-new shard slot (live resharding grow); returns its
  /// index. The new shard starts live and on the ring.
  std::size_t add_shard();

  /// Dispatches due hedges (no-op unless hedge_min_ms > 0 and replicas
  /// >= 2): every job in flight on one shard for longer than
  /// max(hedge_min_ms, that shard's round-trip p95) gets a copy of its
  /// rewritten line — SAME routing token — queued onto the next live
  /// replica. The first result to come back wins (on_child_line dedupes
  /// by token); the loser's line is swallowed as a late duplicate and
  /// both copies' window slots are released. The Supervisor calls it
  /// from a loop timer armed for next_hedge_at(). Returns the number of
  /// hedges dispatched.
  std::size_t dispatch_hedges();

  /// When the next in-flight job crosses its hedge threshold (possibly
  /// already past); std::nullopt when none could be hedged.
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  next_hedge_at() const;

  /// Moves `shard`'s written-but-unanswered jobs back to the head of its
  /// pending queue (original accept order): the sole-shard respawn path,
  /// where failing over is impossible and orphaning needless — ring
  /// membership stays intact and the jobs replay into the replacement
  /// process.
  void requeue_inflight(std::size_t shard);

  /// True when a pong arrived from `shard` since the last call (clears).
  bool take_pong(std::size_t shard);

  /// The latest {"warm":{...}} snapshot `shard` sent in reply to an
  /// export_warm probe, serialized; consumed by the Supervisor's warm
  /// handoff. Clears on read.
  std::optional<std::string> take_warm_export(std::size_t shard);

  /// The latest {"service":{...}} stats snapshot `shard` sent in reply to
  /// a Supervisor stats probe, serialized; consumed by the fleet stats
  /// aggregation. Clears on read.
  std::optional<std::string> take_stats_export(std::size_t shard);

  /// Round-trip latency histogram of `shard`'s answered jobs (written to
  /// the child -> result line back, ms). Accumulates across restarts of
  /// the same slot; empty snapshot for an out-of-range index.
  [[nodiscard]] obs::HistogramSnapshot latency_snapshot(
      std::size_t shard) const;

  /// Round trips of the hedge copies that WON their race (hedge written
  /// -> its result back, ms): the latency the tail actually saw instead
  /// of waiting out the slow owner.
  [[nodiscard]] obs::HistogramSnapshot hedge_win_snapshot() const {
    return hedge_win_ms_.snapshot();
  }

  [[nodiscard]] bool alive(std::size_t shard) const;
  [[nodiscard]] std::size_t live_shards() const { return ring_.shard_count(); }
  /// Total slots ever created (live + dead); endpoints index this range.
  [[nodiscard]] std::size_t shard_slots() const { return alive_.size(); }
  /// The live shard owning problem fingerprint `fp` right now (warm
  /// handoff targeting). Throws std::runtime_error on an empty ring.
  [[nodiscard]] std::size_t owner_of(std::uint64_t fp) const {
    return ring_.route(fp);
  }
  /// `fp`'s full replica set under this router's replication factor:
  /// the owner plus the next R-1 distinct live shards (warm handoff and
  /// gossip targeting). Throws std::runtime_error on an empty ring.
  [[nodiscard]] std::vector<std::size_t> replica_set(std::uint64_t fp) const {
    return ring_.replicas(fp, options_.replicas);
  }
  [[nodiscard]] std::size_t replication_factor() const {
    return options_.replicas;
  }
  /// Jobs accepted but not yet answered (any shard, any state).
  [[nodiscard]] std::size_t outstanding() const { return jobs_.size(); }
  [[nodiscard]] std::size_t pending(std::size_t shard) const;
  [[nodiscard]] std::size_t inflight(std::size_t shard) const;
  [[nodiscard]] std::size_t total_pending() const;
  /// Nothing left to emit: no outstanding jobs, no pending drains.
  [[nodiscard]] bool idle() const { return jobs_.empty() && drains_.empty(); }
  [[nodiscard]] bool any_error() const { return any_error_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Job {
    std::uint64_t ordinal = 0;   ///< accept order (drain barriers key on it)
    std::string display_id;      ///< original id (or "jobN") for output
    std::string line;            ///< rewritten request line (id = token)
    std::uint64_t fingerprint = 0;  ///< routing key (problem content hash)
    std::size_t shard = 0;
    bool inflight = false;
    /// When the line was handed out for writing (take_sendable); epoch
    /// until then. Feeds the per-shard round-trip latency histogram.
    std::chrono::steady_clock::time_point sent_at{};
    /// Priority band (0 low, 1 normal, 2 high): admission control sheds
    /// lowest first.
    int priority = 1;
    /// Hedge copy, when one was dispatched: the replica carrying the
    /// duplicate line (same token). At most one hedge per job.
    std::optional<std::size_t> hedge_shard;
    bool hedge_inflight = false;  ///< hedge copy written (vs still pending)
    std::chrono::steady_clock::time_point hedge_sent_at{};
  };
  struct Drain {
    std::uint64_t before = 0;  ///< waits for jobs with ordinal < before
    std::size_t remaining = 0;
    std::string id;
  };

  /// Hedging is configured and the ring has a replica to hedge onto.
  [[nodiscard]] bool hedging() const;
  /// `shard`'s hedge threshold: max(hedge_min_ms, its round-trip p95).
  [[nodiscard]] double hedge_threshold_ms(std::size_t shard) const;
  /// One outstanding job finished (emitted or orphaned): advance drains.
  void finished(std::uint64_t ordinal, std::vector<std::string>* out);
  [[nodiscard]] std::string drained_line(const Drain& drain) const;
  /// Unanswered jobs attributed to `shard` (pending + in flight).
  [[nodiscard]] std::size_t depth(std::size_t shard) const;
  /// Drops `token` from `shard`'s pending queue if still there.
  void unqueue(std::size_t shard, const std::string& token);
  /// Admission control: called with a full backlog before accepting a
  /// job of `incoming_priority`. Either sheds the lowest-priority
  /// pending job (emitting its "delayed" error, WITH its seq — it was
  /// accepted) and returns true (admit the incoming job), or returns
  /// false (shed the incoming job instead: it is not above the floor).
  bool shed_for(int incoming_priority, std::vector<std::string>* out);

  /// Enforces the class comment's "single-threaded by design": mutating
  /// entry points bind to the first calling thread and abort on any other
  /// (see util/thread_checker.hpp). Lock-free state stays honest.
  util::ThreadChecker thread_checker_{"ShardRouter"};

  RouterOptions options_;
  HashRing ring_;
  std::vector<bool> alive_;
  std::vector<std::deque<std::string>> pending_;  ///< tokens, FIFO
  std::vector<std::unordered_set<std::string>> inflight_;
  std::vector<bool> pong_;
  std::vector<std::optional<std::string>> warm_export_;  ///< per shard
  std::vector<std::optional<std::string>> stats_export_;  ///< per shard
  /// Per-shard round-trip latency (unique_ptr: atomics are immovable).
  std::vector<std::unique_ptr<obs::Histogram>> latency_;
  obs::Histogram hedge_win_ms_;  ///< round trips of winning hedge copies
  std::unordered_map<std::string, Job> jobs_;  ///< token -> outstanding job
  /// Problem fingerprint per instance-source key: a duplicated-instance
  /// stream builds (and hashes) the instance once, not once per line.
  std::unordered_map<std::string, std::uint64_t> fingerprint_memo_;
  std::vector<Drain> drains_;
  std::uint64_t next_ordinal_ = 0;
  std::int64_t next_seq_ = 0;
  bool any_error_ = false;
  Stats stats_;
};

}  // namespace saim::service
