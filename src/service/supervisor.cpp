#include "service/supervisor.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "net/socket_child.hpp"
#include "service/process_child.hpp"
#include "service/service_stats.hpp"
#include "service/stream_session.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace saim::service {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// How long a fleet-stats probe waits on a shard that does not answer.
constexpr milliseconds kStatsDeadline{2000};

void append(std::vector<std::string>* out, std::vector<std::string> lines) {
  out->insert(out->end(), std::make_move_iterator(lines.begin()),
              std::make_move_iterator(lines.end()));
}

}  // namespace

Supervisor::Supervisor(ShardRouter& router, net::EventLoop& loop,
                       SupervisorOptions options)
    : router_(router), loop_(loop), options_(std::move(options)) {
  slots_.resize(router_.shard_slots());
  every(options_.ping_ms, &ping_timer_, &Supervisor::send_health_pings);
  // Periodic warm-pool gossip: the same export_warm probe the
  // membership-change handoff uses, warming replicas that joined (or
  // respawned) after the pool entries were found.
  every(options_.gossip_ms, &gossip_timer_,
        &Supervisor::request_warm_rebalance);
}

Supervisor::~Supervisor() {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    release(s);
    disarm(slots_[s].respawn_timer);
  }
  for (StatsProbe& probe : stats_probes_) disarm(probe.deadline_timer);
  disarm(ping_timer_);
  disarm(gossip_timer_);
  disarm(hedge_timer_);
}

void Supervisor::ensure_slot(std::size_t slot) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
}

void Supervisor::attach_local(std::size_t slot) {
  attach(slot, true, "", 0);
}

void Supervisor::attach_remote(std::size_t slot, const std::string& host,
                               int port) {
  attach(slot, false, host, port);
}

void Supervisor::attach(std::size_t slot, bool local, const std::string& host,
                        int port) {
  thread_checker_.assert_current_thread();
  if (slot >= router_.shard_slots()) {
    throw std::logic_error("Supervisor: slot beyond the router's shards");
  }
  ensure_slot(slot);
  Slot& s = slots_[slot];
  if (s.attached) throw std::logic_error("Supervisor: slot already attached");
  s.local = local;
  s.host = host;
  s.port = port;
  spawn(slot);
  s.attached = true;
  s.want = true;
}

void Supervisor::spawn(std::size_t s) {
  Slot& slot = slots_[s];
  if (slot.local) {
    slot.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
  } else {
    slot.endpoint = std::make_unique<net::SocketChild>(
        slot.host, slot.port, options_.remote_auth_token);
  }
  slot.spawned_at = Clock::now();
  watch(s);
}

net::ShardEndpoint* Supervisor::endpoint(std::size_t s) const {
  return s < slots_.size() ? slots_[s].endpoint.get() : nullptr;
}

bool Supervisor::is_local(std::size_t s) const {
  return s < slots_.size() && slots_[s].local;
}

std::size_t Supervisor::desired_locals() const {
  std::size_t count = 0;
  for (const Slot& s : slots_) {
    if (s.local && s.want) ++count;
  }
  return count;
}

void Supervisor::disarm(std::uint64_t& timer) {
  if (timer != 0) loop_.cancel_timer(timer);
  timer = 0;
}

void Supervisor::watch(std::size_t s) {
  Slot& slot = slots_[s];
  const net::ShardEndpoint* e = slot.endpoint.get();
  const int read_fd = e ? e->read_fd() : -1;
  const int write_fd = e && e->outbound_bytes() > 0 ? e->write_fd() : -1;
  const bool socket = write_fd >= 0 && write_fd == read_fd;  // one fd
  rewatch(s, slot.watched_read, read_fd,
          net::EventLoop::kRead | (socket ? net::EventLoop::kWrite : 0u));
  rewatch(s, slot.watched_write, socket ? -1 : write_fd,
          net::EventLoop::kWrite);
}

void Supervisor::rewatch(std::size_t s, int& watched, int fd,
                         std::uint32_t interest) {
  if (fd == watched) {
    if (fd >= 0) loop_.set_interest(fd, interest);  // no-op when unchanged
    return;
  }
  if (watched >= 0) loop_.remove_fd(watched);
  if (fd >= 0) {
    loop_.add_fd(fd, interest,
                 [this, s](std::uint32_t ready) { on_ready(s, ready); });
  }
  watched = fd;
}

void Supervisor::on_ready(std::size_t s, std::uint32_t ready) {
  if (!slots_[s].endpoint) return;
  // kError may arrive on the write fd alone (the child closed its
  // stdin): the failing write is what clears the queued output.
  if (ready & (net::EventLoop::kWrite | net::EventLoop::kError)) flush(s);
  if (ready & net::EventLoop::kRead) read_from(s);
}

void Supervisor::flush(std::size_t s) {
  Slot& slot = slots_[s];
  if (!slot.endpoint) return;
  slot.endpoint->pump_writes();
  watch(s);  // write interest exactly while output stays queued
  if (slot.retiring && slot.endpoint->outbound_bytes() == 0) {
    // Farewell lines are out, and watch() dropped the write fd: half-close
    // so the retiree drains and exits.
    slot.endpoint->shutdown_input();
  }
}

void Supervisor::read_from(std::size_t s) {
  Slot& slot = slots_[s];
  // Retiring shards are read too, so results they computed before
  // departure are harvested, not recomputed. Deaths are declared only at
  // EOF (flushed results are never discarded).
  for (const auto& line : slot.endpoint->read_lines()) {
    append(&out_, router_.on_child_line(s, line));
  }
  if (const auto warm = router_.take_warm_export(s)) forward_warm(s, *warm);
  if (const auto stats_json = router_.take_stats_export(s)) {
    // Deliver to the oldest aggregation still waiting on this shard.
    for (auto& probe : stats_probes_) {
      if (probe.waiting.erase(s) > 0) {
        probe.replies[s] = *stats_json;
        break;
      }
    }
    advance_stats_probes();
  }
  if (slot.endpoint->eof()) {
    if (slot.retiring) {
      release(s);  // retirement complete
    } else {
      on_death(s);
    }
    // A shard that is gone answers no stats probe: stop waiting for it.
    for (auto& probe : stats_probes_) probe.waiting.erase(s);
    advance_stats_probes();
  }
}

void Supervisor::release(std::size_t s) {
  Slot& slot = slots_[s];
  rewatch(s, slot.watched_read, -1, 0);
  rewatch(s, slot.watched_write, -1, 0);
  disarm(slot.retire_timer);
  slot.retiring = false;
  if (slot.endpoint) {
    slot.endpoint->reap();
    slot.endpoint.reset();
  }
}

std::vector<std::string> Supervisor::pump() {
  thread_checker_.assert_current_thread();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint) continue;
    if (!slot.retiring && router_.alive(s)) {
      for (auto& line : router_.take_sendable(s)) {
        slot.endpoint->send_line(line);
      }
    }
    flush(s);
  }
  arm_hedge();
  return std::exchange(out_, {});
}

void Supervisor::arm_hedge() {
  const auto due = router_.next_hedge_at();
  if (!due || (hedge_timer_ != 0 && hedge_at_ <= *due)) return;
  disarm(hedge_timer_);
  hedge_at_ = *due;
  // At least 1 ms: a threshold already past fires on the next pass, and
  // the pump that follows writes the copies.
  const auto delay = std::max(
      milliseconds(1),
      std::chrono::ceil<milliseconds>(*due - Clock::now()));
  hedge_timer_ = loop_.add_timer(delay, [this] {
    hedge_timer_ = 0;
    router_.dispatch_hedges();
  });
}

void Supervisor::every(int period_ms, std::uint64_t* timer,
                       void (Supervisor::*duty)()) {
  if (period_ms <= 0) return;
  *timer = loop_.add_timer(milliseconds(period_ms), [=, this] {
    (this->*duty)();
    every(period_ms, timer, duty);
  });
}

void Supervisor::request_fleet_stats(const std::string& reply_id) {
  thread_checker_.assert_current_thread();
  StatsProbe probe;
  probe.serial = probe_counter_++;
  probe.reply_id = reply_id;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].endpoint || slots_[s].retiring || !router_.alive(s)) {
      continue;
    }
    slots_[s].endpoint->send_line(R"({"cmd":"stats","id":"_stats)" +
                                  std::to_string(probe_counter_++) + "\"}");
    flush(s);
    probe.waiting.insert(s);
  }
  // At the deadline, emit with whatever arrived: a wedged shard must not
  // make the whole fleet unobservable.
  probe.deadline_timer =
      loop_.add_timer(kStatsDeadline, [this, serial = probe.serial] {
        for (auto& p : stats_probes_) {
          if (p.serial != serial) continue;
          p.deadline_timer = 0;
          p.waiting.clear();
        }
        advance_stats_probes();
      });
  stats_probes_.push_back(std::move(probe));
  advance_stats_probes();
}

void Supervisor::advance_stats_probes() {
  for (auto it = stats_probes_.begin(); it != stats_probes_.end();) {
    if (it->waiting.empty()) {
      out_.push_back(fleet_stats_line(*it));
      disarm(it->deadline_timer);
      it = stats_probes_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string Supervisor::fleet_stats_line(const StatsProbe& probe) const {
  const ShardRouter::Stats& rs = router_.stats();

  util::JsonWriter router_json;
  router_json.field("accepted", rs.accepted)
      .field("rejected", rs.rejected)
      .field("emitted", rs.emitted)
      .field("requeued", rs.requeued)
      .field("orphaned", rs.orphaned)
      .field("hedges", rs.hedges)
      .field("hedge_wins", rs.hedge_wins)
      .field("sheds", rs.sheds)
      .field("replica_hits", rs.replica_hits)
      .field("replicas",
             static_cast<std::uint64_t>(router_.replication_factor()))
      .field("outstanding", static_cast<std::uint64_t>(router_.outstanding()));

  util::JsonWriter sup;
  sup.field("respawns", stats_.respawns)
      .field("remote_reconnects", stats_.remote_reconnects)
      .field("respawn_failures", stats_.respawn_failures)
      .field("reshards", stats_.reshards)
      .field("retired", stats_.retired)
      .field("warm_forwarded", stats_.warm_forwarded)
      .field("unresponsive_kills", stats_.unresponsive_kills);

  std::string shards = "[";
  for (std::size_t s = 0; s < router_.shard_slots(); ++s) {
    if (s > 0) shards += ",";
    util::JsonWriter shard;
    shard.field("shard", static_cast<std::uint64_t>(s))
        .field("alive", router_.alive(s))
        .field("local", is_local(s))
        .field("restarts",
               s < slots_.size() ? slots_[s].restarts : 0)
        .field("routed", s < rs.routed_per_shard.size()
                             ? rs.routed_per_shard[s]
                             : 0)
        .field("queue_depth", static_cast<std::uint64_t>(router_.pending(s)))
        .field("inflight", static_cast<std::uint64_t>(router_.inflight(s)))
        .raw_field("latency",
                   latency_quantiles_json(router_.latency_snapshot(s)));
    const auto reply = probe.replies.find(s);
    shard.raw_field("service",
                    reply != probe.replies.end() ? reply->second : "null");
    shards += shard.str();
  }
  shards += "]";

  util::JsonWriter fleet;
  fleet
      .field("live_shards", static_cast<std::uint64_t>(router_.live_shards()))
      .field("shard_slots", static_cast<std::uint64_t>(router_.shard_slots()))
      .raw_field("router", router_json.str())
      .raw_field("supervisor", sup.str())
      .raw_field("shards", shards);

  util::JsonWriter line;
  line.field("id", probe.reply_id).raw_field("fleet", fleet.str());
  return line.str();
}

void Supervisor::on_death(std::size_t s) {
  Slot& slot = slots_[s];
  slot.endpoint->reap();
  // An exec failure (bad --serve path after a respawn) deserves a loud,
  // specific note — it looks like an instant crash otherwise.
  if (auto* child = dynamic_cast<ProcessChild*>(slot.endpoint.get());
      child && WIFEXITED(child->exit_status()) &&
      WEXITSTATUS(child->exit_status()) == 127) {
    util::log_error() << "shard " << s << " could not exec its saim_serve";
  }
  release(s);
  slot.ping_outstanding = false;
  slot.missed_pongs = 0;

  if (Clock::now() - slot.spawned_at >= milliseconds(options_.stable_ms)) {
    slot.restarts = 0;  // it earned its budget back before dying
  }

  const bool revivable =
      slot.local ? options_.respawn
                 : options_.reconnect_remotes && !slot.host.empty();
  const bool will_respawn =
      slot.want && revivable && slot.restarts < options_.max_restarts;
  if (will_respawn) {
    if (router_.alive(s) && router_.live_shards() == 1) {
      // Sole shard: nowhere to fail over to. Hold its jobs on its own
      // pending queue (ring intact) and replay into the replacement —
      // nothing orphans just because the fleet momentarily has no
      // member.
      router_.requeue_inflight(s);
    } else if (router_.alive(s)) {
      append(&out_, router_.on_child_down(s));  // failover first
    }
    const int backoff = arm_respawn(s);
    if (slot.local) {
      util::log_warn() << "shard " << s << " down, respawning in " << backoff
                       << " ms (attempt " << slot.restarts + 1 << "/"
                       << options_.max_restarts << ")";
    } else {
      util::log_warn() << "remote shard " << s << " (" << slot.host << ":"
                       << slot.port << ") dropped, reconnecting in "
                       << backoff << " ms (attempt " << slot.restarts + 1
                       << "/" << options_.max_restarts << ")";
    }
    return;
  }

  // Dead for good: reconnect/respawn disabled or budget exhausted.
  if (router_.alive(s)) append(&out_, router_.on_child_down(s));
  if (revivable && slot.want) {
    ++stats_.respawn_failures;
    util::log_error() << "shard " << s << " abandoned after " << slot.restarts
                      << " crashes";
  }
  slot.want = false;
  disarm(slot.respawn_timer);
}

int Supervisor::arm_respawn(std::size_t s) {
  const int backoff = std::min(
      options_.backoff_max_ms,
      options_.backoff_initial_ms << std::min(slots_[s].restarts, 20));
  disarm(slots_[s].respawn_timer);
  slots_[s].respawn_timer = loop_.add_timer(milliseconds(backoff), [this, s] {
    slots_[s].respawn_timer = 0;
    try_respawn(s);
  });
  return backoff;
}

void Supervisor::try_respawn(std::size_t s) {
  Slot& slot = slots_[s];
  if (!slot.want || (!slot.local && slot.host.empty())) return;
  try {
    spawn(s);
  } catch (const std::exception&) {
    // fork/pipe failure (fd or process exhaustion) — or, for a remote,
    // a server that is not back yet: retry on backoff like a crash,
    // give up on the same budget.
    ++slot.restarts;
    if (slot.restarts >= options_.max_restarts) {
      if (router_.alive(s)) append(&out_, router_.on_child_down(s));
      slot.want = false;
      ++stats_.respawn_failures;
      return;
    }
    arm_respawn(s);
    return;
  }
  ++slot.restarts;
  if (slot.local) {
    ++stats_.respawns;
    util::log_info() << "shard " << s << " respawned";
  } else {
    ++stats_.remote_reconnects;
    util::log_info() << "remote shard " << s << " reconnected to "
                     << slot.host << ":" << slot.port;
  }
  if (!router_.alive(s)) {
    router_.revive_shard(s);  // the old keyslice routes back here
    request_warm_rebalance();  // ... and its warm entries follow
  }
}

std::size_t Supervisor::reshard(std::size_t target_locals) {
  thread_checker_.assert_current_thread();
  // A fleet with no remote members must keep at least one local shard —
  // an empty ring rejects every job.
  std::size_t live_remotes = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].local && slots_[s].endpoint && router_.alive(s)) {
      ++live_remotes;
    }
  }
  if (live_remotes == 0) {
    target_locals = std::max<std::size_t>(1, target_locals);
  }
  const std::size_t current = desired_locals();
  if (target_locals == current) return current;
  ++stats_.reshards;

  if (target_locals > current) {
    std::size_t needed = target_locals - current;
    std::size_t failed_spawns = 0;
    // Recycle dead local slots first: revive_shard restores their exact
    // old keyslice, so a shrink-then-grow round trip moves keys back
    // where their caches were warm.
    for (std::size_t s = 0; s < slots_.size() && needed > 0; ++s) {
      Slot& slot = slots_[s];
      if (!slot.attached || !slot.local || slot.want || slot.retiring ||
          slot.endpoint) {
        continue;
      }
      try {
        spawn(s);
      } catch (const std::exception&) {
        continue;  // try another slot; brand-new slots below may work
      }
      slot.want = true;
      slot.restarts = 0;
      disarm(slot.respawn_timer);
      if (!router_.alive(s)) router_.revive_shard(s);
      --needed;
    }
    while (needed > 0) {
      // Spawn BEFORE touching the ring: a fork/pipe failure must not
      // leave a live ring slot with no endpoint behind it (jobs hashing
      // there would wait forever).
      std::unique_ptr<net::ShardEndpoint> endpoint;
      try {
        endpoint = std::make_unique<ProcessChild>(options_.local_argv);
      } catch (const std::exception&) {
        ++failed_spawns;
        break;  // partial grow; the reply reports the applied count
      }
      const std::size_t s = router_.add_shard();
      ensure_slot(s);
      Slot& slot = slots_[s];
      slot.endpoint = std::move(endpoint);
      slot.local = true;
      slot.attached = true;
      slot.want = true;
      slot.spawned_at = Clock::now();
      watch(s);
      --needed;
    }
    if (failed_spawns > 0) {
      util::log_warn() << "reshard grow stopped short (spawn failed)";
    }
    request_warm_rebalance();  // new owners inherit their keys' pools
    return desired_locals();
  }

  // Shrink: retire the highest-indexed local members. Ask each for its
  // warm pool (forwarded to the keys' new owners when the reply lands),
  // requeue its unanswered jobs via the failover path, and let it drain
  // out through a polite shutdown.
  std::size_t to_remove = current - target_locals;
  for (std::size_t i = slots_.size(); i-- > 0 && to_remove > 0;) {
    Slot& slot = slots_[i];
    if (!slot.local || !slot.want || slot.retiring) continue;
    slot.want = false;
    disarm(slot.respawn_timer);
    ++stats_.retired;
    --to_remove;
    if (slot.endpoint) {
      slot.endpoint->send_line(
          R"({"cmd":"export_warm","id":"_probe)" +
          std::to_string(probe_counter_++) + "\"}");
      slot.endpoint->send_line(R"({"cmd":"shutdown","id":"_retire"})");
      slot.retiring = true;
      flush(i);
      // A wedged retiree (not reading, not exiting) already left the
      // ring and its jobs were requeued: past the grace, cut it loose.
      slot.retire_timer =
          loop_.add_timer(milliseconds(options_.retire_grace_ms), [this, i] {
            slots_[i].retire_timer = 0;
            if (slots_[i].endpoint) slots_[i].endpoint->terminate();
          });
    }
    if (router_.alive(i)) append(&out_, router_.on_child_down(i));
  }
  return desired_locals();
}

void Supervisor::request_warm_rebalance() {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].endpoint || slots_[s].retiring || !router_.alive(s)) {
      continue;
    }
    slots_[s].endpoint->send_line(
        R"({"cmd":"export_warm","id":"_probe)" +
        std::to_string(probe_counter_++) + "\"}");
    flush(s);
  }
}

void Supervisor::forward_warm(std::size_t donor, const std::string& warm_json) {
  util::JsonValue warm;
  try {
    warm = util::parse_json(warm_json);
  } catch (const std::exception&) {
    return;  // defensive: a child never sends garbage
  }
  if (!warm.is_object()) return;

  // Group the donor's entries by every member of their CURRENT replica
  // set (owner + next R-1 shards); the donor's own copy stays put.
  std::map<std::size_t, std::string> per_owner;
  std::map<std::size_t, std::uint64_t> forwarded;
  for (const auto& [fp_hex, samples] : warm.object()) {
    const auto fp = parse_fp_hex(fp_hex);
    if (!fp || !samples.is_array() || samples.array().empty()) continue;
    std::vector<std::size_t> members;
    try {
      members = router_.replica_set(*fp);
    } catch (const std::exception&) {
      return;  // empty ring: nobody to hand anything to
    }
    for (const std::size_t member : members) {
      if (member == donor || member >= slots_.size() ||
          !slots_[member].endpoint || slots_[member].retiring) {
        continue;
      }
      std::string& payload = per_owner[member];
      payload += payload.empty() ? "{" : ",";
      payload += "\"" + fp_hex + "\":" + util::to_json(samples);
      forwarded[member] += samples.array().size();
    }
  }
  for (auto& [owner, payload] : per_owner) {
    payload += "}";
    util::JsonWriter line;
    line.field("cmd", "import_warm")
        .field("id", "_warm" + std::to_string(probe_counter_++))
        .raw_field("warm", payload);
    slots_[owner].endpoint->send_line(line.str());
    flush(owner);
    stats_.warm_forwarded += forwarded[owner];
  }
}

void Supervisor::send_health_pings() {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint || slot.retiring || !router_.alive(s)) continue;
    if (router_.take_pong(s)) {
      slot.missed_pongs = 0;
    } else if (slot.ping_outstanding && ++slot.missed_pongs >= 5) {
      // Wedged: terminate; EOF then routes into the death/respawn path.
      slot.endpoint->terminate();
      slot.ping_outstanding = false;
      ++stats_.unresponsive_kills;
      continue;
    }
    slot.endpoint->send_line(R"({"cmd":"ping"})");
    slot.ping_outstanding = true;
    flush(s);
  }
}

void Supervisor::shutdown_fleet(int grace_ms) {
  thread_checker_.assert_current_thread();
  const auto deadline = Clock::now() + milliseconds(grace_ms);
  bool open = false;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    slot.want = false;
    disarm(slot.respawn_timer);
    if (!slot.endpoint) continue;
    // Local children are OURS: tell them to shut the whole process down.
    // A remote server belongs to its operator and may be serving other
    // front doors — only this session ends (the input half-close), never
    // the server.
    if (slot.local && !slot.retiring) {
      slot.endpoint->send_line(R"({"cmd":"shutdown","id":"_bye"})");
    }
    // Every member now drains like a shrink retiree: flush, half-close,
    // read to EOF. Tail results still count — they route through the
    // router, so a drain initiated right before teardown loses nothing.
    slot.retiring = true;
    flush(s);
    open = true;
  }
  while (open && Clock::now() < deadline) {
    loop_.run_once(static_cast<int>(
        std::chrono::ceil<milliseconds>(deadline - Clock::now()).count()));
    open = false;
    for (const Slot& slot : slots_) {
      if (slot.endpoint) open = true;
    }
  }
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].endpoint) {
      slots_[s].endpoint->terminate();  // overstayed the grace period
      release(s);                       // the endpoint's dtor reaps
    }
  }
}

}  // namespace saim::service
