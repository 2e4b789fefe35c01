#include "service/supervisor.hpp"

#include <poll.h>
#include <sys/wait.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>
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

void append(std::vector<std::string>* out, std::vector<std::string> lines) {
  out->insert(out->end(), std::make_move_iterator(lines.begin()),
              std::make_move_iterator(lines.end()));
}

}  // namespace

Supervisor::Supervisor(ShardRouter& router, SupervisorOptions options)
    : router_(router), options_(std::move(options)),
      last_ping_(Clock::now()), last_gossip_(Clock::now()) {
  slots_.resize(router_.shard_slots());
}

Supervisor::~Supervisor() = default;

void Supervisor::ensure_slot(std::size_t slot) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
}

void Supervisor::attach_local(std::size_t slot) {
  thread_checker_.assert_current_thread();
  if (slot >= router_.shard_slots()) {
    throw std::logic_error("Supervisor: slot beyond the router's shards");
  }
  ensure_slot(slot);
  Slot& s = slots_[slot];
  if (s.attached) throw std::logic_error("Supervisor: slot already attached");
  s.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
  s.local = true;
  s.attached = true;
  s.want = true;
  s.spawned_at = Clock::now();
}

void Supervisor::attach_remote(std::size_t slot, const std::string& host,
                               int port) {
  thread_checker_.assert_current_thread();
  if (slot >= router_.shard_slots()) {
    throw std::logic_error("Supervisor: slot beyond the router's shards");
  }
  ensure_slot(slot);
  Slot& s = slots_[slot];
  if (s.attached) throw std::logic_error("Supervisor: slot already attached");
  s.endpoint =
      std::make_unique<net::SocketChild>(host, port,
                                         options_.remote_auth_token);
  s.local = false;
  s.attached = true;
  s.want = true;
  s.host = host;
  s.port = port;
  s.spawned_at = Clock::now();
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

std::vector<std::string> Supervisor::pump(int poll_ms) {
  thread_checker_.assert_current_thread();
  std::vector<std::string> out;
  std::swap(out, deferred_out_);
  const auto now = Clock::now();

  // Respawns that have served their backoff.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].respawn_pending && now >= slots_[s].respawn_at) {
      try_respawn(s, &out);
    }
  }

  // Hedge pass: queue replica copies of jobs stuck in flight past their
  // shard's adaptive threshold, so the send loop below writes them in
  // this same cycle.
  router_.dispatch_hedges();

  // Send: fill each live shard's window; keep flushing retiring shards
  // so their farewell control lines leave the user-space buffer, then
  // half-close them.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint) continue;
    if (slot.retiring) {
      slot.endpoint->pump_writes();
      if (slot.endpoint->outbound_bytes() == 0) {
        slot.endpoint->shutdown_input();
      }
      if (now >= slot.retire_deadline) {
        // Wedged retiree (not reading, not exiting): it already left the
        // ring and its jobs were requeued, so cut it loose.
        slot.endpoint->terminate();
      }
      continue;
    }
    if (!router_.alive(s)) continue;
    for (auto& line : router_.take_sendable(s)) slot.endpoint->send_line(line);
    slot.endpoint->pump_writes();
  }

  // Wait for output anywhere (live or retiring).
  std::vector<pollfd> fds;
  fds.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.endpoint && !slot.endpoint->eof() &&
        slot.endpoint->read_fd() >= 0) {
      fds.push_back(pollfd{slot.endpoint->read_fd(), POLLIN, 0});
    }
  }
  if (!fds.empty() && poll_ms >= 0) {
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_ms);
  } else if (poll_ms > 0) {
    // Nothing pollable (every endpoint dead, respawns on backoff):
    // honor the wait anyway so the caller's loop does not spin hot
    // through the backoff window.
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }

  // Read everyone — retiring shards included, so results they computed
  // before departure are harvested, not recomputed. Deaths are declared
  // only at EOF (flushed results are never discarded).
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.endpoint) continue;
    for (const auto& line : slot.endpoint->read_lines()) {
      append(&out, router_.on_child_line(s, line));
    }
    if (const auto warm = router_.take_warm_export(s)) {
      forward_warm(s, *warm);
    }
    if (const auto stats_json = router_.take_stats_export(s)) {
      // Deliver to the oldest aggregation still waiting on this shard.
      for (auto& probe : stats_probes_) {
        if (probe.waiting.erase(s) > 0) {
          probe.replies[s] = *stats_json;
          break;
        }
      }
    }
    if (slot.endpoint->eof()) {
      if (slot.retiring) {
        slot.endpoint->reap();
        slot.endpoint.reset();
        slot.retiring = false;  // retirement complete
      } else {
        on_death(s, &out);
      }
    }
  }

  send_health_pings();
  if (options_.gossip_ms > 0 &&
      now - last_gossip_ >= std::chrono::milliseconds(options_.gossip_ms)) {
    // Periodic warm-pool gossip: the same export_warm probe the
    // membership-change handoff uses, on a timer — replies route through
    // forward_warm above on later pumps, warming replicas that joined
    // (or respawned) after the pool entries were found.
    last_gossip_ = now;
    request_warm_rebalance();
  }
  advance_stats_probes(&out);
  return out;
}

void Supervisor::request_fleet_stats(const std::string& reply_id) {
  thread_checker_.assert_current_thread();
  StatsProbe probe;
  probe.reply_id = reply_id;
  probe.deadline = Clock::now() + std::chrono::milliseconds(2000);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].endpoint || slots_[s].retiring || !router_.alive(s)) {
      continue;
    }
    slots_[s].endpoint->send_line(R"({"cmd":"stats","id":"_stats)" +
                                  std::to_string(probe_counter_++) + "\"}");
    slots_[s].endpoint->pump_writes();
    probe.waiting.insert(s);
  }
  stats_probes_.push_back(std::move(probe));
}

void Supervisor::advance_stats_probes(std::vector<std::string>* out) {
  if (stats_probes_.empty()) return;
  const auto now = Clock::now();
  for (auto it = stats_probes_.begin(); it != stats_probes_.end();) {
    // Emit when complete — or at the deadline with whatever arrived: a
    // wedged shard must not make the whole fleet unobservable.
    if (it->waiting.empty() || now >= it->deadline) {
      out->push_back(fleet_stats_line(*it));
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

void Supervisor::on_death(std::size_t s, std::vector<std::string>* out) {
  Slot& slot = slots_[s];
  slot.endpoint->reap();
  // An exec failure (bad --serve path after a respawn) deserves a loud,
  // specific note — it looks like an instant crash otherwise.
  if (auto* child = dynamic_cast<ProcessChild*>(slot.endpoint.get());
      child && WIFEXITED(child->exit_status()) &&
      WEXITSTATUS(child->exit_status()) == 127) {
    util::log_error() << "shard " << s << " could not exec its saim_serve";
  }
  slot.endpoint.reset();
  slot.ping_outstanding = false;
  slot.missed_pongs = 0;

  const auto now = Clock::now();
  if (now - slot.spawned_at >=
      std::chrono::milliseconds(options_.stable_ms)) {
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
      append(out, router_.on_child_down(s));  // PR 4 failover first
    }
    const int backoff = std::min(
        options_.backoff_max_ms,
        options_.backoff_initial_ms << std::min(slot.restarts, 20));
    slot.respawn_pending = true;
    slot.respawn_at = now + std::chrono::milliseconds(backoff);
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
  if (router_.alive(s)) append(out, router_.on_child_down(s));
  if (revivable && slot.want) {
    ++stats_.respawn_failures;
    util::log_error() << "shard " << s << " abandoned after " << slot.restarts
                      << " crashes";
  }
  slot.want = false;
  slot.respawn_pending = false;
}

bool Supervisor::try_respawn(std::size_t s, std::vector<std::string>* out) {
  Slot& slot = slots_[s];
  slot.respawn_pending = false;
  if (!slot.want || (!slot.local && slot.host.empty())) return false;
  try {
    if (slot.local) {
      slot.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
    } else {
      slot.endpoint = std::make_unique<net::SocketChild>(
          slot.host, slot.port, options_.remote_auth_token);
    }
  } catch (const std::exception&) {
    // fork/pipe failure (fd or process exhaustion) — or, for a remote,
    // a server that is not back yet: retry on backoff like a crash,
    // give up on the same budget.
    ++slot.restarts;
    if (slot.restarts >= options_.max_restarts) {
      if (router_.alive(s)) append(out, router_.on_child_down(s));
      slot.want = false;
      ++stats_.respawn_failures;
      return false;
    }
    const int backoff = std::min(
        options_.backoff_max_ms,
        options_.backoff_initial_ms << std::min(slot.restarts, 20));
    slot.respawn_pending = true;
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(backoff);
    return false;
  }
  slot.spawned_at = Clock::now();
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
  return true;
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
        slot.endpoint = std::make_unique<ProcessChild>(options_.local_argv);
      } catch (const std::exception&) {
        continue;  // try another slot; brand-new slots below may work
      }
      slot.want = true;
      slot.restarts = 0;
      slot.respawn_pending = false;
      slot.spawned_at = Clock::now();
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
    slot.respawn_pending = false;
    ++stats_.retired;
    --to_remove;
    if (slot.endpoint) {
      slot.endpoint->send_line(
          R"({"cmd":"export_warm","id":"_probe)" +
          std::to_string(probe_counter_++) + "\"}");
      slot.endpoint->send_line(R"({"cmd":"shutdown","id":"_retire"})");
      slot.endpoint->pump_writes();
      slot.retiring = true;
      slot.retire_deadline =
          Clock::now() +
          std::chrono::milliseconds(options_.retire_grace_ms);
    }
    if (router_.alive(i)) {
      append(&deferred_out_, router_.on_child_down(i));
    }
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
    slots_[owner].endpoint->pump_writes();
    stats_.warm_forwarded += forwarded[owner];
  }
}

void Supervisor::send_health_pings() {
  if (options_.ping_ms <= 0) return;
  const auto now = Clock::now();
  if (now - last_ping_ < std::chrono::milliseconds(options_.ping_ms)) return;
  last_ping_ = now;
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
  }
}

void Supervisor::shutdown_fleet(int grace_ms) {
  thread_checker_.assert_current_thread();
  for (Slot& slot : slots_) {
    slot.want = false;
    slot.respawn_pending = false;
    // Local children are OURS: tell them to shut the whole process down.
    // A remote server belongs to its operator and may be serving other
    // front doors — only this session ends (the input half-close below),
    // never the server.
    if (slot.local && slot.endpoint && !slot.endpoint->eof()) {
      slot.endpoint->send_line(R"({"cmd":"shutdown","id":"_bye"})");
      slot.endpoint->pump_writes();
    }
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    bool open = false;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (!slot.endpoint) continue;
      if (!slot.endpoint->eof()) {
        slot.endpoint->pump_writes();
        if (slot.endpoint->outbound_bytes() == 0) {
          slot.endpoint->shutdown_input();
        }
        // Tail results still count: feed them through the router so a
        // drain initiated right before teardown loses nothing.
        for (const auto& line : slot.endpoint->read_lines()) {
          append(&deferred_out_, router_.on_child_line(s, line));
        }
        if (!slot.endpoint->eof()) {
          open = true;
          continue;
        }
      }
      slot.endpoint->reap();
      slot.endpoint.reset();
    }
    if (!open || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (Slot& slot : slots_) {
    if (slot.endpoint) {
      slot.endpoint->terminate();  // overstayed the grace period
      slot.endpoint.reset();       // dtor reaps
    }
  }
}

}  // namespace saim::service
