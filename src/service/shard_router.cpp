#include "service/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

#include "problems/fingerprint.hpp"
#include "service/job_parser.hpp"
#include "util/jsonl.hpp"

namespace saim::service {

// ------------------------------------------------------------------- ring

HashRing::HashRing(std::size_t vnodes)
    : vnodes_(std::max<std::size_t>(1, vnodes)) {}

void HashRing::add(std::size_t shard) {
  if (!shards_.insert(shard).second) return;
  for (std::size_t v = 0; v < vnodes_; ++v) {
    const std::uint64_t point = problems::Fingerprint()
                                    .mix(std::uint64_t{shard})
                                    .mix(std::uint64_t{v})
                                    .digest();
    // Collisions between different shards' points are 2^-64-rare; keep
    // the first owner so add order cannot silently reassign a key range.
    ring_.emplace(point, shard);
  }
}

void HashRing::remove(std::size_t shard) {
  if (shards_.erase(shard) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard ? ring_.erase(it) : std::next(it);
  }
}

bool HashRing::contains(std::size_t shard) const {
  return shards_.contains(shard);
}

std::size_t HashRing::route(std::uint64_t key) const {
  if (ring_.empty()) throw std::runtime_error("no live shards");
  const auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

std::vector<std::size_t> HashRing::replicas(std::uint64_t key,
                                            std::size_t count) const {
  if (ring_.empty()) throw std::runtime_error("no live shards");
  count = std::max<std::size_t>(1, std::min(count, shards_.size()));
  std::vector<std::size_t> members;
  members.reserve(count);
  auto it = ring_.lower_bound(key);
  if (it == ring_.end()) it = ring_.begin();
  // A full lap visits every live shard at least once, so this terminates
  // with exactly `count` distinct members.
  while (members.size() < count) {
    if (std::find(members.begin(), members.end(), it->second) ==
        members.end()) {
      members.push_back(it->second);
    }
    if (++it == ring_.end()) it = ring_.begin();
  }
  return members;
}

// ----------------------------------------------------------------- router

namespace {

/// Instance-source keys memoized per router (see accept_line).
constexpr std::size_t kFingerprintMemoCap = 4096;

/// Routing tokens replace job ids on the wire to the shards: unique, so
/// duplicate client ids cannot collide, and alphanumeric, so the token is
/// byte-identical before and after JSON escaping.
std::string token_for(std::uint64_t ordinal) {
  return "_r" + std::to_string(ordinal);
}

/// Replaces the token in `"id":"<token>"` with the escaped original id.
void restore_id(std::string* line, const std::string& token,
                const std::string& display_id) {
  const std::string needle = "\"id\":\"" + token + "\"";
  const auto pos = line->find(needle);
  if (pos == std::string::npos) return;  // defensive: emit unrestored
  line->replace(pos, needle.size(),
                "\"id\":\"" + util::json_escape(display_id) + "\"");
}

/// The job's priority band for admission-control ranking. The line was
/// already validated, so anything but the known strings is "normal".
int priority_band(const util::JsonValue& job) {
  const auto* priority = job.find("priority");
  if (!priority) return 1;
  const std::string p = priority->as_string();
  if (p == "low") return 0;
  if (p == "high") return 2;
  return 1;
}

/// Rewrites the trailing per-shard `"seq":N` (always the last field on
/// accepted-job lines) to `global_seq`. Returns false when the line has
/// no seq — i.e. the shard rejected it at submission.
bool remap_seq(std::string* line, std::int64_t global_seq) {
  const std::string needle = ",\"seq\":";
  const auto pos = line->rfind(needle);
  if (pos == std::string::npos) return false;
  const std::size_t digits = pos + needle.size();
  std::size_t end = digits;
  while (end < line->size() && line->at(end) >= '0' && line->at(end) <= '9') {
    ++end;
  }
  if (end == digits || end + 1 != line->size() || line->at(end) != '}') {
    return false;  // not the trailing seq field; leave untouched
  }
  line->replace(digits, end - digits, std::to_string(global_seq));
  return true;
}

}  // namespace

ShardRouter::ShardRouter(RouterOptions options)
    : options_(options), ring_(options.vnodes) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardRouter: need at least one shard");
  }
  options_.window = std::max<std::size_t>(1, options_.window);
  alive_.assign(options_.shards, true);
  pending_.resize(options_.shards);
  inflight_.resize(options_.shards);
  pong_.assign(options_.shards, false);
  warm_export_.resize(options_.shards);
  stats_export_.resize(options_.shards);
  stats_.routed_per_shard.assign(options_.shards, 0);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    latency_.push_back(std::make_unique<obs::Histogram>());
    ring_.add(s);
  }
}

std::vector<std::string> ShardRouter::accept_line(const std::string& line,
                                                  std::size_t line_no) {
  thread_checker_.assert_current_thread();
  std::vector<std::string> out;
  std::string display_id = "job" + std::to_string(line_no);
  try {
    const util::JsonValue parsed = util::parse_json(line);
    if (const auto* id = parsed.find("id")) {
      if (!id->as_string().empty()) display_id = id->as_string();
    }
    if (const auto cmd = control_cmd(parsed)) {
      if (*cmd == "ping") {
        util::JsonWriter pong;
        pong.field("id", display_id)
            .field("pong", true)
            .field("inflight", static_cast<std::uint64_t>(jobs_.size()));
        out.push_back(pong.str());
        return out;
      }
      if (*cmd == "drain") {
        // drain: certifies every job accepted BEFORE this line.
        Drain drain{next_ordinal_, jobs_.size(), display_id};
        if (drain.remaining == 0) {
          out.push_back(drained_line(drain));
        } else {
          drains_.push_back(std::move(drain));
        }
        return out;
      }
      // shutdown/reshard/export_warm/import_warm are fleet-management
      // commands the front door answers before lines reach the router;
      // one arriving here means no supervisor is in charge of them.
      throw std::runtime_error("control cmd \"" + *cmd +
                               "\" is handled by the fleet supervisor, "
                               "not the router");
    }

    // Routing key: the canonical problem fingerprint. The first line for
    // an instance source builds the instance (validating the whole job
    // with the shard's own parser); twins hit the memo and are re-checked
    // with the cheap field validation only — so every line the router
    // forwards is one the shard would have accepted, and rejected/
    // accepted stats stay truthful.
    const std::string source = instance_source_key(parsed);
    std::uint64_t fingerprint = 0;
    bool twin = false;  // an instance seen before: replicas can cache-hit
    const auto memo = fingerprint_memo_.find(source);
    if (!source.empty() && memo != fingerprint_memo_.end()) {
      validate_job(parsed);
      fingerprint = memo->second;
      twin = true;
    } else {
      const ParsedJob job = parse_job(parsed, /*warm_default=*/false);
      fingerprint = problems::fingerprint(*job.request.problem);
      if (!source.empty()) {
        // The memo is a pure speedup; cap it so a long-lived front door
        // fed ever-new sources (rotating temp paths) cannot leak. A rare
        // full reset just re-derives fingerprints on the next lines.
        if (fingerprint_memo_.size() >= kFingerprintMemoCap) {
          fingerprint_memo_.clear();
        }
        fingerprint_memo_.emplace(source, fingerprint);
      }
    }

    // Admission control: past the global pending bound, someone gets shed
    // with a "delayed"-tagged error — the lowest-priority pending job if
    // the incoming one outranks it, the incoming job otherwise. Shedding
    // happens BEFORE the job is accepted, so a shed incoming job never
    // gets an ordinal or a seq (it was never accepted), while a shed
    // victim keeps its seq: accepted jobs still see the contiguous range.
    const int priority = priority_band(parsed);
    if (options_.max_queue_depth > 0 &&
        total_pending() >= options_.max_queue_depth &&
        !shed_for(priority, &out)) {
      ++stats_.sheds;
      any_error_ = true;
      util::JsonWriter err;
      err.field("id", display_id)
          .field("error", "shed by admission control: " +
                              std::to_string(total_pending()) +
                              " jobs already queued (bound " +
                              std::to_string(options_.max_queue_depth) +
                              "); resubmit when the backlog drains")
          .field("delayed", true);
      out.push_back(err.str());
      return out;
    }

    // Rewrite the id to a unique routing token; everything else in the
    // line is forwarded as parsed.
    Job job;
    job.ordinal = next_ordinal_++;
    job.display_id = std::move(display_id);
    job.fingerprint = fingerprint;
    job.priority = priority;
    job.shard = ring_.route(fingerprint);
    if (twin && options_.replicas > 1 && options_.hot_key_depth > 0 &&
        depth(job.shard) >= options_.hot_key_depth) {
      // Hot-key route: the owner is saturated and this twin is
      // cache-hittable on any replica that warmed its fingerprint; run it
      // on the least-loaded replica when one is strictly less loaded.
      std::size_t best = job.shard;
      for (std::size_t member :
           ring_.replicas(fingerprint, options_.replicas)) {
        if (member != job.shard && depth(member) < depth(best)) best = member;
      }
      if (best != job.shard) {
        job.shard = best;
        ++stats_.replica_hits;
      }
    }
    const std::string token = token_for(job.ordinal);
    util::JsonValue::Object rewritten = parsed.object();
    rewritten["id"] = util::JsonValue(token);
    job.line = util::to_json(util::JsonValue(std::move(rewritten)));

    ++stats_.accepted;
    ++stats_.routed_per_shard[job.shard];
    pending_[job.shard].push_back(token);
    jobs_.emplace(token, std::move(job));
  } catch (const std::exception& e) {
    any_error_ = true;
    ++stats_.rejected;
    util::JsonWriter err;
    err.field("id", display_id).field("error", e.what());
    out.push_back(err.str());
  }
  return out;
}

std::vector<std::string> ShardRouter::take_sendable(std::size_t shard) {
  thread_checker_.assert_current_thread();
  std::vector<std::string> out;
  if (shard >= pending_.size() || !alive_[shard]) return out;
  auto& pending = pending_[shard];
  auto& inflight = inflight_[shard];
  while (!pending.empty() && inflight.size() < options_.window) {
    const std::string token = std::move(pending.front());
    pending.pop_front();
    auto it = jobs_.find(token);
    if (it == jobs_.end()) continue;  // defensive
    Job& job = it->second;
    if (job.hedge_shard == shard && job.shard != shard) {
      // Hedge copy going out: the primary stays in flight elsewhere;
      // stamp the hedge's own clock so a hedge win measures ITS trip.
      job.hedge_inflight = true;
      job.hedge_sent_at = std::chrono::steady_clock::now();
    } else {
      job.inflight = true;
      job.sent_at = std::chrono::steady_clock::now();
    }
    out.push_back(job.line);
    inflight.insert(token);
  }
  return out;
}

std::vector<std::string> ShardRouter::on_child_line(std::size_t shard,
                                                    const std::string& line) {
  thread_checker_.assert_current_thread();
  std::vector<std::string> out;
  util::JsonValue parsed;
  try {
    parsed = util::parse_json(line);
  } catch (const std::exception&) {
    return out;  // a child never emits garbage; drop defensively
  }
  if (!parsed.is_object()) return out;
  if (parsed.find("pong")) {
    if (shard < pong_.size()) pong_[shard] = true;
    return out;
  }
  if (parsed.find("drained")) return out;  // child drain ack: internal
  if (const auto* warm = parsed.find("warm")) {
    // Reply to a Supervisor export_warm probe: stash the snapshot for
    // the warm handoff; never forwarded downstream.
    if (shard < warm_export_.size()) {
      warm_export_[shard] = util::to_json(*warm);
    }
    return out;
  }
  if (const auto* service = parsed.find("service")) {
    // Reply to a Supervisor stats probe: stash the shard's own service
    // snapshot for fleet aggregation; never forwarded downstream.
    if (shard < stats_export_.size()) {
      stats_export_[shard] = util::to_json(*service);
    }
    return out;
  }
  // import_warm acks and shutdown farewells are fleet-internal too.
  if (parsed.find("imported") || parsed.find("bye")) return out;

  const auto* id = parsed.find("id");
  if (!id) return out;
  const auto it = jobs_.find(id->as_string());
  if (it == jobs_.end()) return out;  // unknown token (late duplicate)
  Job job = std::move(it->second);
  const std::string token = id->as_string();
  jobs_.erase(it);
  // Release BOTH copies of a hedged job: the loser is either still
  // pending on the other shard (pulled from its queue here, never sent)
  // or in flight there (its late line will dedupe as an unknown token).
  if (job.shard < inflight_.size()) inflight_[job.shard].erase(token);
  unqueue(job.shard, token);
  if (job.hedge_shard) {
    if (*job.hedge_shard < inflight_.size()) {
      inflight_[*job.hedge_shard].erase(token);
    }
    unqueue(*job.hedge_shard, token);
  }
  const auto now = std::chrono::steady_clock::now();
  const bool from_hedge = job.hedge_shard == shard && job.shard != shard;
  if (from_hedge) {
    ++stats_.hedge_wins;
    if (job.hedge_sent_at != std::chrono::steady_clock::time_point{}) {
      hedge_win_ms_.observe(
          std::chrono::duration<double, std::milli>(now - job.hedge_sent_at)
              .count());
    }
  }
  const auto sent = from_hedge ? job.hedge_sent_at : job.sent_at;
  if (shard < latency_.size() &&
      sent != std::chrono::steady_clock::time_point{}) {
    latency_[shard]->observe(
        std::chrono::duration<double, std::milli>(now - sent).count());
  }

  // Byte-level surgery keeps every solver-produced field bit-identical:
  // restore the client's id, remap the per-shard seq to the global
  // completion order. A line without seq was rejected by the shard at
  // submission and stays unnumbered (docs/PROTOCOL.md).
  std::string rewritten = line;
  restore_id(&rewritten, token, job.display_id);
  if (remap_seq(&rewritten, next_seq_)) ++next_seq_;
  if (parsed.find("error")) any_error_ = true;
  ++stats_.emitted;
  out.push_back(std::move(rewritten));
  finished(job.ordinal, &out);
  return out;
}

std::vector<std::string> ShardRouter::on_child_down(std::size_t shard) {
  thread_checker_.assert_current_thread();
  std::vector<std::string> out;
  if (shard >= alive_.size() || !alive_[shard]) return out;
  alive_[shard] = false;
  ring_.remove(shard);

  // Collect the shard's unanswered jobs — in flight first, then pending —
  // and replay them in original accept order so requeued streams stay
  // close to their submission order.
  std::vector<std::string> tokens(inflight_[shard].begin(),
                                  inflight_[shard].end());
  tokens.insert(tokens.end(), pending_[shard].begin(), pending_[shard].end());
  inflight_[shard].clear();
  pending_[shard].clear();
  std::sort(tokens.begin(), tokens.end(), [&](const auto& a, const auto& b) {
    return jobs_.at(a).ordinal < jobs_.at(b).ordinal;
  });

  for (const std::string& token : tokens) {
    auto it = jobs_.find(token);
    if (it == jobs_.end()) continue;
    {
      Job& hedged = it->second;
      if (hedged.hedge_shard == shard && hedged.shard != shard) {
        // Only the hedge copy died; the primary is still out there on a
        // live shard. Drop the hedge — dispatch_hedges may re-hedge the
        // job onto the post-crash ring.
        hedged.hedge_shard.reset();
        hedged.hedge_inflight = false;
        hedged.hedge_sent_at = {};
        continue;
      }
      if (hedged.shard == shard && hedged.hedge_shard &&
          *hedged.hedge_shard < alive_.size() &&
          alive_[*hedged.hedge_shard]) {
        // The owner died but a hedge copy is already queued or in flight
        // on a live replica: promote it to primary instead of requeueing
        // from scratch — the zero-stall crash rescue.
        hedged.shard = *hedged.hedge_shard;
        hedged.inflight = hedged.hedge_inflight;
        hedged.sent_at = hedged.hedge_sent_at;
        hedged.hedge_shard.reset();
        hedged.hedge_inflight = false;
        hedged.hedge_sent_at = {};
        continue;
      }
    }
    if (ring_.shard_count() == 0) {
      // Nothing left to run it on: the job errors out, but still gets its
      // global seq — it WAS accepted, and downstream consumers count on
      // one numbered line per accepted job.
      Job job = std::move(it->second);
      jobs_.erase(it);
      any_error_ = true;
      ++stats_.orphaned;
      util::JsonWriter err;
      err.field("id", job.display_id)
          .field("error",
                 "shard " + std::to_string(shard) +
                     " exited with the job unfinished and no live shard "
                     "remains")
          .field("shard", static_cast<std::uint64_t>(shard))
          .field("seq", next_seq_++);
      out.push_back(err.str());
      finished(job.ordinal, &out);
    } else {
      Job& job = it->second;
      job.inflight = false;
      job.hedge_shard.reset();
      job.hedge_inflight = false;
      job.hedge_sent_at = {};
      job.shard = ring_.route(job.fingerprint);
      ++stats_.requeued;
      ++stats_.routed_per_shard[job.shard];
      pending_[job.shard].push_back(token);
    }
  }
  return out;
}

void ShardRouter::revive_shard(std::size_t shard) {
  thread_checker_.assert_current_thread();
  if (shard >= alive_.size() || alive_[shard]) return;
  alive_[shard] = true;
  pong_[shard] = false;
  warm_export_[shard].reset();
  stats_export_[shard].reset();
  ring_.add(shard);
}

std::size_t ShardRouter::add_shard() {
  thread_checker_.assert_current_thread();
  const std::size_t shard = alive_.size();
  alive_.push_back(true);
  pending_.emplace_back();
  inflight_.emplace_back();
  pong_.push_back(false);
  warm_export_.emplace_back();
  stats_export_.emplace_back();
  latency_.push_back(std::make_unique<obs::Histogram>());
  stats_.routed_per_shard.push_back(0);
  ring_.add(shard);
  return shard;
}

void ShardRouter::requeue_inflight(std::size_t shard) {
  thread_checker_.assert_current_thread();
  if (shard >= inflight_.size() || inflight_[shard].empty()) return;
  std::vector<std::string> tokens(inflight_[shard].begin(),
                                  inflight_[shard].end());
  inflight_[shard].clear();
  std::sort(tokens.begin(), tokens.end(), [&](const auto& a, const auto& b) {
    return jobs_.at(a).ordinal < jobs_.at(b).ordinal;
  });
  // Replayed jobs precede anything not yet sent: the pending queue keeps
  // the original accept order.
  for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
    auto job = jobs_.find(*it);
    if (job == jobs_.end()) continue;
    job->second.inflight = false;
    ++stats_.requeued;
    pending_[shard].push_front(std::move(*it));
  }
}

bool ShardRouter::hedging() const {
  return options_.hedge_min_ms > 0.0 && options_.replicas >= 2 &&
         ring_.shard_count() >= 2;
}

double ShardRouter::hedge_threshold_ms(std::size_t shard) const {
  // Adaptive threshold: this shard's observed round-trip p95, floored by
  // hedge_min_ms so an empty histogram (or a pathologically fast one)
  // cannot trigger a hedge storm.
  const obs::HistogramSnapshot snap = latency_snapshot(shard);
  return snap.count > 0 ? std::max(options_.hedge_min_ms, snap.quantile(0.95))
                        : options_.hedge_min_ms;
}

std::size_t ShardRouter::dispatch_hedges() {
  thread_checker_.assert_current_thread();
  if (!hedging()) return 0;
  const auto now = std::chrono::steady_clock::now();
  std::size_t dispatched = 0;
  for (auto& [token, job] : jobs_) {
    if (!job.inflight || job.hedge_shard) continue;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(now - job.sent_at).count();
    if (elapsed_ms < hedge_threshold_ms(job.shard)) continue;
    // The hedge target: the first replica that is not the job's own
    // shard. replicas() only walks live shards, so the target can take
    // the copy right now.
    std::optional<std::size_t> target;
    for (std::size_t member :
         ring_.replicas(job.fingerprint, options_.replicas)) {
      if (member != job.shard) {
        target = member;
        break;
      }
    }
    if (!target) continue;  // replica set collapsed to the owner alone
    job.hedge_shard = target;
    job.hedge_inflight = false;
    job.hedge_sent_at = {};
    pending_[*target].push_back(token);
    ++stats_.hedges;
    ++stats_.routed_per_shard[*target];
    ++dispatched;
  }
  return dispatched;
}

std::optional<std::chrono::steady_clock::time_point>
ShardRouter::next_hedge_at() const {
  if (!hedging()) return std::nullopt;
  std::optional<std::chrono::steady_clock::time_point> next;
  for (const auto& [token, job] : jobs_) {
    if (!job.inflight || job.hedge_shard) continue;
    const auto due =
        job.sent_at +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                hedge_threshold_ms(job.shard)));
    if (!next || due < *next) next = due;
  }
  return next;
}

bool ShardRouter::take_pong(std::size_t shard) {
  thread_checker_.assert_current_thread();
  if (shard >= pong_.size()) return false;
  const bool seen = pong_[shard];
  pong_[shard] = false;
  return seen;
}

std::optional<std::string> ShardRouter::take_warm_export(std::size_t shard) {
  thread_checker_.assert_current_thread();
  if (shard >= warm_export_.size()) return std::nullopt;
  std::optional<std::string> out;
  warm_export_[shard].swap(out);
  return out;
}

std::optional<std::string> ShardRouter::take_stats_export(std::size_t shard) {
  thread_checker_.assert_current_thread();
  if (shard >= stats_export_.size()) return std::nullopt;
  std::optional<std::string> out;
  stats_export_[shard].swap(out);
  return out;
}

obs::HistogramSnapshot ShardRouter::latency_snapshot(std::size_t shard) const {
  return shard < latency_.size() ? latency_[shard]->snapshot()
                                 : obs::HistogramSnapshot{};
}

bool ShardRouter::alive(std::size_t shard) const {
  return shard < alive_.size() && alive_[shard];
}

std::size_t ShardRouter::pending(std::size_t shard) const {
  return shard < pending_.size() ? pending_[shard].size() : 0;
}

std::size_t ShardRouter::inflight(std::size_t shard) const {
  return shard < inflight_.size() ? inflight_[shard].size() : 0;
}

std::size_t ShardRouter::total_pending() const {
  std::size_t total = 0;
  for (const auto& p : pending_) total += p.size();
  return total;
}

std::size_t ShardRouter::depth(std::size_t shard) const {
  if (shard >= pending_.size()) return 0;
  return pending_[shard].size() + inflight_[shard].size();
}

void ShardRouter::unqueue(std::size_t shard, const std::string& token) {
  if (shard >= pending_.size()) return;
  auto& queue = pending_[shard];
  const auto it = std::find(queue.begin(), queue.end(), token);
  if (it != queue.end()) queue.erase(it);
}

bool ShardRouter::shed_for(int incoming_priority,
                           std::vector<std::string>* out) {
  // Victim: the lowest-priority job still waiting in a pending queue —
  // never one in flight or hedged (those hold window slots and may be
  // answered any moment). Ties break toward the newest ordinal: the jobs
  // that waited longest are shed last.
  const Job* victim = nullptr;
  for (const auto& [token, job] : jobs_) {
    if (job.inflight || job.hedge_shard) continue;
    if (victim == nullptr || job.priority < victim->priority ||
        (job.priority == victim->priority && job.ordinal > victim->ordinal)) {
      victim = &job;
    }
  }
  if (victim == nullptr || incoming_priority <= victim->priority) {
    return false;  // nothing ranks below the incoming job: shed IT
  }
  const std::string token = token_for(victim->ordinal);
  auto it = jobs_.find(token);
  Job job = std::move(it->second);
  jobs_.erase(it);
  unqueue(job.shard, token);
  ++stats_.sheds;
  any_error_ = true;
  // The victim WAS accepted, so like an orphan it keeps its place in the
  // global seq order — downstream consumers still see one numbered line
  // per accepted job, contiguous 0..N-1.
  util::JsonWriter err;
  err.field("id", job.display_id)
      .field("error",
             "shed by admission control: displaced by a higher-priority "
             "job past the queue-depth bound")
      .field("delayed", true)
      .field("seq", next_seq_++);
  out->push_back(err.str());
  finished(job.ordinal, out);
  return true;
}

void ShardRouter::finished(std::uint64_t ordinal,
                           std::vector<std::string>* out) {
  for (auto it = drains_.begin(); it != drains_.end();) {
    if (ordinal < it->before && --it->remaining == 0) {
      out->push_back(drained_line(*it));
      it = drains_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string ShardRouter::drained_line(const Drain& drain) const {
  util::JsonWriter ack;
  ack.field("id", drain.id).field("drained", true);
  return ack.str();
}

}  // namespace saim::service
