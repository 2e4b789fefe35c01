#include "service/stream_session.hpp"

#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <istream>
#include <ostream>
#include <thread>

#include "core/report.hpp"
#include "service/job_parser.hpp"
#include "service/service_stats.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace saim::service {

// ----------------------------------------------------------- warm payload

std::string warm_pool_to_json(
    const std::vector<ResultCache::WarmSnapshot>& pool) {
  std::string json = "{";
  bool first_problem = true;
  for (const auto& entry : pool) {
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof fp_hex, "%016" PRIx64, entry.problem_fp);
    if (!first_problem) json += ",";
    first_problem = false;
    json += "\"";
    json += fp_hex;
    json += "\":[";
    bool first_sample = true;
    for (const auto& [cost, bits] : entry.samples) {
      std::string bit_string(bits.size(), '0');
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) bit_string[i] = '1';
      }
      util::JsonWriter sample;
      sample.field("cost", cost).field("bits", bit_string);
      if (!first_sample) json += ",";
      first_sample = false;
      json += sample.str();
    }
    json += "]";
  }
  json += "}";
  return json;
}

std::optional<std::uint64_t> parse_fp_hex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

std::size_t import_warm_json(SolveService& service,
                             const util::JsonValue& warm) {
  if (!warm.is_object()) {
    throw std::runtime_error("\"warm\" must be an object");
  }
  std::size_t imported = 0;
  for (const auto& [fp_hex, samples] : warm.object()) {
    const auto fp = parse_fp_hex(fp_hex);
    if (!fp) {
      throw std::runtime_error("bad warm fingerprint \"" + fp_hex + "\"");
    }
    if (!samples.is_array()) {
      throw std::runtime_error("warm entry \"" + fp_hex +
                               "\" must be an array");
    }
    for (const auto& sample : samples.array()) {
      const auto* cost = sample.find("cost");
      const auto* bits = sample.find("bits");
      if (!cost || !cost->is_number() || !bits || !bits->is_string()) {
        throw std::runtime_error("warm sample needs \"cost\" and \"bits\"");
      }
      const std::string& bit_string = bits->as_string();
      ising::Bits config(bit_string.size(), 0);
      for (std::size_t i = 0; i < bit_string.size(); ++i) {
        if (bit_string[i] == '1') {
          config[i] = 1;
        } else if (bit_string[i] != '0') {
          throw std::runtime_error("warm \"bits\" must be 0/1 characters");
        }
      }
      service.import_warm_sample(*fp, config, cost->as_double());
      ++imported;
    }
  }
  return imported;
}

// -------------------------------------------------------------- core

namespace {

struct PendingJob {
  std::string id;
  std::string instance;
  std::string backend;
  JobHandle handle;
  std::string error;   ///< submission-time failure; handle invalid
  bool trace = false;  ///< echo the "timing" object on the result line
  bool drain = false;  ///< {"cmd":"drain"} barrier, not a job
  bool bye = false;    ///< {"cmd":"shutdown"} farewell barrier
  bool export_warm = false;  ///< {"cmd":"export_warm"} snapshot barrier

  [[nodiscard]] bool barrier() const { return drain || bye || export_warm; }
};

}  // namespace

/// State shared between whoever feeds lines and whoever polls emissions
/// — two threads in the stdin loop (reader + emitter), one thread in
/// the event server (the lock is then uncontended). A named struct so
/// the guarded members can carry thread-safety annotations.
struct StreamSessionCore::Impl {
  SolveService& service;
  const SessionOptions options;
  const std::function<void()> wake;
  /// Registered on the service's registry (get-or-create: sessions share
  /// one series) so emit delay rolls up with the solver-side stage
  /// histograms in stats snapshots and metrics scrapes.
  obs::Histogram& emit_hist;

  mutable util::Mutex mutex;
  /// Accepted-but-unemitted entries in input order. Rendered entries
  /// leave at once: their JobHandle (and the result it pins) is released
  /// as soon as its line exists.
  std::deque<PendingJob> pending SAIM_GUARDED_BY(mutex);
  bool input_done SAIM_GUARDED_BY(mutex) = false;
  std::int64_t next_seq SAIM_GUARDED_BY(mutex) = 0;
  SessionResult session_result SAIM_GUARDED_BY(mutex);

  /// Touched only by the single line feeder — never concurrently.
  std::size_t line_no = 0;
  bool intake_stopped = false;

  Impl(SolveService& svc, const SessionOptions& opts,
       std::function<void()> wake_fn)
      : service(svc),
        options(opts),
        wake(std::move(wake_fn)),
        emit_hist(svc.metrics().histogram(
            "saim_emit_ms",
            "response ready to result line written, milliseconds")) {}

  /// The entry's line if it can emit now (a barrier is asked only once
  /// nothing before it is pending), else std::nullopt.
  std::optional<std::string> try_render(const PendingJob& job)
      SAIM_REQUIRES(mutex);
  std::string render(const PendingJob& job, const SolveResponse* response)
      SAIM_REQUIRES(mutex);
  std::string render_barrier(const PendingJob& job) SAIM_REQUIRES(mutex);
};

std::optional<std::string> StreamSessionCore::Impl::try_render(
    const PendingJob& job) {
  if (job.barrier()) return render_barrier(job);
  if (!job.handle.valid()) return render(job, nullptr);
  const auto response = job.handle.try_get();
  if (!response) return std::nullopt;
  return render(job, response.get());
}

// Renders the result/error line for a FINISHED job (`response` is null
// for a line rejected at submission). In stream mode, lines for ACCEPTED
// jobs carry the emission sequence number; lines rejected at submission
// never consume one (the global completion order counts real jobs
// only). In batch mode results print after EOF in input order, without
// seq.
std::string StreamSessionCore::Impl::render(const PendingJob& job,
                                            const SolveResponse* response) {
  if (response == nullptr) {
    session_result.any_error = true;
    util::JsonWriter err;
    err.field("id", job.id).field("error", job.error);
    return err.take();
  }
  const std::int64_t seq = options.stream ? next_seq++ : -1;
  // Completion-to-emission delay, recorded for every rendered job (a
  // responsive emitter is a property of the SESSION, not of traced
  // jobs). Epoch finished_at = response built outside the service.
  double emit_ms = 0.0;
  if (response->finished_at != std::chrono::steady_clock::time_point{}) {
    emit_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - response->finished_at)
                  .count();
    emit_hist.observe(emit_ms);
  }
  if (response->status == core::Status::kError) {
    session_result.any_error = true;
    util::JsonWriter err;
    err.field("id", job.id).field("error", response->error);
    if (seq >= 0) err.field("seq", seq);
    return err.take();
  }
  core::JsonlContext context;
  context.id = job.id;
  context.instance = job.instance;
  context.backend = job.backend;
  context.wall_ms = response->wall_ms;
  context.cache_hit = response->cache_hit;
  context.fingerprint = response->fingerprint;
  context.batch_size = response->batch_size;
  context.warm_started = response->warm_started;
  if (job.trace) {
    context.trace = true;
    context.queue_ms = response->timing.queue_ms;
    context.setup_ms = response->timing.setup_ms;
    context.solve_ms = response->timing.solve_ms;
    context.emit_ms = emit_ms;
    context.total_ms = response->timing.total_ms;
  }
  context.seq = seq;
  return core::result_to_jsonl(*response->result, context);
}

// A barrier's acknowledgement line (no seq: control lines never consume
// completion-order numbers). drain says "drained", shutdown says "bye",
// export_warm snapshots the pool — at barrier time, so every feasible
// job accepted before it has already deposited its samples.
std::string StreamSessionCore::Impl::render_barrier(const PendingJob& job) {
  util::JsonWriter ack;
  ack.field("id", job.id);
  if (job.bye) {
    ack.field("bye", true);
  } else if (job.export_warm) {
    ack.raw_field("warm", warm_pool_to_json(service.export_warm_pool()));
  } else {
    ack.field("drained", true);
  }
  return ack.take();
}

StreamSessionCore::StreamSessionCore(SolveService& service,
                                     const SessionOptions& options,
                                     std::function<void()> wake)
    : impl_(std::make_unique<Impl>(service, options, std::move(wake))) {}

StreamSessionCore::~StreamSessionCore() = default;

bool StreamSessionCore::on_line(const std::string& line,
                                std::vector<std::string>& replies) {
  Impl& im = *impl_;
  if (im.intake_stopped) return false;
  ++im.line_no;
  if (line.find_first_not_of(" \t\r") == std::string::npos) return true;
  PendingJob pending;
  pending.id = "job" + std::to_string(im.line_no);
  bool stop_reading = false;
  try {
    const util::JsonValue parsed = util::parse_json(line);
    // Use the line's own id everywhere — result lines, error lines,
    // control acknowledgements — falling back to the line number.
    if (const auto* id = parsed.find("id")) {
      if (!id->as_string().empty()) pending.id = id->as_string();
    }
    if (const auto cmd = control_cmd(parsed)) {
      if (*cmd == "ping") {
        // Liveness probe: answered immediately, even in batch mode and
        // even while every worker is busy (submission never blocks).
        // "inflight" counts THIS session's accepted-but-unemitted jobs
        // — rejected lines and barriers are not load.
        std::size_t inflight = 0;
        {
          util::MutexLock lock(im.mutex);
          for (const PendingJob& job : im.pending) {
            if (job.handle.valid()) ++inflight;
          }
        }
        util::JsonWriter pong;
        pong.field("id", pending.id)
            .field("pong", true)
            .field("inflight", static_cast<std::uint64_t>(inflight));
        replies.push_back(pong.take());
        return true;
      }
      if (*cmd == "stats") {
        // Snapshot, not a barrier: answered immediately with the
        // service's CURRENT counters and latency quantiles, like ping.
        // (saim_shard intercepts this cmd at the front door and
        // aggregates the whole fleet instead.)
        util::JsonWriter reply;
        reply.field("id", pending.id)
            .raw_field("service", service_stats_json(im.service));
        replies.push_back(reply.take());
        return true;
      }
      if (*cmd == "import_warm") {
        const auto* warm = parsed.find("warm");
        if (!warm) throw std::runtime_error("import_warm needs \"warm\"");
        const std::size_t imported = import_warm_json(im.service, *warm);
        util::JsonWriter reply;
        reply.field("id", pending.id)
            .field("imported", static_cast<std::uint64_t>(imported));
        replies.push_back(reply.take());
        return true;
      }
      if (*cmd == "reshard") {
        throw std::runtime_error(
            "control cmd \"reshard\" is only handled by the saim_shard "
            "front door");
      }
      if (*cmd == "shutdown") {
        // Farewell barrier: intake stops NOW; everything accepted
        // before it drains, then {"bye":true} ends the session.
        pending.bye = true;
        stop_reading = true;
        util::MutexLock lock(im.mutex);
        im.session_result.shutdown = true;
      } else if (*cmd == "export_warm") {
        // Snapshot barrier: replied once every job accepted before it
        // has emitted — their feasible samples are then in the pool,
        // so a handoff export never under-reports in-flight work.
        pending.export_warm = true;
      } else {
        pending.drain = true;  // barrier; acknowledged by the emitter
      }
    } else {
      ParsedJob job = parse_job(parsed, im.options.warm_default);
      job.request.tag = pending.id;
      pending.instance = job.instance;
      pending.backend = job.request.backend.name;
      pending.trace = job.request.trace;
      pending.handle = im.service.submit(std::move(job.request));
    }
  } catch (const std::exception& e) {
    pending.error = e.what();
  }
  {
    // Uncontended without a concurrent emitter (the event server), so
    // one always-locked push keeps the paths identical. The completion
    // callback is registered only once the entry is visible to
    // poll_emittable — a wake that fired earlier could find nothing to
    // emit and never come again. Entries that are not jobs may be
    // emittable right away.
    util::MutexLock lock(im.mutex);
    im.pending.push_back(std::move(pending));
    if (JobHandle& handle = im.pending.back().handle; handle.valid()) {
      handle.on_complete(im.wake);
    } else {
      im.wake();
    }
  }
  if (stop_reading) {
    im.intake_stopped = true;
    return false;
  }
  return true;
}

void StreamSessionCore::finish_input() {
  util::MutexLock lock(impl_->mutex);
  impl_->input_done = true;
  impl_->wake();  // batch output may start; drained() may flip
}

// A stream-mode pass renders every finished entry with non-blocking
// try_get and keeps the rest in order. A drain/shutdown barrier emits
// only once every entry before it has — jobs after it may still
// overtake it, matching the contract that "drained" certifies the PAST,
// not the future.
//
// The pass is a hand-written compaction loop rather than erase_if: the
// analysis treats a lambda body as its own (lock-free) function, so a
// predicate touching `pending` could not be checked against the lock
// held out here.
bool StreamSessionCore::poll_emittable(std::vector<std::string>& out) {
  Impl& im = *impl_;
  util::MutexLock lock(im.mutex);
  if (im.options.stream) {
    bool blocked = false;  // an earlier entry is still unfinished
    std::size_t kept = 0;
    for (std::size_t n = 0; n < im.pending.size(); ++n) {
      PendingJob& job = im.pending[n];
      std::optional<std::string> line;
      if (!blocked || !job.barrier()) line = im.try_render(job);
      if (line) {
        out.push_back(std::move(*line));
        continue;
      }
      blocked = true;
      if (kept != n) im.pending[kept] = std::move(job);
      ++kept;
    }
    im.pending.resize(kept);
  } else if (im.input_done) {
    // Batch contract: nothing emits before EOF; afterwards, input order.
    // Render the maximal finished prefix; the rest waits for a later
    // wake.
    while (!im.pending.empty()) {
      auto line = im.try_render(im.pending.front());
      if (!line) break;
      out.push_back(std::move(*line));
      im.pending.pop_front();
    }
  }
  return im.input_done && im.pending.empty();
}

bool StreamSessionCore::drained() const {
  util::MutexLock lock(impl_->mutex);
  return impl_->input_done && impl_->pending.empty();
}

std::size_t StreamSessionCore::unemitted_count() const {
  util::MutexLock lock(impl_->mutex);
  return impl_->pending.size();
}

SessionResult StreamSessionCore::result() const {
  util::MutexLock lock(impl_->mutex);
  return impl_->session_result;
}

// -------------------------------------------------------------- session

SessionResult run_stream_session(SolveService& service, std::istream& in,
                                 std::ostream& out,
                                 const SessionOptions& options) {
  // The emitter sleeps until the core wakes it: a job finished, an
  // immediate line was queued, or input ended.
  util::Mutex wake_mutex;
  std::condition_variable wake_cv;
  bool woken = false;  ///< guarded by wake_mutex
  StreamSessionCore core(service, options, [&] {
    {
      util::MutexLock lock(wake_mutex);
      woken = true;
    }
    wake_cv.notify_one();
  });
  util::Mutex out_mutex;  ///< serializes `out` between emitter and replies

  // Results are written from a dedicated thread so completions surface
  // the moment they happen — even while the main thread is blocked
  // reading a slow producer (a request-response coprocess can keep the
  // pipe open and still read results). Renders happen under the core's
  // lock but WRITES happen outside it (a slow result consumer never
  // stalls submission); the thread exits once input is done and
  // everything is emitted. poll_emittable computes "drained" inside the
  // same critical section as its pass, so a final job pushed before
  // finish_input can never be skipped.
  std::thread emitter([&] {
    for (;;) {
      {
        util::MutexLock lock(wake_mutex);
        while (!woken) wake_cv.wait(lock.native());
        woken = false;
      }
      std::vector<std::string> lines;
      const bool done = core.poll_emittable(lines);
      if (!lines.empty()) {
        util::MutexLock lock(out_mutex);
        for (const auto& l : lines) out << l << '\n';
        if (options.stream) out.flush();
      }
      if (done) return;
    }
  });

  std::string line;
  std::vector<std::string> replies;
  while (std::getline(in, line)) {
    replies.clear();
    const bool keep_reading = core.on_line(line, replies);
    if (!replies.empty()) {
      util::MutexLock lock(out_mutex);
      for (const auto& r : replies) out << r << '\n';
      out.flush();  // a probe's whole point is promptness
    }
    if (!keep_reading) break;
  }
  core.finish_input();
  emitter.join();  // drains every remaining completion, then exits
  out.flush();     // batch mode: one flush for the whole run
  return core.result();
}

}  // namespace saim::service
