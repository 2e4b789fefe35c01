#include "service/service_stats.hpp"

#include <utility>

#include "util/jsonl.hpp"

namespace saim::service {

namespace {

/// The per-stage latency histograms a service registers (solve_service
/// constructor) plus the serving layer's emit delay (stream_session).
/// Rendered under these short keys in the "latency" object.
constexpr std::pair<const char*, const char*> kLatencyStages[] = {
    {"queue_ms", "saim_job_queue_ms"},
    {"setup_ms", "saim_job_setup_ms"},
    {"solve_ms", "saim_job_solve_ms"},
    {"total_ms", "saim_job_total_ms"},
    {"emit_ms", "saim_emit_ms"},
};

}  // namespace

std::string latency_quantiles_json(const obs::HistogramSnapshot& snap) {
  util::JsonWriter json;
  json.field("count", snap.count)
      .field("mean_ms", snap.mean())
      .field("p50_ms", snap.quantile(0.50))
      .field("p95_ms", snap.quantile(0.95))
      .field("p99_ms", snap.quantile(0.99));
  return json.str();
}

std::string service_stats_json(const SolveService& service) {
  const SolveService::Stats s = service.stats();

  util::JsonWriter cache;
  cache.field("hits", s.cache.hits)
      .field("misses", s.cache.misses)
      .field("hit_rate", s.cache.hit_rate())
      .field("insertions", s.cache.insertions)
      .field("evictions", s.cache.evictions)
      .field("size", static_cast<std::uint64_t>(service.cache_size()))
      .field("warm_hits", s.cache.warm_hits)
      .field("warm_misses", s.cache.warm_misses)
      .field("warm_inserts", s.cache.warm_inserts)
      .field("warm_pool_size",
             static_cast<std::uint64_t>(service.warm_pool_size()));

  util::JsonWriter latency;
  for (const auto& [key, metric] : kLatencyStages) {
    if (const auto snap = service.metrics().histogram_snapshot(metric)) {
      latency.raw_field(key, latency_quantiles_json(*snap));
    }
  }

  util::JsonWriter json;
  json.field("submitted", s.submitted)
      .field("executed", s.executed)
      .field("completed", s.completed)
      .field("cancelled", s.cancelled)
      .field("deadline_expired", s.deadline_expired)
      .field("errors", s.errors)
      .field("coalesced", s.coalesced)
      .field("batches", s.batches)
      .field("batched_jobs", s.batched_jobs)
      .field("warm_seeded", s.warm_seeded)
      .field("workers", static_cast<std::uint64_t>(service.worker_count()))
      .raw_field("cache", cache.str())
      .raw_field("latency", latency.str());

  // Front-door state, present only when a listen server registered its
  // connection metrics — a plain stdin/stdout run has no front door and
  // no "connections" object.
  const obs::MetricsRegistry& registry = service.metrics();
  if (const auto accepted =
          registry.counter_value("saim_connections_accepted_total")) {
    util::JsonWriter connections;
    connections
        .field("open",
               static_cast<std::uint64_t>(
                   registry.gauge_value("saim_connections_open").value_or(0)))
        .field("accepted", *accepted)
        .field("rejected",
               registry.counter_value("saim_connections_rejected_total")
                   .value_or(0))
        .field("timed_out",
               registry.counter_value("saim_sessions_timed_out_total")
                   .value_or(0));
    json.raw_field("connections", connections.str());
  }
  return json.str();
}

std::string service_metrics_prometheus(const SolveService& service) {
  const SolveService::Stats s = service.stats();

  obs::PromText text;
  const auto counter = [&](const char* name, std::uint64_t value,
                           const char* help) {
    text.header(name, "counter", help);
    text.series(name, {}, value);
  };
  const auto gauge = [&](const char* name, double value, const char* help) {
    text.header(name, "gauge", help);
    text.series(name, {}, value);
  };

  counter("saim_jobs_submitted_total", s.submitted, "jobs accepted by submit");
  counter("saim_jobs_executed_total", s.executed,
          "solves actually run on a worker");
  counter("saim_jobs_completed_total", s.completed,
          "executed jobs finishing with status completed");
  counter("saim_jobs_cancelled_total", s.cancelled, "jobs cancelled");
  counter("saim_jobs_deadline_expired_total", s.deadline_expired,
          "jobs stopped by their deadline");
  counter("saim_jobs_errors_total", s.errors, "jobs failing with an error");
  counter("saim_jobs_coalesced_total", s.coalesced,
          "submits joined onto an in-flight twin");
  counter("saim_batches_total", s.batches,
          "same-instance batch executions with >= 2 members");
  counter("saim_batched_jobs_total", s.batched_jobs,
          "jobs executed as members of those batches");
  counter("saim_warm_seeded_total", s.warm_seeded,
          "jobs seeded from the warm-start pool");
  counter("saim_cache_hits_total", s.cache.hits, "result cache hits");
  counter("saim_cache_misses_total", s.cache.misses, "result cache misses");
  counter("saim_cache_insertions_total", s.cache.insertions,
          "result cache insertions");
  counter("saim_cache_evictions_total", s.cache.evictions,
          "result cache evictions");
  counter("saim_warm_pool_hits_total", s.cache.warm_hits,
          "warm-pool lookups returning samples");
  counter("saim_warm_pool_misses_total", s.cache.warm_misses,
          "warm-pool lookups finding nothing pooled");
  counter("saim_warm_pool_inserts_total", s.cache.warm_inserts,
          "samples accepted into the warm pool");
  gauge("saim_cache_size", static_cast<double>(service.cache_size()),
        "result cache entries right now");
  gauge("saim_warm_pool_size", static_cast<double>(service.warm_pool_size()),
        "problems tracked by the warm-start pool right now");
  gauge("saim_workers", static_cast<double>(service.worker_count()),
        "solver worker threads");

  // The registry carries the latency histograms (and anything the serving
  // layer registered alongside); its names never collide with the derived
  // series above, so plain concatenation is a well-formed exposition.
  return text.str() + service.metrics().render_prometheus();
}

}  // namespace saim::service
