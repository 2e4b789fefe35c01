// Tests for the observability subsystem (ISSUE 7): histogram bucket
// boundaries, quantile interpolation and snapshot merging; registry
// get-or-create semantics and thread-safety (ASan/TSan-friendly: many
// threads hammer the same names); Prometheus text rendering; and real
// scrapes of the MetricsServer endpoint: every registered series comes
// back, and a silent client holds up no other scrape.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"

namespace saim::obs {
namespace {

// ------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundariesAreLogScale) {
  // Everything at or below the first upper bound (and junk) lands in
  // bucket 0.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMinUpper), 0u);

  // upper(i) = kMinUpper * 2^i, inclusive: an exact power of two is its
  // own bucket's upper bound, one ulp past it rounds up.
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const double upper = Histogram::bucket_upper(i);
    EXPECT_EQ(Histogram::bucket_index(upper), i) << "upper(" << i << ")";
    EXPECT_EQ(Histogram::bucket_index(upper * 1.0001), i + 1);
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::max()),
            Histogram::kBuckets - 1);
}

TEST(Histogram, QuantilesInterpolateInsideTheOwningBucket) {
  Histogram h;
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0) << "empty histogram";

  // 100 observations of 1.5 ms all land in the (1.024, 2.048] bucket;
  // the quantile estimate interpolates linearly across that bucket.
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 150.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1.5);
  const double lower = 1.024, upper = 2.048;
  EXPECT_NEAR(snap.quantile(0.5), lower + (upper - lower) * 0.5, 1e-9);
  EXPECT_NEAR(snap.quantile(1.0), upper, 1e-9);
  EXPECT_GT(snap.quantile(0.95), snap.quantile(0.50));

  // The overflow bucket reports its lower bound, not infinity.
  Histogram over;
  over.observe(1e12);
  EXPECT_DOUBLE_EQ(over.snapshot().quantile(0.99),
                   Histogram::bucket_upper(Histogram::kBuckets - 2));
}

TEST(Histogram, QuantilesAreOrderedOnASpreadDistribution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(0.1 * i);  // 0.1 .. 100 ms
  const auto snap = h.snapshot();
  const double p50 = snap.quantile(0.50);
  const double p95 = snap.quantile(0.95);
  const double p99 = snap.quantile(0.99);
  EXPECT_LT(p50, p95);
  EXPECT_LT(p95, p99);
  // Log-scale buckets bound the relative error at ~2x of the true value.
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 100.0);
  EXPECT_GT(p99, 64.0);
}

TEST(HistogramSnapshot, MergeAddsBucketwise) {
  Histogram a, b;
  for (int i = 0; i < 10; ++i) a.observe(0.5);
  for (int i = 0; i < 30; ++i) b.observe(8.0);
  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 40u);
  EXPECT_DOUBLE_EQ(merged.sum, 10 * 0.5 + 30 * 8.0);
  // 75% of the mass sits in b's bucket, so the median lands there.
  EXPECT_GT(merged.quantile(0.5), 4.0);
  // Merging an empty snapshot is the identity.
  auto copy = merged;
  copy.merge(HistogramSnapshot{});
  EXPECT_EQ(copy.count, merged.count);
  EXPECT_DOUBLE_EQ(copy.quantile(0.9), merged.quantile(0.9));
}

// -------------------------------------------------------------- registry

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("saim_test_total", "help");
  Counter& c2 = registry.counter("saim_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);

  registry.gauge("saim_test_gauge").set(2.5);
  registry.histogram("saim_test_ms").observe(1.0);
  EXPECT_THROW(registry.gauge("saim_test_total"), std::logic_error)
      << "one name, one kind";
  EXPECT_THROW(registry.counter("bad name"), std::invalid_argument);
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("0starts_with_digit"), std::invalid_argument);

  const auto names = registry.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  EXPECT_TRUE(registry.histogram_snapshot("saim_test_ms").has_value());
  EXPECT_FALSE(registry.histogram_snapshot("saim_test_total").has_value())
      << "wrong kind must not get-or-create";
  EXPECT_FALSE(registry.histogram_snapshot("absent").has_value());
}

TEST(MetricsRegistry, ConcurrentRegistrationAndRecordingIsExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread re-looks-up the shared names (locked path) AND
      // records through a pre-registered handle (hot path).
      Counter& counter = registry.counter("saim_shared_total");
      Histogram& hist = registry.histogram("saim_shared_ms");
      Gauge& gauge = registry.gauge("saim_shared_gauge");
      for (int i = 0; i < kOps; ++i) {
        counter.add();
        hist.observe(0.5 + t);
        gauge.set(static_cast<double>(i));
        if (i % 1024 == 0) {
          registry.counter("saim_shared_total").add(0);
          (void)registry.names();
          (void)registry.render_prometheus();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("saim_shared_total").value(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = registry.histogram_snapshot("saim_shared_ms");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, static_cast<std::uint64_t>(kThreads) * kOps);
}

// ------------------------------------------------------------- prom text

TEST(PromText, RenderIsWellFormedExposition) {
  MetricsRegistry registry;
  registry.counter("saim_events_total", "events").add(7);
  registry.gauge("saim_depth", "queue depth").set(3.0);
  for (int i = 0; i < 5; ++i) {
    registry.histogram("saim_wait_ms", "wait").observe(2.0);
  }
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# HELP saim_events_total events"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("saim_events_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("saim_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE saim_wait_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("saim_wait_ms_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("saim_wait_ms_sum 10\n"), std::string::npos);
  EXPECT_NE(text.find("saim_wait_ms_count 5\n"), std::string::npos);
  // Buckets are cumulative: the +Inf bucket equals the count.
  EXPECT_EQ(text.find("# TYPE saim_wait_ms histogram"),
            text.rfind("# TYPE saim_wait_ms histogram"))
      << "one TYPE header per metric";
}

TEST(PromText, LabeledHistogramSeriesShareOneHeader) {
  Histogram h0, h1;
  h0.observe(1.0);
  h1.observe(4.0);
  PromText text;
  text.header("saim_rt_ms", "histogram", "round trip");
  text.histogram_series("saim_rt_ms", "shard=\"0\"", h0.snapshot());
  text.histogram_series("saim_rt_ms", "shard=\"1\"", h1.snapshot());
  const std::string& out = text.str();
  EXPECT_EQ(out.find("# TYPE saim_rt_ms"), out.rfind("# TYPE saim_rt_ms"));
  EXPECT_NE(out.find("saim_rt_ms_bucket{shard=\"0\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("saim_rt_ms_count{shard=\"1\"} 1"), std::string::npos);
}

// -------------------------------------------------------- metrics server

/// One-shot HTTP GET against the endpoint; returns the whole response
/// (headers + body) with lines re-joined by '\n'.
std::string http_get(int port) {
  net::Connection conn = net::connect_to("127.0.0.1", port);
  conn.send_line("GET /metrics HTTP/1.0\r");
  conn.send_line("\r");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (conn.outbound_bytes() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (!conn.pump_writes()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string response;
  while (!conn.eof() && std::chrono::steady_clock::now() < deadline) {
    for (const auto& line : conn.read_lines()) {
      response += line;
      response += "\n";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& line : conn.read_lines()) {
    response += line;
    response += "\n";
  }
  return response;
}

/// A MetricsServer on its own loop thread, as saim_serve runs it.
struct ServedMetrics {
  net::EventLoop loop;
  MetricsServer server;
  std::thread thread;

  explicit ServedMetrics(std::function<std::string()> producer)
      : server(loop, "127.0.0.1", 0, std::move(producer)),
        thread([this] { loop.run(); }) {}
  ServedMetrics(const ServedMetrics&) = delete;
  ServedMetrics& operator=(const ServedMetrics&) = delete;
  ~ServedMetrics() {
    loop.stop();
    thread.join();
  }
  [[nodiscard]] int port() const { return server.port(); }
};

TEST(MetricsServer, ScrapeReturnsEveryRegisteredSeries) {
  MetricsRegistry registry;
  registry.counter("saim_jobs_total", "jobs").add(42);
  registry.gauge("saim_inflight", "inflight").set(1.0);
  registry.histogram("saim_latency_ms", "latency").observe(3.5);

  ServedMetrics server([&registry] { return registry.render_prometheus(); });
  ASSERT_GT(server.port(), 0);

  const std::string response = http_get(server.port());
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  for (const auto& name : registry.names()) {
    EXPECT_NE(response.find(name), std::string::npos)
        << "scrape must return series '" << name << "'";
  }
  EXPECT_NE(response.find("saim_jobs_total 42"), std::string::npos);

  // The endpoint is one-shot per connection but serves any number of
  // connections; a second scrape sees updated values.
  registry.counter("saim_jobs_total").add(1);
  EXPECT_NE(http_get(server.port()).find("saim_jobs_total 43"),
            std::string::npos);
}

TEST(MetricsServer, ProducerFailureIsA500NotACrash) {
  ServedMetrics server([]() -> std::string {
    throw std::runtime_error("boom");
  });
  const std::string response = http_get(server.port());
  EXPECT_NE(response.find("500"), std::string::npos) << response;
  EXPECT_NE(response.find("metrics producer failed"), std::string::npos);
}

TEST(MetricsServer, StalledScraperDoesNotHoldUpTheNextOne) {
  ServedMetrics server([] { return std::string("saim_up 1\n"); });
  // The first client connects and never sends its request head.
  net::Connection silent = net::connect_to("127.0.0.1", server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto start = std::chrono::steady_clock::now();
  const std::string response = http_get(server.port());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("saim_up 1"), std::string::npos) << response;
  EXPECT_LT(elapsed, std::chrono::milliseconds(300))
      << "the second scrape queued behind the silent client";

  // The silent client is still bounded: after its 1 s it is answered
  // with whatever it sent (nothing) and closed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string late;
  while (!silent.eof() && std::chrono::steady_clock::now() < deadline) {
    for (const auto& line : silent.read_lines()) late += line + "\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(silent.eof());
  EXPECT_NE(late.find("200 OK"), std::string::npos) << late;
}

}  // namespace
}  // namespace saim::obs
