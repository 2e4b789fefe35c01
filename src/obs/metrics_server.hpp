// MetricsServer — the scrape-able `--metrics host:port` endpoint.
//
// Registers a net::Listener on the caller's net::EventLoop and serves
// each accepted connection one-shot, HTTP-ish: read the request head
// (ignored beyond framing — every path scrapes the same payload), write
// an HTTP/1.0 response carrying the producer's Prometheus text
// exposition, close. That is exactly what `curl` and a Prometheus
// scraper need and nothing more: no keep-alive, no routing, no TLS — the
// endpoint binds loopback by default and trusts its network like the job
// port does.
//
// Every connection is non-blocking and bounded: the head is capped at
// 16 KiB, and a scraper gets 1 s to send it (after which whatever arrived
// is answered anyway) and 1 s more to take the response before it is
// dropped. A stalled scraper therefore holds up neither other scrapes nor
// anything else the loop serves.
//
// The producer runs ON THE LOOP THREAD when a head is complete. A
// single-threaded owner (saim_shard's router and supervisor) renders its
// own state directly; saim_serve runs this server's loop on a thread of
// its own, so its producer must be thread-safe (the SolveService stats
// and registry are atomic).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "net/listener.hpp"

namespace saim::obs {

class MetricsServer {
 public:
  /// Binds and registers on `loop`, which must outlive the server.
  /// Throws std::runtime_error on bind failure (net::Listener's
  /// diagnostics). Port 0 picks an ephemeral port; port() reports the
  /// bound one. Call from the loop thread (or before it runs).
  MetricsServer(net::EventLoop& loop, const std::string& host, int port,
                std::function<std::string()> producer);
  /// Deregisters and closes every connection; loop thread only.
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  [[nodiscard]] int port() const noexcept { return listener_.port(); }

 private:
  struct Scrape {
    std::string head;
    std::string response;  ///< empty while the head is still arriving
    std::size_t written = 0;
    std::uint64_t timer = 0;
  };

  void accept_pending();
  void on_ready(int fd);
  /// Renders the response and switches `fd` from reading to writing.
  void respond(int fd, Scrape& scrape);
  void on_deadline(int fd);
  void close(int fd);

  net::EventLoop& loop_;
  net::Listener listener_;
  std::function<std::string()> producer_;
  std::unordered_map<int, Scrape> scrapes_;
};

}  // namespace saim::obs
