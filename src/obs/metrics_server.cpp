#include "obs/metrics_server.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <vector>

#include "net/framing.hpp"

namespace saim::obs {

namespace {

constexpr std::size_t kMaxHeadBytes = 16 * 1024;
constexpr std::chrono::milliseconds kPhaseBound{1000};

bool head_complete(const std::string& head) {
  return head.size() >= kMaxHeadBytes ||
         head.find("\r\n\r\n") != std::string::npos ||
         head.find("\n\n") != std::string::npos;
}

}  // namespace

MetricsServer::MetricsServer(net::EventLoop& loop, const std::string& host,
                             int port, std::function<std::string()> producer)
    : loop_(loop), listener_(host, port), producer_(std::move(producer)) {
  net::ignore_sigpipe_once();  // a scraper may vanish mid-response
  loop_.add_fd(listener_.fd(), net::EventLoop::kRead,
               [this](std::uint32_t) { accept_pending(); });
}

MetricsServer::~MetricsServer() {
  loop_.remove_fd(listener_.fd());
  std::vector<int> open;
  for (const auto& [fd, scrape] : scrapes_) open.push_back(fd);
  for (const int fd : open) close(fd);
}

void MetricsServer::accept_pending() {
  while (const auto fd = listener_.accept_fd()) {
    Scrape& scrape = scrapes_[*fd];
    scrape.timer = loop_.add_timer(kPhaseBound,
                                   [this, fd = *fd] { on_deadline(fd); });
    loop_.add_fd(*fd, net::EventLoop::kRead,
                 [this, fd = *fd](std::uint32_t) { on_ready(fd); });
  }
}

void MetricsServer::on_ready(int fd) {
  const auto it = scrapes_.find(fd);
  if (it == scrapes_.end()) return;
  Scrape& scrape = it->second;
  if (scrape.response.empty()) {
    // Read the request head up to its blank line; the request itself is
    // ignored: every GET — whatever the path — scrapes the same payload.
    char buf[1024];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
    if (n > 0) scrape.head.append(buf, static_cast<std::size_t>(n));
    // EOF or an error ends the head too: serve what we can anyway.
    if (n > 0 && !head_complete(scrape.head)) return;
    respond(fd, scrape);
  }
  while (scrape.written < scrape.response.size()) {
    const ssize_t n = ::write(fd, scrape.response.data() + scrape.written,
                              scrape.response.size() - scrape.written);
    if (n > 0) {
      scrape.written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) return;  // write interest brings us back
    break;                                 // peer gone: give up
  }
  close(fd);
}

void MetricsServer::respond(int fd, Scrape& scrape) {
  std::string body;
  const char* status = "200 OK";
  try {
    body = producer_();
  } catch (...) {
    status = "500 Internal Server Error";
    body = "metrics producer failed\n";
  }
  scrape.response = "HTTP/1.0 ";
  scrape.response += status;
  scrape.response +=
      "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n";
  scrape.response += body;
  loop_.set_interest(fd, net::EventLoop::kWrite);
  // The response gets its own bound, like the request head did.
  loop_.cancel_timer(scrape.timer);
  scrape.timer = loop_.add_timer(kPhaseBound, [this, fd] { on_deadline(fd); });
}

void MetricsServer::on_deadline(int fd) {
  const auto it = scrapes_.find(fd);
  if (it == scrapes_.end()) return;
  it->second.timer = 0;  // fired
  if (it->second.response.empty()) {
    respond(fd, it->second);  // a silent scraper still gets an answer
    on_ready(fd);
  } else {
    close(fd);  // the scraper stopped taking the response
  }
}

void MetricsServer::close(int fd) {
  const auto it = scrapes_.find(fd);
  if (it == scrapes_.end()) return;
  if (it->second.timer != 0) loop_.cancel_timer(it->second.timer);
  scrapes_.erase(it);
  loop_.remove_fd(fd);
  ::close(fd);
}

}  // namespace saim::obs
