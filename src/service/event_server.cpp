#include "service/event_server.hpp"

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "net/connection.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace saim::service {

namespace {

/// The auth handshake line cap: a peer that streams an endless first
/// "line" is cut off, not buffered.
constexpr std::size_t kMaxAuthLineBytes = 4096;

/// Poll timeout: only the auth, idle and shutdown-grace deadlines need
/// the clock; completions and socket events interrupt the wait.
constexpr int kHousekeepingTickMs = 100;

/// Exactly {"auth":"<token>"} — wrong token, no auth field, malformed
/// JSON all fail closed.
bool auth_line_ok(const std::string& line, const std::string& token) {
  try {
    const util::JsonValue parsed = util::parse_json(line);
    if (!parsed.is_object()) return false;
    const auto* auth = parsed.find("auth");
    return auth != nullptr && auth->as_string() == token;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

struct EventServer::Client {
  std::uint64_t serial = 0;
  net::Connection conn;
  /// Null while the auth handshake is outstanding: an unauthenticated
  /// peer never reaches the parser or the service.
  std::unique_ptr<StreamSessionCore> core;
  /// Read-but-not-yet-fed lines. Non-empty only under backpressure: the
  /// feed stops the moment the outbound queue passes the limit, so one
  /// read burst cannot amplify into an unbounded reply queue.
  std::deque<std::string> pending_lines;
  bool awaiting_auth = false;
  bool input_closed = false;
  bool reading_paused = false;
  bool kill = false;  ///< condemned (auth failure, flood); close ASAP
  std::chrono::steady_clock::time_point accepted_at;
  std::chrono::steady_clock::time_point last_activity;
};

EventServer::EventServer(SolveService& service, EventServerOptions options)
    : service_(service),
      options_(std::move(options)),
      listener_(options_.host, options_.port),
      loop_(options_.force_poll),
      accepted_metric_(service.metrics().counter(
          "saim_connections_accepted_total",
          "connections accepted by the listen server")),
      rejected_metric_(service.metrics().counter(
          "saim_connections_rejected_total",
          "connections closed unserved: over the connection cap")),
      timed_out_metric_(service.metrics().counter(
          "saim_sessions_timed_out_total",
          "connections dropped by the auth or idle deadline")),
      open_metric_(service.metrics().gauge(
          "saim_connections_open", "connections open right now")) {}

EventServer::~EventServer() = default;

EventServer::Counters EventServer::counters() const {
  Counters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.timed_out = timed_out_.load(std::memory_order_relaxed);
  c.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
  c.open = static_cast<std::uint64_t>(open_metric_.value());
  return c;
}

void EventServer::stop() {
  stop_requested_.store(true);
  loop_.wakeup();
}

int EventServer::run() {
  loop_.add_fd(listener_.fd(), net::EventLoop::kRead,
               [this](std::uint32_t) { accept_pending(); });
  while (!done_) {
    loop_.run_once(kHousekeepingTickMs);
    if (stop_requested_.exchange(false)) begin_shutdown();
    serve_ready();
    housekeeping();
  }
  return any_error_ ? 1 : 0;
}

void EventServer::start_session(Client& client) {
  const std::uint64_t serial = client.serial;
  client.core = std::make_unique<StreamSessionCore>(
      service_, options_.session, [this, serial] {
        {
          util::MutexLock lock(ready_mutex_);
          ready_.push_back(serial);
        }
        loop_.wakeup();
      });
}

void EventServer::serve_ready() {
  std::vector<std::uint64_t> serials;
  {
    util::MutexLock lock(ready_mutex_);
    serials.swap(ready_);
  }
  // One pass per woken client, however many of its jobs finished.
  std::sort(serials.begin(), serials.end());
  serials.erase(std::unique(serials.begin(), serials.end()), serials.end());
  for (const std::uint64_t serial : serials) {
    // Closed already (its job finished after the peer left): no-op.
    const auto it = clients_.find(serial);
    if (it == clients_.end()) continue;
    Client& client = *it->second;
    std::vector<std::string> lines;
    client.core->poll_emittable(lines);
    for (auto& line : lines) client.conn.send_line(std::move(line));
    update_client(client);  // may destroy the client
  }
}

void EventServer::accept_pending() {
  while (const auto fd = listener_.accept_fd()) {
    if (clients_.size() >= options_.max_connections) {
      // Fail fast: nothing is written, the service never hears about
      // it, the peer reads EOF. A queue here would just convert the
      // overload into latency for everyone already connected.
      ::close(*fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_metric_.add();
      util::log_warn() << "saim_serve: rejected connection (cap "
                       << options_.max_connections << " reached)";
      continue;
    }
    auto client = std::make_unique<Client>();
    const std::uint64_t serial = ++next_serial_;
    client->serial = serial;
    client->conn = net::Connection(*fd);
    client->awaiting_auth = !options_.auth_token.empty();
    if (!client->awaiting_auth) start_session(*client);
    client->accepted_at = std::chrono::steady_clock::now();
    client->last_activity = client->accepted_at;
    clients_.emplace(serial, std::move(client));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    accepted_metric_.add();
    open_metric_.set(static_cast<double>(clients_.size()));
    loop_.add_fd(*fd, net::EventLoop::kRead,
                 [this, serial](std::uint32_t ready) {
                   on_client_event(serial, ready);
                 });
  }
}

void EventServer::on_client_event(std::uint64_t serial, std::uint32_t ready) {
  const auto it = clients_.find(serial);
  if (it == clients_.end()) return;
  Client& client = *it->second;
  if (ready & net::EventLoop::kWrite) client.conn.pump_writes();
  if (ready & (net::EventLoop::kRead | net::EventLoop::kError)) {
    read_client(client);
  }
  update_client(client);
}

void EventServer::read_client(Client& client) {
  auto lines = client.conn.read_lines();
  if (client.input_closed) return;  // intake over; reads only detect EOF
  if (!lines.empty()) {
    client.last_activity = std::chrono::steady_clock::now();
    for (auto& line : lines) client.pending_lines.push_back(std::move(line));
  }
  if (client.awaiting_auth &&
      client.conn.inbound_partial_bytes() > kMaxAuthLineBytes) {
    util::log_warn() << "saim_serve: closed unauthenticated connection";
    client.kill = true;
    return;
  }
  process_pending_lines(client);
}

void EventServer::process_pending_lines(Client& client) {
  if (client.input_closed) {
    client.pending_lines.clear();
    return;
  }
  while (!client.pending_lines.empty() && !client.kill &&
         client.conn.outbound_bytes() <= options_.outbound_limit_bytes) {
    const std::string line = std::move(client.pending_lines.front());
    client.pending_lines.pop_front();
    if (client.awaiting_auth) {
      if (line.size() > kMaxAuthLineBytes ||
          !auth_line_ok(line, options_.auth_token)) {
        // Closed before any job line reaches the parser, the service,
        // or the filesystem.
        util::log_warn() << "saim_serve: closed unauthenticated connection";
        client.kill = true;
        return;
      }
      client.awaiting_auth = false;
      start_session(client);
      continue;
    }
    std::vector<std::string> replies;
    const bool keep_reading = client.core->on_line(line, replies);
    for (auto& reply : replies) client.conn.send_line(std::move(reply));
    if (!keep_reading) {
      // {"cmd":"shutdown"}: this session's intake is over (its bye
      // barrier drains once everything before it has), and the whole
      // server begins the graceful stop.
      client.input_closed = true;
      client.pending_lines.clear();
      client.core->finish_input();
      begin_shutdown();
      return;
    }
  }
  if (client.conn.eof() && client.pending_lines.empty() &&
      !client.input_closed) {
    client.input_closed = true;
    if (client.core) client.core->finish_input();
  }
}

bool EventServer::update_client(Client& client) {
  client.conn.pump_writes();
  if (client.kill || client.conn.broken()) {
    close_client(client);
    return false;
  }
  // Resuming from backpressure: feed the lines parked while the queue
  // was over the limit (this may push it back over — the loop in
  // process_pending_lines stops again, and reading stays paused).
  if (!client.pending_lines.empty() &&
      client.conn.outbound_bytes() <= options_.outbound_limit_bytes / 2) {
    process_pending_lines(client);
    if (client.kill) {
      close_client(client);
      return false;
    }
  }
  const std::size_t outbound = client.conn.outbound_bytes();
  const bool want_pause =
      outbound > options_.outbound_limit_bytes ||
      !client.pending_lines.empty();
  if (want_pause && !client.reading_paused) {
    client.reading_paused = true;
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  } else if (!want_pause && client.reading_paused) {
    client.reading_paused = false;
  }
  const bool session_drained = !client.core || client.core->drained();
  if (client.input_closed && session_drained && outbound == 0) {
    close_client(client);
    return false;
  }
  if (client.conn.eof() && client.awaiting_auth) {
    close_client(client);  // peer gone before the handshake
    return false;
  }
  std::uint32_t interest = 0;
  if (!client.reading_paused && !client.input_closed &&
      !client.conn.eof()) {
    interest |= net::EventLoop::kRead;
  }
  if (outbound > 0) interest |= net::EventLoop::kWrite;
  loop_.set_interest(client.conn.fd(), interest);
  return true;
}

void EventServer::housekeeping() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> expired;
  for (const auto& [serial, client_ptr] : clients_) {
    const Client& client = *client_ptr;
    if (client.awaiting_auth && options_.auth_timeout_ms > 0 &&
        now - client.accepted_at >
            std::chrono::milliseconds(options_.auth_timeout_ms)) {
      util::log_warn()
          << "saim_serve: dropped connection (no auth within "
          << options_.auth_timeout_ms << " ms)";
      expired.push_back(serial);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && !client.input_closed &&
        client.conn.outbound_bytes() == 0 &&
        (!client.core || client.core->unemitted_count() == 0) &&
        now - client.last_activity >
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
      util::log_warn() << "saim_serve: dropped idle connection ("
                       << options_.idle_timeout_ms << " ms)";
      expired.push_back(serial);
    }
  }
  for (const std::uint64_t serial : expired) {
    const auto it = clients_.find(serial);
    if (it == clients_.end()) continue;
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    timed_out_metric_.add();
    close_client(*it->second);
  }
  if (stopping_ && now >= grace_deadline_ && !clients_.empty()) {
    // Grace over: whatever is still here was blocked on a client that
    // stopped reading — its remaining output is forfeit (that client
    // was not consuming it anyway).
    while (!clients_.empty()) close_client(*clients_.begin()->second);
  }
  if (stopping_ && clients_.empty()) done_ = true;
}

void EventServer::begin_shutdown() {
  if (stopping_) return;
  stopping_ = true;
  grace_deadline_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  loop_.remove_fd(listener_.fd());
  listener_.close();
  // Stop intake everywhere: accepted work still drains out over the
  // intact write side.
  for (auto it = clients_.begin(); it != clients_.end();) {
    Client& client = *(it++)->second;  // advance first: may close below
    if (client.input_closed) continue;
    client.input_closed = true;
    client.pending_lines.clear();
    if (client.core) {
      client.core->finish_input();  // wakes: the session drains out
    } else {
      close_client(client);  // unauthenticated: nothing to drain
    }
  }
}

void EventServer::close_client(Client& client) {
  if (client.core && client.core->result().any_error) any_error_ = true;
  loop_.remove_fd(client.conn.fd());
  // Destroys `client` — its session withdraws every pending completion
  // callback — do not touch it past here.
  clients_.erase(client.serial);
  open_metric_.set(static_cast<double>(clients_.size()));
}

}  // namespace saim::service
