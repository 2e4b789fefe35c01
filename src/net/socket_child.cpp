#include "net/socket_child.hpp"

#include <sys/socket.h>

#include <utility>

#include "util/jsonl.hpp"

namespace saim::net {

SocketChild::SocketChild(std::string host, int port, std::string auth_token)
    : host_(std::move(host)),
      port_(port),
      connection_(connect_to(host_, port_)) {
  if (!auth_token.empty()) {
    // The handshake must be the first line on the wire, ahead of any job
    // the caller queues; the server reads it before creating a session.
    util::JsonWriter hello;
    hello.field("auth", auth_token);
    connection_.send_line(hello.str());
    connection_.pump_writes();
  }
}

void SocketChild::send_line(const std::string& line) {
  connection_.send_line(line);
}

bool SocketChild::pump_writes() { return connection_.pump_writes(); }

std::vector<std::string> SocketChild::read_lines() {
  return connection_.read_lines();
}

void SocketChild::shutdown_input() { connection_.shutdown_write(); }

void SocketChild::terminate() {
  // Both directions down, fd kept: the next read sees EOF like any other
  // death, and the fd stays valid while an event loop watches it.
  if (connection_.fd() >= 0) ::shutdown(connection_.fd(), SHUT_RDWR);
}

bool SocketChild::eof() const { return connection_.eof(); }

int SocketChild::read_fd() const { return connection_.fd(); }

int SocketChild::write_fd() const { return connection_.fd(); }

std::size_t SocketChild::outbound_bytes() const {
  return connection_.outbound_bytes();
}

}  // namespace saim::net
