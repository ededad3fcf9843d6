#include "serve/client.hpp"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "util/fault.hpp"

namespace xsfq::serve {

namespace {

/// Maps a received error frame to the exception the caller should see.
[[noreturn]] void throw_error_frame(const frame& f) {
  const error_reply err = decode_error(f.payload);
  throw service_error(err.code, "daemon error: " + err.message,
                      err.retry_after_ms);
}

int dial_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket failed: ") +
                             std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string what = "serve: cannot connect to daemon at " +
                             socket_path + ": " + std::strerror(errno);
    ::close(fd);
    throw std::runtime_error(what);
  }
  return fd;
}

int dial_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(),
                               service.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("serve: cannot resolve " + host + ":" + service +
                             ": " + gai_strerror(rc));
  }
  std::string last_error = "no usable address";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      // Request frames are small and latency-sensitive; don't batch them.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return fd;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("serve: cannot connect to daemon at " + host + ":" +
                           service + ": " + last_error);
}

int dial(const endpoint& ep) {
  if (fault::fire("client.connect.fail")) {
    throw std::runtime_error("serve: injected connect failure "
                             "(client.connect.fail)");
  }
  return ep.socket_path.empty() ? dial_tcp(ep.host, ep.port)
                                : dial_unix(ep.socket_path);
}

}  // namespace

client::client(const endpoint& ep) : fd_(dial(ep)) {
  if (ep.auth_token.empty()) return;
  try {
    authenticate(ep.auth_token);
  } catch (...) {
    ::close(fd_);  // a throwing constructor never reaches the destructor
    throw;
  }
}

client::client(const std::string& socket_path)
    : client(endpoint{socket_path, "", 0, ""}) {}

client::client(const std::string& host, std::uint16_t port)
    : client(endpoint{"", host, port, ""}) {}

client::~client() {
  if (fd_ >= 0) ::close(fd_);
}

void client::set_receive_timeout_ms(int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  }
  // 0/negative clears the deadline (timeval{0,0} = block forever).  A read
  // that trips the deadline surfaces as io_timeout_error out of
  // read_frame_fd (EAGAIN mapping), which fleet_client treats as a
  // reconnect-and-resubmit signal.
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

frame client::roundtrip(msg_type request,
                        std::span<const std::uint8_t> payload,
                        msg_type expected) {
  write_frame_fd(fd_, request, payload);
  std::optional<frame> f = read_frame_fd(fd_);
  if (!f) throw protocol_error("daemon closed the connection");
  if (f->type == msg_type::error) throw_error_frame(*f);
  if (f->type != expected) {
    throw protocol_error("unexpected response type " +
                         std::to_string(static_cast<unsigned>(f->type)));
  }
  return *std::move(f);
}

void client::authenticate(const std::string& token) {
  auth_request req;
  req.token = token;
  roundtrip(msg_type::auth, encode_auth_request(req), msg_type::auth_ok);
}

synth_response client::submit(const synth_request& req,
                              const progress_fn& progress) {
  write_frame_fd(fd_, msg_type::submit, encode_synth_request(req));
  return read_submit_response(progress);
}

synth_response client::submit_delta(const synth_delta_request& req,
                                    const progress_fn& progress) {
  write_frame_fd(fd_, msg_type::synth_delta,
                 encode_synth_delta_request(req));
  return read_submit_response(progress);
}

synth_response client::read_submit_response(const progress_fn& progress) {
  for (;;) {
    std::optional<frame> f = read_frame_fd(fd_);
    if (!f) throw protocol_error("daemon closed the connection mid-request");
    switch (f->type) {
      case msg_type::progress:
        if (progress) progress(decode_progress_event(f->payload));
        break;
      case msg_type::result:
        return decode_synth_response(f->payload);
      case msg_type::error:
        throw_error_frame(*f);
      default:
        throw protocol_error("unexpected frame type " +
                             std::to_string(static_cast<unsigned>(f->type)));
    }
  }
}

trace_reply client::trace(const trace_request& req) {
  const frame f = roundtrip(msg_type::trace, encode_trace_request(req),
                            msg_type::trace_ok);
  return decode_trace_reply(f.payload);
}

server_stats_reply client::server_stats() {
  const frame f =
      roundtrip(msg_type::server_stats, {}, msg_type::server_stats_ok);
  return decode_server_stats(f.payload);
}

void client::shutdown_server() {
  roundtrip(msg_type::shutdown, {}, msg_type::shutdown_ok);
}

bool client::ping() {
  try {
    roundtrip(msg_type::ping, {}, msg_type::pong);
    return true;
  } catch (const protocol_error&) {
    return false;
  }
}

}  // namespace xsfq::serve
