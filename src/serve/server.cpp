#include "serve/server.hpp"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/synth_service.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace xsfq::serve {

namespace {

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Per-request trace export (--trace-out): the collected span set of one
/// traced request as Chrome trace-event JSON, atomically written.  Failures
/// are logged and swallowed — exporting must never fail a request.
void export_trace(const std::string& dir, trace::trace_id id) {
  const std::vector<trace::span> spans = trace::collected(id);
  const std::string path = dir + "/trace_" + trace::to_hex(id) + ".json";
  const std::string json = trace::chrome_trace_json(spans);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = (std::fclose(f) == 0) && ok;
    if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) std::remove(tmp.c_str());
  }
  if (!ok) {
    log::line(log::level::warn, "trace.export_failed")
        .kv("path", path)
        .kv("spans", static_cast<std::uint64_t>(spans.size()));
  } else {
    log::line(log::level::debug, "trace.exported")
        .kv("path", path)
        .kv("spans", static_cast<std::uint64_t>(spans.size()));
  }
}

/// Splits "host:port" (the last ':' wins, so a future "[::1]:80" parse can
/// slot in) and resolves it into a bound, listening TCP socket.  Returns the
/// fd; fills `bound_port` with the kernel-assigned port (for ":0" binds).
int listen_tcp(const std::string& address, std::uint16_t& bound_port) {
  const auto colon = address.find_last_of(':');
  if (colon == std::string::npos || colon == address.size() - 1) {
    throw std::runtime_error("serve: --listen expects HOST:PORT, got: " +
                             address);
  }
  const std::string host = address.substr(0, colon);
  const std::string port = address.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("serve: cannot resolve listen address " +
                             address + ": " + gai_strerror(rc));
  }
  int fd = -1;
  std::string last_error = "no usable address";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      sockaddr_storage bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        if (bound.ss_family == AF_INET) {
          bound_port = ntohs(
              reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
        } else if (bound.ss_family == AF_INET6) {
          bound_port = ntohs(
              reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
        }
      }
      ::freeaddrinfo(res);
      return fd;
    }
    last_error = std::strerror(errno);
    close_quietly(fd);
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("serve: cannot listen on " + address + ": " +
                           last_error);
}

}  // namespace

/// One accepted connection: the fd plus its handler thread's lifecycle
/// bookkeeping (reaped opportunistically and on stop()).
struct server::connection {
  int fd = -1;
  std::uint64_t id = 0;     ///< monotonic, correlates log lines
  bool is_tcp = false;
  bool needs_auth = false;  ///< TCP with a configured token; cleared by auth
  std::thread thread;
  std::atomic<bool> done{false};

  ~connection() {
    int fd_copy = fd;
    close_quietly(fd_copy);
  }
};

server::server(server_options options)
    : options_(std::move(options)),
      runner_(std::make_unique<flow::batch_runner>(options_.threads)),
      // max_inflight=0 defaults to the runner's resolved worker count
      // (threads=0 resolves to hardware concurrency inside the runner).
      admission_(options_.max_queue,
                 options_.max_inflight != 0 ? options_.max_inflight
                                            : runner_->num_threads()) {
  if (options_.socket_path.empty() && options_.listen_address.empty()) {
    throw std::runtime_error(
        "serve: need a socket path or a TCP listen address");
  }
  if (!options_.cache_dir.empty()) {
    runner_->set_disk_cache(options_.cache_dir, options_.max_disk_entries);
  }
  runner_->set_retained_bytes(options_.retained_bytes);

  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("serve: socket path too long: " +
                               options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error(std::string("serve: socket failed: ") +
                               std::strerror(errno));
    }
    ::unlink(options_.socket_path.c_str());  // stale socket from a prior run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string what =
          std::string("serve: bind/listen failed on ") + options_.socket_path +
          ": " + std::strerror(errno);
      close_quietly(listen_fd_);
      throw std::runtime_error(what);
    }
  }

  if (!options_.listen_address.empty()) {
    try {
      tcp_listen_fd_ = listen_tcp(options_.listen_address, tcp_port_);
    } catch (...) {
      close_quietly(listen_fd_);
      throw;
    }
  }

  start_time_ = std::chrono::steady_clock::now();
  if (listen_fd_ >= 0) {
    accept_thread_ =
        std::thread([this] { accept_loop(listen_fd_, /*is_tcp=*/false); });
  }
  if (tcp_listen_fd_ >= 0) {
    tcp_accept_thread_ =
        std::thread([this] { accept_loop(tcp_listen_fd_, /*is_tcp=*/true); });
  }
}

server::~server() { stop(); }

void server::accept_loop(int listen_fd, bool is_tcp) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or fatal: exit the loop
    }
    auto conn = std::make_shared<connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1);
    conn->is_tcp = is_tcp;
    conn->needs_auth = is_tcp && !options_.auth_token.empty();
    bool over_cap = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ::close(fd);
        conn->fd = -1;
        return;
      }
      reap_finished_locked();
      over_cap = active_connections_locked() >= options_.max_conns;
      if (!over_cap) {
        log::line(log::level::debug, "conn.accept")
            .kv("conn", conn->id)
            .kv("transport", is_tcp ? "tcp" : "unix");
        // The thread is assigned before the connection is published, under
        // the same lock every reaper holds: a connection that finishes at
        // once must never be erased (and its joinable thread destroyed)
        // before this assignment lands.
        conn->thread = std::thread([this, conn] { handle_connection(conn); });
        connections_.push_back(conn);
      }
    }
    if (over_cap) {
      // Bounce BEFORE a handler thread exists: a connection flood must hit
      // this cap, not the thread allocator.  Best-effort write — the frame
      // fits any socket buffer, and a peer that vanished just loses it.
      rejected_conns_.fetch_add(1);
      log::line(log::level::warn, "conn.bounce")
          .kv("conn", conn->id)
          .kv("reason", "too_many_connections")
          .kv("max_conns", static_cast<std::uint64_t>(options_.max_conns));
      try {
        write_frame_fd(fd, msg_type::error,
                       encode_error(error_code::too_many_connections,
                                    "connection limit reached (" +
                                        std::to_string(options_.max_conns) +
                                        "); retry later",
                                    retry_after_hint_ms()));
      } catch (const protocol_error&) {
      }
      ::close(fd);
      conn->fd = -1;
    }
  }
}

void server::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t server::active_connections_locked() const {
  std::size_t active = 0;
  for (const auto& conn : connections_) {
    if (!conn->done.load()) ++active;
  }
  return active;
}

void server::handle_connection(const std::shared_ptr<connection>& conn) {
  const int fd = conn->fd;
  bool writable = true;
  bool authed = !conn->needs_auth;
  const send_fn send = [&](msg_type type,
                           const std::vector<std::uint8_t>& payload) {
    if (!writable) return;
    if (fault::fire("serve.send.reset")) {
      // Chaos: the connection "resets" before this response hits the wire.
      // The peer sees a mid-request EOF — exactly what a daemon crash or a
      // dropped route looks like — and must recover by resubmitting.
      ::shutdown(fd, SHUT_RDWR);
      writable = false;
      return;
    }
    try {
      // The send path is a traced stage too: a slow client that drains its
      // socket lazily shows up as a long "send" span, not as mystery time.
      const std::uint64_t send_start = trace::now_us();
      write_frame_fd(fd, type, payload, protocol_version,
                     options_.io_timeout_ms);
      record_span("send", send_start, trace::now_us() - send_start);
    } catch (const io_timeout_error&) {
      // The peer stopped draining its socket: reclaim this thread instead
      // of blocking in send() forever at its mercy.
      io_timeouts_.fetch_add(1);
      log::line(log::level::warn, "conn.send_timeout").kv("conn", conn->id);
      writable = false;
    } catch (const protocol_error& e) {
      // An over-limit encode throws before any byte hits the wire, so the
      // stream is still clean — tell the client why before giving up.
      // Transport failures just mark the connection dead; either way the
      // handler closes below rather than leaving the client blocked on a
      // response that will never come.
      if (payload.size() > max_frame_payload) {
        try {
          write_frame_fd(fd, msg_type::error,
                         encode_error(error_code::generic, e.what()));
        } catch (const protocol_error&) {
        }
      }
      writable = false;
    }
  };
  try {
    for (;;) {
      if (fault::fire("serve.recv.stall")) {
        // Chaos: behave exactly as if this peer went silent mid-frame and
        // the poll deadline expired — drives the io_timeout handling below.
        throw io_timeout_error("injected stall (serve.recv.stall)");
      }
      std::optional<frame> f =
          read_frame_fd(fd, options_.io_timeout_ms, options_.idle_timeout_ms);
      if (!f) break;  // clean end-of-stream (client closed, or drain)
      if (f->version != protocol_version) {
        // Typed, decodable rejection instead of a hang: the header layout
        // is frozen, so any peer can read this frame, and every client
        // since v5 decodes the payload.  Then close.
        send(msg_type::error,
             encode_error(error_code::unsupported_version,
                          "protocol version mismatch: daemon speaks v" +
                              std::to_string(protocol_version) +
                              ", client sent v" + std::to_string(f->version) +
                              "; upgrade the client"));
        break;
      }
      if (!authed && f->type != msg_type::auth) {
        rejected_auth_.fetch_add(1);
        log::line(log::level::warn, "auth.required")
            .kv("conn", conn->id)
            .kv("type", static_cast<std::uint64_t>(f->type));
        send(msg_type::error,
             encode_error(error_code::auth_required,
                          "authenticate first: this transport requires an "
                          "auth token frame before any request"));
        break;
      }
      switch (f->type) {
        case msg_type::auth: {
          const auth_request auth = decode_auth_request(f->payload);
          if (constant_time_equal(auth.token, options_.auth_token)) {
            authed = true;
            send(msg_type::auth_ok, {});
          } else {
            rejected_auth_.fetch_add(1);
            log::line(log::level::warn, "auth.fail").kv("conn", conn->id);
            send(msg_type::error,
                 encode_error(error_code::auth_failed, "auth token mismatch"));
            writable = false;  // close: do not offer retries on one stream
          }
          break;
        }
        case msg_type::submit:
        case msg_type::synth_delta:
          handle_request(*conn, *f, send);
          break;
        case msg_type::server_stats: {
          send(msg_type::server_stats_ok, encode_server_stats(stats()));
          break;
        }
        case msg_type::trace: {
          const trace_request req = decode_trace_request(f->payload);
          trace_reply reply;
          reply.trace_hi = req.trace_hi;
          reply.trace_lo = req.trace_lo;
          // Unknown/evicted ids answer with an empty span list rather than
          // an error: the collector is a bounded window by design.
          for (const trace::span& sp :
               trace::collected({req.trace_hi, req.trace_lo})) {
            reply.spans.push_back({sp.name, sp.start_us, sp.dur_us, sp.tid});
          }
          send(msg_type::trace_ok, encode_trace_reply(reply));
          break;
        }
        case msg_type::shutdown: {
          send(msg_type::shutdown_ok, {});
          {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_requested_ = true;
          }
          shutdown_cv_.notify_all();
          break;
        }
        case msg_type::ping: {
          send(msg_type::pong, {});
          break;
        }
        default:
          send(msg_type::error,
               encode_error(error_code::bad_request,
                            "unknown request type " +
                                std::to_string(static_cast<unsigned>(f->type))));
          break;
      }
      if (!writable) break;  // response undeliverable: close, don't strand
    }
  } catch (const serialize_error& e) {
    log::line(log::level::warn, "conn.bad_request")
        .kv("conn", conn->id)
        .kv("error", e.what());
    send(msg_type::error, encode_error(error_code::bad_request, e.what()));
  } catch (const io_timeout_error& e) {
    // The peer stalled past the I/O deadline (or the idle timeout lapsed):
    // count it, tell the peer why if its socket still drains — the write
    // itself is under the same deadline via send() — and reclaim the
    // thread.  This is the slowloris defense: the handler is back in the
    // pool within ~io_timeout_ms of the stall, never pinned.
    io_timeouts_.fetch_add(1);
    log::line(log::level::warn, "conn.io_timeout")
        .kv("conn", conn->id)
        .kv("error", e.what());
    send(msg_type::error, encode_error(error_code::io_timeout, e.what()));
  } catch (const protocol_error& e) {
    log::line(log::level::warn, "conn.protocol_error")
        .kv("conn", conn->id)
        .kv("error", e.what());
    send(msg_type::error, encode_error(error_code::bad_request, e.what()));
  } catch (const std::exception& e) {
    log::line(log::level::error, "conn.internal_error")
        .kv("conn", conn->id)
        .kv("error", e.what());
    send(msg_type::error,
         encode_error(error_code::generic,
                      std::string("internal: ") + e.what()));
  }
  log::line(log::level::debug, "conn.close").kv("conn", conn->id);
  // Signal end-of-stream to the peer now; the fd itself is closed when the
  // connection object is reaped (next accept or stop()).
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true);
}

void server::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Another caller already drained (or is draining); nothing to do
      // beyond waking any wait_shutdown_requested() sleeper.
      shutdown_cv_.notify_all();
      return;
    }
    stopping_ = true;
  }
  shutdown_cv_.notify_all();

  // Wake the accept loops, then stop new reads on every connection.  SHUT_RD
  // only: a handler mid-request keeps its write half to finish the response
  // (the drain), then observes end-of-stream and exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (tcp_listen_fd_ >= 0) ::shutdown(tcp_listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (tcp_accept_thread_.joinable()) tcp_accept_thread_.join();
  close_quietly(listen_fd_);
  close_quietly(tcp_listen_fd_);

  std::vector<std::shared_ptr<connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    to_join = connections_;
    connections_.clear();
  }
  for (const auto& conn : to_join) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
  for (const auto& conn : to_join) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

void server::wait_shutdown_requested() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock,
                    [this] { return shutdown_requested_ || stopping_; });
}

bool server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_requested_;
}

void server::record_span(std::string_view name, std::uint64_t start_us,
                         std::uint64_t dur_us) {
  trace::record(name, start_us, dur_us);
  const double ms = static_cast<double>(dur_us) / 1000.0;
  std::lock_guard<std::mutex> lock(hist_mutex_);
  hist_.at(name).record(ms);
}

void server::handle_request(const connection& conn, const frame& f,
                            const send_fn& send) {
  // A delta nests a complete submit request as its base, so one
  // synth_delta_request carries either kind; only the run call and the
  // eco_* counters below depend on which kind arrived.
  const bool is_delta = f.type == msg_type::synth_delta;
  synth_delta_request delta;
  if (is_delta) {
    delta = decode_synth_delta_request(f.payload);
    eco_requests_.fetch_add(1);
  } else {
    delta.base = decode_synth_request(f.payload);
  }
  const synth_request& req = delta.base;
  jobs_submitted_.fetch_add(1);

  // Install the request's trace context for this handler thread: every
  // span recorded below (and on pool threads serving partitioned-optimize
  // regions, which capture the context) attributes to this id.
  const trace::trace_id tid{req.trace_hi, req.trace_lo};
  trace::context_scope tscope(tid);
  const std::string tid_hex = tid.valid() ? trace::to_hex(tid) : "";
  const char* const kind = is_delta ? "synth_delta" : "submit";
  {
    log::line start(log::level::debug, "request.start");
    start.kv("conn", conn.id).kv("type", kind).kv("spec", req.spec);
    if (is_delta) start.kv_hex("base", delta.base_content_hash);
    start.kv("trace_id", tid_hex);
  }

  const std::uint64_t admit_start = trace::now_us();
  const auto ticket = admission_.acquire(req.priority, req.deadline_ms);
  record_span("queue_wait", admit_start, trace::now_us() - admit_start);
  if (ticket.outcome != admission_queue::verdict::admitted) {
    const bool overloaded =
        ticket.outcome == admission_queue::verdict::overloaded;
    jobs_failed_.fetch_add(1);
    log::line(log::level::warn, "request.shed")
        .kv("conn", conn.id)
        .kv("reason", overloaded ? "overloaded" : "deadline_expired")
        .kv("queued_ms", ticket.queued_ms)
        .kv("trace_id", tid_hex);
    send(msg_type::error,
         overloaded
             ? encode_error(error_code::overloaded,
                            "admission queue full (max_queue=" +
                                std::to_string(options_.max_queue) +
                                "); retry later",
                            retry_after_hint_ms())
             : encode_error(error_code::deadline_expired,
                            "deadline passed after " +
                                std::to_string(ticket.queued_ms) +
                                " ms in the admission queue"));
    return;
  }

  // Every event happens on this thread strictly before the run returns, so
  // progress frames never interleave with the result frame below.
  const auto progress = [&](const progress_event& ev) {
    if (!ev.from_cache) {
      // The stage just finished: spans are end-anchored (start = now -
      // duration).
      const std::uint64_t dur_us = static_cast<std::uint64_t>(ev.ms * 1000.0);
      const std::uint64_t end_us = trace::now_us();
      record_span("stage:" + ev.stage, end_us > dur_us ? end_us - dur_us : 0,
                  dur_us);
    }
    if (req.stream_progress) {
      send(msg_type::progress, encode_progress_event(ev));
    }
  };
  const std::uint64_t started_us = trace::now_us();
  synth_response resp;
  eco_outcome outcome;
  try {
    resp = is_delta ? run_synth_delta(delta, *runner_, progress, &outcome)
                    : run_synth(req, *runner_, progress);
  } catch (const service_error& e) {
    // unknown_base / bad_edit, thrown only by deltas: the client's
    // mistake, typed so an interactive session can resubmit the full
    // circuit instead.
    admission_.release();
    jobs_failed_.fetch_add(1);
    eco_failures_.fetch_add(1);
    log::line(log::level::warn, "request.error")
        .kv("conn", conn.id)
        .kv("type", kind)
        .kv("error", e.what())
        .kv("trace_id", tid_hex);
    send(msg_type::error, encode_error(e.code, e.what()));
    return;
  } catch (...) {
    admission_.release();
    throw;
  }
  admission_.release();
  const std::uint64_t total_us = trace::now_us() - started_us;
  record_span("request_total", started_us, total_us);
  if (outcome.base_retained) eco_retained_hits_.fetch_add(1);
  if (outcome.base_rebuilt) eco_base_rebuilds_.fetch_add(1);
  (resp.ok ? jobs_completed_ : jobs_failed_).fetch_add(1);
  log::line(log::level::info, "request.done")
      .kv("conn", conn.id)
      .kv("type", kind)
      .kv("spec", req.spec)
      .kv("ok", resp.ok)
      .kv("cached", resp.served_from_cache)
      .kv("retained", outcome.base_retained)
      .kv("ms", static_cast<double>(total_us) / 1000.0)
      .kv("trace_id", tid_hex);
  // Exported before the result frame, so the file exists by the time the
  // client holds the result.
  if (tid.valid() && !options_.trace_out_dir.empty()) {
    export_trace(options_.trace_out_dir, tid);
  }
  send(msg_type::result, encode_synth_response(resp));
}

std::uint32_t server::retry_after_hint_ms() const {
  // "Come back once the backlog ahead of you has plausibly drained": depth
  // of the admission queue times the recent median end-to-end latency.
  // Before any request has completed, fall back to a nominal warm-request
  // figure; clamp the product so one slow cold run cannot tell clients to
  // go away for an hour, and a zero-depth race never returns 0 (which the
  // wire format reserves for "no hint").
  double median_ms = 25.0;
  {
    std::lock_guard<std::mutex> lock(hist_mutex_);
    for (const auto& [name, hist] : hist_.entries()) {
      if (name == "request_total" && hist.count() > 0) {
        median_ms = hist.quantile_ms(0.5);
      }
    }
  }
  const std::size_t depth = admission_.snapshot().queue_depth;
  const double hint =
      std::max(1.0, static_cast<double>(depth)) * std::max(median_ms, 1.0);
  return static_cast<std::uint32_t>(std::clamp(hint, 10.0, 10000.0));
}

server_stats_reply server::stats() const {
  server_stats_reply reply;
  reply.status.jobs_submitted = jobs_submitted_.load();
  reply.status.jobs_completed = jobs_completed_.load();
  reply.status.jobs_failed = jobs_failed_.load();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reply.status.active_connections = active_connections_locked();
  }
  reply.status.worker_threads = runner_->num_threads();
  reply.status.uptime_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_time_)
                              .count();
  reply.cache = runner_->cache_stats();
  reply.disk_directory = runner_->disk_cache_directory();

  const admission_stats adm = admission_.snapshot();
  reply.accepted = adm.accepted;
  reply.rejected_overload = adm.rejected_overload;
  reply.rejected_deadline = adm.rejected_deadline;
  reply.rejected_auth = rejected_auth_.load();
  reply.rejected_conns = rejected_conns_.load();
  reply.peak_queue_depth = adm.peak_queue_depth;
  reply.queue_depth = static_cast<std::uint32_t>(adm.queue_depth);
  reply.inflight = static_cast<std::uint32_t>(adm.inflight);
  reply.max_queue = static_cast<std::uint32_t>(adm.max_queue);
  reply.max_inflight = static_cast<std::uint32_t>(adm.max_inflight);
  reply.max_conns = static_cast<std::uint32_t>(options_.max_conns);
  reply.runner_queue_depth = runner_->queue_depth();
  reply.eco_requests = eco_requests_.load();
  reply.eco_retained_hits = eco_retained_hits_.load();
  reply.eco_base_rebuilds = eco_base_rebuilds_.load();
  reply.eco_failures = eco_failures_.load();
  reply.io_timeouts = io_timeouts_.load();
  // Flight-recorder counters (process-global; see util/trace.hpp).
  reply.trace_spans_recorded = trace::spans_recorded();
  reply.trace_spans_dropped = trace::spans_dropped();
  // Fault-injection counters: all zero / empty outside chaos drills (the
  // registry is process-global; an armed schedule covers every layer).
  reply.fault_fired = fault::total_fired();
  for (const auto& s : fault::stats()) {
    reply.fault_sites.push_back({s.site, s.hits, s.fired});
  }

  std::lock_guard<std::mutex> lock(hist_mutex_);
  for (const auto& [name, hist] : hist_.entries()) {
    reply.histograms.push_back(
        {name, hist.count(), hist.sum_ms(), hist.max_ms(),
         {hist.buckets().begin(), hist.buckets().end()}});
  }
  return reply;
}

}  // namespace xsfq::serve
