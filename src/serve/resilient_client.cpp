/// \file resilient_client.cpp
/// \brief Retry/reconnect loop around the plain serve client.

#include "serve/resilient_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace xsfq::serve {

namespace {

/// Attaches the calling thread's current trace id (when one is installed)
/// so retry noise can be correlated with the request it delayed.
log::line& with_trace(log::line& l) {
  const trace::trace_id id = trace::current();
  if (id.valid()) l.kv("trace_id", trace::to_hex(id));
  return l;
}

/// Whether a service-level rejection is worth retrying at all.  Load
/// shedding and lifecycle races clear up on their own; everything else
/// (bad_request, auth_failed, unknown_base, bad_edit, ...) indicts the
/// request or the credentials, which a retry cannot fix.
bool retryable_service_error(error_code code) {
  switch (code) {
    case error_code::overloaded:
    case error_code::too_many_connections:
    case error_code::shutting_down:
    case error_code::io_timeout:
      return true;
    default:
      return false;
  }
}

}  // namespace

resilient_client::resilient_client(endpoint ep, retry_policy policy)
    : endpoint_(std::move(ep)),
      policy_(policy),
      rng_state_(policy.seed) {}

resilient_client::~resilient_client() = default;

client& resilient_client::ensure_connected() {
  if (conn_) return *conn_;
  if (!endpoint_.socket_path.empty()) {
    conn_ = std::make_unique<client>(endpoint_.socket_path);
  } else {
    conn_ = std::make_unique<client>(endpoint_.host, endpoint_.port);
  }
  ++reconnects_;
  if (log::enabled(log::level::debug)) {
    log::line l(log::level::debug, "client.reconnect");
    with_trace(l)
        .kv("target", endpoint_.socket_path.empty()
                          ? endpoint_.host + ":" + std::to_string(endpoint_.port)
                          : endpoint_.socket_path)
        .kv("reconnects", reconnects_);
  }
  if (policy_.request_timeout_ms > 0) {
    conn_->set_receive_timeout_ms(policy_.request_timeout_ms);
  }
  if (!endpoint_.auth_token.empty()) {
    try {
      conn_->authenticate(endpoint_.auth_token);
    } catch (...) {
      // A half-authenticated connection must not linger as "live".
      conn_.reset();
      throw;
    }
  }
  return *conn_;
}

void resilient_client::drop_connection() { conn_.reset(); }

void resilient_client::backoff(unsigned attempt, std::uint32_t server_hint_ms) {
  // Capped exponential: initial * 2^attempt, saturating at max_backoff_ms.
  double ms = static_cast<double>(policy_.initial_backoff_ms);
  for (unsigned i = 0; i < attempt && ms < policy_.max_backoff_ms; ++i) {
    ms *= 2.0;
  }
  ms = std::min(ms, static_cast<double>(policy_.max_backoff_ms));
  if (policy_.jitter > 0.0) {
    // Deterministic jitter stream (seeded) so a drill replays identically;
    // ± jitter fraction around the nominal backoff.
    rng jitter_rng(rng_state_);
    rng_state_ = jitter_rng();  // advance the stream per sleep
    const double u = jitter_rng.uniform() * 2.0 - 1.0;  // [-1, 1)
    ms *= 1.0 + policy_.jitter * u;
  }
  // The server knows its backlog better than our exponential guess does.
  ms = std::max(ms, static_cast<double>(server_hint_ms));
  ++retries_;
  if (log::enabled(log::level::debug)) {
    log::line l(log::level::debug, "client.backoff");
    with_trace(l).kv("attempt", attempt).kv("sleep_ms", ms).kv(
        "server_hint_ms", server_hint_ms);
  }
  if (ms >= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(ms)));
  }
}

template <typename Fn>
auto resilient_client::with_retries(Fn&& fn)
    -> decltype(fn(std::declval<client&>())) {
  unsigned attempt = 0;
  for (;;) {
    std::uint32_t hint_ms = 0;
    try {
      return fn(ensure_connected());
    } catch (const service_error& e) {
      if (!retryable_service_error(e.code) || attempt >= policy_.max_retries) {
        throw;
      }
      hint_ms = e.retry_after_ms;
      {
        log::line l(log::level::warn, "client.retry");
        with_trace(l)
            .kv("attempt", attempt + 1)
            .kv("reason", "service_error")
            .kv("code", static_cast<std::uint64_t>(e.code))
            .kv("what", e.what());
      }
      // Shedding errors keep the connection usable EXCEPT
      // too_many_connections/io_timeout, where the server closes it; a
      // fresh dial is correct in every case and costs one socket.
      drop_connection();
    } catch (const protocol_error& e) {
      // Transport/framing failure (daemon died mid-request, connection
      // reset, response timeout): the connection is poisoned.  Resubmitting
      // on a new one is idempotent — results are a pure function of the
      // request — so this is exactly the recovery path.
      if (attempt >= policy_.max_retries) throw;
      {
        log::line l(log::level::warn, "client.retry");
        with_trace(l)
            .kv("attempt", attempt + 1)
            .kv("reason", "transport")
            .kv("what", e.what());
      }
      drop_connection();
    } catch (const std::exception& e) {
      // Connect failures (daemon restarting: ECONNREFUSED, missing socket
      // file) arrive as std::runtime_error from the client constructor.
      if (attempt >= policy_.max_retries) throw;
      {
        log::line l(log::level::warn, "client.retry");
        with_trace(l)
            .kv("attempt", attempt + 1)
            .kv("reason", "connect")
            .kv("what", e.what());
      }
      drop_connection();
    }
    backoff(attempt, hint_ms);
    ++attempt;
  }
}

synth_response resilient_client::submit(const synth_request& req,
                                        const client::progress_fn& progress) {
  return with_retries(
      [&](client& c) { return c.submit(req, progress); });
}

synth_response resilient_client::submit_delta(
    const synth_delta_request& req, const client::progress_fn& progress) {
  return with_retries(
      [&](client& c) { return c.submit_delta(req, progress); });
}

server_stats_reply resilient_client::server_stats() {
  return with_retries([](client& c) { return c.server_stats(); });
}

trace_reply resilient_client::trace(const trace_request& req) {
  return with_retries([&](client& c) { return c.trace(req); });
}

bool resilient_client::ping() {
  try {
    return with_retries([](client& c) { return c.ping(); });
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace xsfq::serve
