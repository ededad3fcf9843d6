#pragma once
/// \file resilient_client.hpp
/// \brief Self-healing wrapper around serve::client: reconnect + retry.
///
/// A plain `client` is one connection: any transport failure — the daemon
/// restarting, a connection reset mid-response, an I/O timeout — kills the
/// request and the connection with it.  `resilient_client` owns the
/// endpoint description instead of the socket, and turns those failures
/// into bounded retries: reconnect, capped exponential backoff with
/// deterministic jitter, then resubmit the same request.
///
/// Resubmission is safe by construction: synthesis is a pure function of
/// (circuit content hash, options fingerprint) — the same key every cache
/// tier uses — so replaying a request can only produce the byte-identical
/// result, never a duplicate side effect.  That idempotence is what lets
/// the retry loop treat "daemon died mid-request" and "response never
/// arrived" the same way as "connection refused".
///
/// The server cooperates through the v5 retry contract (docs/protocol.md):
/// `overloaded` and `too_many_connections` errors carry a `retry_after_ms`
/// hint, which the loop honors when it exceeds the computed backoff.
/// Non-retryable service errors (bad_request, auth_failed, bad_edit, ...)
/// propagate immediately — retrying a rejected request cannot fix it.
///
/// Not thread-safe, like `client`: one resilient_client per thread.

#include <cstdint>
#include <memory>
#include <string>

#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace xsfq::serve {

/// Where and how to (re)connect: exactly the inputs of the two `client`
/// constructors plus the auth token to replay after every reconnect.
struct endpoint {
  std::string socket_path;  ///< Unix socket; used when non-empty
  std::string host;         ///< TCP host (with port) when socket_path empty
  std::uint16_t port = 0;
  std::string auth_token;   ///< replayed after each reconnect when non-empty
};

struct retry_policy {
  /// Retries after the first attempt (0 = behave like a plain client).
  unsigned max_retries = 4;
  /// First backoff; doubles per consecutive failure up to max_backoff_ms.
  unsigned initial_backoff_ms = 50;
  unsigned max_backoff_ms = 2000;
  /// Uniform jitter fraction applied to each backoff (0.25 = ±25%),
  /// decorrelating a fleet of clients that all saw the same failure.
  double jitter = 0.25;
  /// Per-attempt receive deadline (SO_RCVTIMEO) in ms; 0 = wait forever.
  /// A response slower than this counts as a transport failure and is
  /// retried on a fresh connection.
  int request_timeout_ms = 0;
  /// Seeds the jitter sequence — deterministic for reproducible drills.
  std::uint64_t seed = 0x5eedc0deull;
};

class resilient_client {
 public:
  resilient_client(endpoint ep, retry_policy policy = {});
  ~resilient_client();
  resilient_client(const resilient_client&) = delete;
  resilient_client& operator=(const resilient_client&) = delete;

  /// submit/submit_delta with the retry loop around them.  Throws the last
  /// failure when max_retries is exhausted; non-retryable service errors
  /// propagate immediately.  Progress events may replay from the start on
  /// a retry (the terminal result is still exactly one response).
  synth_response submit(const synth_request& req,
                        const client::progress_fn& progress = {});
  synth_response submit_delta(const synth_delta_request& req,
                              const client::progress_fn& progress = {});

  server_stats_reply server_stats();
  /// v6: fetch a traced request's span tree (read-only, safely retryable —
  /// an evicted id just comes back empty).
  trace_reply trace(const trace_request& req);
  bool ping();

  /// Total retry sleeps taken and reconnects performed since construction
  /// (for drill assertions and the CLI's client_retries report).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

 private:
  /// Ensures a live, authenticated connection, (re)dialing if needed.
  client& ensure_connected();
  void drop_connection();
  /// One backoff sleep for failure number `attempt` (0-based), honoring a
  /// server hint when it is longer.
  void backoff(unsigned attempt, std::uint32_t server_hint_ms);
  template <typename Fn>
  auto with_retries(Fn&& fn) -> decltype(fn(std::declval<client&>()));

  endpoint endpoint_;
  retry_policy policy_;
  std::unique_ptr<client> conn_;
  std::uint64_t rng_state_;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
};

}  // namespace xsfq::serve
