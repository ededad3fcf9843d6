#pragma once
/// \file client.hpp
/// \brief One connection to a running xsfq_served daemon: the transport
/// that hides the wire format.
///
/// A `client` dials one `endpoint` (Unix-domain socket or TCP, presenting
/// the endpoint's auth token when it has one) and runs synchronous
/// requests over it: submit() writes the request frame and consumes
/// response frames — streamed progress events first, when requested —
/// until the terminal result arrives.  It never retries; recovery across
/// reconnects, backoff and failover lives one layer up in
/// serve::fleet_client (fleet.hpp), which holds one client per endpoint.
///
/// Error surface: a server-reported per-request failure comes back as
/// synth_response{ok=false}; a typed protocol-level rejection (auth
/// required/failed, overloaded, deadline_expired, unsupported_version, ...)
/// throws `service_error` carrying its error_code; transport and framing
/// failures throw plain `protocol_error`.
///
/// Not thread-safe: one client is one ordered request/response stream; use
/// one client per thread.

#include <cstdint>
#include <functional>
#include <string>

#include "serve/protocol.hpp"

namespace xsfq::serve {

/// Where and how to dial a daemon.
struct endpoint {
  std::string socket_path;  ///< Unix socket; used when non-empty
  std::string host;         ///< TCP host when socket_path is empty
  std::uint16_t port = 0;
  std::string auth_token;   ///< presented right after each dial when set
};

class client {
 public:
  /// Dials `ep` and, when it carries a token, authenticates.  Throws
  /// std::runtime_error when the daemon is not reachable and
  /// service_error{auth_failed} when the token is refused.
  explicit client(const endpoint& ep);

  /// Connects to the daemon's Unix socket.
  explicit client(const std::string& socket_path);

  /// Connects over TCP without authenticating: if the daemon was started
  /// with an auth token, every request is rejected until authenticate()
  /// succeeds on this connection.
  client(const std::string& host, std::uint16_t port);

  ~client();
  client(const client&) = delete;
  client& operator=(const client&) = delete;

  /// Bounds every subsequent read on this connection (SO_RCVTIMEO): a
  /// response that takes longer than `timeout_ms` throws io_timeout_error
  /// instead of blocking forever on a hung daemon.  <= 0 restores the
  /// default (wait forever).  The connection is NOT safely reusable after a
  /// timeout mid-response — reconnect and resubmit (fleet_client does).
  void set_receive_timeout_ms(int timeout_ms);

  using progress_fn = std::function<void(const progress_event&)>;

  /// Presents the shared-secret token.  Returns normally on success; throws
  /// service_error{auth_failed} on mismatch (the daemon also closes the
  /// connection, so a failed client must reconnect to retry).
  void authenticate(const std::string& token);

  /// Runs one synthesis request on the daemon.  When req.stream_progress is
  /// set, `progress` receives every streamed per-stage event before the
  /// response returns.  Admission rejections (overloaded, deadline_expired)
  /// throw service_error with the corresponding code; the connection remains
  /// usable afterwards.
  synth_response submit(const synth_request& req,
                        const progress_fn& progress = {});

  /// v4: runs one incremental-resynthesis request (an edit script against a
  /// previously synthesized base named by content hash).  Response shape and
  /// streaming match submit(); the ECO-specific rejections come back as
  /// service_error{unknown_base} (resubmit the full circuit) and
  /// service_error{bad_edit} (fix the script).
  synth_response submit_delta(const synth_delta_request& req,
                              const progress_fn& progress = {});

  /// v6: fetches the span tree the daemon's flight recorder collected for a
  /// traced request (one whose submit carried a non-zero trace_id).  An
  /// unknown or already-evicted id returns an empty span list, not an error.
  trace_reply trace(const trace_request& req);

  /// The v3 metrics scrape (job gauges, cache tiers, admission counters,
  /// latency histograms): the one stats request.
  server_stats_reply server_stats();
  /// Asks the daemon to drain and exit; returns once it acknowledged.
  void shutdown_server();
  bool ping();

 private:
  frame roundtrip(msg_type request, std::span<const std::uint8_t> payload,
                  msg_type expected);
  /// Shared progress/result consumption loop of submit() and submit_delta().
  synth_response read_submit_response(const progress_fn& progress);

  int fd_ = -1;
};

}  // namespace xsfq::serve
