#pragma once
/// \file fleet.hpp
/// \brief The retrying client for any endpoint list: consistent-hash
/// routing, health-checked failover, hedged sends, merged fleet stats.
///
/// `fleet_client` is the one client that recovers from failures; a single
/// daemon is simply a fleet of one.  It holds one serve::client connection
/// per endpoint, redials it after any failure, and routes every request by
/// the circuit's content hash over a consistent-hash ring (serve/ring.hpp)
/// with R-way replica placement, so the same circuit always lands on the
/// same shard (hot retained-network and result caches) and every request
/// has fallback owners when that shard dies.  With one endpoint the ring is
/// trivial and submit() skips computing the key.
///
/// Resubmission is safe by construction: synthesis is a pure function of
/// (circuit content hash, options fingerprint), so replaying a request can
/// only produce the byte-identical result.  The retry contract
/// (docs/protocol.md): transport failures and the typed `overloaded`,
/// `too_many_connections`, `shutting_down` and `io_timeout` errors are
/// retried; every other typed error propagates at once.
///
/// The robustness machinery:
///
///  - Per-endpoint health state machine: healthy → suspect → down →
///    probing.  Connect failures and I/O timeouts drive an endpoint toward
///    `down`; while non-healthy it is pinged at seeded-jitter intervals
///    (lazily, on the request path — the client owns no threads).  A probe
///    success moves down → probing (traffic allowed again); a real request
///    success completes recovery to healthy.
///  - Failover: a failed attempt moves on to the next owner at once; a
///    shedding shard's retry_after_ms hint is honored only when the whole
///    sweep over the owner list fails.  Then the client backs off (capped
///    exponential, seeded jitter) and sweeps again, up to max_retries times.
///  - Hedged sends: once enough latencies are recorded, the first attempt
///    of a request runs under an adaptive deadline derived from a high
///    quantile of observed latency, when a later owner in the same sweep
///    can take over; a request stuck past it is re-sent to that owner.
///    Byte-identical results make the abandoned attempt harmless — the slow
///    shard finishes, caches, and moves on.
///  - Ring-aware ECO: a synth_delta routes by its base hash, but a
///    failed-over shard may never have retained that base.  The daemon
///    rebuilds it from the embedded base request when the hashes agree; if
///    it still answers `unknown_base`, the fleet applies the edit locally
///    to the embedded base and submits the edited circuit as a plain full
///    request — byte-identical output by the determinism contract.
///
/// Fault sites `fleet.route.down` (an endpoint treated as dead pre-send)
/// and `fleet.probe.fail` (a health probe forced to fail) plug the routing
/// layer into the util/fault.hpp chaos harness.
///
/// Not thread-safe, like `client`: one fleet_client per thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/ring.hpp"
#include "util/histogram.hpp"

namespace xsfq::serve {

struct retry_policy {
  /// Extra sweeps of the owner list after the first (0 = one sweep, which
  /// still fails over across replicas).
  unsigned max_retries = 4;
  /// Backoff before the second sweep; doubles per sweep up to
  /// max_backoff_ms, with ±25% seeded jitter.
  unsigned initial_backoff_ms = 50;
  unsigned max_backoff_ms = 2000;
  /// Per-attempt receive deadline (SO_RCVTIMEO) in ms; 0 = wait forever.
  /// A response slower than this counts as a transport failure.
  int request_timeout_ms = 0;
};

struct fleet_options {
  /// Distinct owners per key (placement fan-out; clamped to fleet size).
  std::size_t replicas = 2;
  retry_policy policy;
  /// Base interval between health probes of a non-healthy endpoint
  /// (jittered ±25% so a fleet of clients decorrelates).
  unsigned probe_interval_ms = 250;
  /// Consecutive transport failures that mark an endpoint down (one
  /// failure already marks it suspect).
  unsigned down_after = 3;
  /// Hedging: first attempts run under a deadline of
  /// max(hedge_floor_ms, hedge_multiplier * p99 latency) once
  /// hedge_min_samples latencies are recorded.
  std::size_t hedge_min_samples = 32;
  double hedge_floor_ms = 25.0;
  double hedge_multiplier = 2.0;
};

/// Health of one endpoint as seen by this client.
enum class endpoint_health : std::uint8_t {
  healthy,  ///< full member of the route set
  suspect,  ///< recent failure(s); still routed, probed when idle
  down,     ///< skipped by routing (unless every owner is down); probed
  probing,  ///< a probe succeeded after down; one real success to recover
};

const char* to_string(endpoint_health h);

/// Per-endpoint health/traffic snapshot (for --stats and assertions).
struct endpoint_status {
  std::string id;  ///< ring identity, e.g. "unix:/tmp/a.sock"
  endpoint_health health = endpoint_health::healthy;
  std::uint64_t requests = 0;       ///< attempts sent to this endpoint
  std::uint64_t failures = 0;       ///< attempts that failed on it
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint32_t consecutive_failures = 0;
};

/// Fleet-level counters (client-side; merged into the --stats scrape).
struct fleet_counters {
  std::uint64_t requests = 0;    ///< submit/submit_delta calls
  std::uint64_t failovers = 0;   ///< attempts re-routed after a failure
  std::uint64_t hedged = 0;      ///< first attempts abandoned at the hedge
                                 ///< deadline and re-sent elsewhere
  std::uint64_t hedge_wins = 0;  ///< hedged requests a replica completed
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t eco_full_fallbacks = 0;  ///< unknown_base → local edit +
                                         ///< full resynthesis fallback
};

/// Merged fleet scrape: every reachable daemon's server_stats summed
/// (histograms merged bucket-wise), plus per-endpoint health and the
/// client-side fleet counters.
struct fleet_stats {
  server_stats_reply merged;
  std::size_t endpoints_total = 0;
  std::size_t endpoints_up = 0;  ///< endpoints that answered server_stats
  std::vector<endpoint_status> endpoints;
  fleet_counters counters;
};

class fleet_client {
 public:
  explicit fleet_client(std::vector<endpoint> endpoints,
                        fleet_options options = {});
  ~fleet_client();
  fleet_client(const fleet_client&) = delete;
  fleet_client& operator=(const fleet_client&) = delete;

  /// Routed submit: key = routing_key(req).  When req.stream_progress is
  /// set, `progress` receives the streamed per-stage events; they replay
  /// from the start when an attempt fails over.
  synth_response submit(const synth_request& req,
                        const client::progress_fn& progress = {});
  /// Routed by `base_content_hash` so a session's deltas pin to the shard
  /// holding the retained base.  See the ECO fallback contract above.
  synth_response submit_delta(const synth_delta_request& req,
                              const client::progress_fn& progress = {});

  /// v6: fetches a traced request's spans from the endpoint that answered
  /// this client's last submit/submit_delta — the daemon that recorded
  /// them.  One attempt, no failover.  Throws protocol_error when no
  /// request has been answered yet.
  trace_reply trace(const trace_request& req);

  /// Polls every endpoint for server_stats and merges.  An endpoint that
  /// does not answer is logged (`fleet.stats.fail`, warn), left out of
  /// endpoints_up, and never makes this throw.
  fleet_stats stats();

  /// Routing introspection: owner ids for a key, in preference order
  /// (pure ring lookup — no health filtering, no I/O).
  [[nodiscard]] std::vector<std::string> owners_for(std::uint64_t key) const;
  /// The routing key of `req` on a multi-endpoint ring: the request
  /// circuit's content hash, or a hash of the request text when the circuit
  /// does not load (the daemon rejects it, but on the same shard every
  /// time).  Loads and hashes the whole circuit.
  [[nodiscard]] static std::uint64_t routing_key(const synth_request& req);
  /// Canonical ring identity of an endpoint ("unix:<path>" or
  /// "tcp:<host>:<port>").
  [[nodiscard]] static std::string endpoint_id(const endpoint& ep);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const fleet_counters& counters() const { return counters_; }
  [[nodiscard]] std::vector<endpoint_status> endpoint_statuses() const;

 private:
  struct shard;

  template <typename Fn>
  synth_response with_failover(std::uint64_t key, Fn&& send);
  /// The shard's live connection (dialed and authenticated on demand) with
  /// its receive deadline set to `timeout_ms`.
  client& connect(shard& sh, int timeout_ms);
  /// Receive deadline for probes, stats and trace: the request timeout, or
  /// 5 s when requests may wait forever.
  [[nodiscard]] int control_timeout_ms() const;
  void mark_transport_failure(shard& sh);
  void mark_success(shard& sh);
  /// Probes every non-healthy endpoint whose jittered deadline arrived.
  void run_due_probes();
  void schedule_probe(shard& sh);
  /// `ms` ±25%, drawn from this client's seeded stream.
  double jittered(double ms);
  void backoff(unsigned sweep, std::uint32_t server_hint_ms);
  [[nodiscard]] double hedge_deadline_ms() const;

  fleet_options options_;
  consistent_ring ring_;
  std::vector<std::unique_ptr<shard>> shards_;
  fleet_counters counters_;
  std::uint64_t rng_state_;
  // Client-observed request latencies feeding the hedge quantile.
  log_histogram latency_;
  // The endpoint that answered the last request; trace() asks it.
  shard* last_answered_ = nullptr;
};

/// Renders a merged fleet scrape in the Prometheus text format: the full
/// single-daemon exposition over the merged counters, plus xsfq_fleet_*
/// series (endpoint gauges, failover/hedge/probe counters, per-endpoint
/// health).
std::string format_fleet_stats_text(const fleet_stats& stats);

}  // namespace xsfq::serve
