#pragma once
/// \file protocol.hpp
/// \brief Wire protocol of the synthesis service (xsfq_served / xsfq_client).
///
/// A connection carries a sequence of length-prefixed frames over a stream
/// socket (Unix-domain or TCP):
///
///   [u32 payload_len][u8 version][u8 msg_type][payload bytes...]
///
/// all little-endian (the codec in util/serialize.hpp).  The 6-byte header
/// layout is FROZEN across protocol versions: any peer can read any frame's
/// header, which is how the daemon answers a client of another version with
/// a typed `unsupported_version` error frame instead of both sides hanging
/// or dying on a raw read.  Payload layouts are version-specific; a daemon
/// only decodes payloads of its own version and rejects every other version
/// at the frame level.
///
/// A client sends one request frame and reads response frames until the
/// terminal one: `submit` yields zero or more `progress` frames (when
/// streaming was requested) followed by exactly one `result` or `error`;
/// every other request yields exactly one response frame.  Framing
/// violations — implausible version byte, payload over `max_frame_payload`,
/// truncation mid-frame, undecodable payload — raise `protocol_error`; the
/// server answers with an `error` frame when the connection is still
/// writable and closes it.
///
/// Each payload's byte layout is its struct's `fields` list in protocol.cpp
/// (flow/result_io.hpp for the flow types it nests): the encoder and the
/// decoder are both walks over that one list (util/serialize.hpp).
/// docs/protocol.md is the normative reference, version history included
/// (one line per version beside `protocol_version` below); a test
/// cross-checks its constant tables against this header.
///
/// Thread-safety: every free function here is stateless and safe to call
/// concurrently; the fd helpers assume at most one reader and one writer
/// per fd at a time (the client and the per-connection handler both
/// guarantee that by construction).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/mapper.hpp"
#include "flow/batch_runner.hpp"
#include "util/histogram.hpp"
#include "util/serialize.hpp"

namespace xsfq::serve {

// v2: synth_request gained flow_jobs (intra-flow parallelism), stage
// counters gained arena_peak_bytes + rebuilds_avoided.
// v3: hello/auth/server_stats messages, error codes, priority + deadline_ms
// on synth_request.
// v4: synth_delta (incremental ECO resynthesis), partition_grain on
// synth_request, content_hash on synth_response, region/ECO cache counters.
// v5: io_timeout error code, retry_after_ms hint on error payloads,
// io_timeouts + fault-injection counters in server_stats.
// v6: trace_id on synth_request, the trace request/reply pair, flight-
// recorder span counters in server_stats
// v7: retained-tier LRU + quarantine-bound counters (retained_evictions,
// disk_quarantine_pruned) in cache/server stats
// v8: status/cache_stats messages and the legacy error encodings retired
// v9: hello/hello_ok retired, deadline_ms bounded on decode
// v10: steals retired from server_stats (the runner no longer steals work)
// (see docs/protocol.md for the full history).
inline constexpr std::uint8_t protocol_version = 10;
/// Upper bound on one frame's payload; a header announcing more is garbage
/// (the largest legitimate payload is a synth_response with Verilog text).
inline constexpr std::uint32_t max_frame_payload = 64u << 20;
/// Default rendezvous path shared by the daemon and client binaries.
inline constexpr const char* default_socket_path = "/tmp/xsfq_served.sock";

/// Upper bound on synth_request::deadline_ms (one day, the bound of the
/// daemon's --io-timeout-ms): the admission queue converts the deadline to a
/// steady_clock duration, which a larger value would overflow.
inline constexpr double max_deadline_ms = 86'400'000.0;

/// Values 2, 3, 65 and 66 (the v1/v2 status and cache_stats exchanges,
/// retired in v8) and 6, 69 (the v3 hello exchange, retired in v9) are never
/// reused.
enum class msg_type : std::uint8_t {
  // requests
  submit = 1,
  shutdown = 4,
  ping = 5,
  auth = 7,          ///< v3: shared-secret token, must precede requests on TCP
  server_stats = 8,  ///< v3: metrics scrape
  synth_delta = 9,   ///< v4: edit script against a retained base network
  trace = 10,        ///< v6: fetch the span set of a completed traced request
  // responses
  result = 64,
  shutdown_ok = 67,
  pong = 68,
  auth_ok = 70,
  server_stats_ok = 71,
  trace_ok = 72,  ///< v6: reply to `trace`
  progress = 96,  ///< streamed before `result` when the client asked for it
  error = 127,
};

/// Typed reason on every v3 `error` frame, so clients and load balancers can
/// react programmatically (retry elsewhere on overloaded, re-auth on
/// auth_failed, upgrade on unsupported_version) instead of parsing prose.
enum class error_code : std::uint8_t {
  generic = 0,              ///< unclassified server-side failure
  bad_request = 1,          ///< undecodable or unknown request frame
  unsupported_version = 2,  ///< peer spoke a different protocol version
  auth_required = 3,        ///< request arrived before a successful auth
  auth_failed = 4,          ///< token mismatch; connection is closed
  overloaded = 5,           ///< admission queue full; retry later/elsewhere
  deadline_expired = 6,     ///< deadline passed while queued
  too_many_connections = 7, ///< connection cap reached; connection is closed
  shutting_down = 8,        ///< daemon is draining
  unknown_base = 9,         ///< v4: delta names a base hash the daemon cannot
                            ///< reconstruct (not retained, and the request's
                            ///< circuit hashes differently)
  bad_edit = 10,            ///< v4: malformed edit script or illegal replay
  io_timeout = 11,          ///< v5: peer blew the daemon's I/O deadline;
                            ///< connection is closed (resubmit on a new one)
};

struct protocol_error : std::runtime_error {
  explicit protocol_error(const std::string& what)
      : std::runtime_error("protocol: " + what) {}
};

/// An I/O deadline expired while reading or writing a frame.  Distinct from
/// protocol_error so callers can tell "the peer is slow/stalled" (retryable
/// with backoff) from "the peer is speaking garbage" (it is not).
struct io_timeout_error : protocol_error {
  explicit io_timeout_error(const std::string& what) : protocol_error(what) {}
};

/// A server-reported error frame, decoded: carries the typed code alongside
/// the human-readable message.  Thrown by the client's request methods.
struct service_error : protocol_error {
  error_code code;
  /// v5: server's backoff hint in ms (0 = none).  Non-zero on
  /// overloaded/too_many_connections; fleet_client honors it.
  std::uint32_t retry_after_ms = 0;
  service_error(error_code c, const std::string& message,
                std::uint32_t retry_after = 0)
      : protocol_error(message), code(c), retry_after_ms(retry_after) {}
};

struct frame {
  msg_type type = msg_type::error;
  /// Version byte the peer announced.  The frame header layout is frozen,
  /// so frames of any plausible version parse structurally; callers enforce
  /// their own version policy (the server rejects != protocol_version with
  /// a typed unsupported_version error).
  std::uint8_t version = protocol_version;
  std::vector<std::uint8_t> payload;
};

/// Serializes one frame (header + payload) ready for a single write.
/// `version` stamps the header; anything but protocol_version impersonates
/// another peer generation (version-negotiation tests).
std::vector<std::uint8_t> encode_frame(msg_type type,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t version = protocol_version);

/// Pull-style byte source: fill up to `n` bytes into `dst`, return the count
/// actually produced (0 = end of stream).  Lets the framing layer be tested
/// against plain byte buffers and reused over any fd-like transport.
using read_fn = std::function<std::size_t(void* dst, std::size_t n)>;

/// Reads one frame.  Returns nullopt on a clean end-of-stream *before* any
/// header byte; throws protocol_error on truncation mid-frame, an
/// implausible version byte (0 or far beyond the current version — how
/// arbitrary garbage usually dies), or an oversized payload announcement.
/// A *plausible* foreign version parses fine and surfaces in
/// frame::version for the caller to reject with a typed error.
std::optional<frame> read_frame(const read_fn& read);

/// fd convenience wrapper (retries on EINTR).
std::optional<frame> read_frame_fd(int fd);

/// Deadline variant: poll()s the fd before every read.  `io_timeout_ms`
/// bounds each wait once the first header byte has arrived (a peer stalled
/// MID-frame — the slowloris case); `idle_timeout_ms` bounds the wait for
/// the first byte of the NEXT frame (an idle keep-alive connection).  A
/// timeout of <= 0 means wait forever for that phase.  Throws
/// io_timeout_error when a deadline expires.
std::optional<frame> read_frame_fd(int fd, int io_timeout_ms,
                                   int idle_timeout_ms);

/// Writes one frame, looping until complete (retries on EINTR).  With
/// `io_timeout_ms` > 0 it poll()s for writability before every send, so a
/// peer that stopped draining its socket cannot pin the caller; throws
/// io_timeout_error when that deadline expires.
void write_frame_fd(int fd, msg_type type,
                    std::span<const std::uint8_t> payload,
                    std::uint8_t version = protocol_version,
                    int io_timeout_ms = 0);

/// Timing-safe token comparison: examines every byte of the longer input
/// regardless of where the first mismatch sits, so a remote attacker cannot
/// binary-search the shared secret through response-latency differences.
bool constant_time_equal(const std::string& a, const std::string& b);

// ---------------------------------------------------------------------------
// Payloads.
// ---------------------------------------------------------------------------

/// How the request's circuit text is interpreted server-side.
enum class circuit_source : std::uint8_t {
  registry = 0,    ///< `spec` is a benchgen registry name; no text
  bench_text = 1,  ///< `source_text` is .bench content; `model` names it
  blif_text = 2,   ///< `source_text` is .blif content (model from header)
};

/// One synthesis request: the circuit plus exactly the knobs xsfq_synth
/// exposes, so a served run and a local run are the same computation.
struct synth_request {
  std::string spec;  ///< display name (registry name or original file path)
  circuit_source source = circuit_source::registry;
  std::string source_text;  ///< inline netlist text for bench/blif sources
  std::string model;        ///< bench model name (basename of the file)
  mapping_params map;
  bool validate = false;       ///< per-pass sim checks + pulse-level check
  bool want_verilog = false;   ///< fill synth_response::verilog
  bool want_dot = false;       ///< fill synth_response::dot
  bool stream_progress = false;
  /// Intra-flow parallelism for the optimize stage (partitioned regions on
  /// the server's worker pool); 1 = the sequential pipeline.  Joins the
  /// result-cache fingerprint because the partition count changes results.
  std::uint32_t flow_jobs = 1;
  /// Admission priority, 0..255, higher admitted first (default 100).
  /// Orders only the wait for an execution slot; execution itself is
  /// unaffected.
  std::uint8_t priority = 100;
  /// Relative admission deadline in ms (0 = none, at most
  /// max_deadline_ms): if no execution slot frees within this budget of the
  /// request's arrival, the daemon fails it with `deadline_expired` instead
  /// of running work nobody is waiting for.
  double deadline_ms = 0.0;
  /// v4: fixed-grain region partitioning for the optimize stage (0 = the
  /// legacy monolithic/flow_jobs pipeline).  Regions of ~grain gates are
  /// optimized independently and their results cached across requests,
  /// which is what makes a later `synth_delta` against this circuit cheap.
  /// Joins the result-cache fingerprint (the partition shape changes the
  /// optimized network).
  std::uint32_t partition_grain = 0;
  /// v6: client-generated 16-byte trace id (both halves zero = untraced).
  /// The daemon records every stage of this request's life against it; a
  /// later `trace` request with the same id returns the span set.  Does NOT
  /// join any cache fingerprint — tracing never changes results.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
};

/// v4: one incremental-resynthesis request.  `base` carries the circuit and
/// every synthesis knob exactly as a plain submit would (so the daemon can
/// rebuild the base when it is no longer retained, and so the edited run is
/// keyed/cached like any other request); `base_content_hash` names the
/// synthesized network the edit applies to.
struct synth_delta_request {
  synth_request base;
  std::uint64_t base_content_hash = 0;
  /// Edit script in the aig/edit.hpp grammar (replace/sub/po/and/addpi/
  /// addpo lines).  An empty script is legal and degrades to a plain cached
  /// submit of the base circuit.
  std::string edit_text;
  /// Drop the base circuit's memory/disk cache entries once the edited
  /// result is stored: an interactive session edits a design *away*, so the
  /// superseded entry would never be requested again.
  bool supersede_base = true;
  /// Bypass every cache tier (region, optimized-network, full-result) and
  /// resynthesize the edited circuit from scratch.  The ECO comparator: a
  /// client can assert byte-identity between the incremental and the cold
  /// path end-to-end.
  bool force_full = false;
};

/// One per-stage progress notification: the flow's own event, on the wire.
using progress_event = flow::stage_event;

/// Everything a submit yields.  `report` and `validate_report` are the
/// deterministic parts of the xsfq_synth output (byte-identical between a
/// served and a local run); the timings are wall-clock and vary per run.
struct synth_response {
  bool ok = false;
  std::string error;  ///< stage exception text when !ok
  std::string report;
  std::string validate_report;  ///< empty unless validation was requested
  bool validate_ok = true;
  std::string verilog;  ///< filled when want_verilog
  std::string dot;      ///< filled when want_dot
  std::vector<flow::stage_timing> timings;
  double total_ms = 0.0;
  bool served_from_cache = false;  ///< every stage replayed from a cache tier
  /// v4: content hash of the request's (edited) input circuit — the identity
  /// a later synth_delta request names as its base.
  std::uint64_t content_hash = 0;
};

/// Shared-secret credential frame (v3).  Sent once, before any request, on
/// transports the daemon requires auth for.
struct auth_request {
  std::string token;
};

/// v6: asks for the span set collected for one traced request.  Sent after
/// the result arrived (spans complete when the response does); the reply
/// for an unknown/evicted id is an empty span list, not an error.
struct trace_request {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
};

/// One completed span on the wire (util/trace.hpp span, minus the id — the
/// reply is already scoped to one trace).
struct trace_span {
  std::string name;  ///< "queue_wait", "stage:optimize", "request_total", ...
  std::uint64_t start_us = 0;  ///< daemon-side steady clock, see trace.hpp
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;  ///< daemon thread that recorded the span
};

/// v6: reply to `trace` — every span the daemon collected for the id,
/// sorted by start time.
struct trace_reply {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::vector<trace_span> spans;
};

struct server_status {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t active_connections = 0;
  std::uint32_t worker_threads = 0;
  double uptime_s = 0.0;
};

/// v5: one fault-injection site's counters inside a server_stats scrape
/// (mirrors fault::site_stats; populated only while a schedule is armed).
struct fault_site_snapshot {
  std::string site;
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

/// One named latency histogram inside a server_stats scrape (the fixed
/// log-bucket layout of util/histogram.hpp on the wire).
struct histogram_snapshot {
  std::string name;  ///< "queue_wait", "request_total", "stage:optimize", ...
  std::uint64_t count = 0;
  double sum_ms = 0.0;
  double max_ms = 0.0;
  std::vector<std::uint64_t> buckets;  ///< log_histogram::num_buckets counts
};

/// The v3 metrics scrape: everything a load balancer or dashboard needs in
/// one frame — job/connection gauges, every cache tier, admission counters,
/// and latency histograms folded from the same spans the trace returns.
struct server_stats_reply {
  server_status status;
  flow::batch_cache_stats cache;
  std::string disk_directory;
  // Admission control (see serve/admission.hpp).
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_auth = 0;   ///< failed or missing auth attempts
  std::uint64_t rejected_conns = 0;  ///< connections bounced at the cap
  std::uint64_t peak_queue_depth = 0;
  std::uint32_t queue_depth = 0;  ///< admission waiters right now
  std::uint32_t inflight = 0;     ///< admitted requests executing
  std::uint32_t max_queue = 0;
  std::uint32_t max_inflight = 0;
  std::uint32_t max_conns = 0;
  /// Claim loops waiting in the batch_runner pool's offer queue, not yet
  /// taken by a worker (partitioned-optimize helpers, on a daemon).
  /// Requests themselves run on their handler threads and never queue here.
  std::uint64_t runner_queue_depth = 0;
  // v4: incremental-resynthesis (ECO) counters.  The cache-tier side
  // (region hits/misses, eco_patches, retained_networks) lives in `cache`;
  // these count the request-level outcomes.
  std::uint64_t eco_requests = 0;       ///< synth_delta frames accepted
  std::uint64_t eco_retained_hits = 0;  ///< base found in the retained tier
  std::uint64_t eco_base_rebuilds = 0;  ///< base re-materialized from request
  std::uint64_t eco_failures = 0;       ///< unknown_base + bad_edit rejections
  // v5: robustness counters.
  std::uint64_t io_timeouts = 0;   ///< connections dropped at an I/O deadline
  std::uint64_t fault_fired = 0;   ///< injected faults fired (chaos drills)
  // v6: flight-recorder counters (util/trace.hpp) — dropped > 0 means the
  // per-thread rings or the per-trace collector overflowed their windows.
  std::uint64_t trace_spans_recorded = 0;
  std::uint64_t trace_spans_dropped = 0;
  /// Per-site fire counters of the armed fault schedule (empty outside
  /// drills) — lets a chaos harness assert exactly which sites fired.
  std::vector<fault_site_snapshot> fault_sites;
  std::vector<histogram_snapshot> histograms;
};

/// How a fleet scrape combines one server_stats scalar across daemons.
enum class stat_merge : std::uint8_t {
  sum,        ///< counters, gauges and capacities add up fleet-wide
  max,        ///< the longest-lived member's value (uptime)
  first_set,  ///< the first member's non-empty value (disk directory)
};

/// One server_stats scalar's metadata: its Prometheus series, labels
/// included (nullptr = not in the scrape), and its fleet merge rule.  A
/// bare series name converts to a field merged by sum.
struct stat_field {
  stat_field(const char* s, stat_merge m = stat_merge::sum)
      : series(s), merge(m) {}
  const char* series;
  stat_merge merge;
};

/// Names every server_stats scalar once, in wire order, calling
/// `f(field, r.member...)` with that member of each reply.  The codec, the
/// fleet merge and the Prometheus text are walks over this list, so a new
/// counter is one line here (plus the server code that counts it) and a
/// protocol_version bump, since it changes the wire layout.
template <typename F, typename... Replies>
void for_each_stat(F&& f, Replies&... r) {
  f("xsfq_jobs_submitted_total", r.status.jobs_submitted...);
  f("xsfq_jobs_completed_total", r.status.jobs_completed...);
  f("xsfq_jobs_failed_total", r.status.jobs_failed...);
  f("xsfq_active_connections", r.status.active_connections...);
  f("xsfq_worker_threads", r.status.worker_threads...);
  f(stat_field{"xsfq_uptime_seconds", stat_merge::max}, r.status.uptime_s...);
  f(R"(xsfq_cache_hits_total{tier="full"})", r.cache.full_hits...);
  f(R"(xsfq_cache_misses_total{tier="full"})", r.cache.full_misses...);
  f(R"(xsfq_cache_hits_total{tier="opt"})", r.cache.opt_hits...);
  f(R"(xsfq_cache_misses_total{tier="opt"})", r.cache.opt_misses...);
  f(R"(xsfq_cache_hits_total{tier="disk"})", r.cache.disk_hits...);
  f(R"(xsfq_cache_misses_total{tier="disk"})", r.cache.disk_misses...);
  f("xsfq_cache_disk_writes_total", r.cache.disk_writes...);
  f("xsfq_cache_disk_quarantined_total", r.cache.disk_quarantined...);
  f(R"(xsfq_cache_hits_total{tier="region"})", r.cache.region_hits...);
  f(R"(xsfq_cache_misses_total{tier="region"})", r.cache.region_misses...);
  f("xsfq_eco_patches_total", r.cache.eco_patches...);
  f("xsfq_eco_retained_networks", r.cache.retained_networks...);
  f("xsfq_eco_retained_evictions_total", r.cache.retained_evictions...);
  f("xsfq_cache_disk_quarantine_pruned_total",
    r.cache.disk_quarantine_pruned...);
  f(stat_field{nullptr, stat_merge::first_set}, r.disk_directory...);
  f("xsfq_admission_accepted_total", r.accepted...);
  f(R"(xsfq_admission_rejected_total{reason="overload"})",
    r.rejected_overload...);
  f(R"(xsfq_admission_rejected_total{reason="deadline"})",
    r.rejected_deadline...);
  f(R"(xsfq_rejected_total{reason="auth"})", r.rejected_auth...);
  f(R"(xsfq_rejected_total{reason="connections"})", r.rejected_conns...);
  f("xsfq_admission_queue_depth_peak", r.peak_queue_depth...);
  f("xsfq_admission_queue_depth", r.queue_depth...);
  f("xsfq_admission_inflight", r.inflight...);
  f("xsfq_admission_max_queue", r.max_queue...);
  f("xsfq_admission_max_inflight", r.max_inflight...);
  f("xsfq_max_connections", r.max_conns...);
  f("xsfq_runner_queue_depth", r.runner_queue_depth...);
  f("xsfq_eco_requests_total", r.eco_requests...);
  f("xsfq_eco_retained_hits_total", r.eco_retained_hits...);
  f("xsfq_eco_base_rebuilds_total", r.eco_base_rebuilds...);
  f("xsfq_eco_failures_total", r.eco_failures...);
  f("xsfq_io_timeouts_total", r.io_timeouts...);
  f("xsfq_fault_fired_total", r.fault_fired...);
  f("xsfq_trace_spans_recorded_total", r.trace_spans_recorded...);
  f("xsfq_trace_spans_dropped_total", r.trace_spans_dropped...);
}

/// Folds one daemon's scrape into a fleet total: every scalar by its
/// for_each_stat rule, fault sites by name, histograms bucket-wise.
void merge_server_stats(server_stats_reply& into,
                        const server_stats_reply& from);

// Encoders return the payload bytes; decoders throw serialize_error (a
// protocol violation the caller maps to an error frame) on malformed input.
std::vector<std::uint8_t> encode_synth_request(const synth_request& req);
synth_request decode_synth_request(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_synth_delta_request(
    const synth_delta_request& req);
synth_delta_request decode_synth_delta_request(
    std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_progress_event(const progress_event& ev);
progress_event decode_progress_event(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_synth_response(const synth_response& resp);
synth_response decode_synth_response(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_auth_request(const auth_request& req);
auth_request decode_auth_request(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_trace_request(const trace_request& req);
trace_request decode_trace_request(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_trace_reply(const trace_reply& reply);
trace_reply decode_trace_reply(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_server_stats(const server_stats_reply& reply);
server_stats_reply decode_server_stats(std::span<const std::uint8_t> payload);

/// Typed error payload: [u8 code][str message][u32 retry_after_ms (v5+)].
/// The trailing hint is OPTIONAL on decode — a v3/v4 payload without it
/// parses fine — so one decoder handles every typed-error vintage.
std::vector<std::uint8_t> encode_error(error_code code,
                                       const std::string& message,
                                       std::uint32_t retry_after_ms = 0);
/// Decoded typed error payload (out-of-range codes map to
/// error_code::generic so a newer daemon's codes degrade gracefully).
struct error_reply {
  error_code code = error_code::generic;
  std::string message;
  std::uint32_t retry_after_ms = 0;  ///< absent on the wire decodes as 0
};
error_reply decode_error(std::span<const std::uint8_t> payload);

}  // namespace xsfq::serve
