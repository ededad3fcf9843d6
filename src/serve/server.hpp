#pragma once
/// \file server.hpp
/// \brief The synthesis-as-a-service daemon core (xsfq_served's engine).
///
/// One `server` owns one long-lived flow::batch_runner — the worker pool
/// plus every result-cache tier, including the optional disk-persistent
/// one — behind up to two listening sockets speaking the serve protocol: a
/// Unix-domain socket (local clients, trusted by file permissions) and an
/// optional TCP listener (`listen_address`, remote fleets).  TCP
/// connections must present the shared-secret auth token (constant-time
/// compare) before any request when a token is configured.
///
/// Each accepted connection gets a handler thread, capped at `max_conns`
/// (excess connections receive a typed `too_many_connections` error and are
/// closed before a thread is spawned).  `submit` and `synth_delta` share one
/// request path: the flow runs on the handler thread itself against the
/// shared runner's cache tiers, so N clients synthesizing concurrently
/// de-duplicate identical in-flight optimize stages through the
/// shared-future tier and hit each other's cached results, and a warm hit
/// renders straight from the shared cache entry.  A request takes a slot of
/// the bounded priority/deadline admission queue (serve/admission.hpp) at
/// its first step that does work — a build, a disk-tier load or a flow
/// stage — so a repeat the request memo and the memory tier answer never
/// queues; deltas and --validate submits take theirs up front.  The
/// runner's pool only serves partitioned-optimize subtasks.  Every span the
/// daemon records (queue wait, each flow stage, end-to-end, each frame sent)
/// goes through one helper that writes the flight-recorder span and, from
/// the same start and duration, one sample into a server-wide log-bucket
/// histogram set — so the `server_stats` scrape and a request's trace
/// cannot disagree.
///
/// Shutdown is a drain, triggered either by stop() (the daemon calls it on
/// SIGINT/SIGTERM) or by a client's `shutdown` request: the listeners
/// close, idle connections see end-of-stream, handlers mid-request (queued
/// or executing) finish the request and write the response, every handler
/// thread is joined, and disk cache writes — which are synchronous and
/// atomic — are already on disk.
///
/// Thread-safety: every public method is safe to call from any thread;
/// stop() is idempotent.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "flow/batch_runner.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "util/histogram.hpp"

namespace xsfq::serve {

struct server_options {
  std::string socket_path;     ///< Unix-domain listener; empty disables it
  /// TCP listener as "host:port" (e.g. "127.0.0.1:7341", "0.0.0.0:0" for an
  /// ephemeral port — read it back via tcp_port()).  Empty disables TCP.
  std::string listen_address;
  /// Shared secret TCP clients must present in an `auth` frame before any
  /// request.  Empty = no auth (Unix-socket-only deployments).  The Unix
  /// listener never requires auth; its trust boundary is file permissions.
  std::string auth_token;
  unsigned threads = 0;        ///< runner workers; 0 = hardware concurrency
  std::string cache_dir;       ///< empty disables the disk-persistent tier
  std::size_t max_disk_entries = 1024;
  /// v7: byte budget of the ECO retained-network LRU (xsfq_served
  /// --retained-bytes).  Evictions surface as retained_evictions in
  /// server_stats.
  std::size_t retained_bytes = 256u << 20;
  std::size_t max_queue = 64;     ///< admission waiters before shedding
  /// Requests doing work at once; 0 = worker count.  Memory hits take no
  /// slot, so only max_conns bounds them.
  std::size_t max_inflight = 0;
  std::size_t max_conns = 256;    ///< concurrent connections before bouncing
  /// Per-connection I/O deadline in ms (<= 0 disables).  Bounds every read
  /// once a frame has started arriving and every write: a peer that stalls
  /// mid-frame or stops draining its socket (slowloris) gets a typed
  /// `io_timeout` error and its handler thread back within this bound,
  /// instead of pinning the thread forever.
  int io_timeout_ms = 30000;
  /// How long a connection may sit idle BETWEEN frames before it is closed
  /// (<= 0 = forever).  Separate from io_timeout_ms because an idle
  /// keep-alive connection is legitimate for much longer than a stall in
  /// the middle of a frame.
  int idle_timeout_ms = 0;
  /// v6: when non-empty, every traced request (non-zero trace_id) writes its
  /// collected span set as Chrome trace-event JSON to
  /// `<trace_out_dir>/trace_<id>.json` before its result frame is sent, so
  /// the file exists once the client holds the result.  The file therefore
  /// lacks the result frame's own `send` span (the `trace` request still
  /// returns it).  The directory must exist; write failures are logged,
  /// never fatal.
  std::string trace_out_dir;
};

class server {
 public:
  /// Binds, listens, and starts accepting on every configured transport.  A
  /// stale Unix socket file at the path is removed first.  Throws
  /// std::runtime_error on bind/listen failure.
  explicit server(server_options options);
  ~server();
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Graceful drain; idempotent.  Returns after every connection handler
  /// has finished and joined (queued submits run to completion first).
  void stop();

  /// Blocks until a client sends a `shutdown` request or stop() is called.
  void wait_shutdown_requested();
  [[nodiscard]] bool shutdown_requested() const;

  /// The TCP listener's bound port (useful with an ephemeral ":0" bind), or
  /// 0 when TCP is disabled.
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  [[nodiscard]] flow::batch_runner& runner() { return *runner_; }
  [[nodiscard]] const server_options& options() const { return options_; }
  /// The metrics scrape: job/connection/worker/uptime gauges, cache tiers,
  /// admission counters and the histograms folded from every span.
  [[nodiscard]] server_stats_reply stats() const;

 private:
  struct connection;
  using send_fn =
      std::function<void(msg_type, const std::vector<std::uint8_t>&)>;

  void accept_loop(int listen_fd, bool is_tcp);
  void handle_connection(const std::shared_ptr<connection>& conn);
  /// The one request path of `submit` and `synth_delta`: the run on this
  /// handler thread, admission at its first step that does work, and
  /// exactly one terminal frame through `send`.
  void handle_request(const connection& conn, const frame& f,
                      const send_fn& send);
  /// Records one span: the flight-recorder entry (util/trace.hpp) and, from
  /// the same start and duration, one sample into hist_.
  void record_span(std::string_view name, std::uint64_t start_us,
                   std::uint64_t dur_us);
  void reap_finished_locked();
  std::size_t active_connections_locked() const;
  /// Backoff hint for overloaded/too_many_connections errors: queue depth ×
  /// the recent request_total median (clamped to a sane window), i.e. "how
  /// long until the backlog ahead of you plausibly drains".
  std::uint32_t retry_after_hint_ms() const;

  server_options options_;
  std::unique_ptr<flow::batch_runner> runner_;
  admission_queue admission_;
  int listen_fd_ = -1;      ///< Unix-domain listener (-1 when disabled)
  int tcp_listen_fd_ = -1;  ///< TCP listener (-1 when disabled)
  std::uint16_t tcp_port_ = 0;
  std::thread accept_thread_;
  std::thread tcp_accept_thread_;

  mutable std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  std::vector<std::shared_ptr<connection>> connections_;

  /// One latency histogram per span name, fed only by record_span.
  mutable std::mutex hist_mutex_;
  histogram_set hist_;

  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> rejected_auth_{0};
  std::atomic<std::uint64_t> rejected_conns_{0};
  std::atomic<std::uint64_t> io_timeouts_{0};  ///< connections dropped at a
                                               ///< read/write deadline (v5)
  // v4 incremental-resynthesis (synth_delta) outcome counters.
  std::atomic<std::uint64_t> eco_requests_{0};
  std::atomic<std::uint64_t> eco_retained_hits_{0};
  std::atomic<std::uint64_t> eco_base_rebuilds_{0};
  std::atomic<std::uint64_t> eco_failures_{0};
  /// Monotonic connection id, only for correlating log lines.
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace xsfq::serve
