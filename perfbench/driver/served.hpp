#pragma once
// The served workloads' plumbing: a real xsfq_served child process and a
// minimal protocol client built directly on the serve wire codecs (submit,
// synth_delta, trace and server_stats only).

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "common.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// A fresh xsfq_served started with its documented flags on a Unix socket
/// under `dir`, stopped (SIGTERM, then waited for) on destruction.
class daemon_process {
 public:
  daemon_process(const config& cfg, const std::string& dir,
                 const std::vector<std::string>& extra_flags);
  ~daemon_process();
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  const std::string& socket_path() const { return socket_; }
  int pid() const { return pid_; }
  void stop();

 private:
  std::string socket_;
  int pid_ = -1;
};

/// The documented flags both served workloads start xsfq_served with: two
/// workers, a disk cache under `dir`, a retained-network budget small
/// enough that the daemon's memory reaches its plateau during set-up (a
/// session only needs its latest state retained), and no per-request log
/// lines.
std::vector<std::string> daemon_flags(const std::string& dir);

/// One connection to the daemon.  Every call throws std::runtime_error on a
/// transport failure; a typed error frame comes back as the error text.
class connection {
 public:
  explicit connection(const std::string& socket_path);
  ~connection();
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  /// Sends one pre-encoded request frame and reads frames until the
  /// terminal one.  Returns the terminal frame (result or error).
  xsfq::serve::frame roundtrip(xsfq::serve::msg_type type,
                               const std::vector<std::uint8_t>& payload);

  xsfq::serve::server_stats_reply server_stats();
  xsfq::serve::trace_reply trace(std::uint64_t hi, std::uint64_t lo);

 private:
  int fd_ = -1;
};

/// Outcome of one submit/synth_delta round trip as the load generator
/// sees it.
struct reply {
  bool ok = false;
  std::string error;
  xsfq::serve::synth_response response;
  std::size_t response_bytes = 0;
};
reply decode_reply(const xsfq::serve::frame& f);

/// Identity of a response body (report and Verilog) for byte comparisons.
std::uint64_t body_hash(const xsfq::serve::synth_response& r);

/// QoR totals read back from served reports.
struct report_totals {
  double nodes = 0, la_fa = 0, splitters = 0, jj = 0, rsfq_jj = 0;
  void add(const std::string& report);
};

/// One edit-script line that inverts one fanin of gate `n` of `g`:
/// fanin 0 when `first`, else fanin 1.
std::string flip_line(const xsfq::aig& g, xsfq::aig::node_index n,
                      bool first);

/// server_stats counters the benchmark reports, by name.
std::vector<std::pair<std::string, double>> stat_counters(
    const xsfq::serve::server_stats_reply& s);
/// after - before, per counter.
std::vector<std::pair<std::string, double>> stat_deltas(
    const xsfq::serve::server_stats_reply& before,
    const xsfq::serve::server_stats_reply& after);
double delta_of(const std::vector<std::pair<std::string, double>>& deltas,
                const std::string& name);

/// Adds one traced request to the store: the client's op span (and its
/// connect child, when the client reconnected), then the daemon's spans
/// placed on the client timeline inside the op, parented by interval
/// containment under the daemon's request_total.
void add_traced_op(span_store& store, std::uint64_t op, std::uint32_t tid,
                   std::int64_t op_start_us, std::int64_t op_end_us,
                   std::int64_t connect_us,
                   const std::vector<xsfq::serve::trace_span>& daemon_spans);

/// Per-layer metrics shared by both served workloads, from the traced
/// window's spans and the server_stats deltas (see README.md).
void served_layer_metrics(run_result& out,
                          const std::map<std::string, double>& self_us,
                          const std::map<std::string, double>& dur_us,
                          double ops,
                          const std::vector<std::pair<std::string, double>>&
                              deltas);

}  // namespace perfbench
