#pragma once
// Shared pieces of the benchmark driver: the run configuration, the result
// every workload fills, latency statistics, the in-memory span store of the
// traced run, and the per-layer metric table.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xsfq {
class aig;
}

namespace perfbench {

using steady = std::chrono::steady_clock;

/// Microseconds on the driver's own steady clock (epoch = first call).
std::int64_t now_us();
double ms_between(steady::time_point a, steady::time_point b);

struct config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory inside the checkout
  std::string trace_out;   ///< Chrome trace JSON path (traced run)
  std::string daemon;      ///< xsfq_served binary
};

/// How many times set-up runs per invocation; setup_s is their median.
inline constexpr int setup_repeats = 5;

// ---------------------------------------------------------------------------
// Spans of the traced run.
// ---------------------------------------------------------------------------

/// Which process/timeline a span belongs to in the Chrome trace.
enum class origin : std::uint8_t {
  client = 1,  ///< the load generator's own calls (ops, connect)
  daemon = 2,  ///< spans fetched from xsfq_served over `trace`
  replay = 3,  ///< the benchmark's replay of an op's inputs through a layer
};

struct span {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  int parent = -1;         ///< index into the store, -1 = root
  std::uint64_t op = 0;    ///< shared request id (op ordinal + 1)
  origin where = origin::client;
  std::uint32_t tid = 0;
};

/// Append-only span store shared by the workload threads.
class span_store {
 public:
  int add(span s);
  /// Records [start, now) under `parent`; returns the new span's index.
  int close(const std::string& name, std::int64_t start_us, int parent,
            std::uint64_t op, origin where, std::uint32_t tid = 0);
  /// Ends a container span added with zero duration: duration = now - start.
  void finish(int index);
  std::vector<span> take();

 private:
  std::mutex mutex_;
  std::vector<span> spans_;
};

/// RAII replay span around one layer call.
class scoped {
 public:
  scoped(span_store& store, std::string name, int parent, std::uint64_t op)
      : store_(store), name_(std::move(name)), parent_(parent), op_(op),
        start_(now_us()) {}
  ~scoped() { store_.close(name_, start_, parent_, op_, origin::replay); }
  scoped(const scoped&) = delete;
  scoped& operator=(const scoped&) = delete;

 private:
  span_store& store_;
  std::string name_;
  int parent_;
  std::uint64_t op_;
  std::int64_t start_;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct metric_value {
  double value = 0.0;
  std::string unit;
};

/// Failed operations and the first few of their descriptions.
struct failure_log {
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why);
};

/// Everything one invocation reports.  Workloads fill the raw pieces; main()
/// derives the metrics and prints them.
struct run_result : failure_log {
  std::vector<double> setup_s;      ///< one entry per set-up repetition
  std::vector<double> latency_ms;   ///< per completed op in the window
  double window_s = 0.0;
  double cpu_ms = 0.0;              ///< process-under-test CPU in the window
  double peak_rss_mb = 0.0;
  double xsfq_jj_total = 0.0;
  std::uint64_t attempted = 0;  ///< ops in the window; `failed` counts the
                                ///< failed, refused or incorrect ones
  /// Op share per class, in print order ("memory hit" -> 0.61, ...).
  std::vector<std::pair<std::string, double>> composition;
  /// server_stats deltas over the window (empty for in-process workloads).
  std::vector<std::pair<std::string, double>> stat_deltas;
  /// Per-layer metrics (traced run) and notes on bypassed layers.
  std::map<std::string, double> layer;
  std::vector<std::string> notes;
  /// Traced run only: the spans, the untraced-window reference latency for
  /// the tracing-overhead row, and the op count the spans describe.
  std::vector<span> spans;
  double untraced_p50_ms = 0.0;
  double untraced_throughput = 0.0;
  std::uint64_t traced_ops = 0;
};

/// Latency summary: median and the highest percentile with at least ten
/// samples beyond it (nearest rank), as the benchmark reports them.
struct latency_summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};
latency_summary summarize(std::vector<double> samples);
double median(std::vector<double> v);

/// Per-layer self time: each span's duration minus the part its children
/// cover, summed by name, in microseconds.  `replay` selects the replayed
/// layer calls; otherwise the window's own client and daemon spans.
std::map<std::string, double> self_time_us(const std::vector<span>& spans,
                                           bool replay);
/// Duration totals by span name (not self time), same selection.
std::map<std::string, double> total_time_us(const std::vector<span>& spans,
                                            bool replay);
/// Sum of the named entries of a per-name time map (absent names add 0).
double sum_of(const std::map<std::string, double>& by_name,
              std::initializer_list<const char*> names);

/// Replays the resyn script (opt_engine::optimize: rounds of b; rw; rf; b;
/// rwz until the gate count stops improving) pass by pass through the
/// thread's opt_engine, with one span per pass under `parent`.  Returns the
/// final gate count.
std::size_t replay_passes(const xsfq::aig& network, span_store& store,
                          int parent, std::uint64_t op);

/// Writes the spans as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans);

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's seeded generator (deterministic per seed).
class rng64 {
 public:
  explicit rng64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                      ///< [0, 1)
  std::size_t below(std::size_t bound);  ///< [0, bound)

 private:
  std::uint64_t state_;
};

/// Fisher-Yates over [first, last) with the benchmark's generator, so a
/// seed orders things the same way with every standard library.
template <class It>
void seeded_shuffle(It first, It last, rng64& rng) {
  for (auto n = static_cast<std::size_t>(last - first); n > 1; --n) {
    std::swap(first[n - 1], first[rng.below(n)]);
  }
}

/// FNV-1a over bytes: identity of a response body for byte comparisons.
std::uint64_t fnv1a(const std::string& bytes);

/// Peak RSS (VmHWM) and utime+stime of a process, from /proc.
double proc_peak_rss_mb(int pid);
double proc_cpu_ms(int pid);

/// Runs the named workload.
run_result run_compile_suite(const config& cfg);
run_result run_serve_corpus(const config& cfg);
run_result run_eco_session(const config& cfg);

}  // namespace perfbench
