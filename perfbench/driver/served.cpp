#include "served.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace xs = xsfq::serve;

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect failed: " + path);
  }
  return fd;
}

}  // namespace

daemon_process::daemon_process(const config& cfg, const std::string& dir,
                               const std::vector<std::string>& extra_flags) {
  // Relative socket path: sun_path is 108 bytes and the checkout may sit
  // deep in the file system; the daemon and the driver share a cwd.
  socket_ = dir + "/served.sock";
  std::vector<std::string> args = {cfg.daemon, "--socket=" + socket_};
  args.insert(args.end(), extra_flags.begin(), extra_flags.end());
  const std::string log_path = dir + "/served.log";
  // Built before fork: the child may only make async-signal-safe calls.
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the driver
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  // Ready when the socket accepts a connection (bounded wait).
  const auto deadline = steady::now() + std::chrono::seconds(20);
  for (;;) {
    try {
      const int fd = connect_unix(socket_);
      ::close(fd);
      return;
    } catch (const std::runtime_error&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("xsfq_served exited during start-up (see " +
                               log_path + ")");
    }
    if (steady::now() > deadline) {
      stop();
      throw std::runtime_error("xsfq_served did not become ready");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::vector<std::string> daemon_flags(const std::string& dir) {
  return {"--threads=2", "--cache-dir=" + dir + "/cache",
          "--retained-bytes=16777216", "--log-level=warn"};
}

daemon_process::~daemon_process() { stop(); }

void daemon_process::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = steady::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (steady::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

connection::connection(const std::string& socket_path)
    : fd_(connect_unix(socket_path)) {}

connection::~connection() {
  if (fd_ >= 0) ::close(fd_);
}

xs::frame connection::roundtrip(xs::msg_type type,
                                const std::vector<std::uint8_t>& payload) {
  xs::write_frame_fd(fd_, type, payload);
  for (;;) {
    std::optional<xs::frame> f = xs::read_frame_fd(fd_);
    if (!f) throw std::runtime_error("daemon closed the connection");
    if (f->type != xs::msg_type::progress) return std::move(*f);
  }
}

xs::server_stats_reply connection::server_stats() {
  const xs::frame f = roundtrip(xs::msg_type::server_stats, {});
  if (f.type != xs::msg_type::server_stats_ok) {
    throw std::runtime_error("server_stats refused");
  }
  return xs::decode_server_stats(f.payload);
}

xs::trace_reply connection::trace(std::uint64_t hi, std::uint64_t lo) {
  const xs::frame f =
      roundtrip(xs::msg_type::trace, xs::encode_trace_request({hi, lo}));
  if (f.type != xs::msg_type::trace_ok) {
    throw std::runtime_error("trace refused");
  }
  return xs::decode_trace_reply(f.payload);
}

reply decode_reply(const xs::frame& f) {
  reply r;
  r.response_bytes = f.payload.size() + 6;  // + frame header
  if (f.type == xs::msg_type::result) {
    r.response = xs::decode_synth_response(f.payload);
    r.ok = r.response.ok;
    if (!r.ok) r.error = r.response.error;
  } else if (f.type == xs::msg_type::error) {
    r.error = xs::decode_error(f.payload).message;
  } else {
    r.error = "unexpected frame type " +
              std::to_string(static_cast<int>(f.type));
  }
  return r;
}

std::uint64_t body_hash(const xs::synth_response& r) {
  return fnv1a(r.report) ^ (fnv1a(r.verilog) * 0x9E3779B97F4A7C15ull);
}

void report_totals::add(const std::string& report) {
  const auto after = [&](const std::string& marker) {
    const auto at = report.find(marker);
    return at == std::string::npos
               ? 0.0
               : std::strtod(report.c_str() + at + marker.size(), nullptr);
  };
  // "optimized: A -> B nodes", "xSFQ netlist: L LA, F FA, S splitters, ...
  // JJ J", "clocked RSFQ R JJ".
  nodes += after(" -> ");
  la_fa += after("xSFQ netlist: ") + after(" LA, ");
  splitters += after(" FA, ");
  jj += after(", JJ ");
  rsfq_jj += after("clocked RSFQ ");
}

std::string flip_line(const xsfq::aig& g, xsfq::aig::node_index n,
                      bool first) {
  const auto token = [](xsfq::signal s) {
    return (s.is_complemented() ? "!n" : "n") + std::to_string(s.index());
  };
  const xsfq::signal a = g.fanin0(n);
  const xsfq::signal b = g.fanin1(n);
  return "replace n" + std::to_string(n) + " " + token(first ? !a : a) + " " +
         token(first ? b : !b) + "\n";
}

std::vector<std::pair<std::string, double>> stat_counters(
    const xs::server_stats_reply& s) {
  const auto& c = s.cache;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"full_hits", d(c.full_hits)},
      {"full_misses", d(c.full_misses)},
      {"disk_hits", d(c.disk_hits)},
      {"disk_misses", d(c.disk_misses)},
      {"disk_writes", d(c.disk_writes)},
      {"opt_hits", d(c.opt_hits)},
      {"opt_misses", d(c.opt_misses)},
      {"region_hits", d(c.region_hits)},
      {"region_misses", d(c.region_misses)},
      {"accepted", d(s.accepted)},
      {"rejected_overload", d(s.rejected_overload)},
      {"rejected_deadline", d(s.rejected_deadline)},
      {"rejected_conns", d(s.rejected_conns)},
      {"eco_requests", d(s.eco_requests)},
      {"eco_retained_hits", d(s.eco_retained_hits)},
      {"eco_base_rebuilds", d(s.eco_base_rebuilds)},
      {"eco_failures", d(s.eco_failures)},
      {"trace_spans_dropped", d(s.trace_spans_dropped)},
  };
}

std::vector<std::pair<std::string, double>> stat_deltas(
    const xs::server_stats_reply& before, const xs::server_stats_reply& after) {
  auto out = stat_counters(after);
  const auto base = stat_counters(before);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].second -= base[i].second;
  return out;
}

double delta_of(const std::vector<std::pair<std::string, double>>& deltas,
                const std::string& name) {
  for (const auto& [k, v] : deltas) {
    if (k == name) return v;
  }
  return 0.0;
}

void add_traced_op(span_store& store, std::uint64_t op, std::uint32_t tid,
                   std::int64_t op_start_us, std::int64_t op_end_us,
                   std::int64_t connect_us,
                   const std::vector<xs::trace_span>& daemon_spans) {
  const int root = store.add(
      {"op", op_start_us, op_end_us - op_start_us, -1, op, origin::client,
       tid});
  if (connect_us > 0) {
    store.add({"serve.connect", op_start_us, connect_us, root, op,
               origin::client, tid});
  }
  if (daemon_spans.empty()) return;
  // The daemon's clock has its own epoch: centre the daemon's activity in
  // the part of the op after the connect.
  std::int64_t d_start = INT64_MAX;
  std::int64_t d_end = INT64_MIN;
  for (const auto& s : daemon_spans) {
    d_start = std::min<std::int64_t>(d_start, s.start_us);
    d_end = std::max<std::int64_t>(d_end, s.start_us + s.dur_us);
  }
  const std::int64_t window = op_end_us - (op_start_us + connect_us);
  const std::int64_t shift =
      op_start_us + connect_us +
      std::max<std::int64_t>(0, (window - (d_end - d_start)) / 2) - d_start;

  // Parent = the smallest daemon span containing this one, else the op.
  std::vector<int> order(daemon_spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::vector<int> index(daemon_spans.size(), -1);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& x = daemon_spans[a];
    const auto& y = daemon_spans[b];
    return x.start_us != y.start_us ? x.start_us < y.start_us
                                    : x.dur_us > y.dur_us;
  });
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& s = daemon_spans[order[k]];
    int parent = root;
    std::uint64_t best = UINT64_MAX;
    for (std::size_t j = 0; j < k; ++j) {
      const auto& p = daemon_spans[order[j]];
      if (p.start_us <= s.start_us &&
          p.start_us + p.dur_us >= s.start_us + s.dur_us &&
          p.dur_us < best) {
        best = p.dur_us;
        parent = index[order[j]];
      }
    }
    index[order[k]] = store.add({s.name,
                                 static_cast<std::int64_t>(s.start_us) + shift,
                                 static_cast<std::int64_t>(s.dur_us), parent,
                                 op, origin::daemon, s.tid});
  }
}

void served_layer_metrics(
    run_result& out, const std::map<std::string, double>& self_us,
    const std::map<std::string, double>& dur_us, double ops,
    const std::vector<std::pair<std::string, double>>& deltas) {
  const auto per_op_ms = [&](const std::map<std::string, double>& m,
                             std::initializer_list<const char*> names) {
    return ops > 0 ? sum_of(m, names) / ops / 1000.0 : 0.0;
  };
  const auto ratio = [&](const char* hits, const char* misses) {
    const double h = delta_of(deltas, hits);
    const double m = delta_of(deltas, misses);
    return h + m > 0 ? h / (h + m) : 0.0;
  };
  auto& L = out.layer;
  L["serve.admission_wait_ms"] = per_op_ms(dur_us, {"queue_wait"});
  L["serve.request_total_ms"] = per_op_ms(dur_us, {"request_total"});
  L["serve.connect_ms"] = per_op_ms(dur_us, {"serve.connect"});
  L["serve.transport_ms"] =
      per_op_ms(dur_us, {"op"}) - per_op_ms(dur_us, {"request_total"});
  L["flow.runner_queue_ms"] = per_op_ms(dur_us, {"runner_queue"});
  L["flow.disk_load_ms"] =
      per_op_ms(dur_us, {"cache.disk_hit", "cache.disk_miss"});
  L["flow.disk_store_ms"] = per_op_ms(dur_us, {"cache.disk_store"});
  L["opt.optimize_ms"] = per_op_ms(self_us, {"stage:optimize"});
  L["opt.region_reopt_ms"] = per_op_ms(dur_us, {"region_reopt"});
  L["core.map_ms"] = per_op_ms(dur_us, {"stage:map"});
  L["baseline.rsfq_ms"] = per_op_ms(dur_us, {"stage:baseline"});
  L["flow.full_hit_ratio"] = ratio("full_hits", "full_misses");
  L["flow.disk_hit_ratio"] = ratio("disk_hits", "disk_misses");
  L["flow.opt_hit_ratio"] = ratio("opt_hits", "opt_misses");
  L["opt.region_hit_ratio"] = ratio("region_hits", "region_misses");
  const double eco = delta_of(deltas, "eco_requests");
  L["flow.retained_hit_ratio"] =
      eco > 0 ? delta_of(deltas, "eco_retained_hits") / eco : 0.0;
  L["serve.rejected"] = delta_of(deltas, "rejected_overload") +
                        delta_of(deltas, "rejected_deadline") +
                        delta_of(deltas, "rejected_conns");
}

}  // namespace perfbench
