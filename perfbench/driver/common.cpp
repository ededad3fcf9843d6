#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "opt/opt_engine.hpp"

namespace perfbench {

std::int64_t now_us() {
  static const steady::time_point epoch = steady::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(steady::now() -
                                                               epoch)
      .count();
}

double ms_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int span_store::add(span s) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

int span_store::close(const std::string& name, std::int64_t start_us,
                      int parent, std::uint64_t op, origin where,
                      std::uint32_t tid) {
  return add({name, start_us, now_us() - start_us, parent, op, where, tid});
}

void span_store::finish(int index) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].dur_us = now_us() - spans_[index].start_us;
}

std::vector<span> span_store::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

void failure_log::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

latency_summary summarize(std::vector<double> samples) {
  latency_summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = median(samples);
  // Nearest rank: the sample with exactly ten samples above it is the
  // highest percentile the sample supports (the maximum when n <= 10).
  const std::size_t idx = s.n > 10 ? s.n - 11 : s.n - 1;
  s.tail = samples[idx];
  s.tail_pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(s.n);
  return s;
}

std::map<std::string, double> self_time_us(const std::vector<span>& spans,
                                           bool replay) {
  std::vector<double> child_sum(spans.size(), 0.0);
  for (const span& s : spans) {
    if (s.parent >= 0) child_sum[s.parent] += static_cast<double>(s.dur_us);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if ((spans[i].where == origin::replay) != replay) continue;
    out[spans[i].name] +=
        std::max(0.0, static_cast<double>(spans[i].dur_us) - child_sum[i]);
  }
  return out;
}

std::map<std::string, double> total_time_us(const std::vector<span>& spans,
                                            bool replay) {
  std::map<std::string, double> out;
  for (const span& s : spans) {
    if ((s.where == origin::replay) != replay) continue;
    out[s.name] += static_cast<double>(s.dur_us);
  }
  return out;
}

double sum_of(const std::map<std::string, double>& by_name,
              std::initializer_list<const char*> names) {
  double sum = 0.0;
  for (const char* name : names) {
    const auto it = by_name.find(name);
    if (it != by_name.end()) sum += it->second;
  }
  return sum;
}

std::size_t replay_passes(const xsfq::aig& network, span_store& store,
                          int parent, std::uint64_t op) {
  xsfq::opt_engine& engine = xsfq::opt_engine::thread_local_engine();
  const xsfq::optimize_params params;
  const auto pass = [&](const char* span_name, const char* pass_name,
                        const xsfq::aig& g) {
    scoped s(store, span_name, parent, op);
    return engine.run_pass(g, pass_name);
  };
  xsfq::aig cur = pass("opt.cleanup", "clean", network);
  for (unsigned round = 0; round < params.max_rounds; ++round) {
    const std::size_t before = cur.num_gates();
    cur = pass("opt.balance", "b", cur);
    cur = pass("opt.rewrite", "rw", cur);
    cur = pass("opt.refactor", "rf", cur);
    cur = pass("opt.balance", "b", cur);
    cur = pass("opt.rewrite", params.zero_gain_final ? "rwz" : "rw", cur);
    if (cur.num_gates() >= before) break;
  }
  return cur.num_gates();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans) {
  std::int64_t base = 0;
  for (const span& s : spans) base = std::min(base, s.start_us);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(s.name)
       << "\",\"ph\":\"X\",\"ts\":" << (s.start_us - base)
       << ",\"dur\":" << s.dur_us << ",\"pid\":" << static_cast<int>(s.where)
       << ",\"tid\":" << s.tid << ",\"args\":{\"op\":" << s.op
       << ",\"parent\":\""
       << (s.parent >= 0 ? json_escape(spans[s.parent].name) : "") << "\"}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::uint64_t rng64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double rng64::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::size_t rng64::below(std::size_t bound) {
  return bound == 0 ? 0 : static_cast<std::size_t>(next() % bound);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::string read_proc(int pid, const char* file) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/" + file);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

double proc_peak_rss_mb(int pid) {
  std::istringstream is(read_proc(pid, "status"));
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double proc_cpu_ms(int pid) {
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, in clock ticks.
  const std::string stat = read_proc(pid, "stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && is >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  static const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return ticks * 1000.0 / hz;
}

}  // namespace perfbench
