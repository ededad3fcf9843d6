/// Tests the Prometheus plaintext rendering of the server_stats scrape
/// (format_server_stats_text in serve/synth_service.hpp) against the
/// standalone lint in tools/check_prometheus_text.py: metric-name and
/// label-escaping rules, and `_total`/`_count` monotonicity across two
/// scrapes.  The python checker is the exact tool the CI serve smoke runs
/// against a live daemon, so this test keeps the renderer and the checker
/// honest against each other without needing a socket.
///
/// Skips (not fails) when python3 is unavailable in the environment.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/synth_service.hpp"
#include "util/histogram.hpp"

namespace fs = std::filesystem;

namespace xsfq {
namespace {

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_prom_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

bool have_python3() {
  return std::system("python3 -c 'pass' >/dev/null 2>&1") == 0;
}

std::string checker_path() {
  return std::string(XSFQ_SOURCE_DIR) + "/tools/check_prometheus_text.py";
}

int run_checker(const std::string& args) {
  const std::string cmd =
      "python3 " + checker_path() + " " + args + " >/dev/null 2>&1";
  return std::system(cmd.c_str());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// A scrape with every section populated: non-zero counters, a fault
/// site (exercises label escaping), and two histograms.
serve::server_stats_reply sample_stats() {
  serve::server_stats_reply stats;
  stats.status.jobs_submitted = 10;
  stats.status.jobs_completed = 9;
  stats.status.jobs_failed = 1;
  stats.status.active_connections = 2;
  stats.status.worker_threads = 4;
  stats.status.uptime_s = 12.5;
  stats.cache.full_hits = 5;
  stats.cache.full_misses = 5;
  stats.cache.disk_writes = 3;
  stats.accepted = 10;
  stats.rejected_overload = 1;
  stats.rejected_auth = 2;
  stats.peak_queue_depth = 4;
  stats.queue_depth = 1;
  stats.inflight = 2;
  stats.max_queue = 64;
  stats.max_inflight = 8;
  stats.max_conns = 32;
  stats.eco_requests = 3;
  stats.eco_retained_hits = 2;
  stats.io_timeouts = 1;
  stats.fault_fired = 2;
  stats.trace_spans_recorded = 100;
  stats.trace_spans_dropped = 1;
  stats.fault_sites.push_back({"disk.write", 7, 2});
  serve::histogram_snapshot h;
  h.name = "request_total";
  h.count = 10;
  h.sum_ms = 17.25;
  h.max_ms = 4.5;
  h.buckets.assign(log_histogram::num_buckets, 0);
  h.buckets[3] = 10;
  stats.histograms.push_back(h);
  h.name = "stage:optimize";  // ':' is legal in a metric/label value
  stats.histograms.push_back(h);
  return stats;
}

TEST(PrometheusText, SelfTestPasses) {
  if (!have_python3()) GTEST_SKIP() << "python3 not available";
  EXPECT_EQ(run_checker("--self-test"), 0);
}

TEST(PrometheusText, RenderedScrapePassesTheLint) {
  if (!have_python3()) GTEST_SKIP() << "python3 not available";
  temp_dir dir;
  const std::string path = dir.path + "/scrape1.txt";
  write_file(path, serve::format_server_stats_text(sample_stats()));
  EXPECT_EQ(run_checker(path), 0)
      << "format_server_stats_text output rejected by the lint";
}

TEST(PrometheusText, GrowingCountersPassMonotonicity) {
  if (!have_python3()) GTEST_SKIP() << "python3 not available";
  temp_dir dir;
  serve::server_stats_reply s1 = sample_stats();
  serve::server_stats_reply s2 = s1;
  s2.status.jobs_submitted += 5;
  s2.accepted += 5;
  s2.trace_spans_recorded += 50;
  s2.histograms[0].count += 5;
  s2.histograms[0].buckets[3] += 5;
  const std::string p1 = dir.path + "/scrape1.txt";
  const std::string p2 = dir.path + "/scrape2.txt";
  write_file(p1, serve::format_server_stats_text(s1));
  write_file(p2, serve::format_server_stats_text(s2));
  EXPECT_EQ(run_checker(p1 + " " + p2), 0);
}

TEST(PrometheusText, ShrinkingCounterFailsMonotonicity) {
  if (!have_python3()) GTEST_SKIP() << "python3 not available";
  temp_dir dir;
  serve::server_stats_reply s1 = sample_stats();
  serve::server_stats_reply s2 = s1;
  s2.status.jobs_submitted -= 5;  // a counter must never go backwards
  const std::string p1 = dir.path + "/scrape1.txt";
  const std::string p2 = dir.path + "/scrape2.txt";
  write_file(p1, serve::format_server_stats_text(s1));
  write_file(p2, serve::format_server_stats_text(s2));
  EXPECT_NE(run_checker(p1 + " " + p2), 0)
      << "checker accepted a decreasing _total counter";
}

TEST(PrometheusText, MalformedExpositionFails) {
  if (!have_python3()) GTEST_SKIP() << "python3 not available";
  temp_dir dir;
  const std::string path = dir.path + "/bad.txt";
  write_file(path, "9bad_name 1\n");
  EXPECT_NE(run_checker(path), 0);
}

TEST(PrometheusText, LabelValuesFromOutsideAreEscaped) {
  // Fault sites come from --faults=/XSFQ_FAULTS, endpoint ids from
  // --socket/--tcp/--fleet: any text, quotes and backslashes included.
  serve::fleet_stats fleet;
  fleet.merged = sample_stats();
  fleet.merged.fault_sites.push_back({"odd\"site", 1000, 0});
  fleet.merged.histograms[1].name = "two\nlines";
  fleet.endpoints_total = 1;
  serve::endpoint_status ep;
  ep.id = "unix:/tmp/a\"b\\c.sock";
  ep.health = serve::endpoint_health::down;
  fleet.endpoints.push_back(ep);
  const std::string text = serve::format_fleet_stats_text(fleet);
  EXPECT_NE(text.find("\nxsfq_fault_hits{site=\"odd\\\"site\"} 1000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nxsfq_latency_ms_count{name=\"two\\nlines\"} 10\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("\nxsfq_fleet_endpoint_up{endpoint=\"unix:/tmp/a\\\"b\\\\c"
                ".sock\"} 0\n"),
      std::string::npos)
      << text;
  if (!have_python3()) GTEST_SKIP() << "python3 not available";
  temp_dir dir;
  const std::string path = dir.path + "/fleet.txt";
  write_file(path, text);
  EXPECT_EQ(run_checker(path), 0) << "escaped scrape rejected by the lint";
}

TEST(PrometheusText, BuildInfoAndTraceCountersAreExposed) {
  const std::string text = serve::format_server_stats_text(sample_stats());
  EXPECT_EQ(text.find("xsfq_build_info{version=\""), 0u)
      << "build info should lead the scrape";
  EXPECT_NE(text.find("git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("xsfq_trace_spans_recorded_total 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("xsfq_trace_spans_dropped_total 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace xsfq
