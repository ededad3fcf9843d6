/// Tests for the deterministic fault-injection subsystem (util/fault) and
/// the recovery behavior it exists to prove: schedule grammar, seeded
/// determinism, per-site counters; disk-cache crash consistency under
/// injected short writes / full disks / crashes on either side of the
/// rename (entries quarantined, never silently served); and the serve layer
/// under chaos — connection resets recovered byte-identically by the
/// retrying client, stalled peers reaped at the I/O deadline, daemon
/// restarts survived transparently mid-session.
#include "util/fault.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "flow/disk_cache.hpp"
#include "flow/flow.hpp"
#include "serve/client.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using namespace serve;

/// The registry is process-global: every test disarms AND clears the rule
/// table (arm("") drops the rules, so counters of a previous test cannot
/// leak into this one's assertions).
struct fault_reset {
  fault_reset() { fault::arm(""); }
  ~fault_reset() { fault::arm(""); }
};

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_fault_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// One real flow_result to persist in disk-cache tests (computed once).
const flow::flow_result& sample_result() {
  static const flow::flow_result r = flow::run_flow("c432");
  return r;
}

std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (de.is_regular_file()) names.push_back(de.path().filename().string());
  }
  return names;
}

bool any_ends_with(const std::vector<std::string>& names,
                   const std::string& suffix) {
  for (const auto& n : names) {
    if (n.size() >= suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Schedule grammar and determinism.
// ---------------------------------------------------------------------------

TEST(FaultSchedule, ParsesArmsAndDescribes) {
  fault_reset guard;
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::describe(), "(disarmed)");
  fault::arm("seed=9; a.site:nth=2:repeat=3 , b.site:prob=0.5:repeat=0");
  EXPECT_TRUE(fault::armed());
  EXPECT_NE(fault::describe().find("a.site"), std::string::npos);
  // A site not in the schedule never fires.
  EXPECT_FALSE(fault::fire("c.not_scheduled"));
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::describe(), "(disarmed)");
  EXPECT_FALSE(fault::fire("a.site"));
}

TEST(FaultSchedule, FiresOnNthHitForRepeatCount) {
  fault_reset guard;
  fault::arm("x.site:nth=3:repeat=2");
  const std::vector<bool> expected{false, false, true, true, false, false};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fault::fire("x.site"), expected[i]) << "hit " << (i + 1);
  }
  const auto stats = fault::stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].site, "x.site");
  EXPECT_EQ(stats[0].hits, expected.size());
  EXPECT_EQ(stats[0].fired, 2u);
  EXPECT_EQ(fault::total_fired(), 2u);
  // Counters survive disarm() for post-drill assertions.
  fault::disarm();
  EXPECT_EQ(fault::total_fired(), 2u);
}

TEST(FaultSchedule, RepeatZeroFiresForever) {
  fault_reset guard;
  fault::arm("x.site:nth=2:repeat=0");
  EXPECT_FALSE(fault::fire("x.site"));
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(fault::fire("x.site"));
}

TEST(FaultSchedule, ProbabilisticFiringIsSeedDeterministic) {
  fault_reset guard;
  const std::string schedule = "seed=123;p.site:prob=0.4:repeat=0";
  const auto run = [&] {
    fault::arm(schedule);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(fault::fire("p.site"));
    return pattern;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> again = run();
  EXPECT_EQ(first, again);  // same seed -> same failure sequence
  const auto fired = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, first.size());  // prob < 1 actually thins the fires
}

TEST(FaultSchedule, MalformedSchedulesThrowWithoutDisturbingTheArmedOne) {
  fault_reset guard;
  fault::arm("good.site:repeat=0");
  for (const char* bad :
       {"x:nth=0", "x:prob=1.5", "x:prob=-0.1", "x:nth=abc", "x:wat=1",
        "seed=1:nth=2", "x:prob", ":nth=1", "seed=zzz"}) {
    EXPECT_THROW(fault::arm(bad), std::invalid_argument) << bad;
  }
  // A rejected schedule must not have replaced the working one.
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::fire("good.site"));
}

TEST(FaultSchedule, ArmsFromEnvironment) {
  fault_reset guard;
  ::unsetenv("XSFQ_FAULTS");
  EXPECT_FALSE(fault::arm_from_env());
  ::setenv("XSFQ_FAULTS", "env.site:repeat=0", 1);
  EXPECT_TRUE(fault::arm_from_env());
  EXPECT_TRUE(fault::fire("env.site"));
  ::unsetenv("XSFQ_FAULTS");
}

// ---------------------------------------------------------------------------
// Disk cache: crash consistency under injected storage failures.
// ---------------------------------------------------------------------------

TEST(FaultDiskCache, ShortWriteReadsAsMissAndIsQuarantined) {
  fault_reset guard;
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  flow::disk_result_cache cache(cache_dir);
  fault::arm("disk_cache.write.short");
  cache.store(1, 2, sample_result());  // truncated bytes survive the rename
  fault::disarm();

  EXPECT_FALSE(cache.load(1, 2).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_GE(stats.misses, 1u);
  // The poisoned bytes were preserved for inspection, not erased.
  EXPECT_TRUE(any_ends_with(files_in(cache.quarantine_directory()),
                            ".undecodable"));
  EXPECT_FALSE(any_ends_with(files_in(cache_dir), ".xfr"));

  // A clean rewrite of the same key serves again.
  cache.store(1, 2, sample_result());
  const auto loaded = cache.load(1, 2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->optimized.content_hash(),
            sample_result().optimized.content_hash());
}

TEST(FaultDiskCache, EnospcDuringWriteLeavesNoEntryAndNoTemp) {
  fault_reset guard;
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  flow::disk_result_cache cache(cache_dir);
  fault::arm("disk_cache.write.enospc");
  cache.store(3, 4, sample_result());
  fault::disarm();

  EXPECT_FALSE(cache.load(3, 4).has_value());
  EXPECT_TRUE(files_in(cache_dir).empty());  // no entry, no tmp orphan
  EXPECT_EQ(cache.stats().writes, 0u);
}

TEST(FaultDiskCache, CrashBeforeRenameOrphansTmpWhichRecoveryQuarantines) {
  fault_reset guard;
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  {
    flow::disk_result_cache cache(cache_dir);
    fault::arm("disk_cache.rename.crash_before");
    cache.store(5, 6, sample_result());
    fault::disarm();
    EXPECT_FALSE(cache.load(5, 6).has_value());  // never renamed into place
  }
  const auto names = files_in(cache_dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find(".xfr.tmp."), std::string::npos);

  // A fresh daemon's recovery scan leaves a YOUNG orphan alone (a sibling
  // writer may be mid-store right now)...
  {
    flow::disk_result_cache cache(cache_dir);
    EXPECT_EQ(cache.stats().quarantined, 0u);
  }
  EXPECT_EQ(files_in(cache_dir).size(), 1u);
  // ...but quarantines one old enough to rule that out.
  const fs::path orphan = fs::path(cache_dir) / names[0];
  fs::last_write_time(orphan,
                      fs::file_time_type::clock::now() - std::chrono::hours(2));
  flow::disk_result_cache recovered(cache_dir);
  EXPECT_EQ(recovered.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(any_ends_with(files_in(recovered.quarantine_directory()),
                            ".orphaned_tmp"));
}

TEST(FaultDiskCache, CrashAfterRenameLeavesAServableEntry) {
  fault_reset guard;
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  {
    flow::disk_result_cache cache(cache_dir);
    fault::arm("disk_cache.rename.crash_after");
    cache.store(7, 8, sample_result());
    fault::disarm();
    EXPECT_EQ(cache.stats().writes, 0u);  // bookkeeping "crashed" away
  }
  // The atomic rename already committed the full bytes: a restarted daemon
  // serves the entry normally.
  flow::disk_result_cache cache(cache_dir);
  const auto loaded = cache.load(7, 8);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->optimized.content_hash(),
            sample_result().optimized.content_hash());
}

TEST(FaultDiskCache, CorruptionClassesAreQuarantinedWithTypedReasons) {
  fault_reset guard;
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  std::string entry_a, entry_b;
  {
    flow::disk_result_cache cache(cache_dir);
    cache.store(0x10, 0x11, sample_result());
    cache.store(0x20, 0x21, sample_result());
    cache.store(0x30, 0x31, sample_result());  // stays pristine
    entry_a = cache_dir + "/0000000000000010-0000000000000011.xfr";
    entry_b = cache_dir + "/0000000000000020-0000000000000021.xfr";
    ASSERT_TRUE(fs::exists(entry_a));
    ASSERT_TRUE(fs::exists(entry_b));
  }
  const auto original_size = fs::file_size(entry_a);
  const auto flip_bytes = [](const std::string& path, std::size_t offset,
                             std::size_t count) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    for (std::size_t i = 0; i < count; ++i) {
      f.seekg(static_cast<std::streamoff>(offset + i));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(offset + i));
      f.put(static_cast<char>(byte ^ 0x41));
    }
  };

  // Header bit-flip (magic): caught by the startup recovery scan.
  flip_bytes(entry_a, 0, 1);
  // Body bit-flips right after the 24-byte prologue: the header is sound,
  // so the entry survives the scan and dies (and is quarantined) on the
  // load path's full structural verification instead.
  flip_bytes(entry_b, 24, 64);
  // Key mismatch: a valid entry filed under the wrong name.
  const std::string wrong_name =
      cache_dir + "/00000000000000aa-00000000000000bb.xfr";
  fs::copy_file(cache_dir + "/0000000000000030-0000000000000031.xfr",
                wrong_name);
  // Name that is not <hex>-<hex>.xfr at all.
  const std::string bad_name = cache_dir + "/not-a-cache-key.xfr";
  std::ofstream(bad_name, std::ios::binary) << "junk";
  // Too short to even hold the 24-byte prologue.
  const std::string stub = cache_dir + "/0000000000000040-0000000000000041.xfr";
  std::ofstream(stub, std::ios::binary) << "XFRC";

  flow::disk_result_cache cache(cache_dir);
  EXPECT_EQ(cache.stats().quarantined, 4u);  // magic, keys, name, truncated
  EXPECT_FALSE(cache.load(0x10, 0x11).has_value());
  EXPECT_FALSE(cache.load(0x20, 0x21).has_value());  // body flip -> load path
  EXPECT_EQ(cache.stats().quarantined, 5u);
  const auto quarantined = files_in(cache.quarantine_directory());
  EXPECT_TRUE(any_ends_with(quarantined, ".bad_magic"));
  EXPECT_TRUE(any_ends_with(quarantined, ".key_mismatch"));
  EXPECT_TRUE(any_ends_with(quarantined, ".bad_name"));
  EXPECT_TRUE(any_ends_with(quarantined, ".truncated_header"));
  EXPECT_TRUE(any_ends_with(quarantined, ".undecodable"));
  // Quarantine preserves the evidence byte for byte.
  EXPECT_EQ(fs::file_size(fs::path(cache.quarantine_directory()) /
                          "0000000000000010-0000000000000011.xfr.bad_magic"),
            original_size);
  // The untouched entry still serves.
  EXPECT_TRUE(cache.load(0x30, 0x31).has_value());
}

// ---------------------------------------------------------------------------
// Serve layer under chaos.
// ---------------------------------------------------------------------------

/// Raw Unix-socket connection for tests that stall on purpose.
struct raw_unix_conn {
  int fd;
  explicit raw_unix_conn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }
  ~raw_unix_conn() { ::close(fd); }
};

endpoint unix_endpoint(const std::string& socket_path) {
  endpoint ep;
  ep.socket_path = socket_path;
  return ep;
}

TEST(FaultServe, ConnectionResetMidResponseRecoveredByteIdentically) {
  fault_reset guard;
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.cache_dir = dir.path + "/cache";
  options.threads = 2;
  server srv(options);

  const synth_request req = make_request_for_spec("c432");
  std::string expected_report;
  {
    client cli(options.socket_path);  // fault-free reference run
    const synth_response clean = cli.submit(req);
    ASSERT_TRUE(clean.ok);
    expected_report = clean.report;
  }

  // The daemon's next response write "resets" the connection; the retrying
  // client must resubmit and land the byte-identical (cached) result.
  fault::arm("serve.send.reset");
  fleet_options fopts;
  fopts.policy.max_retries = 4;
  fopts.policy.initial_backoff_ms = 5;
  fleet_client fleet({unix_endpoint(options.socket_path)}, fopts);
  const synth_response recovered = fleet.submit(req);
  fault::disarm();
  ASSERT_TRUE(recovered.ok);
  EXPECT_EQ(recovered.report, expected_report);
  EXPECT_GE(fleet.counters().failovers, 1u);
  EXPECT_GE(fleet.endpoint_statuses()[0].requests, 2u);
  EXPECT_EQ(fault::total_fired(), 1u);
}

TEST(FaultServe, InjectedRecvStallSurfacesTypedTimeoutAndCountsIt) {
  fault_reset guard;
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 1;
  server srv(options);

  // Raw connection: after the stall fires the daemon pushes the typed
  // error unprompted and closes, so the test must READ without writing
  // again (a write would race the close into EPIPE).
  raw_unix_conn conn(options.socket_path);
  write_frame_fd(conn.fd, msg_type::ping, {});
  auto pong = read_frame_fd(conn.fd);
  ASSERT_TRUE(pong.has_value());
  ASSERT_EQ(pong->type, msg_type::pong);
  fault::arm("serve.recv.stall");
  // The handler's next fire-check stalls it; depending on where the handler
  // thread was when we armed, that is before or after this ping.
  write_frame_fd(conn.fd, msg_type::ping, {});
  auto reply = read_frame_fd(conn.fd);
  ASSERT_TRUE(reply.has_value());
  if (reply->type == msg_type::pong) {
    reply = read_frame_fd(conn.fd);  // the unprompted error frame
    ASSERT_TRUE(reply.has_value());
  }
  EXPECT_EQ(reply->type, msg_type::error);
  EXPECT_EQ(decode_error(reply->payload).code, error_code::io_timeout);
  EXPECT_FALSE(read_frame_fd(conn.fd).has_value());  // closed after
  fault::disarm();

  client fresh(options.socket_path);
  const server_stats_reply stats = fresh.server_stats();
  EXPECT_EQ(stats.io_timeouts, 1u);
  EXPECT_EQ(stats.fault_fired, 1u);
  ASSERT_EQ(stats.fault_sites.size(), 1u);
  EXPECT_EQ(stats.fault_sites[0].site, "serve.recv.stall");
  EXPECT_EQ(stats.fault_sites[0].fired, 1u);
  // The scrape rendering carries the chaos counters for the CI greps.
  const std::string text = format_server_stats_text(stats);
  EXPECT_NE(text.find("xsfq_io_timeouts_total 1"), std::string::npos);
  EXPECT_NE(text.find("xsfq_fault_fired_total 1"), std::string::npos);
  EXPECT_NE(text.find("xsfq_fault_fired{site=\"serve.recv.stall\"} 1"),
            std::string::npos)
      << text;
}

TEST(FaultServe, StalledPeerIsReapedWithinTwiceTheIoDeadline) {
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 1;
  options.io_timeout_ms = 1000;
  server srv(options);

  // A slowloris peer: two header bytes, then silence.  The handler must
  // come back from read_frame_fd at the deadline, answer with a typed
  // io_timeout error, and close — reclaiming its thread.
  raw_unix_conn conn(options.socket_path);
  const std::uint8_t partial[2] = {0x01, 0x00};
  ASSERT_EQ(::send(conn.fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  const auto start = std::chrono::steady_clock::now();
  const auto reply = read_frame_fd(conn.fd);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, msg_type::error);
  EXPECT_EQ(decode_error(reply->payload).code, error_code::io_timeout);
  EXPECT_LT(elapsed_ms, 2.0 * options.io_timeout_ms);
  EXPECT_FALSE(read_frame_fd(conn.fd).has_value());  // connection closed

  client cli(options.socket_path);  // the daemon itself kept serving
  EXPECT_TRUE(cli.ping());
  EXPECT_EQ(cli.server_stats().io_timeouts, 1u);
}

TEST(FaultServe, IdlePeerIsReapedAtTheIdleDeadline) {
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 1;
  options.idle_timeout_ms = 300;
  server srv(options);

  // Connects and never sends a byte: reaped at the idle deadline (between
  // frames the io deadline does not apply — an idle client is legitimate
  // unless the operator bounds it).
  raw_unix_conn conn(options.socket_path);
  const auto reply = read_frame_fd(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, msg_type::error);
  EXPECT_EQ(decode_error(reply->payload).code, error_code::io_timeout);
  EXPECT_FALSE(read_frame_fd(conn.fd).has_value());
}

TEST(FaultServe, InjectedConnectFailureRetriedTransparently) {
  fault_reset guard;
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 1;
  server srv(options);

  fault::arm("client.connect.fail");
  EXPECT_THROW({ client direct(options.socket_path); }, std::runtime_error);

  fault::arm("client.connect.fail");  // re-arm: the retrying path eats it
  fleet_options fopts;
  fopts.policy.max_retries = 3;
  fopts.policy.initial_backoff_ms = 5;
  fleet_client fleet({unix_endpoint(options.socket_path)}, fopts);
  EXPECT_TRUE(fleet.submit(make_request_for_spec("c432")).ok);
  fault::disarm();
  EXPECT_EQ(fleet.counters().failovers, 1u);
  // The failed dial never reached the endpoint.
  EXPECT_EQ(fleet.endpoint_statuses()[0].requests, 1u);
}

TEST(FaultServe, DaemonRestartMidSessionIsTransparentOverTcpWithAuth) {
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.listen_address = "127.0.0.1:0";
  options.auth_token = "hunter2";
  options.cache_dir = dir.path + "/cache";
  options.threads = 2;
  auto srv = std::make_unique<server>(options);
  const std::uint16_t port = srv->tcp_port();
  ASSERT_NE(port, 0);

  endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = port;
  ep.auth_token = "hunter2";
  fleet_options fopts;
  fopts.policy.max_retries = 6;
  fopts.policy.initial_backoff_ms = 10;
  fleet_client fleet({ep}, fopts);

  const synth_request req = make_request_for_spec("c432");
  const synth_response cold = fleet.submit(req);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(fleet.endpoint_statuses()[0].requests, 1u);

  // Kill and restart the daemon on the same port and cache directory.  The
  // client's live connection is now dead; the next request must reconnect,
  // replay auth, resubmit, and land the byte-identical disk-cached result.
  srv->stop();
  srv.reset();
  options.listen_address = "127.0.0.1:" + std::to_string(port);
  srv = std::make_unique<server>(options);

  const synth_response warm = fleet.submit(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_TRUE(warm.served_from_cache);
  // The cold send, the send on the dead connection, and the resend.
  EXPECT_GE(fleet.endpoint_statuses()[0].requests, 3u);
  EXPECT_GE(fleet.counters().failovers, 1u);
}

}  // namespace
}  // namespace xsfq
