/// Tests for the retrying fleet client (serve/fleet.hpp) against real
/// in-process daemons: routed placement, byte-identical failover when a
/// shard dies mid-corpus, the health state machine's probe-driven recovery,
/// the fleet.* fault sites, hedged sends (and no hedge without a replica to
/// take over), the unknown_base → full resynthesis ECO fallback, progress
/// and trace through one- and two-endpoint fleets, the fleet.* log lines,
/// and the merged --stats scrape.
#include "serve/fleet.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "aig/edit.hpp"
#include "flow/batch_runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using namespace serve;

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_fleet_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// N in-process daemons, each on its own Unix socket, plus the fleet
/// endpoint list pointing at them.
struct fleet_fixture {
  temp_dir dir;
  std::vector<std::unique_ptr<server>> servers;

  explicit fleet_fixture(std::size_t n, unsigned threads = 2) {
    for (std::size_t i = 0; i < n; ++i) {
      server_options options;
      options.socket_path = socket_path(i);
      options.threads = threads;
      servers.push_back(std::make_unique<server>(options));
    }
  }

  std::string socket_path(std::size_t i) const {
    return dir.path + "/shard" + std::to_string(i) + ".sock";
  }

  std::vector<endpoint> endpoints() const {
    std::vector<endpoint> eps;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      endpoint ep;
      ep.socket_path = socket_path(i);
      eps.push_back(std::move(ep));
    }
    return eps;
  }

  /// Index of the daemon whose ring identity is `id` ("unix:<path>").
  std::size_t index_of(const std::string& id) const {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (id == "unix:" + socket_path(i)) return i;
    }
    ADD_FAILURE() << "no shard with id " << id;
    return 0;
  }
};

/// Fast-converging fleet options for tests: quick sweeps, quick probes,
/// one failure marks an endpoint down.
fleet_options test_options() {
  fleet_options o;
  o.policy.max_retries = 2;
  o.policy.initial_backoff_ms = 1;
  o.policy.max_backoff_ms = 20;
  o.probe_interval_ms = 5;
  o.down_after = 1;
  return o;
}

/// A deterministic functional edit: flip the second fanin of a gate in the
/// middle of the node array (same shape as test_eco's helper).
std::string flip_gate_edit(const aig& g) {
  std::vector<aig::node_index> gates;
  for (aig::node_index n = 0; n < g.size(); ++n) {
    if (g.is_gate(n)) gates.push_back(n);
  }
  const aig::node_index target = gates.at(gates.size() / 2);
  const signal a = g.fanin0(target);
  const signal b = g.fanin1(target);
  const auto tok = [](const signal s) {
    return std::string(s.is_complemented() ? "!" : "") + "n" +
           std::to_string(s.index());
  };
  return "replace n" + std::to_string(target) + " " + tok(a) + " " +
         tok(!b) + "\n";
}

TEST(FleetEndToEnd, CorpusSurvivesShardDeathByteIdentically) {
  const std::vector<std::string> corpus{"c432", "c880", "c1908", "c6288"};

  // The single source of truth: a direct driver run of each circuit.
  flow::batch_runner local(2);
  std::vector<std::string> expected;
  for (const auto& name : corpus) {
    const synth_response r = run_synth(make_request_for_spec(name), local);
    ASSERT_TRUE(r.ok) << name;
    expected.push_back(r.report);
  }

  fleet_fixture fx(3);
  fleet_client fleet(fx.endpoints(), test_options());
  ASSERT_EQ(fleet.size(), 3u);

  // Healthy pass: every circuit routes and matches the direct run.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const synth_response r = fleet.submit(make_request_for_spec(corpus[i]));
    ASSERT_TRUE(r.ok) << corpus[i];
    EXPECT_EQ(r.report, expected[i]) << corpus[i];
  }
  EXPECT_EQ(fleet.counters().failovers, 0u);

  // Kill the primary owner of the first circuit (kill -9 equivalent for an
  // in-process daemon: stop unlinks the socket and refuses reconnects).
  const auto owners = fleet.owners_for(
      fleet_client::routing_key(make_request_for_spec(corpus[0])));
  ASSERT_EQ(owners.size(), 2u);  // replicas=2
  const std::size_t victim = fx.index_of(owners[0]);
  fx.servers[victim]->stop();

  // Full corpus again: every request still succeeds, byte-identical, and
  // at least the victim's keys needed a failover.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const synth_response r = fleet.submit(make_request_for_spec(corpus[i]));
    ASSERT_TRUE(r.ok) << corpus[i];
    EXPECT_EQ(r.report, expected[i]) << corpus[i];
  }
  EXPECT_GE(fleet.counters().failovers, 1u);

  // The health machinery noticed: the victim is no longer healthy.
  bool victim_unhealthy = false;
  for (const endpoint_status& st : fleet.endpoint_statuses()) {
    if (fx.index_of(st.id) == victim) {
      victim_unhealthy = st.health != endpoint_health::healthy;
    }
  }
  EXPECT_TRUE(victim_unhealthy);
}

TEST(FleetEndToEnd, ProbeRecoveryRestoresRoutingToRevivedShard) {
  fleet_fixture fx(2);
  fleet_options options = test_options();
  fleet_client fleet(fx.endpoints(), options);

  const synth_request req = make_request_for_spec("c432");
  const auto owners = fleet.owners_for(fleet_client::routing_key(req));
  const std::size_t primary = fx.index_of(owners[0]);

  ASSERT_TRUE(fleet.submit(req).ok);  // warm, healthy pass
  const std::string expected_report = fleet.submit(req).report;

  // Kill the primary; the next submit fails over and marks it down
  // (down_after=1 in test_options).
  fx.servers[primary]->stop();
  ASSERT_TRUE(fleet.submit(req).ok);
  EXPECT_GE(fleet.counters().failovers, 1u);
  for (const endpoint_status& st : fleet.endpoint_statuses()) {
    if (fx.index_of(st.id) == primary) {
      EXPECT_EQ(st.health, endpoint_health::down);
    }
  }

  // Revive the daemon on the same socket and let the probe interval lapse;
  // the next request probes (down -> probing), routes to the revived
  // primary again, and its success completes recovery to healthy.
  server_options srv_options;
  srv_options.socket_path = fx.socket_path(primary);
  srv_options.threads = 2;
  fx.servers[primary] = std::make_unique<server>(srv_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const synth_response r = fleet.submit(req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.report, expected_report);
  EXPECT_GE(fleet.counters().probes, 1u);
  for (const endpoint_status& st : fleet.endpoint_statuses()) {
    if (fx.index_of(st.id) == primary) {
      EXPECT_EQ(st.health, endpoint_health::healthy);
    }
  }
}

TEST(FleetFaults, RouteDownFaultForcesFailoverDeterministically) {
  fleet_fixture fx(2);
  fleet_client fleet(fx.endpoints(), test_options());

  fault::arm("fleet.route.down:nth=1");
  const synth_response r = fleet.submit(make_request_for_spec("c432"));
  fault::disarm();

  ASSERT_TRUE(r.ok);
  EXPECT_GE(fleet.counters().failovers, 1u);
  bool fired = false;
  for (const auto& site : fault::stats()) {
    if (site.site == "fleet.route.down") fired = site.fired == 1;
  }
  EXPECT_TRUE(fired);
}

TEST(FleetFaults, ProbeFailFaultKeepsEndpointDown) {
  fleet_fixture fx(2);
  fleet_client fleet(fx.endpoints(), test_options());

  const synth_request req = make_request_for_spec("c880");
  const std::size_t primary =
      fx.index_of(fleet.owners_for(fleet_client::routing_key(req))[0]);
  fx.servers[primary]->stop();
  ASSERT_TRUE(fleet.submit(req).ok);  // failover; primary marked down

  // Revive it — but force every probe to fail: the endpoint must stay
  // down (probe failures never promote), while requests keep succeeding
  // on the surviving replica.
  server_options srv_options;
  srv_options.socket_path = fx.socket_path(primary);
  srv_options.threads = 2;
  fx.servers[primary] = std::make_unique<server>(srv_options);
  fault::arm("fleet.probe.fail:repeat=0");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(fleet.submit(req).ok);
  fault::disarm();

  EXPECT_GE(fleet.counters().probe_failures, 1u);
  for (const endpoint_status& st : fleet.endpoint_statuses()) {
    if (fx.index_of(st.id) == primary) {
      EXPECT_EQ(st.health, endpoint_health::down);
    }
  }
}

TEST(FleetFaults, TypedIoTimeoutCountsOneEndpointFailure) {
  // The daemon's I/O deadline answers a stalled recv with a typed
  // io_timeout; the fleet retries on its one endpoint and succeeds.  The
  // failed attempt is one failure on that endpoint, not two.
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 2;
  options.io_timeout_ms = 500;
  server srv(options);
  endpoint ep;
  ep.socket_path = options.socket_path;
  fleet_client fleet({ep}, test_options());

  fault::arm("serve.recv.stall:nth=1");
  const synth_response r = fleet.submit(make_request_for_spec("c432"));
  fault::disarm();

  ASSERT_TRUE(r.ok);
  EXPECT_EQ(fleet.counters().failovers, 1u);
  const std::vector<endpoint_status> statuses = fleet.endpoint_statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].requests, 2u);
  EXPECT_EQ(statuses[0].failures, 1u);
}

/// A Unix-socket endpoint that never answers: the kernel completes each
/// connection from the listen backlog, and nothing ever reads or replies.
struct silent_endpoint {
  std::string path;
  int fd = -1;

  explicit silent_endpoint(std::string socket_path)
      : path(std::move(socket_path)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 16) != 0) {
      ADD_FAILURE() << "cannot listen on " << path;
    }
  }
  ~silent_endpoint() {
    if (fd >= 0) ::close(fd);
    ::unlink(path.c_str());
  }
  silent_endpoint(const silent_endpoint&) = delete;
  silent_endpoint& operator=(const silent_endpoint&) = delete;
};

TEST(FleetEndToEnd, HedgedSendAbandonsSlowShardAndWinsOnReplica) {
  // The slow request's primary owner accepts and never replies, so under
  // any load its first attempt outlasts the ~1 ms hedge deadline: the hedge
  // fires and the replica, a real daemon, completes the request.
  temp_dir dir;
  const synth_request sample = make_request_for_spec("c432");
  const synth_request slow = make_request_for_spec("c6288");
  const std::uint64_t sample_key = fleet_client::routing_key(sample);
  const std::uint64_t slow_key = fleet_client::routing_key(slow);

  // Name the two sockets so that the silent one is the slow request's
  // primary owner and the daemon the sample's: about one pair of names in
  // four places them so.
  endpoint primary;
  endpoint replica;
  for (int i = 0; i < 256; ++i) {
    primary.socket_path = dir.path + "/silent" + std::to_string(i) + ".sock";
    replica.socket_path = dir.path + "/replica" + std::to_string(i) + ".sock";
    const fleet_client ring({primary, replica}, test_options());
    if (ring.owners_for(slow_key)[0] == fleet_client::endpoint_id(primary) &&
        ring.owners_for(sample_key)[0] == fleet_client::endpoint_id(replica)) {
      break;
    }
  }
  const silent_endpoint silent(primary.socket_path);
  server_options server_opts;
  server_opts.socket_path = replica.socket_path;
  server_opts.threads = 2;
  server srv(server_opts);

  fleet_options options = test_options();
  // Arm hedging after a single sample, with a floor so low every first
  // attempt runs under a ~1 ms deadline.
  options.hedge_min_samples = 1;
  options.hedge_floor_ms = 0.001;
  options.hedge_multiplier = 1e-9;
  fleet_client fleet({primary, replica}, options);
  ASSERT_EQ(fleet.owners_for(slow_key)[0], fleet_client::endpoint_id(primary));
  ASSERT_EQ(fleet.owners_for(sample_key)[0],
            fleet_client::endpoint_id(replica));

  flow::batch_runner local(2);
  const synth_response expected = run_synth(slow, local);
  ASSERT_TRUE(expected.ok);

  ASSERT_TRUE(fleet.submit(sample).ok);  // 1st sample
  const synth_response r = fleet.submit(slow);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.report, expected.report);
  EXPECT_GE(fleet.counters().hedged, 1u);
  EXPECT_GE(fleet.counters().hedge_wins, 1u);
}

TEST(FleetEndToEnd, SingleOwnerIsNeverHedged) {
  // Same hedge arming as above, but with one owner per key and one sweep:
  // no replica can take over, so the first attempt must wait for the cold
  // c6288 run instead of being abandoned at a ~1 ms deadline.
  fleet_fixture fx(2);
  fleet_options options = test_options();
  options.replicas = 1;
  options.policy.max_retries = 0;
  options.hedge_min_samples = 1;
  options.hedge_floor_ms = 0.001;
  options.hedge_multiplier = 1e-9;
  fleet_client fleet(fx.endpoints(), options);

  flow::batch_runner local(2);
  const synth_request slow = make_request_for_spec("c6288");
  const synth_response expected = run_synth(slow, local);
  ASSERT_TRUE(expected.ok);

  ASSERT_TRUE(fleet.submit(make_request_for_spec("c432")).ok);  // 1st sample
  const synth_response r = fleet.submit(slow);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.report, expected.report);
  EXPECT_EQ(fleet.counters().hedged, 0u);
  EXPECT_EQ(fleet.counters().hedge_wins, 0u);
  EXPECT_EQ(fleet.counters().failovers, 0u);
}

/// A traced c432 request: the id makes the daemon collect its spans.
synth_request traced_c432(trace::trace_id id) {
  synth_request req = make_request_for_spec("c432");
  req.trace_hi = id.hi;
  req.trace_lo = id.lo;
  return req;
}

bool has_span(const trace_reply& reply, const std::string& name) {
  for (const auto& span : reply.spans) {
    if (span.name == name) return true;
  }
  return false;
}

TEST(FleetEndToEnd, OneEndpointStreamsProgressAndTraces) {
  flow::batch_runner local(2);
  const synth_response expected =
      run_synth(make_request_for_spec("c432"), local);
  ASSERT_TRUE(expected.ok);

  // A single daemon is a fleet of one: the same client streams progress
  // and fetches the request's spans.
  fleet_fixture fx(1);
  fleet_client fleet(fx.endpoints(), test_options());
  const trace::trace_id id{0x0123, 0x4567};
  synth_request req = traced_c432(id);
  req.stream_progress = true;
  std::vector<progress_event> events;
  const synth_response r =
      fleet.submit(req, [&](const progress_event& e) { events.push_back(e); });
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.report, expected.report);
  EXPECT_FALSE(events.empty());

  const trace_reply spans = fleet.trace({id.hi, id.lo});
  EXPECT_TRUE(has_span(spans, "request_total"));
}

TEST(FleetEndToEnd, TraceAfterFailoverAsksTheSurvivor) {
  fleet_fixture fx(2);
  fleet_client fleet(fx.endpoints(), test_options());
  const trace::trace_id id{0x89ab, 0xcdef};
  const synth_request req = traced_c432(id);
  const std::size_t primary =
      fx.index_of(fleet.owners_for(fleet_client::routing_key(req))[0]);
  fx.servers[primary]->stop();

  ASSERT_TRUE(fleet.submit(req).ok);
  EXPECT_GE(fleet.counters().failovers, 1u);
  // Only the survivor answered, so only it holds the spans.
  const trace_reply spans = fleet.trace({id.hi, id.lo});
  EXPECT_TRUE(has_span(spans, "request_total"));
}

/// Captures every log line for the guard's lifetime.  Declare it before any
/// in-process daemon so the sink outlives their logging threads.
struct log_capture {
  std::mutex mu;
  std::vector<std::string> lines;
  log_capture() {
    log::set_sink([this](std::string_view ln) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.emplace_back(ln);
    });
  }
  ~log_capture() { log::set_sink(nullptr); }

  /// The first captured line naming `event`, or "" when there is none.
  std::string find(const std::string& event) {
    const std::lock_guard<std::mutex> lock(mu);
    for (const auto& ln : lines) {
      if (ln.find("event=" + event + " ") != std::string::npos) return ln;
    }
    return "";
  }
};

TEST(FleetLogs, FailoverAndStatsFailureLinesSayWhy) {
  log_capture capture;
  fleet_fixture fx(2);
  fleet_client fleet(fx.endpoints(), test_options());
  const trace::trace_id id{0x1111, 0x2222};
  const synth_request req = traced_c432(id);
  const std::string victim =
      fleet.owners_for(fleet_client::routing_key(req))[0];
  fx.servers[fx.index_of(victim)]->stop();

  {
    trace::context_scope scope(id);
    ASSERT_TRUE(fleet.submit(req).ok);
  }
  const std::string failover = capture.find("fleet.failover");
  EXPECT_NE(failover.find("trace_id=" + trace::to_hex(id)), std::string::npos)
      << failover;
  EXPECT_NE(failover.find(victim), std::string::npos) << failover;

  // The scrape still succeeds on the survivor; the dead endpoint's failure
  // is logged with its id and the error instead of vanishing.
  EXPECT_EQ(fleet.stats().endpoints_up, 1u);
  const std::string stats_fail = capture.find("fleet.stats.fail");
  EXPECT_NE(stats_fail.find(victim), std::string::npos) << stats_fail;
  EXPECT_NE(stats_fail.find("cannot connect"), std::string::npos)
      << stats_fail;
}

TEST(FleetEco, UnknownBaseFallsBackToFullResynthesisByteIdentically) {
  // Expected: the same delta served by a lone daemon with no fault armed
  // (it rebuilds the base from the embedded request and replays the edit).
  synth_request base = make_request_for_spec("c432");
  const aig base_net = load_request_circuit(base);
  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = flip_gate_edit(base_net);

  std::string expected_report;
  std::uint64_t expected_hash = 0;
  {
    fleet_fixture lone(1);
    client cli(lone.socket_path(0));
    const synth_response r = cli.submit_delta(dreq);
    ASSERT_TRUE(r.ok) << r.error;
    expected_report = r.report;
    expected_hash = r.content_hash;
  }

  // Fleet path: the owner shard is forced to answer unknown_base (the
  // injected stand-in for "this delta failed over to a shard that never
  // retained the base and cannot rebuild it").  The fleet applies the edit
  // locally and submits the edited circuit as a plain request.
  fleet_fixture fx(2);
  fleet_client fleet(fx.endpoints(), test_options());
  fault::arm("serve.eco.unknown_base:nth=1");
  const synth_response r = fleet.submit_delta(dreq);
  fault::disarm();

  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.report, expected_report);
  EXPECT_EQ(r.content_hash, expected_hash);
  EXPECT_EQ(fleet.counters().eco_full_fallbacks, 1u);

  // A chained delta naming an intermediate hash the embedded base does not
  // match is unrecoverable by design: the typed error must stand.
  aig edited = base_net;
  eco::apply_edit_text(edited, dreq.edit_text);
  synth_delta_request chained = dreq;
  chained.base_content_hash = edited.content_hash();  // embedded base lies
  fault::arm("serve.eco.unknown_base:nth=1");
  try {
    (void)fleet.submit_delta(chained);
    FAIL() << "chained unknown_base should not be recoverable";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::unknown_base);
  }
  fault::disarm();
}

TEST(FleetStats, MergedScrapeSumsShardsAndReportsHealth) {
  fleet_fixture fx(3);
  fleet_client fleet(fx.endpoints(), test_options());

  // Two distinct circuits land wherever the ring says; the merged scrape
  // must account for both no matter the placement.
  ASSERT_TRUE(fleet.submit(make_request_for_spec("c432")).ok);
  ASSERT_TRUE(fleet.submit(make_request_for_spec("c880")).ok);

  fleet_stats stats = fleet.stats();
  EXPECT_EQ(stats.endpoints_total, 3u);
  EXPECT_EQ(stats.endpoints_up, 3u);
  EXPECT_EQ(stats.merged.status.jobs_submitted, 2u);
  EXPECT_EQ(stats.merged.status.jobs_completed, 2u);
  EXPECT_EQ(stats.merged.status.worker_threads, 6u);  // 3 daemons x 2
  EXPECT_EQ(stats.counters.requests, 2u);
  ASSERT_EQ(stats.endpoints.size(), 3u);

  const std::string text = format_fleet_stats_text(stats);
  EXPECT_NE(text.find("xsfq_jobs_submitted_total 2"), std::string::npos);
  EXPECT_NE(text.find("xsfq_fleet_endpoints 3"), std::string::npos);
  EXPECT_NE(text.find("xsfq_fleet_endpoints_up 3"), std::string::npos);
  EXPECT_NE(text.find("xsfq_fleet_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("xsfq_fleet_endpoint_up{endpoint=\"unix:" +
                      fx.socket_path(0) + "\"} 1"),
            std::string::npos)
      << text;

  // Stop one shard: the scrape degrades instead of throwing, and the dead
  // endpoint reports down with up 0.
  fx.servers[1]->stop();
  stats = fleet.stats();
  EXPECT_EQ(stats.endpoints_total, 3u);
  EXPECT_EQ(stats.endpoints_up, 2u);
  const std::string degraded = format_fleet_stats_text(stats);
  EXPECT_NE(degraded.find("xsfq_fleet_endpoint_up{endpoint=\"unix:" +
                          fx.socket_path(1) + "\"} 0"),
            std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("state=\"down\"} 1"), std::string::npos);
}

}  // namespace
}  // namespace xsfq
