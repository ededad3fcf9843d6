/// Tests for the serve subsystem: frame codec hardening (truncated,
/// oversized, version-mismatched, garbage frames), payload round trips,
/// and the in-process server end to end — concurrent clients receiving
/// byte-identical responses to direct driver runs, streamed progress,
/// warm disk-cache hits across a daemon restart, graceful drain, TCP with
/// shared-secret auth, typed cross-version errors, admission shedding
/// (overload + deadline), the connection cap, the accept/reap race, and the
/// server_stats scrape folded from the traced spans.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "benchgen/registry.hpp"
#include "codec_sweep.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "serve/client.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using namespace serve;
using codec_test::sweep_decoder;
using codec_test::to_hex;

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_serve_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// read_fn over an in-memory byte buffer (possibly truncated).
read_fn buffer_reader(std::vector<std::uint8_t> bytes) {
  auto state = std::make_shared<std::pair<std::vector<std::uint8_t>,
                                          std::size_t>>(std::move(bytes), 0);
  return [state](void* dst, std::size_t n) -> std::size_t {
    const std::size_t avail = state->first.size() - state->second;
    const std::size_t take = std::min(n, avail);
    if (take > 0) {
      std::memcpy(dst, state->first.data() + state->second, take);
      state->second += take;
    }
    return take;
  };
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 250};
  const auto bytes = encode_frame(msg_type::submit, payload);
  const auto f = read_frame(buffer_reader(bytes));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, msg_type::submit);
  EXPECT_EQ(f->payload, payload);
  // Clean end-of-stream before any header byte is not an error.
  EXPECT_FALSE(read_frame(buffer_reader({})).has_value());
}

TEST(ServeProtocol, TruncatedFramesRejected) {
  const auto bytes =
      encode_frame(msg_type::submit, std::vector<std::uint8_t>(16, 7));
  // Every strict prefix must throw (header or payload truncation).
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{5}, std::size_t{6}, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(read_frame(buffer_reader(cut)), protocol_error) << keep;
  }
}

TEST(ServeProtocol, OversizedAndGarbageFramesRejected) {
  // Header announcing more than max_frame_payload.
  byte_writer w;
  w.u32(max_frame_payload + 1);
  w.u8(protocol_version);
  w.u8(static_cast<std::uint8_t>(msg_type::submit));
  EXPECT_THROW(read_frame(buffer_reader(w.take())), protocol_error);
  // Implausible version bytes (how arbitrary garbage usually dies): zero and
  // far-future both throw at the frame level.
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{250}}) {
    byte_writer v;
    v.u32(0);
    v.u8(bad);
    v.u8(static_cast<std::uint8_t>(msg_type::ping));
    EXPECT_THROW(read_frame(buffer_reader(v.take())), protocol_error)
        << unsigned{bad};
  }
  // A *plausible* foreign version parses structurally (frozen header) and
  // surfaces in frame::version so the caller can answer with a typed error.
  const auto foreign =
      encode_frame(msg_type::ping, {}, protocol_version + 1);
  const auto f = read_frame(buffer_reader(foreign));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, protocol_version + 1);
  EXPECT_EQ(f->type, msg_type::ping);
  // Garbage payload on a valid frame dies in the payload decoder.
  const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef, 0x41, 0x41};
  EXPECT_THROW(decode_synth_request(junk), serialize_error);
  EXPECT_THROW(decode_synth_response(junk), serialize_error);
}

TEST(ServeProtocol, V3PayloadRoundTrips) {
  // Admission fields on the request.
  synth_request req;
  req.spec = "c432";
  req.priority = 210;
  req.deadline_ms = 75.5;
  const synth_request back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.priority, 210u);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 75.5);

  const auth_request aback =
      decode_auth_request(encode_auth_request({"s3cret"}));
  EXPECT_EQ(aback.token, "s3cret");

  // Typed errors round trip; unknown future codes degrade to generic.
  const error_reply err =
      decode_error(encode_error(error_code::overloaded, "full"));
  EXPECT_EQ(err.code, error_code::overloaded);
  EXPECT_EQ(err.message, "full");
  EXPECT_EQ(err.retry_after_ms, 0u);
  byte_writer fw;
  fw.u8(200);  // a code this build does not know
  fw.str("from the future");
  const error_reply fut = decode_error(fw.take());
  EXPECT_EQ(fut.code, error_code::generic);
  EXPECT_EQ(fut.message, "from the future");
}

TEST(ServeProtocol, V6TracePayloadRoundTrips) {
  // The trace id rides the tail of synth_request (absent = 0/0 untraced).
  synth_request req;
  req.spec = "c432";
  req.trace_hi = 0x0123456789abcdefull;
  req.trace_lo = 0xfedcba9876543210ull;
  const synth_request back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.trace_hi, req.trace_hi);
  EXPECT_EQ(back.trace_lo, req.trace_lo);

  const trace_request tback = decode_trace_request(
      encode_trace_request({0x1111ull, 0x2222ull}));
  EXPECT_EQ(tback.trace_hi, 0x1111ull);
  EXPECT_EQ(tback.trace_lo, 0x2222ull);

  trace_reply reply;
  reply.trace_hi = 0x1111ull;
  reply.trace_lo = 0x2222ull;
  reply.spans.push_back({"queue_wait", 100, 25, 3});
  reply.spans.push_back({"stage:optimize", 130, 900, 4});
  reply.spans.push_back({"request_total", 100, 1000, 3});
  const trace_reply rback = decode_trace_reply(encode_trace_reply(reply));
  EXPECT_EQ(rback.trace_hi, reply.trace_hi);
  EXPECT_EQ(rback.trace_lo, reply.trace_lo);
  ASSERT_EQ(rback.spans.size(), 3u);
  EXPECT_EQ(rback.spans[0].name, "queue_wait");
  EXPECT_EQ(rback.spans[0].start_us, 100u);
  EXPECT_EQ(rback.spans[0].dur_us, 25u);
  EXPECT_EQ(rback.spans[0].tid, 3u);
  EXPECT_EQ(rback.spans[1].name, "stage:optimize");
  EXPECT_EQ(rback.spans[2].name, "request_total");

  // Empty reply (unknown id) round trips too.
  const trace_reply eback =
      decode_trace_reply(encode_trace_reply({0x9ull, 0x9ull, {}}));
  EXPECT_EQ(eback.trace_hi, 0x9ull);
  EXPECT_TRUE(eback.spans.empty());
}

/// Every server_stats scalar set by name to k times a distinct base value
/// (1..41 without 6, which the retired steals counter held, and the
/// directory "/cache/k"), one fault site and one histogram.
server_stats_reply every_field_stats(std::uint64_t k) {
  const auto u32 = [k](std::uint64_t v) {
    return static_cast<std::uint32_t>(k * v);
  };
  server_stats_reply s;
  s.status.jobs_submitted = k * 1;
  s.status.jobs_completed = k * 2;
  s.status.jobs_failed = k * 3;
  s.status.active_connections = k * 4;
  s.status.worker_threads = u32(5);
  s.status.uptime_s = static_cast<double>(k) * 7.5;
  s.cache.full_hits = k * 8;
  s.cache.full_misses = k * 9;
  s.cache.opt_hits = k * 10;
  s.cache.opt_misses = k * 11;
  s.cache.disk_hits = k * 12;
  s.cache.disk_misses = k * 13;
  s.cache.disk_writes = k * 14;
  s.cache.disk_quarantined = k * 15;
  s.cache.region_hits = k * 16;
  s.cache.region_misses = k * 17;
  s.cache.eco_patches = k * 18;
  s.cache.retained_networks = k * 19;
  s.cache.retained_evictions = k * 20;
  s.cache.disk_quarantine_pruned = k * 21;
  s.disk_directory = "/cache/" + std::to_string(k);
  s.accepted = k * 22;
  s.rejected_overload = k * 23;
  s.rejected_deadline = k * 24;
  s.rejected_auth = k * 25;
  s.rejected_conns = k * 26;
  s.peak_queue_depth = k * 27;
  s.queue_depth = u32(28);
  s.inflight = u32(29);
  s.max_queue = u32(30);
  s.max_inflight = u32(31);
  s.max_conns = u32(32);
  s.runner_queue_depth = k * 33;
  s.eco_requests = k * 34;
  s.eco_retained_hits = k * 35;
  s.eco_base_rebuilds = k * 36;
  s.eco_failures = k * 37;
  s.io_timeouts = k * 38;
  s.fault_fired = k * 39;
  s.trace_spans_recorded = k * 40;
  s.trace_spans_dropped = k * 41;
  s.fault_sites.push_back({"serve.send.reset", k * 42, k * 43});
  s.histograms.push_back({"request_total", k * 44,
                          static_cast<double>(k) * 45.5,
                          static_cast<double>(k) * 4.5, {0, k * 44, 0}});
  return s;
}

/// The 41 scalars compared by name.
void expect_same_scalars(const server_stats_reply& a,
                         const server_stats_reply& b) {
  EXPECT_EQ(a.status.jobs_submitted, b.status.jobs_submitted);
  EXPECT_EQ(a.status.jobs_completed, b.status.jobs_completed);
  EXPECT_EQ(a.status.jobs_failed, b.status.jobs_failed);
  EXPECT_EQ(a.status.active_connections, b.status.active_connections);
  EXPECT_EQ(a.status.worker_threads, b.status.worker_threads);
  EXPECT_EQ(a.status.uptime_s, b.status.uptime_s);
  EXPECT_EQ(a.cache.full_hits, b.cache.full_hits);
  EXPECT_EQ(a.cache.full_misses, b.cache.full_misses);
  EXPECT_EQ(a.cache.opt_hits, b.cache.opt_hits);
  EXPECT_EQ(a.cache.opt_misses, b.cache.opt_misses);
  EXPECT_EQ(a.cache.disk_hits, b.cache.disk_hits);
  EXPECT_EQ(a.cache.disk_misses, b.cache.disk_misses);
  EXPECT_EQ(a.cache.disk_writes, b.cache.disk_writes);
  EXPECT_EQ(a.cache.disk_quarantined, b.cache.disk_quarantined);
  EXPECT_EQ(a.cache.region_hits, b.cache.region_hits);
  EXPECT_EQ(a.cache.region_misses, b.cache.region_misses);
  EXPECT_EQ(a.cache.eco_patches, b.cache.eco_patches);
  EXPECT_EQ(a.cache.retained_networks, b.cache.retained_networks);
  EXPECT_EQ(a.cache.retained_evictions, b.cache.retained_evictions);
  EXPECT_EQ(a.cache.disk_quarantine_pruned, b.cache.disk_quarantine_pruned);
  EXPECT_EQ(a.disk_directory, b.disk_directory);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_overload, b.rejected_overload);
  EXPECT_EQ(a.rejected_deadline, b.rejected_deadline);
  EXPECT_EQ(a.rejected_auth, b.rejected_auth);
  EXPECT_EQ(a.rejected_conns, b.rejected_conns);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(a.inflight, b.inflight);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.max_inflight, b.max_inflight);
  EXPECT_EQ(a.max_conns, b.max_conns);
  EXPECT_EQ(a.runner_queue_depth, b.runner_queue_depth);
  EXPECT_EQ(a.eco_requests, b.eco_requests);
  EXPECT_EQ(a.eco_retained_hits, b.eco_retained_hits);
  EXPECT_EQ(a.eco_base_rebuilds, b.eco_base_rebuilds);
  EXPECT_EQ(a.eco_failures, b.eco_failures);
  EXPECT_EQ(a.io_timeouts, b.io_timeouts);
  EXPECT_EQ(a.fault_fired, b.fault_fired);
  EXPECT_EQ(a.trace_spans_recorded, b.trace_spans_recorded);
  EXPECT_EQ(a.trace_spans_dropped, b.trace_spans_dropped);
}

/// Every synth_request field set to a distinct value (bools alternate).
synth_request every_field_request() {
  synth_request q;
  q.spec = "dir/spec.bench";
  q.source = circuit_source::bench_text;
  q.source_text = "INPUT(a)\nOUTPUT(a)\n";
  q.model = "spec";
  q.map.polarity = polarity_mode::positive_outputs;
  q.map.pipeline_stages = 3;
  q.map.reg_style = register_style::pair_boundary;
  q.map.forced_polarities = std::vector<bool>{true, false, true};
  q.validate = true;
  q.want_verilog = false;
  q.want_dot = true;
  q.stream_progress = false;
  q.flow_jobs = 7;
  q.priority = 201;
  q.deadline_ms = 1234.5;
  q.partition_grain = 96;
  q.trace_hi = 0x0102030405060708ull;
  q.trace_lo = 0x1112131415161718ull;
  return q;
}

/// One payload per message that has one, every field set to a distinct
/// value, keyed by message name.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
every_payload() {
  synth_delta_request delta;
  delta.base = every_field_request();
  delta.base_content_hash = 0x2122232425262728ull;
  delta.edit_text = "and n1 a b\n";
  delta.supersede_base = false;
  delta.force_full = true;

  progress_event ev;
  ev.stage = "optimize";
  ev.index = 2;
  ev.total = 5;
  ev.ms = 3.25;
  ev.counters = {601, 602, 603, 604, 605, 606, 607, 608};
  ev.from_cache = true;

  synth_response resp;
  resp.ok = true;
  resp.error = "warn";
  resp.report = "report\n";
  resp.validate_report = "PASS\n";
  resp.validate_ok = false;
  resp.verilog = "module m;\n";
  resp.dot = "digraph g {}\n";
  resp.timings = {{"generate", 0.5, {501, 502, 503, 504, 505, 506, 507, 508}},
                  {"optimize", 2.5, {511, 512, 513, 514, 515, 516, 517, 518}}};
  resp.total_ms = 9.75;
  resp.served_from_cache = true;
  resp.content_hash = 0x3132333435363738ull;

  trace_reply reply;
  reply.trace_hi = 0x4142434445464748ull;
  reply.trace_lo = 0x5152535455565758ull;
  reply.spans = {{"queue_wait", 100, 25, 3}, {"stage:optimize", 130, 900, 4}};

  return {
      {"submit", encode_synth_request(every_field_request())},
      {"synth_delta", encode_synth_delta_request(delta)},
      {"progress", encode_progress_event(ev)},
      {"result", encode_synth_response(resp)},
      {"auth", encode_auth_request({"s3cret"})},
      {"trace", encode_trace_request({reply.trace_hi, reply.trace_lo})},
      {"trace_ok", encode_trace_reply(reply)},
      {"error", encode_error(error_code::overloaded, "full", 250)},
  };
}

using recoder =
    std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;

/// Per message: decode a payload, then encode the decoded value again.
const std::map<std::string, recoder>& recoders() {
  static const std::map<std::string, recoder> codecs = {
      {"submit",
       [](auto p) { return encode_synth_request(decode_synth_request(p)); }},
      {"synth_delta",
       [](auto p) {
         return encode_synth_delta_request(decode_synth_delta_request(p));
       }},
      {"progress",
       [](auto p) { return encode_progress_event(decode_progress_event(p)); }},
      {"result",
       [](auto p) { return encode_synth_response(decode_synth_response(p)); }},
      {"auth",
       [](auto p) { return encode_auth_request(decode_auth_request(p)); }},
      {"trace",
       [](auto p) { return encode_trace_request(decode_trace_request(p)); }},
      {"trace_ok",
       [](auto p) { return encode_trace_reply(decode_trace_reply(p)); }},
      {"error",
       [](auto p) {
         const error_reply e = decode_error(p);
         return encode_error(e.code, e.message, e.retry_after_ms);
       }},
      {"server_stats_ok",
       [](auto p) { return encode_server_stats(decode_server_stats(p)); }},
  };
  return codecs;
}

TEST(ServeProtocol, EveryPayloadEncodesToPinnedBytes) {
  // Captured from the protocol v8 build, whose codecs were hand-written
  // encode/decode pairs: deriving them from field lists moved no byte.  A
  // reordered or resized field fails here, and decoding then re-encoding
  // each payload must reproduce it exactly.
  const std::map<std::string, std::string> pinned = {
      {"submit",
       "0e000000000000006469722f737065632e62656e636801130000000000000049"
       "4e5055542861290a4f55545055542861290a0400000000000000737065630103"
       "000000000103000000000000000100010100010007000000c900000000004a93"
       "406000000008070605040302011817161514131211"},
      {"synth_delta",
       "75000000000000000e000000000000006469722f737065632e62656e63680113"
       "00000000000000494e5055542861290a4f55545055542861290a040000000000"
       "0000737065630103000000000103000000000000000100010100010007000000"
       "c900000000004a93406000000008070605040302011817161514131211282726"
       "25242322210b00000000000000616e64206e31206120620a0001"},
      {"progress",
       "08000000000000006f7074696d697a6502000000050000000000000000000a40"
       "59020000000000005a020000000000005b020000000000005c02000000000000"
       "5d020000000000005e020000000000005f020000000000006002000000000000"
       "01"},
      {"result",
       "0104000000000000007761726e07000000000000007265706f72740a05000000"
       "00000000504153530a000a000000000000006d6f64756c65206d3b0a0d000000"
       "00000000646967726170682067207b7d0a020000000000000008000000000000"
       "0067656e6572617465000000000000e03ff501000000000000f6010000000000"
       "00f701000000000000f801000000000000f901000000000000fa010000000000"
       "00fb01000000000000fc0100000000000008000000000000006f7074696d697a"
       "650000000000000440ff01000000000000000200000000000001020000000000"
       "0002020000000000000302000000000000040200000000000005020000000000"
       "0006020000000000000000000000802340013837363534333231"},
      {"auth",
       "0600000000000000733363726574"},
      {"trace",
       "48474645444342415857565554535251"},
      {"trace_ok",
       "4847464544434241585756555453525102000000000000000a00000000000000"
       "71756575655f7761697464000000000000001900000000000000030000000e00"
       "00000000000073746167653a6f7074696d697a65820000000000000084030000"
       "0000000004000000"},
      {"error",
       "05040000000000000066756c6cfa000000"},
  };
  const auto payloads = every_payload();
  ASSERT_EQ(payloads.size(), pinned.size());
  for (const auto& [name, bytes] : payloads) {
    EXPECT_EQ(to_hex(bytes), pinned.at(name)) << name;
    EXPECT_EQ(recoders().at(name)(bytes), bytes) << name;
  }
}

TEST(ServeProtocol, OutOfRangeBoolAndTrailingBytesAreRejectedOnDecode) {
  // Each range check of the submit field list, one field at a time; the
  // deadline bound exists because the admission queue turns deadline_ms
  // into a steady_clock duration, which overflows past ~9.2e12 ms.
  const auto inf = std::numeric_limits<double>::infinity();
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::function<void(synth_request&)>>>
      out_of_range = {
          {"circuit source",
           [](auto& q) { q.source = static_cast<circuit_source>(3); }},
          {"polarity mode",
           [](auto& q) { q.map.polarity = static_cast<polarity_mode>(3); }},
          {"pipeline stage count", [](auto& q) { q.map.pipeline_stages = 65; }},
          {"register style",
           [](auto& q) { q.map.reg_style = static_cast<register_style>(2); }},
          {"flow_jobs", [](auto& q) { q.flow_jobs = 0; }},
          {"flow_jobs", [](auto& q) { q.flow_jobs = 257; }},
          {"partition_grain", [](auto& q) { q.partition_grain = 100001; }},
          {"deadline_ms", [inf](auto& q) { q.deadline_ms = inf; }},
          {"deadline_ms", [](auto& q) { q.deadline_ms = 1e13; }},
          {"deadline_ms", [](auto& q) { q.deadline_ms = 1e300; }},
          {"deadline_ms",
           [](auto& q) { q.deadline_ms = max_deadline_ms + 1.0; }},
          {"deadline_ms", [](auto& q) { q.deadline_ms = -1.0; }},
          {"deadline_ms", [nan](auto& q) { q.deadline_ms = nan; }},
      };
  for (const auto& [what, edit] : out_of_range) {
    synth_request q = every_field_request();
    edit(q);
    try {
      (void)decode_synth_request(encode_synth_request(q));
      ADD_FAILURE() << what << " accepted";
    } catch (const serialize_error& e) {
      EXPECT_NE(std::string(e.what()).find(what + " out of range"),
                std::string::npos)
          << e.what();
    }
  }
  for (const double ok : {0.0, 0.5, max_deadline_ms}) {
    synth_request q = every_field_request();
    q.deadline_ms = ok;
    EXPECT_EQ(decode_synth_request(encode_synth_request(q)).deadline_ms, ok);
  }

  // One trailing byte after any payload; a bool byte above 1 where one
  // sits at a known offset (synth_response leads with `ok`, synth_delta
  // ends with `force_full`).
  for (auto [name, bytes] : every_payload()) {
    std::vector<std::uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_THROW(recoders().at(name)(trailing), serialize_error) << name;
    if (name == "result") {
      bytes.front() = 2;
    } else if (name == "synth_delta") {
      bytes.back() = 2;
    } else {
      continue;
    }
    EXPECT_THROW(recoders().at(name)(bytes), serialize_error) << name;
  }
}

TEST(ServeProtocol, ClientFlagRejectsDeadlineBeyondOneDay) {
  const std::string client = std::string(XSFQ_BINARY_DIR) + "/xsfq_client";
  if (!fs::exists(client)) GTEST_SKIP() << "examples not built: " << client;
  for (const char* bad : {"inf", "nan", "1e13", "-1", "86400000.5"}) {
    const std::string cmd = client + " --socket=" + client +
                            ".none --deadline-ms=" + bad +
                            " c432 >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
  }
}

/// The whole content of a file; empty when it cannot be read.
std::string file_text(const std::string& path) {
  std::ifstream is(path);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// The unsigned integer that follows the first `marker` in `text`.
std::uint64_t number_after(const std::string& text, const std::string& marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + marker.size(), nullptr, 10);
}

TEST(SynthCli, CorpusEntryMatchesASingleRunUnderTheSameGrain) {
  // A corpus entry is the request a single run of that file makes, so a
  // grain set on the command line applies to both (c880 maps to fewer JJ
  // without one).
  const std::string synth = std::string(XSFQ_BINARY_DIR) + "/xsfq_synth";
  if (!fs::exists(synth)) GTEST_SKIP() << "examples not built: " << synth;
  temp_dir dir;
  fs::create_directory(dir.path + "/corpus");
  const std::string file = dir.path + "/corpus/c880.bench";
  write_bench_file(netlist_from_aig(benchgen::make_benchmark("c880"), "c880"),
                   file);
  const std::string grain = " --partition-grain=64 --no-timing";
  ASSERT_EQ(std::system((synth + " " + file + grain + " > " + dir.path +
                         "/single.txt 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((synth + " --corpus=" + dir.path + "/corpus" + grain +
                         " > " + dir.path + "/corpus.csv 2>&1")
                            .c_str()),
            0);
  const std::string single = file_text(dir.path + "/single.txt");
  const std::string csv = file_text(dir.path + "/corpus.csv");
  // corpus.csv: circuit,gates,jj,savings,ms
  const std::uint64_t gates = number_after(csv, file + ",");
  const std::uint64_t jj = number_after(
      csv, file + "," + std::to_string(gates) + ",");
  ASSERT_GT(gates, 0u) << csv;
  // single.txt: "optimized: <in> -> <gates> nodes ...", "... JJ <jj> (..."
  EXPECT_EQ(gates, number_after(single, " -> ")) << single << csv;
  EXPECT_EQ(jj, number_after(single, ", JJ ")) << single << csv;
}

TEST(SynthCli, TimingFooterMarksCachedResults) {
  // A result served from a cache carries the timings of the run that
  // computed it, so its footer says so, as --progress does per stage.
  serve::synth_response resp;
  resp.ok = true;
  resp.timings = {{"generate", 0.5, {}}, {"optimize", 20.0, {}}};
  resp.total_ms = 20.5;
  const serve::synth_cli_options cli;
  for (const bool cached : {false, true}) {
    resp.served_from_cache = cached;
    testing::internal::CaptureStdout();
    EXPECT_EQ(serve::render_synth_response(resp, cli), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("(total 20.5 ms)"), std::string::npos) << out;
    EXPECT_EQ(out.find("(cached)") != std::string::npos, cached) << out;
  }
}

TEST(ServeProtocol, ServerStatsEveryFieldEncodesMergesAndRenders) {
  const server_stats_reply one = every_field_stats(1);

  // The wire bytes, pinned: a reordered for_each_stat line or a changed
  // field width fails here (protocol v10 layout, docs/protocol.md).
  EXPECT_EQ(
      to_hex(encode_server_stats(one)),
      "0100000000000000020000000000000003000000000000000400000000000000"
      "050000000000000000001e40080000000000000009000000000000000a000000"
      "000000000b000000000000000c000000000000000d000000000000000e000000"
      "000000000f000000000000001000000000000000110000000000000012000000"
      "0000000013000000000000001400000000000000150000000000000008000000"
      "000000002f63616368652f311600000000000000170000000000000018000000"
      "0000000019000000000000001a000000000000001b000000000000001c000000"
      "1d0000001e0000001f0000002000000021000000000000002200000000000000"
      "2300000000000000240000000000000025000000000000002600000000000000"
      "2700000000000000280000000000000029000000000000000100000000000000"
      "100000000000000073657276652e73656e642e72657365742a00000000000000"
      "2b0000000000000001000000000000000d00000000000000726571756573745f"
      "746f74616c2c000000000000000000000000c046400000000000001240030000"
      "000000000000000000000000002c000000000000000000000000000000");

  const server_stats_reply back =
      decode_server_stats(encode_server_stats(one));
  expect_same_scalars(back, one);
  ASSERT_EQ(back.fault_sites.size(), 1u);
  EXPECT_EQ(back.fault_sites[0].site, "serve.send.reset");
  EXPECT_EQ(back.fault_sites[0].hits, 42u);
  EXPECT_EQ(back.fault_sites[0].fired, 43u);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].name, "request_total");
  EXPECT_EQ(back.histograms[0].count, 44u);
  EXPECT_EQ(back.histograms[0].sum_ms, 45.5);
  EXPECT_EQ(back.histograms[0].max_ms, 4.5);
  EXPECT_EQ(back.histograms[0].buckets,
            (std::vector<std::uint64_t>{0, 44, 0}));

  // The fleet merge, from an empty total as fleet_client::stats() starts:
  // sums everywhere, the longest uptime, the first non-empty directory,
  // fault sites by name and histograms bucket-wise.
  server_stats_reply two = every_field_stats(2);
  two.fault_sites.push_back({"disk.write", 5, 6});
  two.histograms.push_back({"queue_wait", 1, 0.5, 0.5, {1}});
  server_stats_reply merged;
  merge_server_stats(merged, one);
  merge_server_stats(merged, two);
  server_stats_reply expected = every_field_stats(3);
  expected.status.uptime_s = 15.0;
  expected.disk_directory = "/cache/1";
  expect_same_scalars(merged, expected);
  ASSERT_EQ(merged.fault_sites.size(), 2u);
  EXPECT_EQ(merged.fault_sites[0].site, "serve.send.reset");
  EXPECT_EQ(merged.fault_sites[0].hits, 126u);
  EXPECT_EQ(merged.fault_sites[0].fired, 129u);
  EXPECT_EQ(merged.fault_sites[1].site, "disk.write");
  EXPECT_EQ(merged.fault_sites[1].hits, 5u);
  ASSERT_EQ(merged.histograms.size(), 2u);
  EXPECT_EQ(merged.histograms[0].count, 132u);
  EXPECT_EQ(merged.histograms[0].sum_ms, 136.5);
  EXPECT_EQ(merged.histograms[0].max_ms, 9.0);
  EXPECT_EQ(merged.histograms[0].buckets,
            (std::vector<std::uint64_t>{0, 132, 0}));
  EXPECT_EQ(merged.histograms[1].name, "queue_wait");
  EXPECT_EQ(merged.histograms[1].count, 1u);

  // Every series line of the scrape; the directory has none.
  const std::string text = format_server_stats_text(one);
  EXPECT_EQ(text.rfind("xsfq_build_info{", 0), 0u) << text;
  std::istringstream in(text);
  std::set<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.insert(l);
  for (const char* line : {
           "xsfq_jobs_submitted_total 1",
           "xsfq_jobs_completed_total 2",
           "xsfq_jobs_failed_total 3",
           "xsfq_active_connections 4",
           "xsfq_worker_threads 5",
           "xsfq_uptime_seconds 7.5",
           "xsfq_cache_hits_total{tier=\"full\"} 8",
           "xsfq_cache_misses_total{tier=\"full\"} 9",
           "xsfq_cache_hits_total{tier=\"opt\"} 10",
           "xsfq_cache_misses_total{tier=\"opt\"} 11",
           "xsfq_cache_hits_total{tier=\"disk\"} 12",
           "xsfq_cache_misses_total{tier=\"disk\"} 13",
           "xsfq_cache_disk_writes_total 14",
           "xsfq_cache_disk_quarantined_total 15",
           "xsfq_cache_hits_total{tier=\"region\"} 16",
           "xsfq_cache_misses_total{tier=\"region\"} 17",
           "xsfq_eco_patches_total 18",
           "xsfq_eco_retained_networks 19",
           "xsfq_eco_retained_evictions_total 20",
           "xsfq_cache_disk_quarantine_pruned_total 21",
           "xsfq_admission_accepted_total 22",
           "xsfq_admission_rejected_total{reason=\"overload\"} 23",
           "xsfq_admission_rejected_total{reason=\"deadline\"} 24",
           "xsfq_rejected_total{reason=\"auth\"} 25",
           "xsfq_rejected_total{reason=\"connections\"} 26",
           "xsfq_admission_queue_depth_peak 27",
           "xsfq_admission_queue_depth 28",
           "xsfq_admission_inflight 29",
           "xsfq_admission_max_queue 30",
           "xsfq_admission_max_inflight 31",
           "xsfq_max_connections 32",
           "xsfq_runner_queue_depth 33",
           "xsfq_eco_requests_total 34",
           "xsfq_eco_retained_hits_total 35",
           "xsfq_eco_base_rebuilds_total 36",
           "xsfq_eco_failures_total 37",
           "xsfq_io_timeouts_total 38",
           "xsfq_fault_fired_total 39",
           "xsfq_trace_spans_recorded_total 40",
           "xsfq_trace_spans_dropped_total 41",
           "xsfq_fault_hits{site=\"serve.send.reset\"} 42",
           "xsfq_fault_fired{site=\"serve.send.reset\"} 43",
           "xsfq_latency_ms_count{name=\"request_total\"} 44",
       }) {
    EXPECT_EQ(lines.count(line), 1u) << line;
  }
  EXPECT_EQ(text.find("/cache/1"), std::string::npos);
}

TEST(ServeProtocol, PayloadDecodersRejectTruncationAndMutationTyped) {
  auto payloads = every_payload();
  payloads.emplace_back("server_stats_ok",
                        encode_server_stats(every_field_stats(1)));
  for (const auto& [name, bytes] : payloads) {
    SCOPED_TRACE(name);
    sweep_decoder(bytes, recoders().at(name));
  }
}

TEST(ServeProtocol, RetryAfterHintRoundTripsAndDegradesPerVersion) {
  // v5 payload carries the hint...
  const error_reply hinted =
      decode_error(encode_error(error_code::overloaded, "full", 1234));
  EXPECT_EQ(hinted.code, error_code::overloaded);
  EXPECT_EQ(hinted.retry_after_ms, 1234u);
  // ...and the one decoder reads every vintage: a v3/v4 payload (no
  // trailing hint), as an older daemon sends it, decodes with hint 0
  // instead of throwing.
  byte_writer v4;
  v4.u8(static_cast<std::uint8_t>(error_code::overloaded));
  v4.str("full");
  const error_reply v4_err = decode_error(v4.take());
  EXPECT_EQ(v4_err.code, error_code::overloaded);
  EXPECT_EQ(v4_err.message, "full");
  EXPECT_EQ(v4_err.retry_after_ms, 0u);
}

TEST(ServeProtocol, ConstantTimeEqualCompares) {
  EXPECT_TRUE(constant_time_equal("", ""));
  EXPECT_TRUE(constant_time_equal("topsecret", "topsecret"));
  EXPECT_FALSE(constant_time_equal("topsecret", "topsecrer"));
  EXPECT_FALSE(constant_time_equal("topsecret", "topsecret "));
  EXPECT_FALSE(constant_time_equal("", "x"));
  EXPECT_FALSE(constant_time_equal("x", ""));
}

TEST(ServeProtocol, PayloadRoundTrips) {
  synth_request req;
  req.spec = "adder.bench";
  req.source = circuit_source::bench_text;
  req.source_text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  req.model = "adder";
  req.map.polarity = polarity_mode::positive_outputs;
  req.map.pipeline_stages = 3;
  req.map.reg_style = register_style::pair_boundary;
  req.map.forced_polarities = std::vector<bool>{true, false, true};
  req.validate = true;
  req.want_verilog = true;
  req.stream_progress = true;
  req.flow_jobs = 6;
  const synth_request back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.spec, req.spec);
  EXPECT_EQ(back.source, circuit_source::bench_text);
  EXPECT_EQ(back.source_text, req.source_text);
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.map.polarity, req.map.polarity);
  EXPECT_EQ(back.map.pipeline_stages, 3u);
  EXPECT_EQ(back.map.reg_style, register_style::pair_boundary);
  EXPECT_EQ(back.map.forced_polarities, req.map.forced_polarities);
  EXPECT_TRUE(back.validate && back.want_verilog && back.stream_progress);
  EXPECT_FALSE(back.want_dot);
  EXPECT_EQ(back.flow_jobs, 6u);

  synth_response resp;
  resp.ok = true;
  resp.report = "loaded ...\n";
  resp.validate_report = "validate: PASS\n";
  resp.verilog = "module m; endmodule\n";
  resp.timings.push_back({"optimize", 1.5, {}});
  resp.timings[0].counters.nodes = 42;
  resp.total_ms = 2.25;
  resp.served_from_cache = true;
  const synth_response rback =
      decode_synth_response(encode_synth_response(resp));
  EXPECT_TRUE(rback.ok);
  EXPECT_EQ(rback.report, resp.report);
  EXPECT_EQ(rback.verilog, resp.verilog);
  ASSERT_EQ(rback.timings.size(), 1u);
  EXPECT_EQ(rback.timings[0].stage, "optimize");
  EXPECT_EQ(rback.timings[0].counters.nodes, 42u);
  EXPECT_TRUE(rback.served_from_cache);

  progress_event ev{"map", 2, 4, 0.5, {}, true};
  const progress_event eback =
      decode_progress_event(encode_progress_event(ev));
  EXPECT_EQ(eback.stage, "map");
  EXPECT_EQ(eback.index, 2u);
  EXPECT_EQ(eback.total, 4u);
  EXPECT_TRUE(eback.from_cache);
}

// ---------------------------------------------------------------------------
// End to end against an in-process server.
// ---------------------------------------------------------------------------

struct server_fixture {
  temp_dir dir;
  std::unique_ptr<server> srv;

  std::string socket_path() const { return dir.path + "/served.sock"; }
  std::string cache_dir() const { return dir.path + "/cache"; }

  void start(unsigned threads = 2, bool with_disk_cache = true) {
    server_options options;
    options.socket_path = socket_path();
    options.threads = threads;
    if (with_disk_cache) options.cache_dir = cache_dir();
    start_with(options);
  }

  /// Caller-tuned options; socket_path is filled in when left empty.
  void start_with(server_options options) {
    if (options.socket_path.empty() && options.listen_address.empty()) {
      options.socket_path = socket_path();
    }
    srv = std::make_unique<server>(std::move(options));
  }
};

TEST(ServeEndToEnd, SubmitMatchesDirectDriverByteForByte) {
  server_fixture fx;
  fx.start();
  const synth_request req = make_request_for_spec("c432");

  flow::batch_runner local(1);
  const synth_response expected = run_synth(req, local);
  ASSERT_TRUE(expected.ok);

  client cli(fx.socket_path());
  const synth_response served = cli.submit(req);
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.report, expected.report);
  EXPECT_EQ(served.validate_report, expected.validate_report);
}

TEST(ServeEndToEnd, ConcurrentClientsGetByteIdenticalResults) {
  server_fixture fx;
  fx.start(/*threads=*/4);

  const std::vector<std::string> circuits{"c432", "c880", "c432", "c1908",
                                          "c880", "c432"};
  // Expected deterministic output, computed through the same driver.
  flow::batch_runner local(2);
  std::vector<std::string> expected_reports;
  for (const auto& name : circuits) {
    const synth_response r = run_synth(make_request_for_spec(name), local);
    ASSERT_TRUE(r.ok) << name;
    expected_reports.push_back(r.report);
  }

  // >= 4 simultaneous clients, each on its own connection (acceptance
  // criterion); repeated circuits also exercise the in-flight dedup and
  // memory-cache tiers under concurrency.
  std::vector<std::thread> threads;
  std::vector<std::string> got(circuits.size());
  // char, not bool: vector<bool> packs neighbours into one word, and each
  // client thread writes its own slot.
  std::vector<char> ok(circuits.size(), 0);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    threads.emplace_back([&, i] {
      client cli(fx.socket_path());
      const synth_response r =
          cli.submit(make_request_for_spec(circuits[i]));
      got[i] = r.report;
      ok[i] = r.ok;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_TRUE(ok[i]) << circuits[i];
    EXPECT_EQ(got[i], expected_reports[i]) << circuits[i];
  }
  const auto status = fx.srv->stats().status;
  EXPECT_EQ(status.jobs_submitted, circuits.size());
  EXPECT_EQ(status.jobs_completed, circuits.size());
}

TEST(ServeEndToEnd, ProgressEventsStreamPerStage) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());

  synth_request req = make_request_for_spec("c432");
  req.stream_progress = true;
  std::vector<progress_event> events;
  const synth_response resp =
      cli.submit(req, [&](const progress_event& ev) { events.push_back(ev); });
  ASSERT_TRUE(resp.ok);
  ASSERT_EQ(events.size(), 4u);  // generate, optimize, map, baseline
  EXPECT_EQ(events[0].stage, "generate");
  EXPECT_EQ(events[1].stage, "optimize");
  EXPECT_EQ(events[2].stage, "map");
  EXPECT_EQ(events[3].stage, "baseline");
  for (const auto& ev : events) {
    EXPECT_EQ(ev.total, 4u);
    EXPECT_FALSE(ev.from_cache);  // cold run
  }
  EXPECT_FALSE(resp.served_from_cache);
  // The events mirror flow_result.timings stage for stage.
  ASSERT_EQ(resp.timings.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].stage, resp.timings[i].stage);
  }

  // Warm repeat: same events, now replayed from the cache.
  events.clear();
  const synth_response warm =
      cli.submit(req, [&](const progress_event& ev) { events.push_back(ev); });
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.served_from_cache);
  ASSERT_EQ(events.size(), 4u);
  for (const auto& ev : events) EXPECT_TRUE(ev.from_cache);
  EXPECT_EQ(warm.report, resp.report);
}

TEST(ServeEndToEnd, EveryFlowPathRunsTheSameStages) {
  // One flow function behind every entry point: the stage list a result
  // carries, and the position and total each progress event names, do not
  // depend on the path that reached it.
  const std::vector<std::string> expected{"generate", "optimize", "map",
                                          "baseline"};
  std::vector<progress_event> events;
  const flow::stage_observer observe = [&](const progress_event& ev) {
    events.push_back(ev);
  };
  const auto check = [&](const std::vector<flow::stage_timing>& timings,
                         const std::string& path, bool observed) {
    std::vector<std::string> stages;
    for (const auto& t : timings) stages.push_back(t.stage);
    EXPECT_EQ(stages, expected) << path;
    EXPECT_EQ(events.size(), observed ? expected.size() : 0u) << path;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].stage, expected[i]) << path;
      EXPECT_EQ(events[i].index, i) << path;
      EXPECT_EQ(events[i].total, expected.size()) << path;
    }
    events.clear();
  };
  const aig net = benchgen::make_benchmark("c432");

  check(flow::run_flow("c432").timings, "run_flow(name)", false);
  check(flow::run_flow(net, "c432", {}, observe).timings, "run_flow(aig)",
        true);
  flow::batch_runner batch(1);
  check(batch.run({"c432"}).entries.at(0).result.timings, "batch entry",
        false);
  flow::batch_runner runner(1);
  check(runner.run_cached(net, "c432", {}, observe).timings, "run_cached",
        true);
  check(runner.run_cached(net, "c432", {}, observe).timings,
        "run_cached hit", true);
  EXPECT_EQ(runner.cache_stats().full_hits, 1u);
  check(runner.run_uncached(net, "c432", {}, observe).timings,
        "run_uncached", true);

  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());
  synth_request req = make_request_for_spec("c432");
  req.stream_progress = true;
  const synth_response resp = cli.submit(req, observe);
  ASSERT_TRUE(resp.ok) << resp.error;
  check(resp.timings, "served", true);
}

TEST(ServeEndToEnd, ZeroJjCircuitsReportDefinedSavings) {
  // Wires and inverters map to 0 JJ (a rail swap is free), so the savings
  // ratio has no value; the report says so instead of printing nan or inf.
  flow::batch_runner runner(1);
  const auto baseline_line = [&](const std::string& text) {
    synth_request req;
    req.spec = "zero.bench";
    req.source = circuit_source::bench_text;
    req.model = "zero";
    req.source_text = text;
    const synth_response resp = run_synth(req, runner);
    EXPECT_TRUE(resp.ok) << resp.error;
    const std::size_t at = resp.report.find("baseline:");
    return at == std::string::npos ? resp.report : resp.report.substr(at);
  };
  EXPECT_EQ(baseline_line("INPUT(a)\nOUTPUT(a)\n"),
            "baseline:  clocked RSFQ 0 JJ (0 with clock tree) -> savings "
            "n/a\n");
  EXPECT_EQ(baseline_line("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"),
            "baseline:  clocked RSFQ 9 JJ (12 with clock tree) -> savings "
            "n/a\n");
}

TEST(ServeEndToEnd, DiskCacheSurvivesDaemonRestart) {
  server_fixture fx;
  fx.start();
  const synth_request req = make_request_for_spec("c880");
  std::string cold_report;
  {
    client cli(fx.socket_path());
    const synth_response cold = cli.submit(req);
    ASSERT_TRUE(cold.ok);
    EXPECT_FALSE(cold.served_from_cache);
    cold_report = cold.report;
    const auto stats = cli.server_stats().cache;
    EXPECT_EQ(stats.disk_writes, 1u);
  }
  fx.srv->stop();  // drain the "daemon"
  fx.start();      // restart over the same cache directory

  client cli(fx.socket_path());
  const synth_response warm = cli.submit(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.served_from_cache);
  EXPECT_EQ(warm.report, cold_report);
  const auto reply = cli.server_stats();
  EXPECT_EQ(reply.cache.disk_hits, 1u);   // served from the disk tier
  EXPECT_EQ(reply.cache.full_hits, 0u);   // memory cache was cold
  EXPECT_EQ(reply.disk_directory, fx.cache_dir());
}

TEST(ServeEndToEnd, BenchTextRequestsServeParsedCircuits) {
  server_fixture fx;
  fx.start();
  // An inline .bench payload, as xsfq_client sends for file specs.
  synth_request req;
  req.spec = "inline.bench";
  req.source = circuit_source::bench_text;
  req.model = "inline";
  req.source_text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  client cli(fx.socket_path());
  const synth_response resp = cli.submit(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_NE(resp.report.find("loaded inline.bench: 2 PI, 1 PO"),
            std::string::npos)
      << resp.report;
}

TEST(ServeEndToEnd, FailuresComeBackAsErrorResponsesNotHangs) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());
  synth_request req;
  req.spec = "no_such_benchmark_xyz";
  const synth_response resp = cli.submit(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.error.empty());
  // The connection survives a failed request.
  EXPECT_TRUE(cli.ping());
  EXPECT_EQ(fx.srv->stats().status.jobs_failed, 1u);
}

TEST(ServeEndToEnd, UnknownAndGarbageFramesGetErrorFrames) {
  server_fixture fx;
  fx.start();
  // Raw connection speaking nonsense.
  client cli(fx.socket_path());  // establishes the path works first
  {
    // Unknown message type.
    struct raw {
      int fd;
      explicit raw(const std::string& path) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
      }
      ~raw() { ::close(fd); }
    };
    raw conn(fx.socket_path());
    write_frame_fd(conn.fd, static_cast<msg_type>(42), {});
    const auto reply = read_frame_fd(conn.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, msg_type::error);

    // A submit frame whose payload is garbage: error frame, then close.
    raw conn2(fx.socket_path());
    const std::vector<std::uint8_t> junk{1, 2, 3};
    write_frame_fd(conn2.fd, msg_type::submit, junk);
    const auto reply2 = read_frame_fd(conn2.fd);
    ASSERT_TRUE(reply2.has_value());
    EXPECT_EQ(reply2->type, msg_type::error);
    EXPECT_FALSE(read_frame_fd(conn2.fd).has_value());  // closed after
  }
  EXPECT_TRUE(cli.ping());  // the daemon itself is unscathed
}

TEST(ServeEndToEnd, ShutdownRequestAndGracefulStop) {
  server_fixture fx;
  fx.start();
  EXPECT_FALSE(fx.srv->shutdown_requested());
  {
    client cli(fx.socket_path());
    EXPECT_TRUE(cli.ping());
    cli.shutdown_server();
  }
  fx.srv->wait_shutdown_requested();
  EXPECT_TRUE(fx.srv->shutdown_requested());
  fx.srv->stop();  // drain; idempotent
  fx.srv->stop();
  // Socket file is gone and new connections are refused.
  EXPECT_FALSE(fs::exists(fx.socket_path()));
  EXPECT_THROW({ client refused(fx.socket_path()); }, std::runtime_error);
}

// ---------------------------------------------------------------------------
// v3: TCP + auth, admission control, metrics.
// ---------------------------------------------------------------------------

/// Raw Unix-socket connection for tests that speak the protocol by hand.
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

TEST(ServeEndToEnd, TcpWithAuthServesByteIdenticalToUnixSocket) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.listen_address = "127.0.0.1:0";  // ephemeral port
  options.auth_token = "hunter2";
  options.threads = 2;
  fx.start_with(options);
  ASSERT_NE(fx.srv->tcp_port(), 0);

  const synth_request req = make_request_for_spec("c432");
  client unix_cli(fx.socket_path());  // Unix transport needs no auth
  const synth_response via_unix = unix_cli.submit(req);
  ASSERT_TRUE(via_unix.ok);

  client tcp_cli("127.0.0.1", fx.srv->tcp_port());
  tcp_cli.authenticate("hunter2");
  const synth_response via_tcp = tcp_cli.submit(req);
  ASSERT_TRUE(via_tcp.ok);
  EXPECT_EQ(via_tcp.report, via_unix.report);
  EXPECT_EQ(via_tcp.validate_report, via_unix.validate_report);
}

TEST(ServeEndToEnd, TcpRejectsUnauthenticatedAndBadTokens) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.listen_address = "127.0.0.1:0";
  options.auth_token = "hunter2";
  fx.start_with(options);

  {
    // Any request before auth: typed auth_required, then the daemon closes.
    client cli("127.0.0.1", fx.srv->tcp_port());
    try {
      (void)cli.server_stats();
      FAIL() << "unauthenticated server_stats should have thrown";
    } catch (const service_error& e) {
      EXPECT_EQ(e.code, error_code::auth_required);
    }
    EXPECT_FALSE(cli.ping());  // connection is gone
  }
  {
    // Wrong token: typed auth_failed, then close (no retry on one stream).
    client cli("127.0.0.1", fx.srv->tcp_port());
    try {
      cli.authenticate("wrong");
      FAIL() << "bad token should have thrown";
    } catch (const service_error& e) {
      EXPECT_EQ(e.code, error_code::auth_failed);
    }
    EXPECT_FALSE(cli.ping());
  }
  // The Unix socket's trust boundary is file permissions: no auth needed.
  client unix_cli(fx.socket_path());
  EXPECT_TRUE(unix_cli.ping());
  const server_stats_reply stats = unix_cli.server_stats();
  EXPECT_EQ(stats.rejected_auth, 2u);
}

TEST(ServeEndToEnd, OldClientVersionGetsTypedErrorNotAHang) {
  server_fixture fx;
  fx.start();
  // A "v2 client": same frozen frame header, older version byte.  The
  // daemon must answer with a typed unsupported_version error and close.
  raw_unix_conn conn(fx.socket_path());
  write_frame_fd(conn.fd, msg_type::ping, {}, /*version=*/2);
  const auto reply = read_frame_fd(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, msg_type::error);
  EXPECT_EQ(reply->version, protocol_version);
  const error_reply err = decode_error(reply->payload);
  EXPECT_EQ(err.code, error_code::unsupported_version);
  EXPECT_NE(err.message.find("version mismatch"), std::string::npos)
      << err.message;
  EXPECT_FALSE(read_frame_fd(conn.fd).has_value());  // closed after
}

TEST(ServeEndToEnd, RetiredMessageNumbersGetBadRequest) {
  // v8 retired status and cache_stats (2, 3, 65, 66), v9 hello (6, 69): a
  // peer still sending them gets a typed bad_request, and the connection
  // stays usable.
  server_fixture fx;
  fx.start();
  raw_unix_conn conn(fx.socket_path());
  for (const std::uint8_t retired : {2, 3, 6, 65, 66, 69}) {
    write_frame_fd(conn.fd, static_cast<msg_type>(retired), {});
    const auto reply = read_frame_fd(conn.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, msg_type::error);
    EXPECT_EQ(decode_error(reply->payload).code, error_code::bad_request);
  }
  write_frame_fd(conn.fd, msg_type::ping, {});
  const auto pong = read_frame_fd(conn.fd);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, msg_type::pong);
}

TEST(ServeEndToEnd, OverloadShedsWithTypedErrorWhileAcceptedWorkCompletes) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.threads = 2;
  options.max_inflight = 1;  // one executing request...
  options.max_queue = 0;     // ...and zero queueing: burst -> overloaded
  fx.start_with(options);

  // Request A (a big multiplier, long optimize) occupies the single slot;
  // its first streamed progress event proves it is admitted and executing.
  std::atomic<bool> a_running{false};
  synth_response resp_a;
  std::thread a_thread([&] {
    client cli(fx.socket_path());
    synth_request req = make_request_for_spec("c6288");
    req.stream_progress = true;
    resp_a = cli.submit(
        req, [&](const progress_event&) { a_running.store(true); });
  });
  while (!a_running.load()) std::this_thread::yield();

  // Burst request B: deterministically shed with a typed overloaded error;
  // the connection survives the rejection.
  client cli_b(fx.socket_path());
  try {
    (void)cli_b.submit(make_request_for_spec("c432"));
    FAIL() << "burst submit should have been shed";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::overloaded);
    // v5 retry contract: shedding carries a non-zero backoff hint.
    EXPECT_GT(e.retry_after_ms, 0u);
    EXPECT_LE(e.retry_after_ms, 10000u);
  }
  EXPECT_TRUE(cli_b.ping());

  a_thread.join();
  EXPECT_TRUE(resp_a.ok);  // the accepted request completed normally
  const server_stats_reply stats = cli_b.server_stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.accepted, 1u);
}

TEST(ServeEndToEnd, DeadlineExpiresWhileQueuedBehindSlowRequest) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.threads = 2;
  options.max_inflight = 1;
  options.max_queue = 4;  // queueing allowed; the deadline does the shedding
  fx.start_with(options);

  std::atomic<bool> a_running{false};
  synth_response resp_a;
  std::thread a_thread([&] {
    client cli(fx.socket_path());
    synth_request req = make_request_for_spec("c6288");
    req.stream_progress = true;
    resp_a = cli.submit(
        req, [&](const progress_event&) { a_running.store(true); });
  });
  while (!a_running.load()) std::this_thread::yield();

  client cli_b(fx.socket_path());
  synth_request req_b = make_request_for_spec("c432");
  req_b.deadline_ms = 5.0;  // c6288 holds the slot far longer than this
  try {
    (void)cli_b.submit(req_b);
    FAIL() << "deadlined submit should have expired in the queue";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::deadline_expired);
  }
  EXPECT_TRUE(cli_b.ping());

  a_thread.join();
  EXPECT_TRUE(resp_a.ok);
  const server_stats_reply stats = cli_b.server_stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
}

TEST(ServeEndToEnd, ConnectionCapBouncesWithTypedError) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.max_conns = 1;
  fx.start_with(options);

  auto first = std::make_unique<client>(fx.socket_path());
  EXPECT_TRUE(first->ping());  // the one allowed connection is live

  // The next connection is bounced before any handler thread exists.
  {
    raw_unix_conn extra(fx.socket_path());
    const auto reply = read_frame_fd(extra.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, msg_type::error);
    const error_reply err = decode_error(reply->payload);
    EXPECT_EQ(err.code, error_code::too_many_connections);
    EXPECT_GT(err.retry_after_ms, 0u);  // v5: bounce carries a backoff hint
    EXPECT_FALSE(read_frame_fd(extra.fd).has_value());
  }
  EXPECT_TRUE(first->ping());  // the admitted connection is unaffected

  // Freeing the slot admits a newcomer (reaped on a later accept).
  first.reset();
  bool reconnected = false;
  for (int attempt = 0; attempt < 200 && !reconnected; ++attempt) {
    client retry(fx.socket_path());
    reconnected = retry.ping();
    if (!reconnected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reconnected);
  EXPECT_GE(fx.srv->stats().rejected_conns, 1u);
}

TEST(ServeEndToEnd, ConnectCloseStormOnBothListenersWhileScraping) {
  // Each listener's accept loop reaps connections the other published, so
  // a connection that finishes at once must never be reaped before its
  // handler thread is assigned: destroying a joinable std::thread
  // terminates the daemon.  Hundreds of connect/close pairs on both
  // transports at once, with a scrape running beside them.
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.listen_address = "127.0.0.1:0";
  options.threads = 2;
  fx.start_with(options);
  const std::uint16_t port = fx.srv->tcp_port();
  ASSERT_NE(port, 0);

  constexpr int pairs = 300;
  std::atomic<bool> storming{true};
  std::thread unix_storm([&] {
    for (int i = 0; i < pairs; ++i) client c(fx.socket_path());
  });
  std::thread tcp_storm([&] {
    for (int i = 0; i < pairs; ++i) client c("127.0.0.1", port);
  });
  std::thread scraper([&] {
    client c(fx.socket_path());
    while (storming.load()) (void)c.server_stats();
  });
  unix_storm.join();
  tcp_storm.join();
  storming.store(false);
  scraper.join();

  {
    client after(fx.socket_path());
    EXPECT_TRUE(after.ping());
  }
  // Handlers notice end-of-stream asynchronously; wait for all of them.
  std::uint64_t active = 1;
  for (int attempt = 0; attempt < 500 && active != 0; ++attempt) {
    active = fx.srv->stats().status.active_connections;
    if (active != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(active, 0u);
}

TEST(ServeEndToEnd, ServerStatsReportsCountersAndLatencyHistograms) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());

  const synth_request req = make_request_for_spec("c432");
  ASSERT_TRUE(cli.submit(req).ok);  // cold: every stage executes
  const synth_response warm = cli.submit(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.served_from_cache);

  const server_stats_reply stats = cli.server_stats();
  EXPECT_EQ(stats.status.jobs_submitted, 2u);
  EXPECT_EQ(stats.status.jobs_completed, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_GT(stats.max_inflight, 0u);
  EXPECT_EQ(stats.cache.full_hits, 1u);  // the warm repeat
  EXPECT_EQ(stats.disk_directory, fx.cache_dir());

  const auto find_hist =
      [&](const std::string& name) -> const histogram_snapshot* {
    for (const auto& h : stats.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  // Both requests waited (instantly) for admission and timed end to end;
  // only the cold one executed real stages.
  const histogram_snapshot* queue_wait = find_hist("queue_wait");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->count, 2u);
  const histogram_snapshot* total = find_hist("request_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 2u);
  EXPECT_GT(total->sum_ms, 0.0);
  std::uint64_t bucket_sum = 0;
  for (const auto b : total->buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, total->count);  // every sample landed in a bucket
  const histogram_snapshot* optimize = find_hist("stage:optimize");
  ASSERT_NE(optimize, nullptr);
  EXPECT_EQ(optimize->count, 1u);  // cache replays are not re-recorded

  // The plaintext rendering is scrape-parseable and carries the counters.
  const std::string text = format_server_stats_text(stats);
  EXPECT_NE(text.find("xsfq_jobs_submitted_total 2"), std::string::npos);
  EXPECT_NE(text.find("xsfq_admission_accepted_total 2"), std::string::npos);
  EXPECT_NE(
      text.find("xsfq_latency_ms_count{name=\"request_total\"} 2"),
      std::string::npos)
      << text;
  // v6: the build-identity gauge and flight-recorder counters are always
  // present (values vary; the series must not).
  EXPECT_NE(text.find("xsfq_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("xsfq_trace_spans_recorded_total "), std::string::npos);
  EXPECT_NE(text.find("xsfq_trace_spans_dropped_total "), std::string::npos);
}

// ---------------------------------------------------------------------------
// v6: end-to-end request tracing.
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, TracedSubmitCollectsSpansThatAddUp) {
  server_fixture fx;
  fx.start(/*threads=*/2);
  client cli(fx.socket_path());

  synth_request req = make_request_for_spec("c432");
  req.trace_hi = 0x0123456789abcdefull;
  req.trace_lo = 0xfedcba9876543210ull;
  ASSERT_TRUE(cli.submit(req).ok);

  trace_request treq;
  treq.trace_hi = req.trace_hi;
  treq.trace_lo = req.trace_lo;
  const trace_reply reply = cli.trace(treq);
  EXPECT_EQ(reply.trace_hi, req.trace_hi);
  EXPECT_EQ(reply.trace_lo, req.trace_lo);
  ASSERT_FALSE(reply.spans.empty());

  // Sorted by start, and every expected span kind present exactly once
  // (cold run: queue_wait, each live stage, request_total).
  const auto count = [&](const std::string& name) {
    std::size_t n = 0;
    for (const auto& s : reply.spans) n += (s.name == name);
    return n;
  };
  EXPECT_EQ(count("queue_wait"), 1u);
  EXPECT_EQ(count("request_total"), 1u);
  EXPECT_EQ(count("stage:optimize"), 1u);
  for (std::size_t i = 1; i < reply.spans.size(); ++i) {
    EXPECT_LE(reply.spans[i - 1].start_us, reply.spans[i].start_us);
  }

  // The waterfall acceptance invariant: stage spans sum to no more than
  // the measured end-to-end total, and the total contains every span.
  std::uint64_t total_dur = 0, total_start = 0, stage_sum = 0;
  for (const auto& s : reply.spans) {
    if (s.name == "request_total") {
      total_dur = s.dur_us;
      total_start = s.start_us;
    }
    if (s.name.rfind("stage:", 0) == 0) stage_sum += s.dur_us;
  }
  EXPECT_GT(total_dur, 0u);
  EXPECT_GT(stage_sum, 0u);
  EXPECT_LE(stage_sum, total_dur);
  for (const auto& s : reply.spans) {
    // queue_wait precedes the total; send follows it (the response bytes
    // leave after the handler's request_total span closed).
    if (s.name == "queue_wait" || s.name == "request_total" ||
        s.name == "send") {
      continue;
    }
    EXPECT_GE(s.start_us + s.dur_us, total_start) << s.name;
    EXPECT_LE(s.start_us + s.dur_us, total_start + total_dur) << s.name;
  }

  // The scrape counts the recorded spans.
  const server_stats_reply stats = cli.server_stats();
  EXPECT_GE(stats.trace_spans_recorded, reply.spans.size());
}

TEST(ServeEndToEnd, ScrapeHistogramsFoldTheTracedSpans) {
  // The scrape's histograms and a request's trace are one record: every
  // sample is written from the same start and duration as its span, and a
  // delta's end-to-end latency lands in request_total like a submit's.
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());

  synth_request base = make_request_for_spec("c432");
  base.trace_hi = 7;
  base.trace_lo = 8;
  ASSERT_TRUE(cli.submit(base).ok);

  const aig base_net = load_request_circuit(base);
  aig::node_index target = 0;
  for (aig::node_index n = 0; n < base_net.size(); ++n) {
    if (base_net.is_gate(n)) target = n;
  }
  const auto tok = [](const signal s) {
    return std::string(s.is_complemented() ? "!" : "") + "n" +
           std::to_string(s.index());
  };
  synth_delta_request dreq;
  dreq.base = base;
  dreq.base.trace_lo = 9;
  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = "replace n" + std::to_string(target) + " " +
                   tok(base_net.fanin0(target)) + " " +
                   tok(!base_net.fanin1(target)) + "\n";
  ASSERT_TRUE(cli.submit_delta(dreq).ok);

  const trace_reply submit_trace = cli.trace({7, 8});
  const trace_reply delta_trace = cli.trace({7, 9});
  const server_stats_reply stats = cli.server_stats();
  for (const char* name :
       {"queue_wait", "request_total", "stage:optimize", "stage:map"}) {
    std::uint64_t spans = 0;
    double span_ms = 0.0;
    for (const trace_reply* t : {&submit_trace, &delta_trace}) {
      for (const auto& sp : t->spans) {
        if (sp.name != name) continue;
        ++spans;
        span_ms += static_cast<double>(sp.dur_us) / 1000.0;
      }
    }
    const histogram_snapshot* hist = nullptr;
    for (const auto& h : stats.histograms) {
      if (h.name == name) hist = &h;
    }
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_EQ(hist->count, spans) << name;
    EXPECT_DOUBLE_EQ(hist->sum_ms, span_ms) << name;
  }
  for (const auto& h : stats.histograms) EXPECT_NE(h.name, "eco_total");
}

TEST(ServeEndToEnd, UntracedSubmitCollectsNothingAndUnknownIdIsEmpty) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());
  ASSERT_TRUE(cli.submit(make_request_for_spec("c432")).ok);  // untraced

  trace_request treq;
  treq.trace_hi = 0xdeadbeefdeadbeefull;
  treq.trace_lo = 0x1111111111111111ull;
  // Unknown id: empty reply, not an error, and the connection stays usable.
  EXPECT_TRUE(cli.trace(treq).spans.empty());
  EXPECT_TRUE(cli.ping());
}

TEST(ServeEndToEnd, TraceOutDirExportsChromeJsonPerTracedRequest) {
  server_fixture fx;
  const std::string out_dir = fx.dir.path + "/traces";
  fs::create_directories(out_dir);
  {
    server_options options;
    options.socket_path = fx.socket_path();
    options.threads = 2;
    options.trace_out_dir = out_dir;
    fx.start_with(std::move(options));
  }
  client cli(fx.socket_path());
  synth_request req = make_request_for_spec("c432");
  req.trace_hi = 1;
  req.trace_lo = 2;
  ASSERT_TRUE(cli.submit(req).ok);

  // Exactly one export, named by the hex trace id, valid Chrome JSON shape.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find("trace_00000000000000010000000000000002.json"),
            std::string::npos);
  std::ifstream in(files[0]);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"request_total\""), std::string::npos);
  EXPECT_NE(
      json.find("\"trace_id\":\"00000000000000010000000000000002\""),
      std::string::npos);
}

TEST(ServeEndToEnd, RetainedByteBudgetEvictsAndSurfacesInScrape) {
  // A deliberately starved retained-network budget: every new session
  // evicts the previous one (the most recent entry is always kept), and
  // the v7 counters show up in the stats reply and the Prometheus scrape.
  server_fixture fx;
  {
    server_options options;
    options.threads = 2;
    options.retained_bytes = 1;  // below any real network's footprint
    fx.start_with(std::move(options));
  }
  client cli(fx.socket_path());

  for (const char* name : {"c432", "c880", "c1908"}) {
    synth_request base = make_request_for_spec(name);
    const aig base_net = load_request_circuit(base);
    ASSERT_TRUE(cli.submit(base).ok) << name;

    synth_delta_request dreq;
    dreq.base = base;
    dreq.base_content_hash = base_net.content_hash();
    // Flip one gate's fanin complement — always a legal, non-no-op edit.
    aig::node_index target = 0;
    for (aig::node_index n = 0; n < base_net.size(); ++n) {
      if (base_net.is_gate(n)) target = n;
    }
    const signal a = base_net.fanin0(target);
    const signal b = base_net.fanin1(target);
    const auto tok = [](const signal s) {
      return std::string(s.is_complemented() ? "!" : "") + "n" +
             std::to_string(s.index());
    };
    dreq.edit_text = "replace n" + std::to_string(target) + " " + tok(a) +
                     " " + tok(!b) + "\n";
    ASSERT_TRUE(cli.submit_delta(dreq).ok) << name;
  }

  const flow::batch_cache_stats cache = cli.server_stats().cache;
  EXPECT_GT(cache.retained_evictions, 0u);
  EXPECT_LE(cache.retained_networks, 1u);  // budget keeps only newest

  const std::string text = format_server_stats_text(cli.server_stats());
  EXPECT_NE(text.find("xsfq_eco_retained_evictions_total"),
            std::string::npos);
  EXPECT_NE(text.find("xsfq_cache_disk_quarantine_pruned_total"),
            std::string::npos);
}

}  // namespace
}  // namespace xsfq
