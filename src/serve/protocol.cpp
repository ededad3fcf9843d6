#include "serve/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "flow/result_io.hpp"

namespace xsfq::serve {

namespace {

constexpr std::size_t header_bytes = 6;  // u32 len + u8 version + u8 type

void write_mapping_params(byte_writer& w, const mapping_params& params) {
  w.u8(static_cast<std::uint8_t>(params.polarity));
  w.u32(params.pipeline_stages);
  w.u8(static_cast<std::uint8_t>(params.reg_style));
  w.boolean(params.forced_polarities.has_value());
  if (params.forced_polarities) {
    w.u64(params.forced_polarities->size());
    for (const bool negate : *params.forced_polarities) w.boolean(negate);
  }
}

mapping_params read_mapping_params(byte_reader& r) {
  mapping_params params;
  const std::uint8_t polarity = r.u8();
  if (polarity > static_cast<std::uint8_t>(polarity_mode::optimized)) {
    throw serialize_error("polarity mode out of range");
  }
  params.polarity = static_cast<polarity_mode>(polarity);
  params.pipeline_stages = r.u32();
  // Same cap the CLIs enforce; a long-lived daemon must not run the mapper
  // with an absurd rank count from one hand-crafted frame.
  if (params.pipeline_stages > 64) {
    throw serialize_error("pipeline stage count out of range");
  }
  const std::uint8_t style = r.u8();
  if (style > static_cast<std::uint8_t>(register_style::pair_retimed)) {
    throw serialize_error("register style out of range");
  }
  params.reg_style = static_cast<register_style>(style);
  if (r.boolean()) {
    const std::size_t n = r.count(/*min_element_bytes=*/1);
    std::vector<bool> forced(n);
    for (std::size_t i = 0; i < n; ++i) forced[i] = r.boolean();
    params.forced_polarities = std::move(forced);
  }
  return params;
}

// One wire codec per server_stats scalar type (see for_each_stat).
void put(byte_writer& w, std::uint64_t v) { w.u64(v); }
void put(byte_writer& w, std::uint32_t v) { w.u32(v); }
void put(byte_writer& w, double v) { w.f64(v); }
void put(byte_writer& w, const std::string& v) { w.str(v); }
void get(byte_reader& r, std::uint64_t& v) { v = r.u64(); }
void get(byte_reader& r, std::uint32_t& v) { v = r.u32(); }
void get(byte_reader& r, double& v) { v = r.f64(); }
void get(byte_reader& r, std::string& v) { v = r.str(); }

}  // namespace

std::vector<std::uint8_t> encode_frame(msg_type type,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t version) {
  if (payload.size() > max_frame_payload) {
    throw protocol_error("payload exceeds max frame size");
  }
  byte_writer w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

std::optional<frame> read_frame(const read_fn& read) {
  std::uint8_t header[header_bytes];
  std::size_t got = 0;
  while (got < header_bytes) {
    const std::size_t n = read(header + got, header_bytes - got);
    if (n == 0) {
      if (got == 0) return std::nullopt;  // clean end-of-stream
      throw protocol_error("truncated frame header");
    }
    got += n;
  }
  byte_reader hr(std::span<const std::uint8_t>(header, header_bytes));
  const std::uint32_t len = hr.u32();
  const std::uint8_t version = hr.u8();
  const std::uint8_t type = hr.u8();
  // The header layout is frozen across versions, so any *plausible* version
  // byte parses structurally and the caller applies its version policy (the
  // server answers a mismatched peer with a typed unsupported_version
  // error).  0 and far-future values are how random garbage usually looks.
  if (version == 0 || version > protocol_version + 4) {
    throw protocol_error("implausible protocol version byte " +
                         std::to_string(version));
  }
  if (len > max_frame_payload) {
    throw protocol_error("oversized frame (" + std::to_string(len) +
                         " bytes)");
  }
  frame f;
  f.type = static_cast<msg_type>(type);
  f.version = version;
  f.payload.resize(len);
  std::size_t read_total = 0;
  while (read_total < len) {
    const std::size_t n =
        read(f.payload.data() + read_total, len - read_total);
    if (n == 0) throw protocol_error("truncated frame payload");
    read_total += n;
  }
  return f;
}

std::optional<frame> read_frame_fd(int fd) {
  return read_frame([fd](void* dst, std::size_t n) -> std::size_t {
    for (;;) {
      const ssize_t got = ::read(fd, dst, n);
      if (got >= 0) return static_cast<std::size_t>(got);
      if (errno == EINTR) continue;
      // A receive timeout set on the socket (SO_RCVTIMEO, the client-side
      // deadline) surfaces as EAGAIN — map it to the typed timeout so
      // callers can distinguish "peer is slow" from "peer sent garbage".
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw io_timeout_error("read timed out");
      throw protocol_error(std::string("read failed: ") +
                           std::strerror(errno));
    }
  });
}

std::optional<frame> read_frame_fd(int fd, int io_timeout_ms,
                                   int idle_timeout_ms) {
  // The first poll of a frame waits under the idle deadline (nothing is in
  // flight yet; an idle keep-alive connection is legitimate for longer);
  // every later byte falls under the stricter io deadline — a peer that
  // sent half a header and stopped is a stalled or malicious peer, and must
  // not pin this handler thread beyond it.
  bool mid_frame = false;
  return read_frame([fd, io_timeout_ms, idle_timeout_ms,
                     &mid_frame](void* dst, std::size_t n) -> std::size_t {
    const int timeout_ms = mid_frame ? io_timeout_ms : idle_timeout_ms;
    for (;;) {
      struct pollfd pfd = {fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw protocol_error(std::string("poll failed: ") +
                             std::strerror(errno));
      }
      if (rc == 0)
        throw io_timeout_error(mid_frame ? "read timed out mid-frame"
                                         : "idle timeout");
      const ssize_t got = ::read(fd, dst, n);
      if (got >= 0) {
        if (got > 0) mid_frame = true;
        return static_cast<std::size_t>(got);
      }
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;  // spurious wakeup — re-poll under the same deadline
      throw protocol_error(std::string("read failed: ") +
                           std::strerror(errno));
    }
  });
}

void write_frame_fd(int fd, msg_type type,
                    std::span<const std::uint8_t> payload,
                    std::uint8_t version) {
  write_frame_fd(fd, type, payload, version, /*io_timeout_ms=*/0);
}

void write_frame_fd(int fd, msg_type type,
                    std::span<const std::uint8_t> payload,
                    std::uint8_t version, int io_timeout_ms) {
  const std::vector<std::uint8_t> bytes = encode_frame(type, payload, version);
  std::size_t written = 0;
  while (written < bytes.size()) {
    if (io_timeout_ms > 0) {
      // A peer that stopped draining its socket fills the kernel buffer and
      // would block this send forever; poll bounds each wait.
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, io_timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw protocol_error(std::string("poll failed: ") +
                             std::strerror(errno));
      }
      if (rc == 0) throw io_timeout_error("write timed out");
    }
    // MSG_NOSIGNAL: a peer that disappeared mid-response must surface as a
    // protocol_error on this connection, not as SIGPIPE for the process.
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw protocol_error(std::string("write failed: ") +
                           std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_synth_request(const synth_request& req) {
  byte_writer w;
  w.str(req.spec);
  w.u8(static_cast<std::uint8_t>(req.source));
  w.str(req.source_text);
  w.str(req.model);
  write_mapping_params(w, req.map);
  w.boolean(req.validate);
  w.boolean(req.want_verilog);
  w.boolean(req.want_dot);
  w.boolean(req.stream_progress);
  w.u32(req.flow_jobs);
  w.u8(req.priority);
  w.f64(req.deadline_ms);
  w.u32(req.partition_grain);
  w.u64(req.trace_hi);
  w.u64(req.trace_lo);
  return w.take();
}

synth_request decode_synth_request(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  synth_request req;
  req.spec = r.str();
  const std::uint8_t source = r.u8();
  if (source > static_cast<std::uint8_t>(circuit_source::blif_text)) {
    throw serialize_error("circuit source out of range");
  }
  req.source = static_cast<circuit_source>(source);
  req.source_text = r.str();
  req.model = r.str();
  req.map = read_mapping_params(r);
  req.validate = r.boolean();
  req.want_verilog = r.boolean();
  req.want_dot = r.boolean();
  req.stream_progress = r.boolean();
  req.flow_jobs = r.u32();
  if (req.flow_jobs == 0 || req.flow_jobs > 256) {
    throw serialize_error("flow_jobs out of range");
  }
  req.priority = r.u8();
  req.deadline_ms = r.f64();
  if (std::isnan(req.deadline_ms) || req.deadline_ms < 0.0) {
    throw serialize_error("deadline_ms out of range");
  }
  req.partition_grain = r.u32();
  // Same cap as --partition-grain; one hand-crafted frame must not make the
  // daemon partition into degenerate single-gate regions forever.
  if (req.partition_grain > 100000) {
    throw serialize_error("partition_grain out of range");
  }
  req.trace_hi = r.u64();
  req.trace_lo = r.u64();
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_synth_delta_request(
    const synth_delta_request& req) {
  byte_writer w;
  const std::vector<std::uint8_t> base = encode_synth_request(req.base);
  w.u64(base.size());
  w.bytes(base.data(), base.size());
  w.u64(req.base_content_hash);
  w.str(req.edit_text);
  w.boolean(req.supersede_base);
  w.boolean(req.force_full);
  return w.take();
}

synth_delta_request decode_synth_delta_request(
    std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  synth_delta_request req;
  // The base request is nested as a length-prefixed blob so its codec can
  // grow without the delta codec knowing its field list.
  const std::size_t base_len = r.count(/*min_element_bytes=*/1);
  req.base = decode_synth_request(r.raw(base_len));
  req.base_content_hash = r.u64();
  req.edit_text = r.str();
  req.supersede_base = r.boolean();
  req.force_full = r.boolean();
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_progress_event(const progress_event& ev) {
  byte_writer w;
  w.str(ev.stage);
  w.u32(ev.index);
  w.u32(ev.total);
  w.f64(ev.ms);
  flow::write_stage_counters(w, ev.counters);
  w.boolean(ev.from_cache);
  return w.take();
}

progress_event decode_progress_event(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  progress_event ev;
  ev.stage = r.str();
  ev.index = r.u32();
  ev.total = r.u32();
  ev.ms = r.f64();
  ev.counters = flow::read_stage_counters(r);
  ev.from_cache = r.boolean();
  r.expect_done();
  return ev;
}

std::vector<std::uint8_t> encode_synth_response(const synth_response& resp) {
  byte_writer w;
  w.boolean(resp.ok);
  w.str(resp.error);
  w.str(resp.report);
  w.str(resp.validate_report);
  w.boolean(resp.validate_ok);
  w.str(resp.verilog);
  w.str(resp.dot);
  flow::write_stage_timings(w, resp.timings);
  w.f64(resp.total_ms);
  w.boolean(resp.served_from_cache);
  w.u64(resp.content_hash);
  return w.take();
}

synth_response decode_synth_response(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  synth_response resp;
  resp.ok = r.boolean();
  resp.error = r.str();
  resp.report = r.str();
  resp.validate_report = r.str();
  resp.validate_ok = r.boolean();
  resp.verilog = r.str();
  resp.dot = r.str();
  resp.timings = flow::read_stage_timings(r);
  resp.total_ms = r.f64();
  resp.served_from_cache = r.boolean();
  resp.content_hash = r.u64();
  r.expect_done();
  return resp;
}

std::vector<std::uint8_t> encode_hello_request(const hello_request& req) {
  byte_writer w;
  w.u8(req.client_version);
  w.str(req.client_name);
  return w.take();
}

hello_request decode_hello_request(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  hello_request req;
  req.client_version = r.u8();
  req.client_name = r.str();
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_hello_reply(const hello_reply& reply) {
  byte_writer w;
  w.u8(reply.server_version);
  w.boolean(reply.auth_required);
  w.u32(reply.max_payload);
  w.u64(reply.capabilities.size());
  for (const auto& cap : reply.capabilities) w.str(cap);
  return w.take();
}

hello_reply decode_hello_reply(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  hello_reply reply;
  reply.server_version = r.u8();
  reply.auth_required = r.boolean();
  reply.max_payload = r.u32();
  const std::size_t n = r.count(/*min_element_bytes=*/8);
  reply.capabilities.reserve(n);
  for (std::size_t i = 0; i < n; ++i) reply.capabilities.push_back(r.str());
  r.expect_done();
  return reply;
}

std::vector<std::uint8_t> encode_auth_request(const auth_request& req) {
  byte_writer w;
  w.str(req.token);
  return w.take();
}

auth_request decode_auth_request(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  auth_request req;
  req.token = r.str();
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_trace_request(const trace_request& req) {
  byte_writer w;
  w.u64(req.trace_hi);
  w.u64(req.trace_lo);
  return w.take();
}

trace_request decode_trace_request(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  trace_request req;
  req.trace_hi = r.u64();
  req.trace_lo = r.u64();
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_trace_reply(const trace_reply& reply) {
  byte_writer w;
  w.u64(reply.trace_hi);
  w.u64(reply.trace_lo);
  w.u64(reply.spans.size());
  for (const auto& s : reply.spans) {
    w.str(s.name);
    w.u64(s.start_us);
    w.u64(s.dur_us);
    w.u32(s.tid);
  }
  return w.take();
}

trace_reply decode_trace_reply(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  trace_reply reply;
  reply.trace_hi = r.u64();
  reply.trace_lo = r.u64();
  const std::size_t n = r.count(/*min_element_bytes=*/8);
  reply.spans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace_span s;
    s.name = r.str();
    s.start_us = r.u64();
    s.dur_us = r.u64();
    s.tid = r.u32();
    reply.spans.push_back(std::move(s));
  }
  r.expect_done();
  return reply;
}

std::vector<std::uint8_t> encode_server_stats(
    const server_stats_reply& reply) {
  byte_writer w;
  for_each_stat([&w](const stat_field&, const auto& v) { put(w, v); }, reply);
  w.u64(reply.fault_sites.size());
  for (const auto& s : reply.fault_sites) {
    w.str(s.site);
    w.u64(s.hits);
    w.u64(s.fired);
  }
  w.u64(reply.histograms.size());
  for (const auto& h : reply.histograms) {
    w.str(h.name);
    w.u64(h.count);
    w.f64(h.sum_ms);
    w.f64(h.max_ms);
    w.u64(h.buckets.size());
    for (const std::uint64_t b : h.buckets) w.u64(b);
  }
  return w.take();
}

server_stats_reply decode_server_stats(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  server_stats_reply reply;
  for_each_stat([&r](const stat_field&, auto& v) { get(r, v); }, reply);
  const std::size_t nf = r.count(/*min_element_bytes=*/8);
  reply.fault_sites.reserve(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    fault_site_snapshot s;
    s.site = r.str();
    s.hits = r.u64();
    s.fired = r.u64();
    reply.fault_sites.push_back(std::move(s));
  }
  const std::size_t n = r.count(/*min_element_bytes=*/8);
  reply.histograms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    histogram_snapshot h;
    h.name = r.str();
    h.count = r.u64();
    h.sum_ms = r.f64();
    h.max_ms = r.f64();
    const std::size_t nb = r.count(/*min_element_bytes=*/8);
    h.buckets.reserve(nb);
    for (std::size_t j = 0; j < nb; ++j) h.buckets.push_back(r.u64());
    reply.histograms.push_back(std::move(h));
  }
  r.expect_done();
  return reply;
}

void merge_server_stats(server_stats_reply& into,
                        const server_stats_reply& from) {
  for_each_stat(
      [](const stat_field& field, auto& to, const auto& v) {
        switch (field.merge) {
          case stat_merge::sum: to += v; break;
          case stat_merge::max: to = std::max(to, v); break;
          case stat_merge::first_set:
            if (to == std::decay_t<decltype(to)>{}) to = v;
            break;
        }
      },
      into, from);
  for (const fault_site_snapshot& site : from.fault_sites) {
    auto it = std::ranges::find(into.fault_sites, site.site,
                                &fault_site_snapshot::site);
    if (it == into.fault_sites.end()) {
      into.fault_sites.push_back(site);
    } else {
      it->hits += site.hits;
      it->fired += site.fired;
    }
  }
  for (const histogram_snapshot& h : from.histograms) {
    auto it =
        std::ranges::find(into.histograms, h.name, &histogram_snapshot::name);
    if (it == into.histograms.end()) {
      into.histograms.push_back(h);
      continue;
    }
    it->count += h.count;
    it->sum_ms += h.sum_ms;
    it->max_ms = std::max(it->max_ms, h.max_ms);
    it->buckets.resize(std::max(it->buckets.size(), h.buckets.size()));
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      it->buckets[i] += h.buckets[i];
    }
  }
}

std::vector<std::uint8_t> encode_error(error_code code,
                                       const std::string& message,
                                       std::uint32_t retry_after_ms) {
  byte_writer w;
  w.u8(static_cast<std::uint8_t>(code));
  w.str(message);
  w.u32(retry_after_ms);
  return w.take();
}

error_reply decode_error(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  error_reply reply;
  const std::uint8_t code = r.u8();
  reply.code = code > static_cast<std::uint8_t>(error_code::io_timeout)
                   ? error_code::generic
                   : static_cast<error_code>(code);
  reply.message = r.str();
  // v5 appended the backoff hint; a v3/v4 payload simply ends here.
  if (r.remaining() > 0) reply.retry_after_ms = r.u32();
  r.expect_done();
  return reply;
}

bool constant_time_equal(const std::string& a, const std::string& b) {
  unsigned char acc = a.size() == b.size() ? 0 : 1;
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca =
        i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb =
        i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    acc = static_cast<unsigned char>(acc | (ca ^ cb));
  }
  return acc == 0;
}

}  // namespace xsfq::serve
