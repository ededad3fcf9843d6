#include "serve/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "flow/result_io.hpp"

namespace xsfq::serve {

namespace {

constexpr std::size_t header_bytes = 6;  // u32 len + u8 version + u8 type

template <typename T>
std::vector<std::uint8_t> encode(const T& payload) {
  byte_writer w;
  write_field(w, payload);
  return w.take();
}

template <typename T>
T decode(std::span<const std::uint8_t> bytes) {
  byte_reader r(bytes);
  T payload;
  read_field(r, payload);
  r.expect_done();
  return payload;
}

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
// Payload codecs: each struct's field list, in wire order, walked by
// write_field/read_field (util/serialize.hpp).  The lists for the flow types
// a payload is or nests (mapping_params, stage_counters, stage_timing, and
// stage_event, the progress payload) live in flow/result_io.hpp.
// ---------------------------------------------------------------------------

auto fields(of<synth_request> auto& q, auto&& f) {
  // The flow_jobs and partition_grain caps are the CLIs': one hand-crafted
  // frame must not make the daemon partition into degenerate regions.
  return f(q.spec,
           bounded{q.source, circuit_source::registry,
                   circuit_source::blif_text, "circuit source"},
           q.source_text, q.model, q.map, q.validate, q.want_verilog,
           q.want_dot, q.stream_progress,
           bounded{q.flow_jobs, 1u, 256u, "flow_jobs"}, q.priority,
           bounded{q.deadline_ms, 0.0, max_deadline_ms, "deadline_ms"},
           bounded{q.partition_grain, 0u, 100000u, "partition_grain"},
           q.trace_hi, q.trace_lo);
}

/// Follows the length-prefixed `base`, which the delta codec nests by hand.
auto fields(of<synth_delta_request> auto& d, auto&& f) {
  return f(d.base_content_hash, d.edit_text, d.supersede_base, d.force_full);
}

auto fields(of<synth_response> auto& s, auto&& f) {
  return f(s.ok, s.error, s.report, s.validate_report, s.validate_ok,
           s.verilog, s.dot, s.timings, s.total_ms, s.served_from_cache,
           s.content_hash);
}

auto fields(of<auth_request> auto& a, auto&& f) { return f(a.token); }

auto fields(of<trace_request> auto& t, auto&& f) {
  return f(t.trace_hi, t.trace_lo);
}

auto fields(of<trace_span> auto& s, auto&& f) {
  return f(s.name, s.start_us, s.dur_us, s.tid);
}

auto fields(of<trace_reply> auto& t, auto&& f) {
  return f(t.trace_hi, t.trace_lo, t.spans);
}

auto fields(of<fault_site_snapshot> auto& s, auto&& f) {
  return f(s.site, s.hits, s.fired);
}

auto fields(of<histogram_snapshot> auto& h, auto&& f) {
  return f(h.name, h.count, h.sum_ms, h.max_ms, h.buckets);
}

std::vector<std::uint8_t> encode_synth_request(const synth_request& req) {
  return encode(req);
}

synth_request decode_synth_request(std::span<const std::uint8_t> payload) {
  return decode<synth_request>(payload);
}

std::vector<std::uint8_t> encode_synth_delta_request(
    const synth_delta_request& req) {
  byte_writer w;
  const std::vector<std::uint8_t> base = encode_synth_request(req.base);
  w.u64(base.size());
  w.bytes(base.data(), base.size());
  write_field(w, req);
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
  read_field(r, req);
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_progress_event(const progress_event& ev) {
  return encode(ev);
}

progress_event decode_progress_event(std::span<const std::uint8_t> payload) {
  return decode<progress_event>(payload);
}

std::vector<std::uint8_t> encode_synth_response(const synth_response& resp) {
  return encode(resp);
}

synth_response decode_synth_response(std::span<const std::uint8_t> payload) {
  return decode<synth_response>(payload);
}

std::vector<std::uint8_t> encode_auth_request(const auth_request& req) {
  return encode(req);
}

auth_request decode_auth_request(std::span<const std::uint8_t> payload) {
  return decode<auth_request>(payload);
}

std::vector<std::uint8_t> encode_trace_request(const trace_request& req) {
  return encode(req);
}

trace_request decode_trace_request(std::span<const std::uint8_t> payload) {
  return decode<trace_request>(payload);
}

std::vector<std::uint8_t> encode_trace_reply(const trace_reply& reply) {
  return encode(reply);
}

trace_reply decode_trace_reply(std::span<const std::uint8_t> payload) {
  return decode<trace_reply>(payload);
}

std::vector<std::uint8_t> encode_server_stats(
    const server_stats_reply& reply) {
  byte_writer w;
  for_each_stat([&w](const stat_field&, const auto& v) { write_field(w, v); },
                reply);
  write_field(w, reply.fault_sites);
  write_field(w, reply.histograms);
  return w.take();
}

server_stats_reply decode_server_stats(std::span<const std::uint8_t> payload) {
  byte_reader r(payload);
  server_stats_reply reply;
  for_each_stat([&r](const stat_field&, auto& v) { read_field(r, v); }, reply);
  read_field(r, reply.fault_sites);
  read_field(r, reply.histograms);
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
