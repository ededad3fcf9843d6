/// xsfq_client — CLI front end of the synthesis service.
///
///   xsfq_client [--socket=PATH | --tcp=HOST:PORT | --fleet=EP1,EP2,...]
///               [--auth-token=SECRET] <circuit|file.bench|file.blif>...
///               [options]
///   xsfq_client [endpoint flags] --stats | --route <spec>... | --shutdown
///
/// The endpoint flags build one endpoint list: --socket (the default, one
/// Unix socket), --tcp (one daemon), or --fleet (comma-separated; an item
/// containing '/' is a Unix socket path, anything else is HOST:PORT).
/// Every TCP endpoint presents --auth-token (or XSFQ_AUTH_TOKEN).  One
/// serve::fleet_client serves every request over that list — a single
/// daemon is a fleet of one — routing by content hash (--replicas=R owners
/// per circuit, default 2), failing over across owners, and retrying.
///
/// Synthesis options mirror xsfq_synth exactly, and the deterministic
/// output is byte-identical to a local xsfq_synth run of the same
/// circuit+options: both front ends render the same serve::synth_response.
/// Several specs run in order (a corpus).  --no-timing drops the
/// wall-clock footer for diffing; --progress streams the daemon's
/// per-stage events to stderr.  --priority=0..255 orders the wait for an
/// execution slot; --deadline-ms=X (0..86400000) fails a request that
/// waits longer with a typed `deadline_expired` error.
///
/// Incremental resynthesis (v4): --edit=FILE submits the one circuit as an
/// edit script applied to the previously synthesized base, whose content
/// hash the client computes locally; the daemon replays the edit onto its
/// retained base AIG and re-optimizes only the touched region.  Output is
/// byte-identical to a from-scratch run of the edited circuit, which
/// --edit-full forces (the CI comparator).  --no-supersede keeps the base's
/// cache entries.  The new hash goes to stderr as `content_hash=<hex>`.
///
/// Recovery: an attempt that fails on a transport error or a retryable
/// typed error (overloaded, too_many_connections, shutting_down,
/// io_timeout) moves on to the next owner of the circuit.  --retries=N
/// (default 0) adds N more sweeps of the owner list, each after a capped
/// exponential backoff from --backoff-ms (default 50) that honors the
/// daemon's retry_after_ms hint.  --timeout-ms=X bounds each attempt's
/// wait.  Results are deterministic, so a resend is idempotent.  After a
/// run the client's counters go to stderr (`fleet_requests_total=N
/// fleet_failovers_total=N ...`) for chaos-drill assertions.
///
/// Tracing (v6): --trace stamps each request with a random trace id,
/// fetches its spans from the daemon that answered, and prints a
/// per-stage waterfall to stderr.  --log-level=LEVEL gates the client's
/// `fleet.*` log lines (default info), which carry the trace id.
///
/// --stats prints the merged scrape of every endpoint that answers (one
/// daemon: its own scrape) plus the client's xsfq_fleet_* block, and exits
/// 1 when none answered.  --route prints each spec's owners in preference
/// order (spec, primary, next...) without contacting any daemon — CI uses
/// it to pick its kill victim.  --shutdown takes exactly one endpoint and
/// is never retried: an acknowledged shutdown looks like a transport
/// failure, and a resend could reach a restarted daemon.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/fleet.hpp"
#include "serve/synth_service.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

using namespace xsfq;

namespace {

/// The --trace waterfall: one line per span, time-offset and duration in
/// ms, with a bar scaled against the request_total span.  Goes to stderr so
/// stdout stays diffable against xsfq_synth.
void print_trace_waterfall(const xsfq::trace::trace_id id,
                           const serve::trace_reply& reply) {
  std::fprintf(stderr, "trace %s:\n", xsfq::trace::to_hex(id).c_str());
  if (reply.spans.empty()) {
    std::fprintf(stderr, "  (no spans collected — daemon predates v6, or "
                         "the trace was evicted)\n");
    return;
  }
  std::uint64_t t0 = reply.spans.front().start_us;
  std::uint64_t total_us = 0;
  for (const auto& s : reply.spans) {
    t0 = std::min(t0, s.start_us);
    if (s.name == "request_total") total_us = s.dur_us;
  }
  if (total_us == 0) {
    for (const auto& s : reply.spans) {
      total_us = std::max(total_us, s.start_us + s.dur_us - t0);
    }
  }
  constexpr int bar_width = 32;
  double stage_sum_ms = 0.0;
  for (const auto& s : reply.spans) {
    if (s.name.rfind("stage:", 0) == 0) {
      stage_sum_ms += static_cast<double>(s.dur_us) / 1000.0;
    }
    // Bar: offset spaces then '#'s, both scaled to request_total.
    char bar[bar_width + 1];
    int lead = 0, fill = 0;
    if (total_us > 0) {
      lead = static_cast<int>((s.start_us - t0) * bar_width / total_us);
      fill = static_cast<int>(s.dur_us * bar_width / total_us);
    }
    // Clamp so every span keeps one visible tick — the send span starts
    // after request_total closes, which would otherwise scale off the bar.
    lead = std::min(lead, bar_width - 1);
    fill = std::min(std::max(fill, 1), bar_width - lead);
    std::memset(bar, ' ', bar_width);
    std::memset(bar + lead, '#', static_cast<std::size_t>(fill));
    bar[bar_width] = '\0';
    std::fprintf(stderr, "  %-24s %10.3f ms  @%10.3f ms  [tid %u] |%s|\n",
                 s.name.c_str(), static_cast<double>(s.dur_us) / 1000.0,
                 static_cast<double>(s.start_us - t0) / 1000.0, s.tid, bar);
  }
  std::fprintf(stderr,
               "trace_summary spans=%zu stage_sum_ms=%.3f "
               "request_total_ms=%.3f\n",
               reply.spans.size(), stage_sum_ms,
               static_cast<double>(total_us) / 1000.0);
}

/// A random non-zero 16-byte id: it makes the daemon collect the request's
/// spans for a later trace() fetch.
trace::trace_id random_trace_id() {
  std::random_device rd;
  const auto word = [&rd] {
    return (static_cast<std::uint64_t>(rd()) << 32) |
           static_cast<std::uint64_t>(rd());
  };
  trace::trace_id id;
  id.hi = word();
  id.lo = word();
  if (!id.valid()) id.lo = 1;
  return id;
}

/// The integer value of `flag` when it lies in [lo, hi]; otherwise says
/// what was expected and returns nothing.
std::optional<long> int_flag(const char* flag, const std::string& value,
                             long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < lo || v > hi) {
    std::cerr << flag << " expects " << lo << ".." << hi
              << ", got: " << value << "\n";
    return std::nullopt;
  }
  return v;
}

serve::endpoint unix_endpoint(const std::string& path) {
  serve::endpoint ep;
  ep.socket_path = path;
  return ep;
}

/// HOST:PORT → a TCP endpoint presenting `auth_token`.
serve::endpoint tcp_endpoint(const std::string& address,
                             const std::string& auth_token) {
  const auto colon = address.find_last_of(':');
  const int port =
      colon == std::string::npos ? 0 : std::atoi(address.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("expected a socket path or HOST:PORT, got: " +
                             address);
  }
  serve::endpoint ep;
  ep.host = address.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(port);
  ep.auth_token = auth_token;
  return ep;
}

}  // namespace

int main(int argc, char** argv) {
  // Output under 64 KiB (a --stats scrape, a report) leaves in one write at
  // exit, so `xsfq_client --stats | grep -q ...` cannot die of SIGPIPE
  // halfway through under `set -o pipefail`.  glibc ignores the size
  // unless the caller supplies the buffer.
  static char stdout_buffer[1 << 16];
  std::setvbuf(stdout, stdout_buffer, _IOFBF, sizeof stdout_buffer);
  std::string socket_path = serve::default_socket_path;
  std::string tcp_address;  // "host:port"; empty = Unix socket
  std::string auth_token;
  if (const char* env = std::getenv("XSFQ_AUTH_TOKEN"); env != nullptr) {
    auth_token = env;
  }
  std::vector<std::string> specs;  // several = a corpus, run in order
  serve::synth_cli_options synth;  // shared parser with xsfq_synth
  unsigned priority = 100;
  double deadline_ms = 0.0;
  std::string edit_path;      // --edit=FILE → submit_delta
  bool edit_full = false;     // --edit-full: force a cold full resynthesis
  bool supersede = true;      // --no-supersede clears it
  unsigned retries = 0;       // --retries=N: extra sweeps of the owners
  int timeout_ms = 0;         // --timeout-ms: per-attempt response deadline
  unsigned backoff_ms = 50;   // --backoff-ms: first retry backoff
  bool want_trace = false;    // --trace: stamp an id, print the waterfall
  std::string fleet_spec;     // --fleet=EP1,EP2,...: the endpoint list
  std::size_t fleet_replicas = 2;  // --replicas: placement fan-out
  enum class action { synth, server_stats, shutdown, route };
  action act = action::synth;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string error;
    switch (serve::parse_synth_option(arg, synth, error)) {
      case serve::cli_parse::consumed:
        continue;
      case serve::cli_parse::invalid:
        std::cerr << error << "\n";
        return 2;
      case serve::cli_parse::not_synth_option:
        break;
    }
    if (auto v = serve::cli_value(arg, "--socket"); !v.empty()) {
      socket_path = v;
    } else if (auto vt = serve::cli_value(arg, "--tcp"); !vt.empty()) {
      tcp_address = vt;
    } else if (auto va = serve::cli_value(arg, "--auth-token"); !va.empty()) {
      auth_token = va;
    } else if (auto vp = serve::cli_value(arg, "--priority"); !vp.empty()) {
      const auto p = int_flag("--priority", vp, 0, 255);
      if (!p) return 2;
      priority = static_cast<unsigned>(*p);
    } else if (auto vd = serve::cli_value(arg, "--deadline-ms");
               !vd.empty()) {
      char* end = nullptr;
      const double d = std::strtod(vd.c_str(), &end);
      // Negated so NaN fails too (strtod also accepts "inf" and "nan").
      if (end == vd.c_str() || *end != '\0' ||
          !(d >= 0.0 && d <= serve::max_deadline_ms)) {
        std::cerr << "--deadline-ms expects 0..86400000, got: " << vd << "\n";
        return 2;
      }
      deadline_ms = d;
    } else if (auto vr = serve::cli_value(arg, "--retries"); !vr.empty()) {
      const auto r = int_flag("--retries", vr, 0, 100);
      if (!r) return 2;
      retries = static_cast<unsigned>(*r);
    } else if (auto vto = serve::cli_value(arg, "--timeout-ms");
               !vto.empty()) {
      const auto t = int_flag("--timeout-ms", vto, 0, 86400000);
      if (!t) return 2;
      timeout_ms = static_cast<int>(*t);
    } else if (auto vb = serve::cli_value(arg, "--backoff-ms"); !vb.empty()) {
      const auto b = int_flag("--backoff-ms", vb, 1, 60000);
      if (!b) return 2;
      backoff_ms = static_cast<unsigned>(*b);
    } else if (auto ve = serve::cli_value(arg, "--edit"); !ve.empty()) {
      edit_path = ve;
    } else if (auto vfl = serve::cli_value(arg, "--fleet"); !vfl.empty()) {
      fleet_spec = vfl;
    } else if (auto vre = serve::cli_value(arg, "--replicas"); !vre.empty()) {
      const auto r = int_flag("--replicas", vre, 1, 16);
      if (!r) return 2;
      fleet_replicas = static_cast<std::size_t>(*r);
    } else if (arg == "--route") {
      act = action::route;
    } else if (arg == "--trace") {
      want_trace = true;
    } else if (auto vll = serve::cli_value(arg, "--log-level");
               !vll.empty()) {
      log::level lvl;
      if (!log::parse_level(vll, lvl)) {
        std::cerr << "--log-level expects trace|debug|info|warn|error|off, "
                     "got: " << vll << "\n";
        return 2;
      }
      log::set_level(lvl);
    } else if (arg == "--edit-full") {
      edit_full = true;
    } else if (arg == "--no-supersede") {
      supersede = false;
    } else if (arg == "--stats") {
      act = action::server_stats;
    } else if (arg == "--shutdown") {
      act = action::shutdown;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    } else {
      specs.push_back(arg);
    }
  }
  if ((act == action::synth || act == action::route) && specs.empty()) {
    std::cerr << "usage: xsfq_client [--socket=PATH | --tcp=HOST:PORT | "
                 "--fleet=EP1,EP2,...] [--auth-token=SECRET]\n"
                 "                   <circuit|file.bench|file.blif>... "
                 "[options] [--edit=FILE [--edit-full] [--no-supersede]]\n"
                 "       xsfq_client [endpoint flags] --stats | "
                 "--route <spec>... | --shutdown\n";
    return 2;
  }
  if (edit_path.empty() && (edit_full || !supersede)) {
    std::cerr << "--edit-full and --no-supersede require --edit=FILE\n";
    return 2;
  }
  if (!fleet_spec.empty() && !tcp_address.empty()) {
    std::cerr << "--fleet replaces --tcp\n";
    return 2;
  }
  if (!edit_path.empty() && specs.size() > 1) {
    std::cerr << "--edit takes exactly one base circuit\n";
    return 2;
  }

  try {
    // One endpoint list, whichever flag named it.  The ring identity of
    // each endpoint is canonical (fleet_client::endpoint_id), so every
    // client given the same list routes identically.
    std::vector<serve::endpoint> endpoints;
    if (!fleet_spec.empty()) {
      std::stringstream ss(fleet_spec);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (item.empty()) continue;
        if (item.find('/') == std::string::npos) {
          endpoints.push_back(tcp_endpoint(item, auth_token));
        } else {
          endpoints.push_back(unix_endpoint(item));
        }
      }
    } else if (!tcp_address.empty()) {
      endpoints.push_back(tcp_endpoint(tcp_address, auth_token));
    } else {
      endpoints.push_back(unix_endpoint(socket_path));
    }

    if (act == action::shutdown) {
      if (endpoints.size() != 1) {
        std::cerr << "--shutdown takes exactly one endpoint\n";
        return 2;
      }
      serve::client cli(endpoints.front());
      if (timeout_ms > 0) cli.set_receive_timeout_ms(timeout_ms);
      cli.shutdown_server();
      std::cout << "daemon acknowledged shutdown\n";
      return 0;
    }

    serve::fleet_options fopts;
    fopts.replicas = fleet_replicas;
    fopts.policy.max_retries = retries;
    fopts.policy.initial_backoff_ms = backoff_ms;
    fopts.policy.request_timeout_ms = timeout_ms;
    serve::fleet_client fleet(std::move(endpoints), fopts);

    if (act == action::server_stats) {
      const serve::fleet_stats stats = fleet.stats();
      if (stats.endpoints_up == 0) {
        std::cerr << "error: no endpoint answered the stats request\n";
        return 1;
      }
      std::cout << serve::format_fleet_stats_text(stats);
      return 0;
    }
    if (act == action::route) {
      // Pure ring lookup, no daemon contact: `<spec> <primary> <next>...`
      // per line — `awk '{print $2}'` hands CI its kill -9 victim.
      for (const auto& s : specs) {
        const auto req = serve::make_request_for_spec(s);
        std::cout << s;
        for (const auto& owner :
             fleet.owners_for(serve::fleet_client::routing_key(req))) {
          std::cout << ' ' << owner;
        }
        std::cout << '\n';
      }
      return 0;
    }

    std::string edit_text;
    if (!edit_path.empty()) {
      std::ifstream in(edit_path);
      if (!in) {
        std::cerr << "cannot read edit script: " << edit_path << "\n";
        return 2;
      }
      edit_text.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }
    int rc = 0;
    for (const auto& s : specs) {
      serve::synth_request req = serve::make_request_for_spec(s);
      serve::apply_cli_options(synth, req);
      req.stream_progress = synth.progress;
      req.priority = static_cast<std::uint8_t>(priority);
      req.deadline_ms = deadline_ms;
      trace::trace_id trace_id;
      if (want_trace) {
        trace_id = random_trace_id();
        req.trace_hi = trace_id.hi;
        req.trace_lo = trace_id.lo;
        // Installed locally too, so fleet.* log lines correlate.
        trace::set_current(trace_id);
      }

      serve::synth_response resp;
      if (edit_path.empty()) {
        resp = fleet.submit(req, serve::print_progress_event);
      } else {
        serve::synth_delta_request dreq;
        dreq.base = req;
        // Hash the base circuit locally: the daemon verifies its retained
        // (or rebuilt) base network against this before replaying the edit.
        dreq.base_content_hash =
            serve::load_request_circuit(req).content_hash();
        dreq.edit_text = edit_text;
        dreq.supersede_base = supersede;
        dreq.force_full = edit_full;
        resp = fleet.submit_delta(dreq, serve::print_progress_event);
        if (resp.ok) {
          std::fprintf(stderr, "content_hash=%016llx\n",
                       static_cast<unsigned long long>(resp.content_hash));
        }
      }
      if (want_trace) {
        serve::trace_request treq;
        treq.trace_hi = trace_id.hi;
        treq.trace_lo = trace_id.lo;
        print_trace_waterfall(trace_id, fleet.trace(treq));
      }
      if (synth.progress && resp.served_from_cache) {
        std::cerr << "(served from daemon cache)\n";
      }
      // The rendering IS xsfq_synth's: one shared printer, byte for byte.
      rc = std::max(rc, serve::render_synth_response(resp, synth));
    }
    // The chaos drills' assertion surface: grep fleet_failovers_total.
    const auto& fc = fleet.counters();
    std::fprintf(stderr,
                 "fleet_requests_total=%llu fleet_failovers_total=%llu "
                 "fleet_hedged_total=%llu fleet_hedge_wins_total=%llu "
                 "fleet_probes_total=%llu "
                 "fleet_eco_full_fallbacks_total=%llu\n",
                 static_cast<unsigned long long>(fc.requests),
                 static_cast<unsigned long long>(fc.failovers),
                 static_cast<unsigned long long>(fc.hedged),
                 static_cast<unsigned long long>(fc.hedge_wins),
                 static_cast<unsigned long long>(fc.probes),
                 static_cast<unsigned long long>(fc.eco_full_fallbacks));
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
