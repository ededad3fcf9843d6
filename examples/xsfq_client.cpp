/// xsfq_client — CLI front end of the synthesis service.
///
///   xsfq_client [--socket=PATH | --tcp=HOST:PORT [--auth-token=SECRET]]
///               <circuit|file.bench|file.blif> [options]
///   xsfq_client [connection flags] --stats | --shutdown
///   xsfq_client --fleet=EP1,EP2,... [--replicas=R] <spec>... |
///               --route <spec>... | --stats
///
/// Connects over the daemon's Unix socket (default) or TCP (--tcp); a
/// daemon with an auth token requires --auth-token (or the XSFQ_AUTH_TOKEN
/// environment variable) on TCP connections.
///
/// Synthesis options mirror xsfq_synth exactly (--polarity, --pipeline,
/// --registers, --verilog, --dot, --liberty, --validate, --timing,
/// --no-timing, --progress), and the deterministic output is byte-identical
/// to a local xsfq_synth run of the same circuit+options — both front ends
/// render the same serve::synth_response.  The timing footer reports the
/// daemon's wall clock for this request (suppress with --no-timing when
/// diffing).  --progress streams the daemon's per-stage events to stderr as
/// they happen, so stdout stays diffable.
///
/// Admission knobs: --priority=0..255 orders the wait for an execution slot
/// (higher first); --deadline-ms=X fails the request with a typed
/// `deadline_expired` error when no slot frees in time.  --stats dumps the
/// daemon's full metrics scrape as Prometheus-style plaintext.
///
/// Incremental resynthesis (v4): --edit=FILE submits the circuit as an edit
/// script applied to the previously synthesized base — the client loads the
/// base circuit locally to compute its content hash, and the daemon replays
/// the edit onto its retained copy of the base AIG, so only the touched
/// region is re-optimized.  Output stays byte-identical to a from-scratch
/// run of the edited circuit.  --edit-full forces the daemon to run the
/// edited circuit cold (the byte-identity comparator for CI);
/// --no-supersede keeps the base circuit's cache entries alive alongside
/// the edited result.  The new content hash is printed to stderr as
/// `content_hash=<hex>` for chaining further edits.
///
/// Resilience (v5): --retries=N wraps the request in
/// serve::resilient_client — reconnect + capped exponential backoff with
/// jitter, honoring the daemon's retry_after_ms hints — so a daemon
/// restart, a reset connection, or an overload rejection is survived by
/// resubmitting (results are deterministic, so replays are idempotent).
/// --timeout-ms=X bounds each attempt's wait for a response;
/// --backoff-ms=X sets the first backoff (doubling, capped at 2000 ms).
/// With retries the attempt counters are printed to stderr as
/// `client_retries=N client_reconnects=N`.  Default (--retries=0) keeps
/// the classic fail-fast single-connection behavior.
///
/// Tracing (v6): --trace stamps the request with a random 16-byte trace id,
/// fetches the daemon's collected span tree after the result arrives, and
/// prints a per-stage waterfall to stderr — queue wait, cache probes, each
/// flow stage, and the end-to-end request_total — so "where did my
/// milliseconds go?" is answerable per request.  stdout stays byte-identical
/// to xsfq_synth.  --log-level=LEVEL gates the structured retry/reconnect
/// log lines (default info).
///
/// Fleet mode (v7): --fleet=EP1,EP2,... replaces the single connection with
/// serve::fleet_client — consistent-hash routing by content hash across the
/// listed daemons, health-checked failover, hedged sends.  An endpoint
/// containing '/' is a Unix socket path, anything else is HOST:PORT
/// (--auth-token applies to every TCP endpoint).  --replicas=R sets the
/// placement fan-out (default 2).  Several circuit specs may be given and
/// run in order (a corpus); after the run the client-side fleet counters go
/// to stderr (`fleet_failovers_total=N fleet_hedged_total=N ...`) for
/// chaos-drill assertions.  --fleet --stats prints the merged scrape (all
/// reachable daemons summed, plus per-endpoint health); --route prints each
/// spec's owner endpoints in preference order (first column repeats the
/// spec, second is the primary) without contacting any daemon — CI uses it
/// to pick its kill victim.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/fleet.hpp"
#include "serve/resilient_client.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = serve::default_socket_path;
  std::string tcp_address;  // "host:port"; empty = Unix socket
  std::string auth_token;
  if (const char* env = std::getenv("XSFQ_AUTH_TOKEN"); env != nullptr) {
    auth_token = env;
  }
  std::vector<std::string> specs;  // >1 only in fleet mode (a corpus)
  serve::synth_cli_options synth;  // shared parser with xsfq_synth
  unsigned priority = 100;
  double deadline_ms = 0.0;
  std::string edit_path;      // --edit=FILE → submit_delta
  bool edit_full = false;     // --edit-full: force a cold full resynthesis
  bool supersede = true;      // --no-supersede clears it
  unsigned retries = 0;       // --retries=N → resilient_client path
  int timeout_ms = 0;         // --timeout-ms: per-attempt response deadline
  unsigned backoff_ms = 50;   // --backoff-ms: first retry backoff
  bool want_trace = false;    // --trace: stamp an id, print the waterfall
  std::string fleet_spec;     // --fleet=EP1,EP2,... → fleet_client path
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
      char* end = nullptr;
      const unsigned long p = std::strtoul(vp.c_str(), &end, 10);
      if (end == vp.c_str() || *end != '\0' || p > 255) {
        std::cerr << "--priority expects 0..255, got: " << vp << "\n";
        return 2;
      }
      priority = static_cast<unsigned>(p);
    } else if (auto vd = serve::cli_value(arg, "--deadline-ms");
               !vd.empty()) {
      char* end = nullptr;
      const double d = std::strtod(vd.c_str(), &end);
      if (end == vd.c_str() || *end != '\0' || d < 0.0) {
        std::cerr << "--deadline-ms expects a non-negative number, got: "
                  << vd << "\n";
        return 2;
      }
      deadline_ms = d;
    } else if (auto vr = serve::cli_value(arg, "--retries"); !vr.empty()) {
      char* end = nullptr;
      const unsigned long r = std::strtoul(vr.c_str(), &end, 10);
      if (end == vr.c_str() || *end != '\0' || r > 100) {
        std::cerr << "--retries expects 0..100, got: " << vr << "\n";
        return 2;
      }
      retries = static_cast<unsigned>(r);
    } else if (auto vto = serve::cli_value(arg, "--timeout-ms");
               !vto.empty()) {
      char* end = nullptr;
      const long t = std::strtol(vto.c_str(), &end, 10);
      if (end == vto.c_str() || *end != '\0' || t < 0 || t > 86400000) {
        std::cerr << "--timeout-ms expects 0..86400000, got: " << vto << "\n";
        return 2;
      }
      timeout_ms = static_cast<int>(t);
    } else if (auto vb = serve::cli_value(arg, "--backoff-ms"); !vb.empty()) {
      char* end = nullptr;
      const unsigned long b = std::strtoul(vb.c_str(), &end, 10);
      if (end == vb.c_str() || *end != '\0' || b == 0 || b > 60000) {
        std::cerr << "--backoff-ms expects 1..60000, got: " << vb << "\n";
        return 2;
      }
      backoff_ms = static_cast<unsigned>(b);
    } else if (auto ve = serve::cli_value(arg, "--edit"); !ve.empty()) {
      edit_path = ve;
    } else if (auto vfl = serve::cli_value(arg, "--fleet"); !vfl.empty()) {
      fleet_spec = vfl;
    } else if (auto vre = serve::cli_value(arg, "--replicas"); !vre.empty()) {
      char* end = nullptr;
      const unsigned long r = std::strtoul(vre.c_str(), &end, 10);
      if (end == vre.c_str() || *end != '\0' || r == 0 || r > 16) {
        std::cerr << "--replicas expects 1..16, got: " << vre << "\n";
        return 2;
      }
      fleet_replicas = static_cast<std::size_t>(r);
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
  const bool fleet_mode = !fleet_spec.empty();
  if ((act == action::synth || act == action::route) && specs.empty()) {
    std::cerr << "usage: xsfq_client [--socket=PATH | --tcp=HOST:PORT "
                 "[--auth-token=SECRET]] <circuit|file.bench|file.blif> "
                 "[options] [--edit=FILE [--edit-full] [--no-supersede]]\n"
                 "       xsfq_client [connection flags] --stats | "
                 "--shutdown\n"
                 "       xsfq_client --fleet=EP1,EP2,... [--replicas=R] "
                 "<spec>... | --route <spec>... | --stats\n";
    return 2;
  }
  if (edit_path.empty() && (edit_full || !supersede)) {
    std::cerr << "--edit-full and --no-supersede require --edit=FILE\n";
    return 2;
  }
  if (act == action::route && !fleet_mode) {
    std::cerr << "--route requires --fleet=EP1,EP2,...\n";
    return 2;
  }
  if (fleet_mode && act == action::shutdown) {
    std::cerr << "--fleet supports synthesis, --route, and --stats only\n";
    return 2;
  }
  if (fleet_mode && (want_trace || !tcp_address.empty())) {
    std::cerr << "--fleet replaces --tcp and does not support --trace\n";
    return 2;
  }
  if (!fleet_mode && specs.size() > 1) {
    std::cerr << "unexpected argument: " << specs[1]
              << " (a multi-circuit corpus needs --fleet)\n";
    return 2;
  }
  if (!edit_path.empty() && specs.size() > 1) {
    std::cerr << "--edit takes exactly one base circuit\n";
    return 2;
  }

  try {
    if (fleet_mode) {
      // One endpoint per comma-separated item; '/' marks a Unix socket
      // path, anything else is HOST:PORT.  The ring identity of each
      // endpoint is canonical (fleet_client::endpoint_id), so every client
      // pointed at the same --fleet list routes identically.
      std::vector<serve::endpoint> endpoints;
      std::stringstream ss(fleet_spec);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (item.empty()) continue;
        serve::endpoint ep;
        if (item.find('/') != std::string::npos) {
          ep.socket_path = item;
        } else {
          const auto colon = item.find_last_of(':');
          if (colon == std::string::npos || colon == item.size() - 1) {
            throw std::runtime_error(
                "--fleet endpoint expects a socket path or HOST:PORT, "
                "got: " + item);
          }
          ep.host = item.substr(0, colon);
          const int p = std::atoi(item.c_str() + colon + 1);
          if (p <= 0 || p > 65535) {
            throw std::runtime_error("--fleet endpoint has a bad port: " +
                                     item);
          }
          ep.port = static_cast<std::uint16_t>(p);
          ep.auth_token = auth_token;
        }
        endpoints.push_back(std::move(ep));
      }
      serve::fleet_options fopts;
      fopts.replicas = fleet_replicas;
      if (retries > 0) fopts.policy.max_retries = retries;
      fopts.policy.initial_backoff_ms = backoff_ms;
      fopts.policy.request_timeout_ms = timeout_ms;
      serve::fleet_client fleet(std::move(endpoints), fopts);

      if (act == action::server_stats) {
        std::cout << serve::format_fleet_stats_text(fleet.stats());
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

      int rc = 0;
      for (const auto& s : specs) {
        serve::synth_request req = serve::make_request_for_spec(s);
        serve::apply_cli_options(synth, req);
        req.stream_progress = false;  // fleet sends carry no progress stream
        req.priority = static_cast<std::uint8_t>(priority);
        req.deadline_ms = deadline_ms;
        serve::synth_response resp;
        if (edit_path.empty()) {
          resp = fleet.submit(req);
        } else {
          std::ifstream in(edit_path);
          if (!in) {
            std::cerr << "cannot read edit script: " << edit_path << "\n";
            return 2;
          }
          serve::synth_delta_request dreq;
          dreq.base = req;
          dreq.base_content_hash =
              serve::load_request_circuit(req).content_hash();
          dreq.edit_text.assign(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
          dreq.supersede_base = supersede;
          dreq.force_full = edit_full;
          resp = fleet.submit_delta(dreq);
          if (resp.ok) {
            std::fprintf(stderr, "content_hash=%016llx\n",
                         static_cast<unsigned long long>(resp.content_hash));
          }
        }
        rc = std::max(rc, serve::render_synth_response(resp, synth));
      }
      // The chaos drill's assertion surface: grep fleet_failovers_total.
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
    }

    auto parse_tcp = [&](std::string& host, std::uint16_t& port) {
      const auto colon = tcp_address.find_last_of(':');
      if (colon == std::string::npos || colon == tcp_address.size() - 1) {
        throw std::runtime_error("--tcp expects HOST:PORT, got: " +
                                 tcp_address);
      }
      host = tcp_address.substr(0, colon);
      const int p = std::atoi(tcp_address.c_str() + colon + 1);
      if (p <= 0 || p > 65535) {
        throw std::runtime_error("--tcp has a bad port: " + tcp_address);
      }
      port = static_cast<std::uint16_t>(p);
    };
    auto make_client = [&]() {
      if (tcp_address.empty()) {
        auto cli = std::make_unique<serve::client>(socket_path);
        if (timeout_ms > 0) cli->set_receive_timeout_ms(timeout_ms);
        return cli;
      }
      std::string host;
      std::uint16_t port = 0;
      parse_tcp(host, port);
      auto cli = std::make_unique<serve::client>(host, port);
      if (timeout_ms > 0) cli->set_receive_timeout_ms(timeout_ms);
      if (!auth_token.empty()) cli->authenticate(auth_token);
      return cli;
    };
    // --shutdown is the one request that must NOT be retried (the daemon
    // acknowledging and then dying looks like a transport failure, and a
    // resubmit would just fail against the dead socket); it always takes
    // the plain fail-fast path.
    std::unique_ptr<serve::resilient_client> rcli;
    if (retries > 0 && act != action::shutdown) {
      serve::endpoint ep;
      if (tcp_address.empty()) {
        ep.socket_path = socket_path;
      } else {
        parse_tcp(ep.host, ep.port);
      }
      ep.auth_token = auth_token;
      serve::retry_policy policy;
      policy.max_retries = retries;
      policy.initial_backoff_ms = backoff_ms;
      policy.request_timeout_ms = timeout_ms;
      rcli = std::make_unique<serve::resilient_client>(ep, policy);
    }
    auto report_attempts = [&]() {
      if (rcli) {
        std::fprintf(stderr, "client_retries=%llu client_reconnects=%llu\n",
                     static_cast<unsigned long long>(rcli->retries()),
                     static_cast<unsigned long long>(rcli->reconnects()));
      }
    };
    if (act == action::server_stats) {
      std::cout << serve::format_server_stats_text(
          rcli ? rcli->server_stats() : make_client()->server_stats());
      report_attempts();
      return 0;
    }
    if (act == action::shutdown) {
      make_client()->shutdown_server();
      std::cout << "daemon acknowledged shutdown\n";
      return 0;
    }

    serve::synth_request req = serve::make_request_for_spec(specs.front());
    serve::apply_cli_options(synth, req);
    req.stream_progress = synth.progress;
    req.priority = static_cast<std::uint8_t>(priority);
    req.deadline_ms = deadline_ms;

    // --trace: a random non-zero 16-byte id makes the daemon collect this
    // request's spans; we read them back once the result is in hand.
    trace::trace_id trace_id;
    if (want_trace) {
      std::random_device rd;
      const auto word = [&rd] {
        return (static_cast<std::uint64_t>(rd()) << 32) |
               static_cast<std::uint64_t>(rd());
      };
      trace_id.hi = word();
      trace_id.lo = word();
      if (!trace_id.valid()) trace_id.lo = 1;
      req.trace_hi = trace_id.hi;
      req.trace_lo = trace_id.lo;
      // Install locally too, so retry/reconnect log lines correlate.
      trace::set_current(trace_id);
    }

    serve::synth_response resp;
    if (edit_path.empty()) {
      resp = rcli ? rcli->submit(req, serve::print_progress_event)
                  : make_client()->submit(req, serve::print_progress_event);
    } else {
      std::ifstream in(edit_path);
      if (!in) {
        std::cerr << "cannot read edit script: " << edit_path << "\n";
        return 2;
      }
      serve::synth_delta_request dreq;
      dreq.base = req;
      // Hash the base circuit locally: the daemon verifies its retained (or
      // rebuilt) base network against this before replaying the edit.
      dreq.base_content_hash = serve::load_request_circuit(req).content_hash();
      dreq.edit_text.assign(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
      dreq.supersede_base = supersede;
      dreq.force_full = edit_full;
      resp = rcli ? rcli->submit_delta(dreq, serve::print_progress_event)
                  : make_client()->submit_delta(dreq,
                                                serve::print_progress_event);
      if (resp.ok) {
        std::fprintf(stderr, "content_hash=%016llx\n",
                     static_cast<unsigned long long>(resp.content_hash));
      }
    }
    report_attempts();
    if (want_trace) {
      serve::trace_request treq;
      treq.trace_hi = trace_id.hi;
      treq.trace_lo = trace_id.lo;
      print_trace_waterfall(trace_id, rcli ? rcli->trace(treq)
                                           : make_client()->trace(treq));
    }
    if (synth.progress && resp.served_from_cache) {
      std::cerr << "(served from daemon cache)\n";
    }
    // The rendering IS xsfq_synth's: one shared printer, byte for byte.
    return serve::render_synth_response(resp, synth);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
