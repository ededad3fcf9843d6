/// \file fleet.cpp
/// \brief Sharded fleet client: routing, health, failover, hedging, stats.

#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "aig/edit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "serve/synth_service.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace xsfq::serve {

namespace {

using clock_type = std::chrono::steady_clock;

// Fixed tuning: seed of the jitter stream (drills replay identically),
// jitter fraction of every backoff and probe interval, ring points per
// endpoint, and the latency quantile the hedge deadline scales.
constexpr std::uint64_t jitter_seed = 0x5eedc0deull;
constexpr double jitter_fraction = 0.25;
constexpr unsigned ring_vnodes = 64;
constexpr double hedge_quantile = 0.99;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

/// Attaches the calling thread's installed trace id, so a failover line
/// correlates with the request it delayed.
log::line& with_trace(log::line& l) {
  const trace::trace_id id = trace::current();
  if (id.valid()) l.kv("trace_id", trace::to_hex(id));
  return l;
}

/// Shedding and lifecycle races are worth another attempt; everything else
/// (bad_request, auth_failed, unknown_base, bad_edit, ...) indicts the
/// request or the credentials, which a retry cannot fix.
bool retryable_service_error(error_code code) {
  switch (code) {
    case error_code::overloaded:
    case error_code::too_many_connections:
    case error_code::shutting_down:
    case error_code::io_timeout:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* to_string(endpoint_health h) {
  switch (h) {
    case endpoint_health::healthy: return "healthy";
    case endpoint_health::suspect: return "suspect";
    case endpoint_health::down: return "down";
    case endpoint_health::probing: return "probing";
  }
  return "unknown";
}

/// One fleet member: the endpoint description, its (lazily dialed)
/// connection, and the health state machine this client maintains for it.
struct fleet_client::shard {
  endpoint ep;
  std::string id;
  std::unique_ptr<client> conn;
  endpoint_health health = endpoint_health::healthy;
  std::uint32_t consecutive_failures = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  clock_type::time_point next_probe{};  ///< meaningful while non-healthy
};

std::string fleet_client::endpoint_id(const endpoint& ep) {
  if (!ep.socket_path.empty()) return "unix:" + ep.socket_path;
  return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

namespace {
std::vector<std::string> make_ids(const std::vector<endpoint>& endpoints) {
  std::vector<std::string> ids;
  ids.reserve(endpoints.size());
  for (const endpoint& ep : endpoints) {
    ids.push_back(fleet_client::endpoint_id(ep));
  }
  return ids;
}
}  // namespace

fleet_client::fleet_client(std::vector<endpoint> endpoints,
                           fleet_options options)
    : options_(options),
      ring_(make_ids(endpoints), ring_vnodes),
      rng_state_(jitter_seed) {
  shards_.reserve(endpoints.size());
  for (endpoint& ep : endpoints) {
    auto sh = std::make_unique<shard>();
    sh->id = endpoint_id(ep);
    sh->ep = std::move(ep);
    shards_.push_back(std::move(sh));
  }
}

fleet_client::~fleet_client() = default;

std::size_t fleet_client::size() const { return shards_.size(); }

std::uint64_t fleet_client::routing_key(const synth_request& req) {
  try {
    return load_request_circuit(req).content_hash();
  } catch (const std::exception&) {
    // Unloadable circuit: the daemon will reject it with a typed error, but
    // it must still route deterministically (same shard every retry).
    std::uint64_t h = hash_mix(0x1eefu, static_cast<std::uint64_t>(req.source));
    h = hash_mix_str(h, req.spec);
    h = hash_mix_str(h, req.source_text);
    h = hash_mix_str(h, req.model);
    return h;
  }
}

std::vector<std::string> fleet_client::owners_for(std::uint64_t key) const {
  std::vector<std::string> ids;
  for (const std::size_t owner : ring_.route(key, options_.replicas)) {
    ids.push_back(ring_.id(owner));
  }
  return ids;
}

client& fleet_client::connect(shard& sh, int timeout_ms) {
  if (!sh.conn) sh.conn = std::make_unique<client>(sh.ep);
  sh.conn->set_receive_timeout_ms(timeout_ms);
  return *sh.conn;
}

int fleet_client::control_timeout_ms() const {
  return options_.policy.request_timeout_ms > 0
             ? options_.policy.request_timeout_ms
             : 5000;
}

void fleet_client::mark_transport_failure(shard& sh) {
  ++sh.failures;
  ++sh.consecutive_failures;
  if (sh.health == endpoint_health::probing ||
      sh.consecutive_failures >= options_.down_after) {
    sh.health = endpoint_health::down;
  } else {
    sh.health = endpoint_health::suspect;
  }
  schedule_probe(sh);
}

void fleet_client::mark_success(shard& sh) {
  sh.consecutive_failures = 0;
  sh.health = endpoint_health::healthy;
}

double fleet_client::jittered(double ms) {
  // Deterministic stream so a drill replays identically; the jitter itself
  // decorrelates a fleet of clients that all watched the same failure.
  rng jitter_rng(rng_state_);
  rng_state_ = jitter_rng();  // advance the stream per draw
  const double u = jitter_rng.uniform() * 2.0 - 1.0;  // [-1, 1)
  return ms * (1.0 + jitter_fraction * u);
}

void fleet_client::schedule_probe(shard& sh) {
  const double ms = jittered(static_cast<double>(options_.probe_interval_ms));
  sh.next_probe =
      clock_type::now() + std::chrono::milliseconds(
                              static_cast<long>(std::max(ms, 1.0)));
}

void fleet_client::run_due_probes() {
  const auto now = clock_type::now();
  for (const std::unique_ptr<shard>& sp : shards_) {
    shard& sh = *sp;
    if (sh.health == endpoint_health::healthy || now < sh.next_probe) {
      continue;
    }
    ++counters_.probes;
    ++sh.probes;
    bool ok = false;
    if (!fault::fire("fleet.probe.fail")) {
      try {
        sh.conn.reset();  // probe on a fresh dial: the old socket is suspect
        ok = connect(sh, control_timeout_ms()).ping();
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (ok) {
      // down → probing (traffic allowed again; one real success completes
      // recovery), anything milder → healthy.
      sh.health = sh.health == endpoint_health::down
                      ? endpoint_health::probing
                      : endpoint_health::healthy;
      sh.consecutive_failures = 0;
      if (log::enabled(log::level::info)) {
        log::line(log::level::info, "fleet.probe.ok")
            .kv("endpoint", sh.id)
            .kv("health", to_string(sh.health));
      }
    } else {
      ++counters_.probe_failures;
      ++sh.probe_failures;
      sh.conn.reset();
      sh.health = endpoint_health::down;
      if (log::enabled(log::level::debug)) {
        log::line(log::level::debug, "fleet.probe.fail")
            .kv("endpoint", sh.id)
            .kv("probe_failures", sh.probe_failures);
      }
    }
    schedule_probe(sh);
  }
}

void fleet_client::backoff(unsigned sweep, std::uint32_t server_hint_ms) {
  // Capped exponential: initial * 2^sweep, saturating at max_backoff_ms.
  double ms = static_cast<double>(options_.policy.initial_backoff_ms);
  for (unsigned i = 0; i < sweep && ms < options_.policy.max_backoff_ms; ++i) {
    ms *= 2.0;
  }
  ms = jittered(
      std::min(ms, static_cast<double>(options_.policy.max_backoff_ms)));
  // The server knows its backlog better than our exponential guess does.
  ms = std::max(ms, static_cast<double>(server_hint_ms));
  if (ms >= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(ms)));
  }
}

double fleet_client::hedge_deadline_ms() const {
  if (latency_.count() < options_.hedge_min_samples) return 0.0;
  const double q = latency_.quantile_ms(hedge_quantile);
  double deadline =
      std::max(options_.hedge_floor_ms, q * options_.hedge_multiplier);
  if (options_.policy.request_timeout_ms > 0) {
    deadline = std::min(
        deadline, static_cast<double>(options_.policy.request_timeout_ms));
  }
  return deadline;
}

template <typename Fn>
synth_response fleet_client::with_failover(std::uint64_t key, Fn&& send) {
  ++counters_.requests;
  const std::vector<std::size_t> owners = ring_.route(key, options_.replicas);
  bool hedge_pending = false;
  std::uint64_t attempt_index = 0;
  std::exception_ptr last_error;
  std::vector<shard*> targets;
  for (unsigned sweep = 0; sweep <= options_.policy.max_retries; ++sweep) {
    run_due_probes();
    // Down endpoints are skipped — unless every owner is down, where trying
    // anyway beats failing without a single packet sent.
    targets.clear();
    for (const std::size_t o : owners) {
      if (shards_[o]->health != endpoint_health::down) {
        targets.push_back(shards_[o].get());
      }
    }
    if (targets.empty()) {
      for (const std::size_t o : owners) targets.push_back(shards_[o].get());
    }
    std::uint32_t sweep_hint_ms = 0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      shard& sh = *targets[t];
      // The first attempt of a request runs under the adaptive hedge
      // deadline (when armed) if a later owner in this sweep can take
      // over; a request stuck past it is abandoned and re-sent there.  The
      // slow shard finishes and caches the byte-identical result on its
      // own time.
      const double hedge_ms = attempt_index == 0 && t + 1 < targets.size()
                                  ? hedge_deadline_ms()
                                  : 0.0;
      ++attempt_index;
      const char* reason = nullptr;
      try {
        if (fault::fire("fleet.route.down")) {
          throw protocol_error("injected endpoint failure (fleet.route.down)");
        }
        client& c = connect(
            sh, hedge_ms > 0.0
                    ? std::max(1, static_cast<int>(std::ceil(hedge_ms)))
                    : options_.policy.request_timeout_ms);
        ++sh.requests;
        const auto start = clock_type::now();
        synth_response r = send(c);
        latency_.record(ms_since(start));
        mark_success(sh);
        last_answered_ = &sh;
        if (hedge_pending) ++counters_.hedge_wins;
        return r;
      } catch (const service_error& e) {
        last_error = std::current_exception();
        if (!retryable_service_error(e.code)) throw;
        // The shard is shedding load (or draining) — alive, just busy, so
        // this is not a health event.  retry_after_ms means "not me, not
        // now": route to the next replica immediately and only honor the
        // hint if the whole sweep comes up empty.
        sweep_hint_ms = std::max(sweep_hint_ms, e.retry_after_ms);
        sh.conn.reset();  // shedding closes or poisons the connection
        // A typed io_timeout is a transport failure reported by the peer:
        // mark_transport_failure counts the attempt and demotes health.
        if (e.code == error_code::io_timeout) {
          mark_transport_failure(sh);
        } else {
          ++sh.failures;
        }
        reason = "shed";
      } catch (const io_timeout_error&) {
        last_error = std::current_exception();
        if (hedge_ms > 0.0) {
          ++counters_.hedged;
          hedge_pending = true;
          reason = "hedge";
        } else {
          reason = "timeout";
        }
        sh.conn.reset();
        mark_transport_failure(sh);
      } catch (const protocol_error&) {
        last_error = std::current_exception();
        sh.conn.reset();
        mark_transport_failure(sh);
        reason = "transport";
      } catch (const std::exception&) {
        // Connect failure (daemon dead/restarting): ECONNREFUSED, missing
        // socket file — std::runtime_error from the client constructor.
        last_error = std::current_exception();
        sh.conn.reset();
        mark_transport_failure(sh);
        reason = "connect";
      }
      ++counters_.failovers;
      if (log::enabled(log::level::warn)) {
        log::line l(log::level::warn, "fleet.failover");
        with_trace(l)
            .kv("endpoint", sh.id)
            .kv("reason", reason)
            .kv("health", to_string(sh.health))
            .kv("attempt", attempt_index);
      }
    }
    if (sweep < options_.policy.max_retries) backoff(sweep, sweep_hint_ms);
  }
  if (last_error) std::rethrow_exception(last_error);
  throw protocol_error("fleet: no owner reachable for key");
}

synth_response fleet_client::submit(const synth_request& req,
                                    const client::progress_fn& progress) {
  // A one-member ring sends every key to its only member: skip loading and
  // hashing the circuit.
  const std::uint64_t key = shards_.size() == 1 ? 0 : routing_key(req);
  return with_failover(key,
                       [&](client& c) { return c.submit(req, progress); });
}

synth_response fleet_client::submit_delta(
    const synth_delta_request& req, const client::progress_fn& progress) {
  try {
    return with_failover(req.base_content_hash, [&](client& c) {
      return c.submit_delta(req, progress);
    });
  } catch (const service_error& e) {
    if (e.code != error_code::unknown_base) throw;
    // A failed-over shard cannot reconstruct the base this delta names.
    // When the embedded base request *is* that base (the hashes agree),
    // the fleet can finish the job itself: apply the edit locally and
    // submit the edited circuit as a plain full request — byte-identical
    // output by the determinism contract.  When the hashes disagree the
    // request names a chained intermediate state only the original shard
    // ever held; no fallback can reconstruct it, so the error stands.
    aig base;
    try {
      base = load_request_circuit(req.base);
    } catch (const std::exception&) {
      throw e;
    }
    if (base.content_hash() != req.base_content_hash) throw;
    eco::apply_edit_text(base, req.edit_text);
    ++counters_.eco_full_fallbacks;
    synth_request full = req.base;
    full.source = circuit_source::bench_text;
    full.model = full.model.empty() ? "top" : full.model;
    full.source_text = write_bench_string(netlist_from_aig(base, full.model));
    if (log::enabled(log::level::warn)) {
      log::line(log::level::warn, "fleet.eco.full_fallback")
          .kv("base_hash", req.base_content_hash)
          .kv("edited_hash", base.content_hash());
    }
    return with_failover(base.content_hash(), [&](client& c) {
      return c.submit(full, progress);
    });
  }
}

trace_reply fleet_client::trace(const trace_request& req) {
  if (last_answered_ == nullptr) {
    throw protocol_error("fleet: trace before any answered request");
  }
  shard& sh = *last_answered_;
  try {
    return connect(sh, control_timeout_ms()).trace(req);
  } catch (const std::exception&) {
    sh.conn.reset();
    throw;
  }
}

fleet_stats fleet_client::stats() {
  fleet_stats out;
  out.endpoints_total = shards_.size();
  for (const std::unique_ptr<shard>& sp : shards_) {
    shard& sh = *sp;
    try {
      merge_server_stats(out.merged,
                         connect(sh, control_timeout_ms()).server_stats());
      ++out.endpoints_up;
      mark_success(sh);
    } catch (const std::exception& e) {
      sh.conn.reset();
      mark_transport_failure(sh);
      if (log::enabled(log::level::warn)) {
        log::line(log::level::warn, "fleet.stats.fail")
            .kv("endpoint", sh.id)
            .kv("what", e.what());
      }
    }
  }
  out.endpoints = endpoint_statuses();
  out.counters = counters_;
  return out;
}

std::vector<endpoint_status> fleet_client::endpoint_statuses() const {
  std::vector<endpoint_status> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<shard>& sp : shards_) {
    out.push_back({sp->id, sp->health, sp->requests, sp->failures, sp->probes,
                   sp->probe_failures, sp->consecutive_failures});
  }
  return out;
}

std::string format_fleet_stats_text(const fleet_stats& stats) {
  std::string out = format_server_stats_text(stats.merged);
  auto head = [&out](const std::string& name, const char* type,
                     const char* help) {
    out += "# HELP " + name + " " + help + "\n# TYPE " + name + " " + type +
           "\n";
  };
  auto line = [&](const std::string& name, const char* type,
                  const char* help, std::uint64_t value) {
    head(name, type, help);
    out += name + " " + std::to_string(value) + "\n";
  };
  line("xsfq_fleet_endpoints", "gauge", "Fleet members (client view).",
       stats.endpoints_total);
  line("xsfq_fleet_endpoints_up", "gauge",
       "Members that answered the scrape.", stats.endpoints_up);
  line("xsfq_fleet_requests_total", "counter",
       "Requests routed by this client.", stats.counters.requests);
  line("xsfq_fleet_failovers_total", "counter",
       "Attempts that failed and were re-routed to another replica.",
       stats.counters.failovers);
  line("xsfq_fleet_hedged_total", "counter",
       "First attempts abandoned at the hedge deadline and re-sent.",
       stats.counters.hedged);
  line("xsfq_fleet_hedge_wins_total", "counter",
       "Hedged requests completed by a replica.", stats.counters.hedge_wins);
  line("xsfq_fleet_probes_total", "counter", "Health probes sent.",
       stats.counters.probes);
  line("xsfq_fleet_probe_failures_total", "counter",
       "Health probes that failed.", stats.counters.probe_failures);
  line("xsfq_fleet_eco_full_fallbacks_total", "counter",
       "unknown_base deltas finished via local edit + full resynthesis.",
       stats.counters.eco_full_fallbacks);
  // `name{endpoint="<escaped id>"`, left open for more labels.
  auto series = [](const char* name, const endpoint_status& ep) {
    return std::string(name) + "{endpoint=\"" +
           prometheus_label_value(ep.id) + "\"";
  };
  head("xsfq_fleet_endpoint_up", "gauge",
       "Per-endpoint health (1 = routable).");
  for (const endpoint_status& ep : stats.endpoints) {
    out += series("xsfq_fleet_endpoint_up", ep) + "} " +
           (ep.health == endpoint_health::down ? "0" : "1") + "\n";
  }
  head("xsfq_fleet_endpoint_health", "gauge",
       "Per-endpoint state machine position (1 at the current state).");
  for (const endpoint_status& ep : stats.endpoints) {
    out += series("xsfq_fleet_endpoint_health", ep) + ",state=\"" +
           to_string(ep.health) + "\"} 1\n";
  }
  head("xsfq_fleet_endpoint_requests_total", "counter",
       "Attempts sent per endpoint.");
  for (const endpoint_status& ep : stats.endpoints) {
    out += series("xsfq_fleet_endpoint_requests_total", ep) + "} " +
           std::to_string(ep.requests) + "\n";
  }
  head("xsfq_fleet_endpoint_failures_total", "counter",
       "Failed attempts per endpoint.");
  for (const endpoint_status& ep : stats.endpoints) {
    out += series("xsfq_fleet_endpoint_failures_total", ep) + "} " +
           std::to_string(ep.failures) + "\n";
  }
  return out;
}

}  // namespace xsfq::serve
