#include "serve/synth_service.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "aig/edit.hpp"
#include "benchgen/registry.hpp"
#include "cells/cell_library.hpp"
#include "core/xsfq_writer.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "util/fault.hpp"
#include "pulsesim/pulse_sim.hpp"

namespace xsfq::serve {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::invalid_argument("cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string basename_without_extension(const std::string& path) {
  std::string model = path;
  if (const auto slash = model.find_last_of('/'); slash != std::string::npos) {
    model = model.substr(slash + 1);
  }
  if (const auto dot = model.find_last_of('.'); dot != std::string::npos) {
    model = model.substr(0, dot);
  }
  return model;
}

}  // namespace

synth_request make_request_for_spec(const std::string& spec) {
  synth_request req;
  req.spec = spec;
  if (spec.size() > 6 && spec.ends_with(".bench")) {
    req.source = circuit_source::bench_text;
    req.source_text = read_file(spec);
    // The model name rides on the wire (it names the request, and the
    // fleet's fallback routing key hashes it); the AIG carries none.
    req.model = basename_without_extension(spec);
  } else if (spec.size() > 5 && spec.ends_with(".blif")) {
    req.source = circuit_source::blif_text;
    req.source_text = read_file(spec);
  }
  return req;
}

aig load_request_circuit(const synth_request& req) {
  switch (req.source) {
    case circuit_source::bench_text:
      return read_bench(req.source_text);
    case circuit_source::blif_text:
      return read_blif(req.source_text);
    case circuit_source::registry:
    default:
      return benchgen::make_benchmark(req.spec);
  }
}

flow::flow_options options_for(const synth_request& req) {
  flow::flow_options options;
  options.map = req.map;
  // --validate also pins every optimize pass to its input with the wide
  // sim engine (the pulse-level check in run_synth_on covers mapping).
  options.opt.validate_passes = req.validate;
  // Intra-flow parallelism: the runner installs its own pool as the
  // partition executor when flow_jobs > 1.
  options.opt.flow_jobs = req.flow_jobs == 0 ? 1u : req.flow_jobs;
  // Fixed-grain region partitioning (v4): the shape that makes synth_delta
  // requests cheap.  The runner installs its cross-request region cache.
  options.opt.partition_grain = req.partition_grain;
  return options;
}

namespace {

/// The shared back half of run_synth and run_synth_delta: synthesizes an
/// already-materialized network under the request's options and renders the
/// response.  Byte-identity between the submit and delta paths holds because
/// both funnel through here with nothing but the network differing.
synth_response run_synth_on(
    const synth_request& req, aig network, flow::batch_runner& runner,
    const std::function<void(const progress_event&)>& progress,
    bool force_full) {
  synth_response resp;
  try {
    std::ostringstream report;
    report << "loaded " << req.spec << ": " << network.num_pis() << " PI, "
           << network.num_pos() << " PO, " << network.num_registers()
           << " FF, " << network.num_gates() << " AIG nodes\n";

    const flow::flow_options options = options_for(req);
    resp.content_hash = network.content_hash();

    bool any_live_stage = false;
    bool any_stage = false;
    const flow::stage_observer observer = [&](const progress_event& ev) {
      any_stage = true;
      if (!ev.from_cache) any_live_stage = true;
      if (progress) progress(ev);
    };
    // The flow runs on the calling thread — the daemon's connection handler
    // — with no pool handoff: admission control already bounds how many
    // handlers synthesize at once, and a warm hit renders straight out of
    // the shared cache entry without copying it.  force_full is the ECO
    // comparator, the identical flow with every cache tier bypassed.
    const std::shared_ptr<const flow::flow_result> shared =
        force_full ? std::make_shared<const flow::flow_result>(
                         runner.run_uncached(std::move(network), req.spec,
                                             options, observer))
                   : runner.run_cached_shared(std::move(network), req.spec,
                                              options, observer);
    const flow::flow_result& r = *shared;

    report << "optimized: " << r.opt_stats.initial_gates << " -> "
           << r.opt_stats.final_gates << " nodes (depth "
           << r.opt_stats.initial_depth << " -> " << r.opt_stats.final_depth
           << ")\n";
    report << "mapped:    " << summary_line(r.mapped.stats) << "\n";
    report << "baseline:  clocked RSFQ " << r.baseline.jj_without_clock
           << " JJ (" << r.baseline.jj_with_clock
           << " with clock tree) -> savings ";
    // A circuit of wires and inverters maps to 0 JJ (rail swaps are free).
    if (r.mapped.stats.jj == 0) {
      report << "n/a\n";
    } else {
      report << static_cast<double>(r.baseline.jj_without_clock) /
                    static_cast<double>(r.mapped.stats.jj)
             << "x\n";
    }
    resp.report = report.str();
    resp.timings = r.timings;
    resp.total_ms = r.total_ms;
    resp.served_from_cache = any_stage && !any_live_stage;

    if (req.validate) {
      std::ostringstream validate;
      const bool seq_retimed =
          r.optimized.num_registers() > 0 &&
          req.map.reg_style == register_style::pair_retimed;
      if (seq_retimed) {
        validate << "validate:  (retimed sequential: structural checks only;"
                    " use --registers=boundary for cycle-exact validation)\n";
      } else {
        const bool ok =
            pulse_simulator::equivalent_to_aig(r.optimized, r.mapped, 32);
        validate << "validate:  pulse-level equivalence "
                 << (ok ? "PASS" : "FAIL") << "\n";
        resp.validate_ok = ok;
      }
      resp.validate_report = validate.str();
    }
    if (req.want_verilog) {
      resp.verilog = write_xsfq_verilog_string(r.mapped, req.spec);
    }
    if (req.want_dot) {
      resp.dot = write_xsfq_dot_string(r.mapped);
    }
    resp.ok = true;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }
  return resp;
}

}  // namespace

synth_response run_synth(
    const synth_request& req, flow::batch_runner& runner,
    const std::function<void(const progress_event&)>& progress) {
  aig network;
  try {
    network = load_request_circuit(req);
  } catch (const std::exception& e) {
    synth_response resp;
    resp.ok = false;
    resp.error = e.what();
    return resp;
  }
  return run_synth_on(req, std::move(network), runner, progress,
                      /*force_full=*/false);
}

synth_response run_synth_delta(
    const synth_delta_request& req, flow::batch_runner& runner,
    const std::function<void(const progress_event&)>& progress,
    eco_outcome* outcome) {
  eco_outcome scratch;
  eco_outcome& out = outcome ? *outcome : scratch;

  // Chaos site: simulate the shard that can NEITHER find the base retained
  // NOR rebuild it — what a fleet client sees after failing over a chained
  // delta to a shard that never served the session.  Drives the client-side
  // full-resynthesis fallback in tests without needing a real second shard.
  if (fault::fire("serve.eco.unknown_base")) {
    throw service_error(error_code::unknown_base,
                        "injected unknown_base (serve.eco.unknown_base)");
  }

  // Locate the base: the retained tier is the fast path (no parse, no
  // registry build); a cold daemon re-materializes the base from the
  // request's own circuit spec and verifies it IS the named base.
  aig base;
  if (const auto retained = runner.retained_network(req.base_content_hash)) {
    base = *retained;
    out.base_retained = true;
  } else {
    try {
      base = load_request_circuit(req.base);
    } catch (const std::exception& e) {
      throw service_error(error_code::unknown_base,
                          "base network not retained and the request's "
                          "circuit cannot be loaded: " +
                              std::string(e.what()));
    }
    if (base.content_hash() != req.base_content_hash) {
      char hex[2 * sizeof(std::uint64_t) + 1];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(base.content_hash()));
      throw service_error(error_code::unknown_base,
                          "base network not retained and the request's "
                          "circuit hashes to " +
                              std::string(hex) +
                              ", not the named base hash");
    }
    out.base_rebuilt = true;
  }
  const std::size_t base_gates = base.num_gates();

  // Replay the edit in place.  Position-stable replay (aig/edit.hpp) keeps
  // untouched regions byte-identical, which is what the region cache keys
  // on; a malformed or illegal script is the client's error, typed.
  try {
    eco::apply_edit_text(base, req.edit_text);
  } catch (const eco::edit_error& e) {
    throw service_error(error_code::bad_edit, e.what());
  }

  synth_response resp = run_synth_on(req.base, std::move(base), runner,
                                     progress, req.force_full);

  // Supersede: the interactive session has edited the base away, so its
  // cache entries (memory + disk) would never be requested again.  An empty
  // edit leaves the hash unchanged — dropping would evict the entry we just
  // served from.
  if (resp.ok && req.supersede_base &&
      resp.content_hash != req.base_content_hash) {
    runner.drop_entry(req.base_content_hash, base_gates, req.base.spec,
                      options_for(req.base));
  }
  return resp;
}

std::string format_timing_line(const std::vector<flow::stage_timing>& timings,
                               double total_ms, bool cached) {
  std::ostringstream os;
  os << "timing:   ";
  for (const auto& st : timings) {
    os << " " << st.stage << " " << st.ms << " ms";
  }
  os << " (total " << total_ms << " ms)" << (cached ? " (cached)" : "")
     << "\n";
  return os.str();
}

std::string format_timing_csv(
    const std::vector<flow::stage_timing>& timings) {
  std::ostringstream os;
  os << "stage,ms,nodes,cuts,replacements,arena_bytes,sim_words,"
        "sim_node_evals,arena_peak_bytes,rebuilds_avoided\n";
  for (const auto& st : timings) {
    const auto& c = st.counters;
    os << st.stage << "," << st.ms << "," << c.nodes << "," << c.cuts << ","
       << c.replacements << "," << c.arena_bytes << "," << c.sim_words << ","
       << c.sim_node_evals << "," << c.arena_peak_bytes << ","
       << c.rebuilds_avoided << "\n";
  }
  return os.str();
}

std::string cli_value(const std::string& arg, const std::string& key) {
  if (arg.rfind(key + "=", 0) == 0) return arg.substr(key.size() + 1);
  return {};
}

cli_parse parse_synth_option(const std::string& arg, synth_cli_options& cli,
                             std::string& error) {
  if (auto v = cli_value(arg, "--polarity"); !v.empty()) {
    if (v == "direct") {
      cli.map.polarity = polarity_mode::direct_dual_rail;
    } else if (v == "positive") {
      cli.map.polarity = polarity_mode::positive_outputs;
    } else if (v == "optimized") {
      cli.map.polarity = polarity_mode::optimized;
    } else {
      // A typo must not synthesize (and cache) under options the user
      // never chose.
      error = "--polarity expects direct|positive|optimized, got: " + v;
      return cli_parse::invalid;
    }
  } else if (auto v2 = cli_value(arg, "--pipeline"); !v2.empty()) {
    char* end = nullptr;
    const unsigned long k = std::strtoul(v2.c_str(), &end, 10);
    if (end == v2.c_str() || *end != '\0' || k > 64) {
      error = "--pipeline expects a stage count 0..64, got: " + v2;
      return cli_parse::invalid;
    }
    cli.map.pipeline_stages = static_cast<unsigned>(k);
  } else if (auto v3 = cli_value(arg, "--registers"); !v3.empty()) {
    if (v3 == "boundary") {
      cli.map.reg_style = register_style::pair_boundary;
    } else if (v3 == "retimed") {
      cli.map.reg_style = register_style::pair_retimed;
    } else {
      error = "--registers expects boundary|retimed, got: " + v3;
      return cli_parse::invalid;
    }
  } else if (auto v4 = cli_value(arg, "--verilog"); !v4.empty()) {
    cli.verilog_path = v4;
  } else if (auto v5 = cli_value(arg, "--dot"); !v5.empty()) {
    cli.dot_path = v5;
  } else if (auto v6 = cli_value(arg, "--liberty"); !v6.empty()) {
    cli.liberty_path = v6;
  } else if (auto v7 = cli_value(arg, "--flow-jobs"); !v7.empty()) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(v7.c_str(), &end, 10);
    if (end == v7.c_str() || *end != '\0' || n == 0 || n > 256) {
      error = "--flow-jobs expects a partition count 1..256, got: " + v7;
      return cli_parse::invalid;
    }
    cli.flow_jobs = static_cast<unsigned>(n);
  } else if (auto v8 = cli_value(arg, "--partition-grain"); !v8.empty()) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(v8.c_str(), &end, 10);
    if (end == v8.c_str() || *end != '\0' || n > 100000) {
      error = "--partition-grain expects gates-per-region 0..100000, got: " +
              v8;
      return cli_parse::invalid;
    }
    cli.partition_grain = static_cast<unsigned>(n);
  } else if (arg == "--validate") {
    cli.validate = true;
  } else if (arg == "--timing") {
    cli.timing_csv = true;
  } else if (arg == "--no-timing") {
    cli.no_timing = true;
  } else if (arg == "--progress") {
    cli.progress = true;
  } else {
    return cli_parse::not_synth_option;
  }
  return cli_parse::consumed;
}

void apply_cli_options(const synth_cli_options& cli, synth_request& req) {
  req.map = cli.map;
  req.validate = cli.validate;
  req.want_verilog = !cli.verilog_path.empty();
  req.want_dot = !cli.dot_path.empty();
  req.flow_jobs = cli.flow_jobs;
  req.partition_grain = cli.partition_grain;
}

void print_progress_event(const progress_event& ev) {
  std::cerr << "stage " << ev.index + 1 << "/" << ev.total << " " << ev.stage
            << ": " << ev.ms << " ms" << (ev.from_cache ? " (cached)" : "")
            << "\n";
}

int render_synth_response(const synth_response& resp,
                          const synth_cli_options& cli) {
  if (!resp.ok) {
    std::cerr << "error: " << resp.error << "\n";
    return 1;
  }
  std::cout << resp.report;
  if (!cli.no_timing) {
    std::cout << format_timing_line(resp.timings, resp.total_ms,
                                    resp.served_from_cache);
  }
  if (cli.timing_csv) {
    std::cout << format_timing_csv(resp.timings);
  }
  std::cout << resp.validate_report;
  if (cli.validate && !resp.validate_ok) {
    return 1;  // never emit output files for a netlist that failed validation
  }
  if (!cli.verilog_path.empty()) {
    std::ofstream os(cli.verilog_path);
    os << resp.verilog;
    std::cout << "wrote " << cli.verilog_path << "\n";
  }
  if (!cli.dot_path.empty()) {
    std::ofstream os(cli.dot_path);
    os << resp.dot;
    std::cout << "wrote " << cli.dot_path << "\n";
  }
  if (!cli.liberty_path.empty()) {
    std::ofstream os(cli.liberty_path);
    os << cell_library::sfq5ee().to_liberty("xsfq_sfq5ee");
    std::cout << "wrote " << cli.liberty_path << "\n";
  }
  return 0;
}

// Baked in by the build system (CMake passes the working tree's short sha);
// fallbacks keep non-CMake builds (and tooling that compiles this file in
// isolation) compiling.
#ifndef XSFQ_VERSION
#define XSFQ_VERSION "dev"
#endif
#ifndef XSFQ_GIT_SHA
#define XSFQ_GIT_SHA "unknown"
#endif

std::string prometheus_label_value(std::string_view value) {
  std::string out;
  for (const char c : value) {
    if (c == '\\' || c == '"' || c == '\n') out += '\\';
    out += c == '\n' ? 'n' : c;
  }
  return out;
}

std::string format_server_stats_text(const server_stats_reply& stats) {
  std::ostringstream os;
  // The standard build-identity gauge: constant 1, identity in the labels,
  // so dashboards can join any series against the running version.
  os << "xsfq_build_info{version=\"" XSFQ_VERSION "\",git_sha=\"" XSFQ_GIT_SHA
        "\"} 1\n";
  for_each_stat(
      [&os](const stat_field& field, const auto& v) {
        if (field.series != nullptr) os << field.series << ' ' << v << '\n';
      },
      stats);

  // Per-site fault lines appear only during chaos drills (the fault
  // registry is empty otherwise), so a production scrape carries no fault
  // noise.
  for (const auto& site : stats.fault_sites) {
    const std::string label = prometheus_label_value(site.site);
    os << "xsfq_fault_hits{site=\"" << label << "\"} " << site.hits << "\n"
       << "xsfq_fault_fired{site=\"" << label << "\"} " << site.fired << "\n";
  }

  // Sparse cumulative exposition: only buckets that actually hold samples
  // get a line (28 log buckets x N histograms would mostly be zeros), then
  // the implicit +Inf bucket equals _count as Prometheus requires.
  for (const auto& h : stats.histograms) {
    const std::string name = prometheus_label_value(h.name);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      cumulative += h.buckets[i];
      os << "xsfq_latency_ms_bucket{name=\"" << name << "\",le=\""
         << log_histogram::bucket_upper_ms(i) << "\"} " << cumulative << "\n";
    }
    os << "xsfq_latency_ms_bucket{name=\"" << name << "\",le=\"+Inf\"} "
       << h.count << "\n"
       << "xsfq_latency_ms_sum{name=\"" << name << "\"} " << h.sum_ms << "\n"
       << "xsfq_latency_ms_count{name=\"" << name << "\"} " << h.count << "\n"
       << "xsfq_latency_ms_max{name=\"" << name << "\"} " << h.max_ms << "\n";
  }
  return os.str();
}

}  // namespace xsfq::serve
