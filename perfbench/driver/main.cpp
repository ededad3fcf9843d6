// perfbench_driver — runs one workload of the repository benchmark and
// prints its metrics.  perfbench/run.py builds and invokes it:
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work-dir=DIR [--trace-out=FILE]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace=0) or the
// per-layer metrics (--trace=1).  Exit status 1 when any output was wrong.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "common.hpp"
#include "util/log.hpp"

using namespace perfbench;

namespace {

struct layer_metric {
  const char* name;
  const char* unit;
  /// Workloads whose ops never reach this layer: the metric reads 0 there.
  const char* bypassed_by;
  /// Why a workload that does reach the layer cannot measure it, if any.
  const char* unmeasured = nullptr;
};

constexpr const char* region_passes =
    "its optimize work is region re-optimization inside the daemon, which "
    "opt.region_reopt_ms measures";

// Keep in step with BENCHMARK.json's per_layer list and README.md.
constexpr layer_metric layer_metrics[] = {
    {"benchgen.generate_ms", "ms", "serve_corpus eco_session"},
    {"netlist.parse_ms", "ms", "compile_suite eco_session"},
    {"netlist.parse_mb_s", "MB/s", "compile_suite eco_session"},
    {"aig.content_hash_us", "us", "compile_suite"},
    {"aig.edit_apply_us", "us", "compile_suite serve_corpus"},
    {"opt.optimize_ms", "ms", ""},
    {"opt.balance_ms", "ms", "", region_passes},
    {"opt.rewrite_ms", "ms", "", region_passes},
    {"opt.refactor_ms", "ms", "", region_passes},
    {"opt.cuts_enumerated", "count", ""},
    {"opt.resynth_cache_hit_ratio", "ratio", "", region_passes},
    {"opt.replacements", "count", ""},
    {"opt.nodes_out_total", "count", ""},
    {"opt.region_reopt_ms", "ms", "compile_suite serve_corpus"},
    {"opt.region_hit_ratio", "ratio", "compile_suite serve_corpus"},
    {"core.map_ms", "ms", ""},
    {"core.verilog_ms", "ms", "compile_suite eco_session"},
    {"core.verilog_bytes", "bytes", "compile_suite eco_session"},
    {"core.la_fa_total", "count", ""},
    {"core.splitters_total", "count", ""},
    {"baseline.rsfq_ms", "ms", ""},
    {"baseline.rsfq_jj_total", "count", ""},
    {"flow.full_hit_ratio", "ratio", "compile_suite"},
    {"flow.disk_hit_ratio", "ratio", "compile_suite"},
    {"flow.opt_hit_ratio", "ratio", "compile_suite"},
    {"flow.disk_load_ms", "ms", "compile_suite"},
    {"flow.hit_copy_us", "us", "compile_suite eco_session"},
    {"flow.runner_queue_ms", "ms", "compile_suite eco_session"},
    {"flow.disk_store_ms", "ms", "compile_suite"},
    {"flow.result_bytes", "bytes", "compile_suite"},
    {"flow.retained_hit_ratio", "ratio", "compile_suite serve_corpus"},
    {"serve.admission_wait_ms", "ms", "compile_suite"},
    {"serve.request_total_ms", "ms", "compile_suite"},
    {"serve.connect_ms", "ms", "compile_suite eco_session"},
    {"serve.request_bytes", "bytes", "compile_suite"},
    {"serve.response_bytes", "bytes", "compile_suite"},
    {"serve.codec_us", "us", "compile_suite"},
    {"serve.transport_ms", "ms", "compile_suite"},
    {"serve.rejected", "count", "compile_suite"},
    {"trace.untraced_ms", "ms", ""},
    {"trace.overhead_ms", "ms", ""},
};

bool bypasses(const layer_metric& m, const std::string& workload) {
  const std::string list = std::string(" ") + m.bypassed_by + " ";
  return list.find(" " + workload + " ") != std::string::npos;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload=compile_suite|serve_corpus|"
               "eco_session --seed=N --seconds=S --trace=0|1 --work-dir=DIR "
               "[--trace-out=FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  config cfg;
  cfg.daemon = PERFBENCH_DAEMON;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::string k = std::string(key) + "=";
      return arg.rfind(k, 0) == 0 ? argv[i] + k.size() : nullptr;
    };
    if (const char* v = value("--workload")) {
      cfg.workload = v;
    } else if (const char* v2 = value("--seed")) {
      cfg.seed = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = value("--seconds")) {
      cfg.seconds = std::atof(v3);
    } else if (const char* v4 = value("--trace")) {
      cfg.trace = std::string(v4) == "1";
    } else if (const char* v5 = value("--work-dir")) {
      cfg.work_dir = v5;
    } else if (const char* v6 = value("--trace-out")) {
      cfg.trace_out = v6;
    } else {
      return usage();
    }
  }
  if (cfg.work_dir.empty() || cfg.seconds <= 0.0) return usage();
  // The daemon logs per request at info level; the load generator's own
  // library calls (batch_runner, disk cache) stay quiet too.
  xsfq::log::set_level(xsfq::log::level::warn);
  std::filesystem::create_directories(cfg.work_dir);

  run_result r;
  try {
    if (cfg.workload == "compile_suite") {
      r = run_compile_suite(cfg);
    } else if (cfg.workload == "serve_corpus") {
      r = run_serve_corpus(cfg);
    } else if (cfg.workload == "eco_session") {
      r = run_eco_session(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const latency_summary lat = summarize(r.latency_ms);
  const double ops = static_cast<double>(lat.n);
  std::printf("== %s (seed %llu, %s run, %.2f s window, %zu ops) ==\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", r.window_s, lat.n);
  std::printf("composition:");
  for (const auto& [k, v] : r.composition) {
    std::printf(" %s=%.4f", k.c_str(), v);
  }
  std::printf("\n");
  if (!r.stat_deltas.empty()) {
    std::printf("server_stats deltas over the window:");
    for (const auto& [k, v] : r.stat_deltas) {
      std::printf(" %s=%.0f", k.c_str(), v);
    }
    std::printf("\n");
  }
  for (const auto& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("fail_ratio %.6f (%llu failed of %llu attempted)\n",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  std::vector<std::pair<std::string, metric_value>> metrics;
  if (!cfg.trace) {
    metrics = {
        {"setup_s", {median(r.setup_s), "s"}},
        {"throughput_ops_s", {ops / r.window_s, "1/s"}},
        {"latency_p50_ms", {lat.p50, "ms"}},
        {"latency_tail_ms", {lat.tail, "ms"}},
        {"cpu_ms_per_op", {ops > 0 ? r.cpu_ms / ops : 0.0, "ms"}},
        {"peak_rss_mb", {r.peak_rss_mb, "MB"}},
        {"xsfq_jj_total", {r.xsfq_jj_total, "count"}},
    };
    std::printf("%-20s %14s  %s\n", "metric", "value", "unit");
    for (const auto& [name, m] : metrics) {
      std::printf("%-20s %14.4f  %s", name.c_str(), m.value, m.unit.c_str());
      if (name == "latency_tail_ms") {
        std::printf("  (p%.3f of %zu samples, 10 beyond)", lat.tail_pct, lat.n);
      }
      std::printf("\n");
    }
  } else {
    // Tracing overhead: the traced window against the untraced window run
    // just before it in the same process.
    r.layer["trace.overhead_ms"] = lat.p50 - r.untraced_p50_ms;
    std::printf("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced "
                "(%+.4f ms); throughput %.2f vs %.2f ops/s\n",
                lat.p50, r.untraced_p50_ms, lat.p50 - r.untraced_p50_ms,
                ops / r.window_s, r.untraced_throughput);
    // Self time by span name: the window's own spans per traced op, the
    // replayed layer calls per replayed op.  The window rows plus
    // `untraced` add up to the mean op latency: untraced is the op root's
    // self time (outside every daemon span: the transport) plus the
    // daemon's request_total self time (inside it, but in no leaf span).
    std::set<std::uint64_t> replayed;
    std::map<std::string, origin> where;
    for (const span& s : r.spans) {
      if (s.where == origin::replay) replayed.insert(s.op);
      where.emplace(s.name, s.where);
    }
    const double traced = static_cast<double>(r.traced_ops);
    auto window_self = self_time_us(r.spans, /*replay=*/false);
    const double outside_us = traced > 0 ? window_self["op"] / traced : 0.0;
    const double inside_us =
        traced > 0 ? window_self["request_total"] / traced : 0.0;
    r.layer["trace.untraced_ms"] = (outside_us + inside_us) / 1000.0;
    for (const bool replay : {false, true}) {
      const double denom =
          replay ? static_cast<double>(replayed.size()) : traced;
      std::printf("%-36s %-7s %14s  (%s, %.0f ops)\n", "span self time",
                  "source", "us per op",
                  replay ? "replayed layer calls" : "traced window", denom);
      for (const auto& [name, us] : self_time_us(r.spans, replay)) {
        if (!replay && (name == "op" || name == "request_total")) continue;
        const origin o = where[name];
        std::printf("%-36s %-7s %14.3f\n", name.c_str(),
                    o == origin::replay   ? "replay"
                    : o == origin::daemon ? "daemon"
                                          : "client",
                    denom > 0 ? us / denom : 0.0);
      }
      if (!replay) {
        std::printf("%-36s %-7s %14.3f  (no span covers it: %.3f inside "
                    "request_total, %.3f outside)\n",
                    "untraced", "-", outside_us + inside_us, inside_us,
                    outside_us);
      }
    }
    for (const layer_metric& m : layer_metrics) {
      const auto it = r.layer.find(m.name);
      double value = 0.0;
      if (it != r.layer.end()) {
        value = it->second;
      } else if (bypasses(m, cfg.workload)) {
        r.notes.push_back(std::string(m.name) + " reads 0: " + cfg.workload +
                          " bypasses this layer");
      } else {
        r.notes.push_back(std::string(m.name) + " not measured on " +
                          cfg.workload +
                          (m.unmeasured ? std::string(": ") + m.unmeasured
                                        : std::string()));
      }
      metrics.push_back({m.name, {value, m.unit}});
    }
    std::printf("%-30s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const auto& [name, m] : metrics) {
      std::printf("%-30s %16.4f  %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    if (!cfg.trace_out.empty() && !write_chrome_trace(cfg.trace_out, r.spans)) {
      r.fail("cannot write " + cfg.trace_out);
    }
  }
  for (const auto& n : r.notes) std::printf("note: %s\n", n.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    r.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].first +
            "\": {\"value\": " + json_number(metrics[i].second.value) +
            ", \"unit\": \"" + metrics[i].second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.failed == 0 ? 0 : 1;
}
