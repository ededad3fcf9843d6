// compile_suite: the default paper flow (flow::run_flow: generate -> optimize
// -> map -> baseline) on all 38 registry circuits, in-process, one circuit at
// a time, no result cache, in whole passes in a seeded order.  This is the
// Table 4/6 compile path; it bypasses netlist parsing, every cache tier and
// the serving layer.

#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <optional>
#include <stdexcept>

#include "aig/sim_reference.hpp"
#include "baseline/rsfq.hpp"
#include "benchgen/registry.hpp"
#include "common.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "pulsesim/pulse_sim.hpp"

namespace perfbench {

namespace {

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct window_stats {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  double cpu_ms = 0.0;
};

/// The same circuit must compile to the same result on every pass.
bool same_result(const xsfq::flow::flow_result& a,
                 const xsfq::flow::flow_result& b) {
  return a.optimized.content_hash() == b.optimized.content_hash() &&
         a.mapped.stats.jj == b.mapped.stats.jj &&
         a.baseline.jj_without_clock == b.baseline.jj_without_clock;
}

/// Replays one circuit's flow through each layer's public functions, with
/// a span around every call, and accumulates the layer counters.
struct replay_totals {
  double cuts = 0, replacements = 0, resynth_hits = 0, mffc_queries = 0;
  double nodes_out = 0, la_fa = 0, splitters = 0, rsfq_jj = 0;
};

void replay_circuit(const std::string& name, std::uint64_t op,
                    span_store& store, replay_totals& t, run_result& out) {
  const std::int64_t start = now_us();
  const int root = store.add({"replay", start, 0, -1, op, origin::replay, 0});
  xsfq::aig input;
  {
    scoped s(store, "benchgen.make_benchmark", root, op);
    input = xsfq::benchgen::make_benchmark(name);
  }
  xsfq::optimize_stats st;
  xsfq::aig optimized;
  {
    scoped s(store, "opt.optimize", root, op);
    optimized = xsfq::optimize(input, {}, &st);
  }
  {
    const int passes = store.add({"opt.passes", now_us(), 0, root, op,
                                  origin::replay, 0});
    const std::size_t gates = replay_passes(input, store, passes, op);
    store.finish(passes);
    if (gates != optimized.num_gates()) {
      out.notes.push_back("pass replay of " + name + " ended at " +
                          std::to_string(gates) + " gates, optimize at " +
                          std::to_string(optimized.num_gates()));
    }
  }
  xsfq::mapping_result mapped;
  {
    scoped s(store, "core.map_to_xsfq", root, op);
    mapped = xsfq::map_to_xsfq(optimized);
  }
  xsfq::rsfq_stats rsfq;
  {
    scoped s(store, "baseline.map_to_rsfq", root, op);
    rsfq = xsfq::map_to_rsfq(optimized);
  }
  store.finish(root);
  t.cuts += static_cast<double>(st.work.cuts_enumerated);
  t.replacements += static_cast<double>(st.work.replacements);
  t.resynth_hits += static_cast<double>(st.work.resynth_cache_hits);
  t.mffc_queries += static_cast<double>(st.work.mffc_queries);
  t.nodes_out += static_cast<double>(st.final_gates);
  t.la_fa += static_cast<double>(mapped.stats.la_cells + mapped.stats.fa_cells);
  t.splitters += static_cast<double>(mapped.stats.splitters);
  t.rsfq_jj += static_cast<double>(rsfq.jj_without_clock);
}

}  // namespace

run_result run_compile_suite(const config& cfg) {
  run_result out;
  rng64 rng(cfg.seed);
  std::vector<std::string> names;
  std::vector<bool> sequential;
  for (const auto& b : xsfq::benchgen::all_benchmarks()) {
    names.push_back(b.name);
    sequential.push_back(b.sequential);
  }
  const auto shuffled = [&] {
    std::vector<std::size_t> order(names.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    seeded_shuffle(order.begin(), order.end(), rng);
    return order;
  };

  // Set-up: one warm-up pass, so every thread-local engine (optimize arenas,
  // mapper scratch) has reached its high-water mark before timing.
  for (int rep = 0; rep < setup_repeats; ++rep) {
    const auto t0 = steady::now();
    for (const std::size_t i : shuffled()) {
      (void)xsfq::flow::run_flow(names[i]);
    }
    out.setup_s.push_back(ms_between(t0, steady::now()) / 1000.0);
  }

  std::vector<std::optional<xsfq::flow::flow_result>> first(names.size());
  std::vector<std::uint64_t> first_op(names.size(), 0);
  span_store store;
  std::uint64_t op_id = 0;
  const auto run_window = [&](double seconds, bool traced,
                              int min_passes) {
    window_stats w;
    const auto t0 = steady::now();
    const double cpu0 = process_cpu_ms();
    const auto deadline =
        t0 + std::chrono::duration<double>(std::max(seconds, 0.001));
    // Whole passes only, so every circuit has the same share of ops.
    for (int pass = 0; pass < min_passes || steady::now() < deadline;
         ++pass) {
      for (const std::size_t i : shuffled()) {
        const std::int64_t start_us = now_us();
        const auto a = steady::now();
        xsfq::flow::flow_result r = xsfq::flow::run_flow(names[i]);
        const auto b = steady::now();
        w.latency_ms.push_back(ms_between(a, b));
        ++out.attempted;
        ++op_id;
        if (traced) {
          const std::int64_t dur = now_us() - start_us;
          const int root = store.add(
              {"op", start_us, dur, -1, op_id, origin::client, 0});
          std::int64_t at = start_us;
          for (const auto& st : r.timings) {
            const auto us = static_cast<std::int64_t>(st.ms * 1000.0);
            store.add({"stage:" + st.stage, at, us, root, op_id,
                       origin::client, 0});
            at += us;
          }
          if (first_op[i] == 0) first_op[i] = op_id;
        }
        if (!first[i]) {
          first[i] = std::move(r);
        } else if (!same_result(*first[i], r)) {
          out.fail(names[i] + ": result differs between passes");
        }
      }
    }
    w.seconds = ms_between(t0, steady::now()) / 1000.0;
    w.cpu_ms = process_cpu_ms() - cpu0;
    return w;
  };

  window_stats w;
  if (cfg.trace) {
    // Untraced reference first (for the tracing-overhead row), then the
    // traced window the per-layer metrics come from.
    const window_stats ref = run_window(cfg.seconds / 2, false, 1);
    out.untraced_p50_ms = summarize(ref.latency_ms).p50;
    out.untraced_throughput =
        static_cast<double>(ref.latency_ms.size()) / ref.seconds;
    out.attempted = 0;
    w = run_window(cfg.seconds / 2, true, 1);
    out.traced_ops = w.latency_ms.size();
  } else {
    // Two circuits (voter, sin) take ~70% of a pass.  With at least 11
    // passes the tail rank (ten samples beyond it) always falls among the
    // slowest circuit's samples, not on whichever of the two the pass
    // count happens to select.
    w = run_window(cfg.seconds, false, 11);
  }
  out.latency_ms = w.latency_ms;
  out.window_s = w.seconds;
  out.cpu_ms = w.cpu_ms;
  out.peak_rss_mb = proc_peak_rss_mb(static_cast<int>(::getpid()));

  // Correctness, once per distinct result, against independent references:
  // the frozen scalar simulator for optimize, the pulse-level simulator for
  // combinational mapping, and the netlist's structural checks for retimed
  // sequential designs (what --validate applies to them).
  for (std::size_t i = 0; i < names.size(); ++i) {
    const xsfq::flow::flow_result& r = *first[i];
    out.xsfq_jj_total += static_cast<double>(r.mapped.stats.jj);
    const xsfq::aig input = xsfq::benchgen::make_benchmark(names[i]);
    if (!xsfq::reference_random_equivalent(input, r.optimized, 16,
                                           cfg.seed ^ i)) {
      out.fail(names[i] + ": optimized AIG differs from the generated input");
    }
    if (!sequential[i]) {
      if (!xsfq::pulse_simulator::equivalent_to_aig(r.optimized, r.mapped, 16,
                                                    cfg.seed + i)) {
        out.fail(names[i] + ": pulse-level mismatch against the AIG");
      }
    } else {
      try {
        r.mapped.netlist.check();
        if (r.mapped.netlist.summary() != xsfq::summary_line(r.mapped.stats)) {
          out.fail(names[i] + ": mapping stats disagree with the netlist");
        }
      } catch (const std::exception& e) {
        out.fail(names[i] + ": structural check failed: " + e.what());
      }
    }
  }

  std::size_t suite_ops[3] = {0, 0, 0};
  for (const auto& b : xsfq::benchgen::all_benchmarks()) {
    ++suite_ops[static_cast<int>(b.which_suite)];
  }
  const double n = static_cast<double>(names.size());
  out.composition = {{"cold (no cache tier)", 1.0},
                     {"verilog requested", 0.0},
                     {"in-process (no client)", 1.0},
                     {"suite iscas85", suite_ops[0] / n},
                     {"suite epfl", suite_ops[1] / n},
                     {"suite iscas89", suite_ops[2] / n}};

  if (cfg.trace) {
    std::vector<std::size_t> order = shuffled();
    replay_totals t;
    for (const std::size_t i : order) {
      replay_circuit(names[i], first_op[i], store, t, out);
    }
    out.spans = store.take();
    // Each pass runs every circuit once, so replaying each circuit once is
    // an exact per-op average.
    const auto self = self_time_us(out.spans, /*replay=*/true);
    const auto per_op = [&](const char* span_name) {
      return sum_of(self, {span_name}) / n;
    };
    auto& L = out.layer;
    L["benchgen.generate_ms"] = per_op("benchgen.make_benchmark") / 1000.0;
    L["opt.optimize_ms"] = per_op("opt.optimize") / 1000.0;
    L["opt.balance_ms"] = per_op("opt.balance") / 1000.0;
    L["opt.rewrite_ms"] = per_op("opt.rewrite") / 1000.0;
    L["opt.refactor_ms"] = per_op("opt.refactor") / 1000.0;
    L["core.map_ms"] = per_op("core.map_to_xsfq") / 1000.0;
    L["baseline.rsfq_ms"] = per_op("baseline.map_to_rsfq") / 1000.0;
    L["opt.cuts_enumerated"] = t.cuts / n;
    L["opt.replacements"] = t.replacements / n;
    L["opt.resynth_cache_hit_ratio"] =
        t.mffc_queries > 0 ? t.resynth_hits / t.mffc_queries : 0.0;
    L["opt.nodes_out_total"] = t.nodes_out;
    L["core.la_fa_total"] = t.la_fa;
    L["core.splitters_total"] = t.splitters;
    L["baseline.rsfq_jj_total"] = t.rsfq_jj;
  }
  return out;
}

}  // namespace perfbench
