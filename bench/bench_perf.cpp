/// bench_perf — the perf driver behind the committed-baseline gate.
///
///   bench_perf [--json=FILE]
///
/// Writes one row per (layer, circuit, metric) on fixed circuits: min,
/// median and p90 wall time over a fixed number of reps, the same figures in
/// calibration units ("cal"), and the layer's deterministic work counters.
/// tools/check_perf_regression.py gates the rows against
/// bench/BENCH_baseline.json (docs/operations.md, "The perf-gate workflow").
///
/// Right before every rep the driver times a calibration kernel, a frozen
/// loop over c6288 that lives here so that no product change can move it.
/// A rep's cal is its time divided by the kernel's: it follows the code,
/// not the speed of the host.  Rows too short to time stably run several
/// iterations per rep.
///
/// The correctness checks of the measured paths abort the run: warm
/// requests must be served from cache, every ECO edit must match the local
/// replay and reach a circuit state never served before, random_equivalent
/// must agree, and failover must fail over.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "aig/cuts.hpp"
#include "aig/edit.hpp"
#include "aig/sim_reference.hpp"
#include "aig/simulate.hpp"
#include "baseline/rsfq.hpp"
#include "benchgen/blocks.hpp"
#include "benchgen/registry.hpp"
#include "core/mapper.hpp"
#include "flow/batch_runner.hpp"
#include "flow/flow.hpp"
#include "flow/result_io.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "opt/opt_engine.hpp"
#include "opt/script.hpp"
#include "serve/client.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace xsfq;
namespace fs = std::filesystem;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "bench_perf: %s\n", what.c_str());
  std::exit(1);
}

volatile std::uint64_t sink;  ///< keeps measured results alive

constexpr int reps = 20;         ///< samples per steady-state row
constexpr int cold_reps = 5;     ///< samples that each need a fresh daemon
constexpr int scaling_reps = 3;  ///< samples per scaling row

// ---------------------------------------------------------------------------
// Calibration kernels: three frozen loops over c6288's gates, one of each
// kind of code the product spends its time in.  Host load slows vector
// code, scalar arithmetic and table lookups unevenly, so each row is timed
// against the kernel of its kind:
//   * sweep:  a copy of sim_engine's 32-lane full sweep
//             (src/aig/simulate.cpp), multiversioned the same way — for the
//             vector sim rows;
//   * scalar: one 64-bit word per node, the loop of reference_simulate64
//             (src/aig/sim_reference.hpp), not multiversioned — for the
//             scalar sim rows;
//   * strash: a structural-hash rebuild, the kind of table lookup behind
//             every node a pass creates (aig::create_and) — for all others.
// The baseline's cal figures are in units of these loops; changing any of
// them invalidates them.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define BENCH_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef BENCH_CLONES
#define BENCH_CLONES
#endif

enum class kernel { strash, sweep, scalar };
constexpr const char* kernel_names[] = {"strash", "sweep", "scalar"};

constexpr unsigned sweep_width = 32;
constexpr unsigned sweep_runs = 512;
constexpr unsigned scalar_runs = 1536;
constexpr unsigned strash_bits = 13;  ///< table slots: 2 per c6288 gate
constexpr unsigned strash_runs = 640;

struct cal_op {
  std::uint32_t out;
  std::uint32_t a;
  std::uint32_t b;
};

BENCH_CLONES void cal_sweep(const cal_op* ops, std::size_t n,
                            std::uint64_t* values) {
  for (std::size_t i = 0; i < n; ++i) {
    const cal_op op = ops[i];
    const std::uint64_t ma = -static_cast<std::uint64_t>(op.a & 1u);
    const std::uint64_t mb = -static_cast<std::uint64_t>(op.b & 1u);
    const std::uint64_t* const __restrict va =
        values + static_cast<std::size_t>(op.a >> 1) * sweep_width;
    const std::uint64_t* const __restrict vb =
        values + static_cast<std::size_t>(op.b >> 1) * sweep_width;
    std::uint64_t* const __restrict out =
        values + static_cast<std::size_t>(op.out) * sweep_width;
    for (unsigned w = 0; w < sweep_width; ++w) {
      out[w] = (va[w] ^ ma) & (vb[w] ^ mb);
    }
  }
}

void cal_scalar(const cal_op* ops, std::size_t n, std::uint64_t* values) {
  for (std::size_t i = 0; i < n; ++i) {
    const cal_op op = ops[i];
    const std::uint64_t va =
        (op.a & 1u) != 0 ? ~values[op.a >> 1] : values[op.a >> 1];
    const std::uint64_t vb =
        (op.b & 1u) != 0 ? ~values[op.b >> 1] : values[op.b >> 1];
    values[op.out] = va & vb;
  }
}

struct strash_slot {
  std::uint64_t key = 0;  ///< 0 = empty
  std::uint32_t node = 0;
};

/// Re-creates every gate through an open-addressed (fanin, fanin) table;
/// `map` carries each original node's new literal.  Returns the gate count.
std::uint32_t cal_strash(const std::vector<cal_op>& ops,
                         std::vector<std::uint32_t>& map,
                         std::vector<strash_slot>& table) {
  std::fill(table.begin(), table.end(), strash_slot{});
  std::uint32_t gates = 0;
  for (const cal_op& op : ops) {
    std::uint32_t a = map[op.a >> 1] ^ (op.a & 1u);
    std::uint32_t b = map[op.b >> 1] ^ (op.b & 1u);
    if (a > b) std::swap(a, b);
    const std::uint64_t key = ((std::uint64_t{a} << 32) | b) + 1;
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> (64 - strash_bits);
    while (table[i].key != 0 && table[i].key != key) {
      i = (i + 1) & (table.size() - 1);
    }
    if (table[i].key == 0) table[i] = {key, ++gates};
    map[op.out] = table[i].node << 1;
  }
  return gates;
}

class calibration {
 public:
  calibration() {
    const aig g = benchgen::make_benchmark("c6288");
    g.foreach_gate([&](aig::node_index n) {
      ops_.push_back({n, g.fanin0(n).raw(), g.fanin1(n).raw()});
    });
    plane_.resize(g.size() * sweep_width);
    rng gen(1);
    for (auto& word : plane_) word = gen();  // sweeps overwrite the gates

    // The scalar loop is bound by store-to-load forwarding, which 4K
    // aliasing between its op stream and its words slows by up to 2x,
    // depending on where the two sit relative to page boundaries.  One
    // page-aligned block holds both at fixed offsets, so every process
    // times the same loop.
    const std::size_t ops_bytes = ops_.size() * sizeof(cal_op);
    const std::size_t words_at = (ops_bytes + 4095) / 4096 * 4096 + 512;
    scalar_block_.reset(::operator new(
        words_at + g.size() * sizeof(std::uint64_t), std::align_val_t{4096}));
    auto* base = static_cast<std::byte*>(scalar_block_.get());
    scalar_ops_ = reinterpret_cast<cal_op*>(base);
    std::uninitialized_copy(ops_.begin(), ops_.end(), scalar_ops_);
    scalar_words_ = reinterpret_cast<std::uint64_t*>(base + words_at);
    for (std::size_t i = 0; i < g.size(); ++i) {
      ::new (scalar_words_ + i) std::uint64_t(gen());
    }
    map_.resize(g.size());
    for (std::uint32_t n = 0; n < map_.size(); ++n) map_[n] = n << 1;
    table_.resize(std::size_t{1} << strash_bits);
  }

  /// Wall time of one run of the row's kernel.
  double run_ms(kernel k) {
    const auto start = clock_type::now();
    switch (k) {
      case kernel::sweep:
        for (unsigned s = 0; s < sweep_runs; ++s) {
          cal_sweep(ops_.data(), ops_.size(), plane_.data());
        }
        sink = plane_.back();
        break;
      case kernel::scalar:
        for (unsigned s = 0; s < scalar_runs; ++s) {
          cal_scalar(scalar_ops_, ops_.size(), scalar_words_);
        }
        sink = scalar_words_[ops_.back().out];
        break;
      case kernel::strash:
        for (unsigned s = 0; s < strash_runs; ++s) {
          sink = cal_strash(ops_, map_, table_);
        }
        break;
    }
    return ms_since(start);
  }

 private:
  std::vector<cal_op> ops_;
  std::vector<std::uint64_t> plane_;
  struct page_delete {
    void operator()(void* p) const {
      ::operator delete(p, std::align_val_t{4096});
    }
  };
  std::unique_ptr<void, page_delete> scalar_block_;
  cal_op* scalar_ops_ = nullptr;
  std::uint64_t* scalar_words_ = nullptr;
  std::vector<std::uint32_t> map_;
  std::vector<strash_slot> table_;
};

// ---------------------------------------------------------------------------
// Rows.
// ---------------------------------------------------------------------------

struct summary {
  double min = 0.0;
  double median = 0.0;
  double p90 = 0.0;
};

summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  return {v.front(), at(0.5), at(0.9)};
}

using counter_list = std::vector<std::pair<std::string, std::uint64_t>>;

struct row {
  std::string layer;
  std::string circuit;
  std::string metric;
  int reps = 0;
  int iters = 1;
  bool gated = false;
  kernel timed_against = kernel::strash;
  summary ms;
  summary cal;
  counter_list counters;  ///< deterministic work: gated exactly
  counter_list info;      ///< reported only
};

class driver {
 public:
  /// Records one row from `n` samples.  A sample runs `step` `iters` times
  /// and takes the mean; `step` returns the milliseconds it timed, so set-up
  /// it must not count stays out.  Every sample runs right after a run of
  /// the row's calibration kernel; rows of several samples take one untimed
  /// sample first.  The returned reference is valid until the next
  /// measure().
  template <typename Step>
  row& measure(std::string layer, std::string circuit, std::string metric,
               int n, int iters, bool gated, Step&& step) {
    const auto sample = [&] {
      double total = 0.0;
      for (int i = 0; i < iters; ++i) total += step();
      return total / iters;
    };
    if (n > 1) sample();
    std::vector<double> ms;
    std::vector<double> cal;
    for (int r = 0; r < n; ++r) {
      const double cal_ms = cal_.run_ms(timed_against);
      const double t = sample();
      ms.push_back(t);
      cal.push_back(t / cal_ms);
      kernel_ms_[static_cast<int>(timed_against)].push_back(cal_ms);
    }
    rows_.push_back({std::move(layer), std::move(circuit), std::move(metric),
                     n, iters, gated, timed_against, summarize(ms),
                     summarize(cal), {}, {}});
    const row& r = rows_.back();
    std::printf("%-44s %10.3f ms [%.3f .. %.3f] %8.4f cal%s\n",
                (r.layer + "/" + r.circuit + "/" + r.metric).c_str(),
                r.ms.median, r.ms.min, r.ms.p90, r.cal.median,
                r.gated ? "  gated" : "");
    std::fflush(stdout);
    return rows_.back();
  }

  void write_json(const std::string& path) const;

  /// Set around the rows of vector or scalar simulation: they are timed
  /// against the sweep or the scalar kernel, all other rows against the
  /// strash kernel.
  kernel timed_against = kernel::strash;

 private:
  calibration cal_;
  std::vector<row> rows_;
  std::vector<double> kernel_ms_[std::size(kernel_names)];  ///< every run
};

/// Wraps a body as a step that times itself.
template <typename Body>
auto timing(Body&& body) {
  return [&body] {
    const auto start = clock_type::now();
    body();
    return ms_since(start);
  };
}

std::string json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json(const summary& s) {
  return "{\"min\": " + json(s.min) + ", \"median\": " + json(s.median) +
         ", \"p90\": " + json(s.p90) + "}";
}

std::string json(const counter_list& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += (out.empty() ? "\"" : ", \"") + name + "\": " + std::to_string(value);
  }
  return "{" + out + "}";
}

void driver::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\n  \"schema\": \"bench_perf/1\",\n  \"calibration_ms\": {";
  for (std::size_t k = 0; k < std::size(kernel_names); ++k) {
    os << (k ? ", \"" : "\"") << kernel_names[k]
       << "\": " << json(summarize(kernel_ms_[k]));
  }
  os << "},\n  \"rows\": [\n";
  for (const row& r : rows_) {
    os << "    {\"layer\": \"" << r.layer << "\", \"circuit\": \""
       << r.circuit << "\", \"metric\": \"" << r.metric
       << "\", \"reps\": " << r.reps << ", \"iters\": " << r.iters
       << ", \"gated\": " << (r.gated ? "true" : "false")
       << ", \"kernel\": \"" << kernel_names[static_cast<int>(r.timed_against)]
       << "\",\n     \"ms\": " << json(r.ms) << ", \"cal\": " << json(r.cal)
       << ",\n     \"counters\": " << json(r.counters)
       << ", \"info\": " << json(r.info) << "}"
       << (&r == &rows_.back() ? "\n" : ",\n");
  }
  os << "  ]\n}\n";
  check(os.good(), "cannot write " + path);
}

/// Optimize at `jobs` partitions, run on `pool`'s workers.
optimize_params on_pool(flow::batch_runner& pool, unsigned jobs) {
  optimize_params params;
  params.flow_jobs = jobs;
  params.executor = [&pool](std::vector<std::function<void()>>&& tasks) {
    pool.run_subtasks(std::move(tasks));
  };
  return params;
}

counter_list opt_work(const opt_counters& w, const aig& out) {
  return {{"passes", w.passes},
          {"cuts_enumerated", w.cuts_enumerated},
          {"cut_candidates", w.cut_candidates},
          {"mffc_queries", w.mffc_queries},
          {"replacements", w.replacements},
          {"nodes_out", out.num_gates()}};
}

// ---------------------------------------------------------------------------
// Layers, on c6288.
// ---------------------------------------------------------------------------

/// The first optimize+map of the process: what one xsfq_synth run pays.
void cli_rows(driver& d, const aig& g) {
  aig opt;
  mapping_result mapped;
  row& r = d.measure("cli", "c6288", "cold_optimize_map", 1, 1, true,
                     timing([&] {
                       opt = optimize(g);
                       mapped = map_to_xsfq(opt);
                     }));
  r.counters = {{"nodes_out", opt.num_gates()}, {"jj", mapped.stats.jj}};
}

void opt_rows(driver& d, const aig& g) {
  const std::string c = "c6288";
  aig loaded;
  row& load = d.measure("aig", c, "load", reps, 8, true, timing([&] {
                          loaded = benchgen::make_benchmark(c);
                        }));
  load.counters = {{"nodes", loaded.num_gates()}};
  std::uint64_t hash = 0;
  d.measure("aig", c, "content_hash", reps, 64, true,
            timing([&] { hash = g.content_hash(); }));
  check(hash == loaded.content_hash(), "content_hash is not deterministic");

  cut_engine cuts;
  row& enumerate = d.measure("cuts", c, "enumerate", reps, 2, true, timing([&] {
                               cuts.enumerate(g, {4, 10, true});
                             }));
  enumerate.counters = {{"cuts", cuts.last_counters().stored},
                        {"cut_candidates", cuts.last_counters().candidates},
                        {"arena_bytes", cuts.cuts().arena_bytes()}};

  opt_engine engine;
  const std::pair<const char*, const char*> passes[] = {
      {"balance_pass", "b"}, {"rewrite_pass", "rw"}, {"refactor_pass", "rf"}};
  for (const auto& [metric, pass] : passes) {
    opt_counters before;
    aig out;
    row& r = d.measure("opt", c, metric, reps, pass[0] == 'b' ? 16 : 1, true,
                       timing([&] {
                         before = engine.counters();
                         out = engine.run_pass(g, pass);
                       }));
    r.counters = opt_work(engine.counters().delta_since(before), out);
  }

  optimize_stats st;
  aig opt;
  row& o = d.measure("opt", c, "optimize", reps, 1, true,
                     timing([&] { opt = engine.optimize(g, {}, &st); }));
  o.counters = opt_work(st.work, opt);
  o.counters.insert(o.counters.end(),
                    {{"net_arena_bytes", st.work.net_arena_bytes},
                     {"cut_arena_bytes", st.work.cut_arena_bytes},
                     {"resynth_cache_hits", st.work.resynth_cache_hits}});

  flow::batch_runner pool(4);
  const optimize_params jobs4 = on_pool(pool, 4);
  aig opt4;
  optimize_stats st4;
  row& o4 = d.measure("opt", c, "optimize_jobs4", reps, 1, true,
                      timing([&] { opt4 = optimize(g, jobs4, &st4); }));
  o4.counters = {{"cuts_enumerated", st4.work.cuts_enumerated},
                 {"replacements", st4.work.replacements},
                 {"nodes_out", opt4.num_gates()}};

  xsfq_mapper mapper;
  mapping_result mapped;
  row& m = d.measure("core", c, "map", reps, 2, true,
                     timing([&] { mapper.map_into(opt, {}, mapped); }));
  m.counters = {{"la", mapped.stats.la_cells},
                {"fa", mapped.stats.fa_cells},
                {"splitters", mapped.stats.splitters},
                {"jj", mapped.stats.jj}};

  rsfq_stats rsfq;
  row& b = d.measure("baseline", c, "rsfq", reps, 16, true,
                     timing([&] { rsfq = map_to_rsfq(opt); }));
  b.counters = {{"jj_with_clock", rsfq.jj_with_clock}};
}

/// The frontend: c6288 exported as .bench and as BLIF, read back the way
/// the daemon reads an inline netlist.
void netlist_rows(driver& d, const aig& g) {
  const netlist exported = netlist_from_aig(g, "c6288");
  for (const bool blif : {false, true}) {
    serve::synth_request req;
    req.spec = blif ? "c6288.blif" : "c6288.bench";
    req.source = blif ? serve::circuit_source::blif_text
                      : serve::circuit_source::bench_text;
    req.source_text =
        blif ? write_blif_string(exported) : write_bench_string(exported);
    aig loaded;
    row& r = d.measure("netlist", "c6288", blif ? "read_blif" : "read_bench",
                       reps, 8, true, timing([&] {
                         loaded = serve::load_request_circuit(req);
                       }));
    check(loaded.num_gates() == g.num_gates(),
          "the exported c6288 read back to another gate count");
    r.counters = {{"bytes", req.source_text.size()},
                  {"nodes_out", loaded.num_gates()}};
  }
}

void flow_rows(driver& d) {
  const std::string c = "c6288";
  flow::flow_options validated;
  validated.opt.validate_passes = true;
  flow::flow_result fr;
  row& f = d.measure("flow", c, "run_flow_validated", reps, 1, true,
                     timing([&] { fr = flow::run_flow(c, validated); }));
  for (const flow::stage_timing& t : fr.timings) {
    if (t.stage != "optimize") continue;
    f.counters = {{"nodes_out", t.counters.nodes},
                  {"cuts", t.counters.cuts},
                  {"replacements", t.counters.replacements},
                  {"sim_words", t.counters.sim_words},
                  {"sim_node_evals", t.counters.sim_node_evals}};
    f.info = {{"arena_bytes", t.counters.arena_bytes},
              {"arena_peak_bytes", t.counters.arena_peak_bytes}};
  }

  byte_writer w;
  row& wr = d.measure("flow", c, "write_flow_result", reps, 8, true,
                      timing([&] {
                        w = byte_writer();
                        flow::write_flow_result(w, fr);
                      }));
  wr.counters = {{"bytes", w.data().size()}};
  d.measure("flow", c, "read_flow_result", reps, 4, true, timing([&] {
              byte_reader r(w.data());
              check(flow::read_flow_result(r).optimized.num_gates() ==
                        fr.optimized.num_gates(),
                    "read_flow_result round trip");
            }));

  flow::batch_runner runner(1);
  const serve::synth_request req = serve::make_request_for_spec(c);
  const serve::synth_response resp = serve::run_synth(req, runner);
  check(resp.ok, "run_synth c6288: " + resp.error);
  std::size_t bytes = 0;
  row& codec = d.measure("serve", c, "synth_response_codec", reps, 256, true,
                         timing([&] {
                           const auto payload =
                               serve::encode_synth_response(resp);
                           bytes = payload.size();
                           check(serve::decode_synth_response(payload)
                                         .content_hash == resp.content_hash,
                                 "synth_response round trip");
                         }));
  codec.counters = {{"bytes", bytes}};

  const aig g = benchgen::make_benchmark(c);
  runner.run_cached_shared(g, c, {});
  const std::uint64_t hits = runner.cache_stats().full_hits;
  d.measure("flow", c, "batch_runner_warm_hit", reps, 64, true, timing([&] {
              runner.run_cached_shared(g, c, {});
            }));
  check(runner.cache_stats().full_hits == hits + (reps + 1) * 64,
        "batch_runner warm hit missed the cache");
}

void sim_rows(driver& d, const aig& g) {
  const std::string c = "c6288";
  sim_engine wide(sweep_width);
  wide.attach(g);
  rng gen(1);
  wide.randomize_inputs(gen);
  opt_engine engine;
  const aig partner = engine.run_pass(g, "b");
  equivalence_checker checker;
  std::uint64_t evals = 0;
  d.timed_against = kernel::sweep;
  row& w = d.measure("sim", c, "wide_sweep", reps, 1, true, timing([&] {
                       wide.reset_counters();
                       for (unsigned s = 0; s < sweep_runs; ++s) {
                         wide.simulate();
                       }
                       evals = wide.counters().node_evals;
                     }));
  w.counters = {{"node_evals", evals}};
  d.measure("sim", c, "random_equivalent", reps, 16, true, timing([&] {
              check(checker.check(g, partner, 64, 7),
                    "random_equivalent: unexpected mismatch");
            }));
  d.timed_against = kernel::scalar;
  std::vector<std::uint64_t> patterns(g.num_cis());
  d.measure("sim", c, "scalar_sweep", reps, 1, true, timing([&] {
              for (unsigned s = 0; s < 256; ++s) {
                for (auto& p : patterns) p = gen();
                sink = reference_simulate64(g, patterns)[0];
              }
            }));
  d.measure("sim", c, "random_equivalent_ref", reps, 2, true, timing([&] {
              check(reference_random_equivalent(g, partner, 64, 7),
                    "reference_random_equivalent: unexpected mismatch");
            }));
  d.timed_against = kernel::strash;

  sim_engine incr(8);
  incr.attach(g);
  incr.randomize_inputs(gen);
  incr.simulate();
  sim_counters flips;
  row& r = d.measure("sim", c, "incremental_resim", reps, 1, true, timing([&] {
                       incr.reset_counters();
                       for (std::size_t f = 0; f < 2 * g.num_cis(); ++f) {
                         for (auto& word : incr.ci_words(f % g.num_cis())) {
                           word = gen();
                         }
                         incr.resimulate();
                       }
                       flips = incr.counters();
                     }));
  r.counters = {{"node_evals", flips.node_evals},
                {"node_evals_skipped", flips.node_evals_skipped}};
}

// ---------------------------------------------------------------------------
// End to end: daemon requests, ECO edits, fleet.
// ---------------------------------------------------------------------------

/// A daemon and one client connection, replaced on every restart.
struct daemon_session {
  serve::server_options options;
  std::unique_ptr<serve::server> srv;
  std::unique_ptr<serve::client> cli;

  explicit daemon_session(const std::string& dir) {
    fs::create_directories(dir);
    options.socket_path = dir + "/served.sock";
    options.threads = 2;
  }
  void restart() {
    cli.reset();
    srv.reset();
    srv = std::make_unique<serve::server>(options);
    cli = std::make_unique<serve::client>(options.socket_path);
  }
};

void service_rows(driver& d, const std::string& dir) {
  daemon_session s(dir);
  s.options.cache_dir = dir + "/cache";
  const serve::synth_request req = serve::make_request_for_spec("c6288");
  const auto round_trip = [&](bool cached) {
    const auto start = clock_type::now();
    const serve::synth_response r = s.cli->submit(req);
    const double ms = ms_since(start);
    check(r.ok && r.served_from_cache == cached,
          cached ? "warm request missed the cache" : "cold request failed");
    return ms;
  };
  d.measure("serve", "c6288", "cold_request", cold_reps, 1, false, [&] {
    s.cli.reset();
    s.srv.reset();
    fs::remove_all(s.options.cache_dir);
    s.restart();
    return round_trip(false);
  });
  d.measure("serve", "c6288", "warm_request", reps, 1, false,
            [&] { return round_trip(true); });
  d.measure("serve", "c6288", "disk_warm_request", cold_reps, 1, false, [&] {
    s.restart();  // cold memory, warm disk
    return round_trip(true);
  });
}

std::string sig_token(const signal s) {
  return (s.is_complemented() ? "!n" : "n") + std::to_string(s.index());
}

/// One interactive ECO session: chained synth_delta requests that flip
/// fresh gates.  The flip counter walks (gate, fanin) slots from the middle
/// of the gate array — all fanin1 slots, then all fanin0 slots — so no edit
/// toggles back into a state served before; `seen` turns any such repeat
/// (which would time a cache hit, not an ECO) into a hard failure.
struct eco_session {
  serve::client& cli;
  serve::synth_request base;
  aig current;  ///< local replay of every edit sent
  std::vector<aig::node_index> gates;
  std::size_t next_flip = 0;
  std::unordered_set<std::uint64_t> seen;

  eco_session(serve::client& client, serve::synth_request base_request)
      : cli(client), base(std::move(base_request)) {
    current = serve::load_request_circuit(base);
    seen.insert(current.content_hash());
    for (aig::node_index n = 0; n < current.size(); ++n) {
      if (current.is_gate(n)) gates.push_back(n);
    }
    std::rotate(gates.begin(), gates.begin() + gates.size() / 2, gates.end());
  }

  double submit_edit(std::size_t size) {
    std::string script;
    for (std::size_t i = 0; i < size; ++i, ++next_flip) {
      const aig::node_index target = gates[next_flip % gates.size()];
      const bool flip_f0 = (next_flip / gates.size()) % 2 != 0;
      const signal a = current.fanin0(target);
      const signal b = current.fanin1(target);
      script += "replace n" + std::to_string(target) + " " +
                sig_token(flip_f0 ? !a : a) + " " +
                sig_token(flip_f0 ? b : !b) + "\n";
    }
    serve::synth_delta_request dreq;
    dreq.base = base;
    dreq.base_content_hash = current.content_hash();
    dreq.edit_text = script;
    dreq.supersede_base = false;
    const auto start = clock_type::now();
    const serve::synth_response r = cli.submit_delta(dreq);
    const double ms = ms_since(start);
    eco::apply_edit_text(current, script);
    check(r.ok && r.content_hash == current.content_hash(),
          "delta diverged from the local replay");
    check(seen.insert(r.content_hash).second,
          "an edit revisited a served circuit state");
    return ms;
  }
};

void eco_rows(driver& d, const std::string& dir, const std::string& circuit,
              unsigned grain) {
  daemon_session s(dir);
  serve::synth_request base = serve::make_request_for_spec(circuit);
  base.partition_grain = grain;
  const std::uint64_t base_hash =
      serve::load_request_circuit(base).content_hash();
  d.measure("eco", circuit, "cold", cold_reps, 1, true, [&] {
    s.restart();  // fresh result and region caches
    const auto start = clock_type::now();
    const serve::synth_response r = s.cli->submit(base);
    const double ms = ms_since(start);
    check(r.ok && r.content_hash == base_hash, "ECO base submit failed");
    return ms;
  });
  eco_session session(*s.cli, base);
  // Large edits first: the single-gate figure is taken in the fully warmed
  // steady state an interactive session sits in.
  for (const std::size_t size : {64, 8, 1}) {
    d.measure("eco", circuit, "edit" + std::to_string(size), reps,
              size == 1 ? 2 : 1, true,
              [&] { return session.submit_edit(size); });
  }
}

/// In-process daemons on Unix sockets under `dir`, and fleet options that
/// demote an endpoint on its first failure and retry at once.
struct fleet_harness {
  std::vector<std::unique_ptr<serve::server>> servers;
  std::vector<serve::endpoint> endpoints;
  serve::fleet_options options;

  fleet_harness(const std::string& dir, std::size_t n) {
    fs::create_directories(dir);
    for (std::size_t i = 0; i < n; ++i) {
      serve::server_options server;
      server.socket_path = dir + "/shard" + std::to_string(i) + ".sock";
      server.threads = 2;
      servers.push_back(std::make_unique<serve::server>(server));
      endpoints.emplace_back().socket_path = server.socket_path;
    }
    options.policy.initial_backoff_ms = 1;
    options.policy.max_backoff_ms = 20;
    options.down_after = 1;
  }
};

void fleet_rows(driver& d, const std::string& dir) {
  const serve::synth_request c432 = serve::make_request_for_spec("c432");
  {
    fleet_harness solo(dir + "/solo", 1);
    serve::client direct(solo.endpoints[0].socket_path);
    check(direct.submit(c432).ok, "fleet: cold c432 failed");
    serve::fleet_client fleet(solo.endpoints, solo.options);
    d.measure("fleet", "c432", "direct_warm", reps, 1, false, timing([&] {
                check(direct.submit(c432).served_from_cache,
                      "direct warm request missed the cache");
              }));
    d.measure("fleet", "c432", "fleet1_warm", reps, 1, false, timing([&] {
                check(fleet.submit(c432).served_from_cache,
                      "fleet warm request missed the cache");
              }));
  }

  std::vector<serve::synth_request> corpus;
  for (const char* name : {"c432", "c880", "c1908", "c6288"}) {
    corpus.push_back(serve::make_request_for_spec(name));
  }
  const auto warm_up = [&](serve::fleet_client& fleet) {
    for (const auto& r : corpus) check(fleet.submit(r).ok, "fleet warm-up");
  };
  {
    fleet_harness trio(dir + "/trio", 3);
    serve::fleet_client fleet(trio.endpoints, trio.options);
    warm_up(fleet);
    d.measure("fleet", "corpus4", "fleet3_corpus", reps, 1, false,
              timing([&] {
                for (const auto& r : corpus) {
                  check(fleet.submit(r).served_from_cache,
                        "fleet corpus request missed the cache");
                }
              }));
  }

  // Kill c432's primary owner in a warm 3-shard fleet, then time the first
  // resubmit: the dead connect, the health demotion and the replica retry.
  int round = 0;
  d.measure("fleet", "c432", "failover", cold_reps, 1, false, [&] {
    fleet_harness trio(dir + "/failover" + std::to_string(round++), 3);
    serve::fleet_client fleet(trio.endpoints, trio.options);
    warm_up(fleet);
    const std::string owner =
        fleet.owners_for(serve::fleet_client::routing_key(c432)).front();
    for (std::size_t i = 0; i < trio.servers.size(); ++i) {
      if (serve::fleet_client::endpoint_id(trio.endpoints[i]) == owner) {
        trio.servers[i]->stop();
      }
    }
    const auto start = clock_type::now();
    const serve::synth_response r = fleet.submit(c432);
    const double ms = ms_since(start);
    check(r.ok && fleet.counters().failovers > 0,
          "failover submit did not fail over");
    return ms;
  });
}

// ---------------------------------------------------------------------------
// Scaling: optimize at flow_jobs 1/2/4 on a real pool.
// ---------------------------------------------------------------------------

aig make_multiplier(unsigned width) {
  aig g;
  std::vector<signal> a;
  std::vector<signal> b;
  for (unsigned i = 0; i < width; ++i) a.push_back(g.create_pi());
  for (unsigned i = 0; i < width; ++i) b.push_back(g.create_pi());
  for (const signal s : blocks::array_multiplier(g, a, b)) g.create_po(s);
  return g;
}

void scaling_rows(driver& d) {
  flow::batch_runner pool(4);
  const std::pair<std::string, aig> circuits[] = {
      {"c6288", benchgen::make_benchmark("c6288")},
      {"sin", benchgen::make_benchmark("sin")},
      {"mult32", make_multiplier(32)},
      {"mult64", make_multiplier(64)}};
  for (const auto& [name, g] : circuits) {
    for (const unsigned jobs : {1u, 2u, 4u}) {
      const optimize_params params = on_pool(pool, jobs);
      optimize_stats st;
      aig out;
      row& r = d.measure("scaling", name, "optimize_jobs" + std::to_string(jobs),
                         scaling_reps, 1, false,
                         timing([&] { out = optimize(g, params, &st); }));
      r.counters = {{"nodes_in", g.num_gates()},
                    {"nodes_out", out.num_gates()},
                    {"cuts_enumerated", st.work.cuts_enumerated},
                    {"replacements", st.work.replacements}};
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string arg = argc > 1 ? argv[1] : "";
  if (argc > 2 || (argc == 2 && arg.rfind("--json=", 0) != 0)) {
    std::fprintf(stderr, "usage: %s [--json=FILE]\n", argv[0]);
    return 2;
  }
  const std::string json_path = argc == 2 ? arg.substr(7) : "";

  // The in-process daemons' info-level request lines would put a stderr
  // write inside every measured round trip.
  log::set_level(log::level::warn);
  char tmpl[] = "/tmp/xsfq_bench_perf_XXXXXX";
  check(mkdtemp(tmpl) != nullptr, "mkdtemp failed");
  const std::string dir = tmpl;

  const auto start = clock_type::now();
  driver d;
  const aig g = benchgen::make_benchmark("c6288");
  cli_rows(d, g);  // first: nothing may warm the flow before it
  opt_rows(d, g);
  netlist_rows(d, g);
  flow_rows(d);
  sim_rows(d, g);
  service_rows(d, dir + "/serve");
  eco_rows(d, dir + "/eco_c880", "c880", 64);
  eco_rows(d, dir + "/eco_c6288", "c6288", 24);
  fleet_rows(d, dir + "/fleet");
  scaling_rows(d);
  std::printf("bench_perf: %.1f s\n", ms_since(start) / 1000.0);

  if (!json_path.empty()) {
    d.write_json(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return 0;
}
