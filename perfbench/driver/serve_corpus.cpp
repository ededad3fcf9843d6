// serve_corpus: a fresh xsfq_served (--threads=2, disk cache in a temp dir)
// driven by 4 closed-loop clients with inline netlist text, the way
// `xsfq_client file.bench` submits.  Two clients reconnect for every request,
// two hold one connection.  This is the file-based service path: parsing
// dominates a warm request, the 64-entry memory tier holds fewer than the
// 92 keys so a steady share of hits falls through to disk, and ~3% of
// requests are never-seen revisions that compile cold.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "aig/edit.hpp"
#include "benchgen/registry.hpp"
#include "core/xsfq_writer.hpp"
#include "flow/batch_runner.hpp"
#include "flow/disk_cache.hpp"
#include "flow/result_io.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"
#include "opt/opt_engine.hpp"
#include "serve/synth_service.hpp"
#include "served.hpp"

namespace perfbench {

namespace xs = xsfq::serve;

namespace {

constexpr int num_clients = 4;        // clients 0,1 reconnect; 2,3 persist
// Each client asks for Verilog on every 4th request and sends a never-seen
// revision on every 33rd (~3%), at seeded phases: fixed shares rather than
// coin flips, so every window has the same mix.
constexpr std::size_t verilog_every = 4;
constexpr std::size_t cold_every = 33;
constexpr std::size_t warmup_requests = 200;
constexpr std::size_t replay_sample = 192;
constexpr std::uint64_t trace_hi = 0x5e7e'0000'0000'0001ull;

struct design {
  std::string name;
  bool sequential = false;
  bool blif = false;
  xsfq::aig network;
  std::string text;
};

struct key {
  std::size_t design = 0;
  xsfq::mapping_params map;
};

/// One never-seen revision: a design with a seeded edit script replayed on
/// it, exported in the design's own format.
struct revision {
  std::size_t key = 0;
  std::string edit;
  bool verilog = false;
  std::uint64_t content = 0;  ///< edited circuit's content hash
  std::uint64_t body = 0;     ///< served response identity
};

struct corpus {
  std::vector<design> designs;
  std::vector<key> keys;
  std::vector<std::size_t> rank_to_key;  ///< popularity order
  std::vector<double> cdf;               ///< Zipf (s = 1) over ranks

  std::size_t draw(rng64& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return rank_to_key[std::min<std::size_t>(it - cdf.begin(),
                                             rank_to_key.size() - 1)];
  }

  xs::synth_request request(std::size_t k, bool verilog,
                            const revision* rev = nullptr,
                            std::size_t rev_id = 0) const {
    const key& kk = keys[k];
    const design& d = designs[kk.design];
    xs::synth_request req;
    req.spec = d.name + (rev ? ".rev" + std::to_string(rev_id) : "") +
               (d.blif ? ".blif" : ".bench");
    req.source = d.blif ? xs::circuit_source::blif_text
                        : xs::circuit_source::bench_text;
    if (!d.blif) req.model = d.name;
    req.map = kk.map;
    req.want_verilog = verilog;
    if (rev) {
      xsfq::aig edited = d.network;
      xsfq::eco::apply_edit_text(edited, rev->edit);
      req.source_text = export_text(edited, d);
    } else {
      req.source_text = d.text;
    }
    return req;
  }

  static std::string export_text(const xsfq::aig& network, const design& d) {
    const xsfq::netlist nl = xsfq::netlist_from_aig(network, d.name);
    return d.blif ? xsfq::write_blif_string(nl) : xsfq::write_bench_string(nl);
  }
};

/// Seeded assignment that keeps the workload's cost mix the same on every
/// seed: items are sorted by size and the seed only permutes within runs of
/// `group` neighbours of similar size.
std::vector<std::size_t> stratified(std::vector<std::size_t> by_size,
                                    std::size_t group, rng64& rng) {
  for (std::size_t g = 0; g < by_size.size(); g += group) {
    const std::size_t end = std::min(by_size.size(), g + group);
    seeded_shuffle(by_size.begin() + g, by_size.begin() + end, rng);
  }
  return by_size;
}

/// Keys in size order form groups of 4; a fixed stride over the groups
/// places them along the sequence, so every stretch of it mixes small and
/// large designs, and the seed orders keys within a group.
std::vector<std::size_t> spread_by_size(std::size_t keys, std::size_t stride,
                                        std::size_t first, rng64& rng) {
  std::vector<std::size_t> in_size_order(keys);
  for (std::size_t i = 0; i < keys; ++i) in_size_order[i] = i;
  in_size_order = stratified(in_size_order, 4, rng);
  const std::size_t groups = (keys + 3) / 4;  // 23: stride is coprime to it
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b < groups; ++b) {
    const std::size_t g = (b * stride + first) % groups;
    for (std::size_t i = g * 4; i < std::min(keys, g * 4 + 4); ++i) {
      out.push_back(in_size_order[i]);
    }
  }
  return out;
}

corpus make_corpus(std::uint64_t seed) {
  rng64 rng(seed);
  corpus c;
  for (const auto& b : xsfq::benchgen::all_benchmarks()) {
    if (b.name == "sin" || b.name == "voter") continue;
    design d;
    d.name = b.name;
    d.sequential = b.sequential;
    d.network = xsfq::benchgen::make_benchmark(b.name);
    c.designs.push_back(std::move(d));
  }
  std::vector<std::size_t> by_size(c.designs.size());
  for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](auto a, auto b) {
    return c.designs[a].network.num_gates() < c.designs[b].network.num_gates();
  });
  // Formats: in every pair of similar-size designs one is .bench, one .blif.
  const auto fmt = stratified(by_size, 2, rng);
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    design& d = c.designs[fmt[i]];
    d.blif = i % 2 == 1;
    d.text = corpus::export_text(d.network, d);
  }
  // Keys: 3 polarity modes per combinational design, 2 register styles per
  // sequential one.
  for (const std::size_t di : by_size) {
    if (c.designs[di].sequential) {
      for (const auto style : {xsfq::register_style::pair_boundary,
                               xsfq::register_style::pair_retimed}) {
        key k{di, {}};
        k.map.reg_style = style;
        c.keys.push_back(k);
      }
    } else {
      for (const auto pol : {xsfq::polarity_mode::direct_dual_rail,
                             xsfq::polarity_mode::positive_outputs,
                             xsfq::polarity_mode::optimized}) {
        key k{di, {}};
        k.map.polarity = pol;
        c.keys.push_back(k);
      }
    }
  }
  // Popularity: rank is not correlated with size, and every seed puts keys
  // of the same sizes at the same ranks.
  c.rank_to_key = spread_by_size(c.keys.size(), 7, 3, rng);
  double sum = 0.0;
  for (std::size_t r = 0; r < c.rank_to_key.size(); ++r) sum += 1.0 / (r + 1.0);
  double acc = 0.0;
  for (std::size_t r = 0; r < c.rank_to_key.size(); ++r) {
    acc += 1.0 / (r + 1.0) / sum;
    c.cdf.push_back(acc);
  }
  return c;
}

/// A seeded edit script: fanin-polarity flips of 1-4 gates.
std::string revision_edit(const xsfq::aig& g, rng64& rng) {
  std::string script;
  const std::size_t flips = 1 + rng.below(4);
  for (std::size_t i = 0; i < flips; ++i) {
    xsfq::aig::node_index n = 0;
    do {
      n = static_cast<xsfq::aig::node_index>(rng.below(g.size()));
    } while (!g.is_gate(n) || g.fanin0(n).index() == g.fanin1(n).index());
    script += flip_line(g, n, rng.below(2) == 0);
  }
  return script;
}

/// What the load generator remembers about one op.
struct op_record {
  std::uint64_t id = 0;
  std::size_t key = 0;
  bool verilog = false;
  std::int64_t rev = -1;
  int client = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// State shared by the client threads of one window.
struct window : failure_log {
  window(const corpus& corp, span_store& store, bool trace, double seconds,
         std::atomic<std::uint64_t>& op_counter,
         std::map<std::pair<std::size_t, bool>, std::uint64_t>& bodies,
         std::vector<revision>& revs)
      : c(corp), spans(store), traced(trace),
        deadline(steady::now() +
                 std::chrono::duration_cast<steady::duration>(
                     std::chrono::duration<double>(seconds))),
        next_op(op_counter), seen_bodies(bodies), revisions(revs),
        last_end(steady::now()) {}

  const corpus& c;
  span_store& spans;
  const bool traced;
  const steady::time_point deadline;
  std::atomic<std::uint64_t>& next_op;
  std::map<std::pair<std::size_t, bool>, std::uint64_t>& seen_bodies;
  std::vector<revision>& revisions;
  std::mutex mutex;  // guards everything below, the two maps above and
                     // the failure log
  std::vector<op_record> ops;
  std::vector<double> latency_ms;
  steady::time_point last_end;
};

/// Draws a never-seen revision of the client's next key in the seeded cold
/// cycle.  Inputs depend only on (seed, client, cold ordinal).
revision make_revision(window& w, const std::vector<std::size_t>& cycle,
                       std::uint64_t seed, int client, std::size_t ordinal) {
  revision rev;
  rev.key = cycle[(ordinal + static_cast<std::size_t>(client) * 23) %
                  cycle.size()];
  const design& d = w.c.designs[w.c.keys[rev.key].design];
  rng64 rng(seed * 0x9E3779B97F4A7C15ull ^
            (static_cast<std::uint64_t>(client) << 32 | ordinal));
  for (;;) {
    rev.edit = revision_edit(d.network, rng);
    xsfq::aig edited = d.network;
    xsfq::eco::apply_edit_text(edited, rev.edit);
    rev.content = edited.content_hash();
    if (rev.content == d.network.content_hash()) continue;
    std::lock_guard<std::mutex> lock(w.mutex);
    const bool seen = std::any_of(
        w.revisions.begin(), w.revisions.end(), [&](const revision& r) {
          return r.key == rev.key && r.content == rev.content;
        });
    if (!seen) return rev;
  }
}

void client_loop(window& w, const std::vector<std::size_t>& cold_cycle,
                 const std::string& socket, int client, std::uint64_t seed,
                 std::size_t max_ops) {
  rng64 rng(seed * 0x100 + static_cast<std::uint64_t>(client));
  const std::size_t verilog_phase = rng.below(verilog_every);
  const std::size_t cold_phase = rng.below(cold_every);
  const bool reconnect = client < 2;
  std::optional<connection> persistent;
  if (!reconnect) persistent.emplace(socket);
  std::size_t cold_ordinal = 0;
  for (std::size_t done = 0; done < max_ops && steady::now() < w.deadline;
       ++done) {
    const std::uint64_t op = ++w.next_op;
    op_record rec;
    rec.id = op;
    rec.client = client;
    rec.key = w.c.draw(rng);
    rec.verilog = done % verilog_every == verilog_phase;
    xs::synth_request req;
    if (done % cold_every == cold_phase) {
      revision rev = make_revision(w, cold_cycle, seed, client, cold_ordinal++);
      rev.verilog = rec.verilog;
      rec.key = rev.key;
      {
        std::lock_guard<std::mutex> lock(w.mutex);
        rec.rev = static_cast<std::int64_t>(w.revisions.size());
        w.revisions.push_back(rev);
      }
      req = w.c.request(rev.key, rec.verilog, &rev,
                        static_cast<std::size_t>(rec.rev));
    } else {
      req = w.c.request(rec.key, rec.verilog);
    }
    if (w.traced) {
      req.trace_hi = trace_hi;
      req.trace_lo = op;
    }
    const std::vector<std::uint8_t> payload = xs::encode_synth_request(req);
    rec.request_bytes = payload.size() + 6;

    // Latency: from the connect (reconnecting clients) or the send to the
    // final frame.
    const std::int64_t start_us = now_us();
    const auto t0 = steady::now();
    reply rep;
    try {
      std::optional<connection> fresh;
      std::int64_t connect_us = 0;
      if (reconnect) {
        fresh.emplace(socket);
        connect_us = now_us() - start_us;
      }
      connection& conn = reconnect ? *fresh : *persistent;
      const xs::frame f = conn.roundtrip(xs::msg_type::submit, payload);
      const auto t1 = steady::now();
      const std::int64_t end_us = now_us();
      rep = decode_reply(f);
      std::vector<xs::trace_span> daemon_spans;
      if (w.traced) daemon_spans = conn.trace(trace_hi, op).spans;
      rec.response_bytes = rep.response_bytes;
      std::lock_guard<std::mutex> lock(w.mutex);
      w.latency_ms.push_back(ms_between(t0, t1));
      w.last_end = std::max(w.last_end, t1);
      if (w.traced) {
        add_traced_op(w.spans, op, static_cast<std::uint32_t>(client),
                      start_us, end_us, connect_us, daemon_spans);
      }
    } catch (const std::exception& e) {
      rep.ok = false;
      rep.error = e.what();
      if (!reconnect) persistent.emplace(socket);
    }
    std::lock_guard<std::mutex> lock(w.mutex);
    w.ops.push_back(rec);
    if (!rep.ok) {
      w.fail(req.spec + ": " + rep.error);
      continue;
    }
    const std::uint64_t body = body_hash(rep.response);
    if (rec.rev >= 0) {
      w.revisions[static_cast<std::size_t>(rec.rev)].body = body;
      continue;
    }
    // Every response of a key repeats the first one byte for byte.
    const auto [it, first] =
        w.seen_bodies.emplace(std::pair{rec.key, rec.verilog}, body);
    if (!first && it->second != body) {
      w.fail(req.spec + ": response differs from an earlier one");
    }
  }
}

struct window_result {
  std::vector<op_record> ops;
  std::vector<double> latency_ms;
  double seconds = 0.0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Replays one traced op's inputs through the layer calls (spans under a
/// "replay" root) and accumulates the counters the layer metrics need.
struct replay_totals {
  double parse_bytes = 0, copy_us = 0, result_bytes = 0, verilog_bytes = 0;
  double cuts = 0, replacements = 0, resynth_hits = 0, mffc_queries = 0;
};

void replay_op(const op_record& r, const xs::synth_request& req,
               xsfq::flow::batch_runner& runner,
               xsfq::flow::disk_result_cache& disk, span_store& spans,
               replay_totals& t) {
  xsfq::flow::flow_options options;
  options.map = req.map;
  // Untimed: the local runner holds this request's result, so the two hit
  // paths below are hits.
  (void)runner.run_cached_shared(xs::load_request_circuit(req), req.spec,
                                 options);
  const xs::synth_response resp = xs::run_synth(req, runner);

  const int root = spans.add({"replay", now_us(), 0, -1, r.id, origin::replay,
                              0});
  xsfq::aig network;
  {
    scoped s(spans, "netlist.load_request_circuit", root, r.id);
    network = xs::load_request_circuit(req);
  }
  t.parse_bytes += static_cast<double>(req.source_text.size());
  {
    scoped s(spans, "aig.content_hash", root, r.id);
    (void)network.content_hash();
  }
  {
    const int codec = spans.add(
        {"serve.codec", now_us(), 0, root, r.id, origin::replay, 0});
    std::vector<std::uint8_t> bytes;
    {
      scoped s(spans, "serve.encode_synth_request", codec, r.id);
      bytes = xs::encode_synth_request(req);
    }
    {
      scoped s(spans, "serve.decode_synth_request", codec, r.id);
      (void)xs::decode_synth_request(bytes);
    }
    {
      scoped s(spans, "serve.encode_synth_response", codec, r.id);
      bytes = xs::encode_synth_response(resp);
    }
    {
      scoped s(spans, "serve.decode_synth_response", codec, r.id);
      (void)xs::decode_synth_response(bytes);
    }
    spans.finish(codec);
  }
  // A runner hit taken shared, then by value: the difference is the copy
  // the by-value path makes.
  std::shared_ptr<const xsfq::flow::flow_result> shared;
  std::int64_t shared_us = 0;
  {
    xsfq::aig copy = network;
    const std::int64_t a = now_us();
    scoped s(spans, "flow.hit_shared", root, r.id);
    shared = runner.run_cached_shared(std::move(copy), req.spec, options);
    shared_us = now_us() - a;
  }
  {
    xsfq::aig copy = network;
    const std::int64_t a = now_us();
    scoped s(spans, "flow.hit_by_value", root, r.id);
    (void)runner.run_cached(std::move(copy), req.spec, options);
    t.copy_us += static_cast<double>(now_us() - a - shared_us);
  }
  {
    xsfq::byte_writer bw;
    {
      scoped s(spans, "flow.write_flow_result", root, r.id);
      xsfq::flow::write_flow_result(bw, *shared);
    }
    t.result_bytes += static_cast<double>(bw.data().size());
    xsfq::byte_reader br(bw.data());
    scoped s(spans, "flow.read_flow_result", root, r.id);
    (void)xsfq::flow::read_flow_result(br);
  }
  {
    scoped s(spans, "flow.disk_result_cache.store", root, r.id);
    disk.store(network.content_hash(), r.id, *shared);
  }
  {
    scoped s(spans, "flow.disk_result_cache.load", root, r.id);
    (void)disk.load(network.content_hash(), r.id);
  }
  if (r.verilog) {
    scoped s(spans, "core.write_xsfq_verilog_string", root, r.id);
    t.verilog_bytes += static_cast<double>(
        xsfq::write_xsfq_verilog_string(shared->mapped, req.spec).size());
  }
  if (r.rev >= 0) {
    // A cold op: the optimize the daemon ran, then pass by pass.
    xsfq::optimize_stats st;
    {
      scoped s(spans, "opt.optimize", root, r.id);
      (void)xsfq::optimize(network, {}, &st);
    }
    t.cuts += static_cast<double>(st.work.cuts_enumerated);
    t.replacements += static_cast<double>(st.work.replacements);
    t.resynth_hits += static_cast<double>(st.work.resynth_cache_hits);
    t.mffc_queries += static_cast<double>(st.work.mffc_queries);
    replay_passes(network, spans, root, r.id);
  }
  spans.finish(root);
}

}  // namespace

run_result run_serve_corpus(const config& cfg) {
  namespace fs = std::filesystem;
  run_result out;
  const std::string dir = cfg.work_dir + "/serve_corpus";
  std::optional<daemon_process> daemon;
  corpus c;
  report_totals totals;
  std::map<std::pair<std::size_t, bool>, std::uint64_t> seen_bodies;
  std::vector<revision> revisions;
  std::vector<std::size_t> cold_cycle;
  std::atomic<std::uint64_t> next_op{0};
  span_store spans;

  const auto run_window = [&](double seconds, bool traced,
                              std::size_t max_ops_per_client) {
    window w(c, spans, traced, seconds, next_op, seen_bodies, revisions);
    const auto t0 = steady::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < num_clients; ++i) {
      threads.emplace_back([&, i] {
        try {
          client_loop(w, cold_cycle, daemon->socket_path(), i, cfg.seed,
                      max_ops_per_client);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(w.mutex);
          w.fail(std::string("client: ") + e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
    return window_result{std::move(w.ops), std::move(w.latency_ms),
                         ms_between(t0, w.last_end) / 1000.0, w.failed,
                         std::move(w.failures)};
  };

  for (int rep = 0; rep < setup_repeats; ++rep) {
    const auto t0 = steady::now();
    daemon.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    c = make_corpus(cfg.seed);
    daemon.emplace(cfg, dir, daemon_flags(dir));
    // Cache fill: every key once, then a short warm-up of the real mix.
    connection fill(daemon->socket_path());
    seen_bodies.clear();
    revisions.clear();
    totals = {};
    for (std::size_t k = 0; k < c.keys.size(); ++k) {
      const reply r = decode_reply(fill.roundtrip(
          xs::msg_type::submit,
          xs::encode_synth_request(c.request(k, false))));
      if (!r.ok) throw std::runtime_error("cache fill failed: " + r.error);
      seen_bodies[{k, false}] = body_hash(r.response);
      totals.add(r.response.report);
    }
    // Cold revisions walk the keys in an order that mixes sizes evenly, so
    // every window compiles a like mix of small and large designs cold.
    rng64 cycle_rng(cfg.seed ^ 0xC01Dull);
    cold_cycle = spread_by_size(c.keys.size(), 5, 0, cycle_rng);
    const auto warm = run_window(60.0, false, warmup_requests / num_clients);
    if (warm.failed) {
      throw std::runtime_error("warm-up failed: " + warm.failures.front());
    }
    out.setup_s.push_back(ms_between(t0, steady::now()) / 1000.0);
  }

  connection stats_conn(daemon->socket_path());
  const int pid = daemon->pid();
  if (cfg.trace) {
    const auto ref = run_window(cfg.seconds / 2, false, SIZE_MAX);
    out.untraced_p50_ms = summarize(ref.latency_ms).p50;
    out.untraced_throughput =
        static_cast<double>(ref.latency_ms.size()) / ref.seconds;
  }
  const auto before = stats_conn.server_stats();
  const double cpu0 = proc_cpu_ms(pid);
  window_result win = run_window(cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                                 cfg.trace, SIZE_MAX);
  out.cpu_ms = proc_cpu_ms(pid) - cpu0;
  out.stat_deltas = stat_deltas(before, stats_conn.server_stats());
  out.peak_rss_mb = proc_peak_rss_mb(pid);
  daemon.reset();

  out.latency_ms = std::move(win.latency_ms);
  out.window_s = win.seconds;
  out.attempted = win.ops.size();
  out.failed = win.failed;
  out.failures = std::move(win.failures);
  out.xsfq_jj_total = totals.jj;

  const double n = static_cast<double>(win.ops.size());
  const auto& d = out.stat_deltas;
  const double lookups = delta_of(d, "full_hits") + delta_of(d, "full_misses");
  const auto share = [](double v, double of) { return of > 0 ? v / of : 0.0; };
  double verilog = 0, reconnecting = 0, cold = 0;
  for (const op_record& r : win.ops) {
    verilog += r.verilog;
    reconnecting += r.client < 2;
    cold += r.rev >= 0;
  }
  out.composition = {
      {"memory hit", share(delta_of(d, "full_hits"), lookups)},
      {"disk hit", share(delta_of(d, "disk_hits"), lookups)},
      {"opt-tier hit", share(delta_of(d, "opt_hits"), lookups)},
      {"cold", share(delta_of(d, "opt_misses"), lookups)},
      {"never-seen revision", share(cold, n)},
      {"verilog requested", share(verilog, n)},
      {"reconnecting client", share(reconnecting, n)},
      {"persistent client", share(n - reconnecting, n)},
  };

  // Correctness: every distinct response must be byte-identical to a local
  // run_synth of the same request on a cache-less runner.
  {
    std::vector<std::pair<xs::synth_request, std::uint64_t>> checks;
    for (const auto& [kv, body] : seen_bodies) {
      checks.emplace_back(c.request(kv.first, kv.second), body);
    }
    for (std::size_t i = 0; i < revisions.size(); ++i) {
      if (revisions[i].body == 0) continue;  // that request failed
      checks.emplace_back(
          c.request(revisions[i].key, revisions[i].verilog, &revisions[i], i),
          revisions[i].body);
    }
    xsfq::flow::batch_runner local(2);
    local.set_cache_enabled(false);
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < checks.size(); i = next++) {
          const xs::synth_response resp = xs::run_synth(checks[i].first, local);
          if (!resp.ok || body_hash(resp) != checks[i].second) {
            std::lock_guard<std::mutex> lock(m);
            out.fail(checks[i].first.spec +
                     ": served response differs from the local run");
          }
        }
      });
    }
    for (auto& t : workers) t.join();
  }

  if (!cfg.trace) return out;

  // Replay a seeded sample of the traced ops through the layer calls.
  rng64 pick(cfg.seed ^ 0x5A3Dull);
  std::vector<op_record> sample = win.ops;
  seeded_shuffle(sample.begin(), sample.end(), pick);
  if (sample.size() > replay_sample) sample.resize(replay_sample);
  const std::string replay_dir = dir + "/replay";
  replay_totals t;
  {
    xsfq::flow::disk_result_cache disk(replay_dir);
    xsfq::flow::batch_runner runner(1);
    for (const op_record& r : sample) {
      const xs::synth_request req =
          r.rev >= 0
              ? c.request(r.key, r.verilog,
                          &revisions[static_cast<std::size_t>(r.rev)],
                          static_cast<std::size_t>(r.rev))
              : c.request(r.key, r.verilog);
      replay_op(r, req, runner, disk, spans, t);
    }
  }
  fs::remove_all(replay_dir);
  out.spans = spans.take();
  out.traced_ops = win.ops.size();

  served_layer_metrics(out, self_time_us(out.spans, false),
                       total_time_us(out.spans, false), n, out.stat_deltas);
  double req_bytes = 0, resp_bytes = 0;
  for (const op_record& r : win.ops) {
    req_bytes += static_cast<double>(r.request_bytes);
    resp_bytes += static_cast<double>(r.response_bytes);
  }
  const double m = static_cast<double>(sample.size());
  const auto self = self_time_us(out.spans, true);
  const auto per_replay_us = [&](std::initializer_list<const char*> names) {
    return sum_of(self, names) / m;
  };
  auto& L = out.layer;
  L["serve.request_bytes"] = req_bytes / n;
  L["serve.response_bytes"] = resp_bytes / n;
  L["opt.nodes_out_total"] = totals.nodes;
  L["core.la_fa_total"] = totals.la_fa;
  L["core.splitters_total"] = totals.splitters;
  L["baseline.rsfq_jj_total"] = totals.rsfq_jj;
  const double parse_us = per_replay_us({"netlist.load_request_circuit"});
  L["netlist.parse_ms"] = parse_us / 1000.0;
  L["netlist.parse_mb_s"] = t.parse_bytes / m / parse_us;  // bytes/us = MB/s
  L["aig.content_hash_us"] = per_replay_us({"aig.content_hash"});
  L["serve.codec_us"] = per_replay_us(
      {"serve.encode_synth_request", "serve.decode_synth_request",
       "serve.encode_synth_response", "serve.decode_synth_response"});
  L["flow.hit_copy_us"] = t.copy_us / m;
  L["flow.result_bytes"] = t.result_bytes / m;
  L["core.verilog_ms"] =
      per_replay_us({"core.write_xsfq_verilog_string"}) / 1000.0;
  L["core.verilog_bytes"] = t.verilog_bytes / m;
  L["opt.balance_ms"] = per_replay_us({"opt.balance"}) / 1000.0;
  L["opt.rewrite_ms"] = per_replay_us({"opt.rewrite"}) / 1000.0;
  L["opt.refactor_ms"] = per_replay_us({"opt.refactor"}) / 1000.0;
  L["opt.cuts_enumerated"] = t.cuts / m;
  L["opt.replacements"] = t.replacements / m;
  L["opt.resynth_cache_hit_ratio"] =
      t.mffc_queries > 0 ? t.resynth_hits / t.mffc_queries : 0.0;
  return out;
}

}  // namespace perfbench
