// eco_session: a fresh xsfq_served (--threads=2, disk cache in a temp dir)
// serving 2 concurrent interactive sessions that edit c6288 and c5315 at
// --partition-grain=24, each over one persistent connection, chaining
// synth_delta requests with the protocol's default supersede.  Every edit
// flips 1, 8 or 64 gates (70/25/5%) and reaches a circuit state never
// served before.  It exercises the aig edit replay, the region cache,
// the retained-network tier, a full re-map and one disk write per patched
// result; parsing and full optimize do no work here.
//
// A session is a run of episodes: 32 chained edits from the original
// design, then a fresh chain.  Between edits a session's user thinks for
// 100 ms.  The pause keeps the regions stored over set-up and a window of up
// to ~45 s below the region cache's 4096 entries.  Once that cache is full,
// its arbitrary-victim eviction lowers the region hit ratio over tens of
// seconds (from ~70% to ~10% after 40 s of back-to-back edits on a 4-vCPU
// Xeon VM).  So without the pause, a window's figures would depend on how
// far it ran into that drift rather than on the code.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "aig/edit.hpp"
#include "benchgen/registry.hpp"
#include "flow/batch_runner.hpp"
#include "flow/disk_cache.hpp"
#include "flow/result_io.hpp"
#include "served.hpp"

namespace perfbench {

namespace xs = xsfq::serve;

namespace {

constexpr const char* session_circuits[] = {"c6288", "c5315"};
constexpr unsigned grain = 24;
constexpr std::size_t episode_edits = 32;
constexpr std::size_t warmup_edits = 8;  // per session, no think time
constexpr auto think_time = std::chrono::milliseconds(100);
constexpr std::uint64_t region_cache_entries = 4096;  // the daemon's capacity
constexpr std::size_t force_full_samples = 4;  // per session
constexpr std::size_t replay_sample = 32;
constexpr std::uint64_t trace_hi = 0xec05'0000'0000'0001ull;

/// One interactive session: the base request, the local mirror of the
/// circuit the daemon holds, and the edit log that reached it.
struct session {
  std::string circuit;
  std::string socket;
  xs::synth_request base;
  xsfq::aig base_network;
  std::uint64_t base_hash = 0;
  xsfq::aig mirror;  ///< the state the daemon confirmed last
  std::uint64_t hash = 0;
  std::vector<xsfq::aig::node_index> gates;
  std::unordered_set<std::uint64_t> seen;
  /// Edit scripts of every episode, in order; the mirror is the base with
  /// the last episode's scripts applied.
  std::vector<std::vector<std::string>> episodes;
  rng64 rng{0};
  std::vector<std::size_t> sizes;  ///< edit sizes left in the current cycle
  std::optional<connection> conn;

  void start_episode() {
    mirror = base_network;
    hash = base_hash;
    episodes.emplace_back();
  }

  /// Edit sizes come in seeded shuffles of a 20-edit cycle holding the
  /// 70/25/5% mix exactly (14 of 1 gate, 5 of 8, 1 of 64), so every window
  /// has the same mix and the tail rank falls among the 64-gate edits.
  std::size_t next_edit_size() {
    if (sizes.empty()) {
      sizes.assign(14, 1);
      sizes.insert(sizes.end(), 5, 8);
      sizes.push_back(64);
      seeded_shuffle(sizes.begin(), sizes.end(), rng);
    }
    const std::size_t size = sizes.back();
    sizes.pop_back();
    return size;
  }

  /// The base with the first `count` edits of `episode` applied.
  xsfq::aig state(std::size_t episode, std::size_t count) const {
    xsfq::aig g = base_network;
    std::string script;
    for (std::size_t e = 0; e < count; ++e) script += episodes[episode][e];
    xsfq::eco::apply_edit_text(g, script);
    return g;
  }

  /// The edit script of one op: `size` fanin-polarity flips on distinct
  /// seeded gates, redrawn until the result is a never-served state.
  std::string draw_edit(std::size_t size, xsfq::aig& next) {
    for (;;) {
      std::unordered_set<xsfq::aig::node_index> picked;
      std::string script;
      while (picked.size() < size) {
        const xsfq::aig::node_index n = gates[rng.below(gates.size())];
        if (!picked.insert(n).second) continue;
        script += flip_line(mirror, n, rng.below(2) == 0);
      }
      next = mirror;
      xsfq::eco::apply_edit_text(next, script);
      if (!seen.contains(next.content_hash())) return script;
    }
  }
};

struct op_record {
  std::uint64_t id = 0;
  int session = 0;
  std::size_t episode = 0;
  std::size_t edit_index = 0;  ///< position within the episode
  std::size_t edit_size = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  double cuts = 0, replacements = 0;  ///< live optimize-stage counters
  std::uint64_t body = 0;             ///< response identity
  std::uint64_t hash = 0;             ///< circuit state reached
  std::vector<std::uint8_t> request;  ///< kept for replayed ops only
  xs::synth_response response;
};

struct shared_state : failure_log {
  std::mutex mutex;  // guards everything in this struct
  std::vector<op_record> ops;
  std::vector<double> latency_ms;
  steady::time_point last_end;
};

/// Runs one session's closed loop: at most `max_ops` edits before the
/// deadline, with `think` between one reply and the next edit.
void session_loop(session& s, int index, shared_state& st, span_store& spans,
                  std::atomic<std::uint64_t>& next_op, bool traced,
                  bool record, steady::time_point deadline,
                  std::size_t max_ops, steady::duration think) {
  for (std::size_t done = 0; done < max_ops && steady::now() < deadline;
       ++done) {
    if (done > 0 && think.count() > 0) {
      std::this_thread::sleep_for(think);
      if (steady::now() >= deadline) break;
    }
    if (s.episodes.back().size() >= episode_edits) s.start_episode();
    const std::uint64_t op = ++next_op;
    const std::size_t size = s.next_edit_size();
    xsfq::aig next;
    const std::string script = s.draw_edit(size, next);

    const std::uint64_t expect = next.content_hash();

    xs::synth_delta_request req;
    req.base = s.base;
    if (traced) {
      req.base.trace_hi = trace_hi;
      req.base.trace_lo = op;
    }
    req.base_content_hash = s.hash;
    req.edit_text = script;
    std::vector<std::uint8_t> payload = xs::encode_synth_delta_request(req);

    op_record rec;
    rec.id = op;
    rec.session = index;
    rec.edit_size = size;
    rec.request_bytes = payload.size() + 6;
    const std::int64_t start_us = now_us();
    const auto t0 = steady::now();
    reply rep;
    std::vector<xs::trace_span> daemon_spans;
    try {
      const xs::frame f = s.conn->roundtrip(xs::msg_type::synth_delta, payload);
      const auto t1 = steady::now();
      const std::int64_t end_us = now_us();
      rep = decode_reply(f);
      if (traced) daemon_spans = s.conn->trace(trace_hi, op).spans;
      std::lock_guard<std::mutex> lock(st.mutex);
      if (record) {
        st.latency_ms.push_back(ms_between(t0, t1));
        st.last_end = std::max(st.last_end, t1);
      }
      if (traced) {
        add_traced_op(spans, op, static_cast<std::uint32_t>(index), start_us,
                      end_us, 0, daemon_spans);
      }
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
    rec.response_bytes = rep.response_bytes;
    if (rep.ok && rep.response.content_hash != expect) {
      rep.ok = false;
      rep.error = "content_hash differs from the local replay";
    }
    if (!rep.ok) {
      std::lock_guard<std::mutex> lock(st.mutex);
      st.fail(s.circuit + " edit: " + rep.error);
      if (record) st.ops.push_back(std::move(rec));
      // Start over on a fresh connection; the mirror stays at the last
      // state the daemon confirmed.
      s.conn.emplace(s.socket);
      continue;
    }
    s.mirror = std::move(next);
    s.hash = expect;
    s.seen.insert(expect);
    s.episodes.back().push_back(script);
    rec.episode = s.episodes.size() - 1;
    rec.edit_index = s.episodes.back().size() - 1;
    rec.body = body_hash(rep.response);
    rec.hash = expect;
    for (const auto& t : rep.response.timings) {
      if (t.stage == "optimize") {
        rec.cuts = static_cast<double>(t.counters.cuts);
        rec.replacements = static_cast<double>(t.counters.replacements);
      }
    }
    if (!record) continue;
    std::lock_guard<std::mutex> lock(st.mutex);
    if (traced) {
      rec.request = std::move(payload);
      rec.response = rep.response;
    }
    st.ops.push_back(std::move(rec));
  }
}

}  // namespace

run_result run_eco_session(const config& cfg) {
  namespace fs = std::filesystem;
  run_result out;
  const std::string dir = cfg.work_dir + "/eco_session";
  std::optional<daemon_process> daemon;
  std::array<std::unique_ptr<session>, 2> sessions;
  span_store spans;
  std::atomic<std::uint64_t> next_op{0};
  report_totals totals;  // of the two base designs

  const auto run_sessions = [&](shared_state& st, double seconds, bool traced,
                                bool record, std::size_t max_ops,
                                steady::duration think) {
    const auto deadline =
        steady::now() + std::chrono::duration_cast<steady::duration>(
                            std::chrono::duration<double>(seconds));
    st.last_end = steady::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([&, i] {
        try {
          session_loop(*sessions[i], i, st, spans, next_op, traced, record,
                       deadline, max_ops, think);
        } catch (const std::exception& e) {  // e.g. the daemon went away
          std::lock_guard<std::mutex> lock(st.mutex);
          st.fail(std::string("session: ") + e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  for (int rep = 0; rep < setup_repeats; ++rep) {
    const auto t0 = steady::now();
    for (auto& s : sessions) s.reset();
    daemon.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    daemon.emplace(cfg, dir, daemon_flags(dir));
    totals = {};
    for (int i = 0; i < 2; ++i) {
      sessions[i] = std::make_unique<session>();
      session& s = *sessions[i];
      s.circuit = session_circuits[i];
      s.rng = rng64(cfg.seed * 2 + static_cast<std::uint64_t>(i));
      s.base.spec = s.circuit;
      s.base.partition_grain = grain;
      s.base_network = xsfq::benchgen::make_benchmark(s.circuit);
      s.base_hash = s.base_network.content_hash();
      s.seen.insert(s.base_hash);
      s.start_episode();
      for (xsfq::aig::node_index n = 0; n < s.mirror.size(); ++n) {
        if (s.mirror.is_gate(n) &&
            s.mirror.fanin0(n).index() != s.mirror.fanin1(n).index()) {
          s.gates.push_back(n);
        }
      }
      s.socket = daemon->socket_path();
      s.conn.emplace(s.socket);
      const reply r = decode_reply(s.conn->roundtrip(
          xs::msg_type::submit, xs::encode_synth_request(s.base)));
      if (!r.ok || r.response.content_hash != s.hash) {
        throw std::runtime_error("base submit of " + s.circuit + " failed: " +
                                 r.error);
      }
      totals.add(r.response.report);
    }
    // Warm-up: a few edits of the mix per session, back to back; then both
    // sessions start their first episode.
    shared_state warm;
    run_sessions(warm, 60.0, false, false, warmup_edits, {});
    if (warm.failed) {
      throw std::runtime_error("warm-up failed: " + warm.failures.front());
    }
    for (auto& s : sessions) s->start_episode();
    out.setup_s.push_back(ms_between(t0, steady::now()) / 1000.0);
  }
  out.xsfq_jj_total = totals.jj;

  connection stats_conn(daemon->socket_path());
  const int pid = daemon->pid();
  if (cfg.trace) {
    shared_state ref;
    const auto t0 = steady::now();
    run_sessions(ref, cfg.seconds / 2, false, true, SIZE_MAX, think_time);
    out.untraced_p50_ms = summarize(ref.latency_ms).p50;
    out.untraced_throughput = static_cast<double>(ref.latency_ms.size()) /
                              (ms_between(t0, ref.last_end) / 1000.0);
  }
  shared_state st;
  const auto before = stats_conn.server_stats();
  const double cpu0 = proc_cpu_ms(pid);
  const auto t0 = steady::now();
  run_sessions(st, cfg.trace ? cfg.seconds / 2 : cfg.seconds, cfg.trace, true,
               SIZE_MAX, think_time);
  out.window_s = ms_between(t0, st.last_end) / 1000.0;
  out.cpu_ms = proc_cpu_ms(pid) - cpu0;
  const auto after = stats_conn.server_stats();
  out.stat_deltas = stat_deltas(before, after);
  out.peak_rss_mb = proc_peak_rss_mb(pid);
  // Every region miss stores one region.  Past the cache's capacity the
  // figures include the eviction drift the think time is there to avoid.
  if (after.cache.region_misses > region_cache_entries) {
    out.notes.push_back(
        "the region cache filled (" +
        std::to_string(after.cache.region_misses) +
        " regions stored): this window is too long for the think time, and "
        "its figures include eviction drift");
  }

  out.latency_ms = std::move(st.latency_ms);
  out.attempted = st.ops.size();
  out.failed = st.failed;
  out.failures = std::move(st.failures);

  // Correctness: every response's content_hash already matched the local
  // replay.  A seeded sample of edits per session is re-run with force_full
  // from the session's original base (its episode up to that edit as one
  // script) and must match byte for byte.
  rng64 pick(cfg.seed ^ 0xEC0ull);
  std::size_t checked = 0;
  for (int i = 0; i < 2; ++i) {
    std::vector<const op_record*> mine;
    for (const op_record& r : st.ops) {
      if (r.session == i && r.body != 0) mine.push_back(&r);
    }
    for (std::size_t k = 0; k < force_full_samples && !mine.empty(); ++k) {
      const op_record& r = *mine[pick.below(mine.size())];
      const session& s = *sessions[i];
      xs::synth_delta_request req;
      req.base = s.base;
      req.base_content_hash = s.base_hash;
      for (std::size_t e = 0; e <= r.edit_index; ++e) {
        req.edit_text += s.episodes[r.episode][e];
      }
      req.supersede_base = false;
      req.force_full = true;
      const reply full = decode_reply(stats_conn.roundtrip(
          xs::msg_type::synth_delta, xs::encode_synth_delta_request(req)));
      ++checked;
      if (!full.ok || full.response.content_hash != r.hash ||
          body_hash(full.response) != r.body) {
        out.fail(s.circuit + " edit " + std::to_string(r.edit_index) +
                 ": force_full differs from the incremental result");
      }
    }
  }
  out.notes.push_back("force_full re-ran " + std::to_string(checked) +
                      " sampled edits against their incremental results");
  for (auto& s : sessions) s->conn.reset();
  daemon.reset();

  const double n = static_cast<double>(st.ops.size());
  const auto& d = out.stat_deltas;
  double sizes[3] = {0, 0, 0};
  double first_session = 0;
  for (const op_record& r : st.ops) {
    sizes[r.edit_size == 1 ? 0 : r.edit_size == 8 ? 1 : 2] += 1;
    first_session += r.session == 0;
  }
  const auto share = [](double v, double of) { return of > 0 ? v / of : 0.0; };
  const double eco = delta_of(d, "eco_requests");
  out.composition = {
      {"edit 1 gate", share(sizes[0], n)},
      {"edit 8 gates", share(sizes[1], n)},
      {"edit 64 gates", share(sizes[2], n)},
      {"session c6288", share(first_session, n)},
      {"session c5315", share(n - first_session, n)},
      {"retained base", share(delta_of(d, "eco_retained_hits"), eco)},
      {"memory hit", share(delta_of(d, "full_hits"),
                           delta_of(d, "full_hits") +
                               delta_of(d, "full_misses"))},
      {"persistent client", 1.0},
      {"verilog requested", 0.0},
  };

  if (!cfg.trace) return out;

  // Replay a seeded sample of the traced ops through the layer calls: the
  // edit replay and hash, the codec, result serialization and the disk tier.
  std::vector<std::size_t> idx(st.ops.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  seeded_shuffle(idx.begin(), idx.end(), pick);
  std::erase_if(idx, [&](std::size_t i) { return st.ops[i].body == 0; });
  if (idx.size() > replay_sample) idx.resize(replay_sample);
  const std::string replay_dir = dir + "/replay";
  double result_bytes = 0;
  {
    xsfq::flow::disk_result_cache disk(replay_dir);
    xsfq::flow::batch_runner runner(1);
    for (const std::size_t i : idx) {
      const op_record& r = st.ops[i];
      const session& s = *sessions[r.session];
      // Untimed: rebuild the state before this edit, and the result after.
      const std::string& edit = s.episodes[r.episode][r.edit_index];
      xsfq::aig state = s.state(r.episode, r.edit_index);
      xsfq::aig edited = state;
      xsfq::eco::apply_edit_text(edited, edit);
      xsfq::flow::flow_options options;
      options.opt.partition_grain = grain;
      const xsfq::flow::flow_result result =
          runner.run_uncached(edited, s.circuit, options);

      const int root =
          spans.add({"replay", now_us(), 0, -1, r.id, origin::replay, 0});
      {
        scoped sp(spans, "aig.apply_edit_text", root, r.id);
        xsfq::eco::apply_edit_text(state, edit);
      }
      {
        scoped sp(spans, "aig.content_hash", root, r.id);
        (void)state.content_hash();
      }
      const int codec = spans.add(
          {"serve.codec", now_us(), 0, root, r.id, origin::replay, 0});
      {
        xs::synth_delta_request req;
        {
          scoped sp(spans, "serve.decode_synth_delta_request", codec, r.id);
          req = xs::decode_synth_delta_request(r.request);
        }
        scoped sp(spans, "serve.encode_synth_delta_request", codec, r.id);
        (void)xs::encode_synth_delta_request(req);
      }
      std::vector<std::uint8_t> bytes;
      {
        scoped sp(spans, "serve.encode_synth_response", codec, r.id);
        bytes = xs::encode_synth_response(r.response);
      }
      {
        scoped sp(spans, "serve.decode_synth_response", codec, r.id);
        (void)xs::decode_synth_response(bytes);
      }
      spans.finish(codec);
      {
        xsfq::byte_writer bw;
        {
          scoped sp(spans, "flow.write_flow_result", root, r.id);
          xsfq::flow::write_flow_result(bw, result);
        }
        result_bytes += static_cast<double>(bw.data().size());
        xsfq::byte_reader br(bw.data());
        scoped sp(spans, "flow.read_flow_result", root, r.id);
        (void)xsfq::flow::read_flow_result(br);
      }
      {
        scoped sp(spans, "flow.disk_result_cache.store", root, r.id);
        disk.store(edited.content_hash(), r.id, result);
      }
      {
        scoped sp(spans, "flow.disk_result_cache.load", root, r.id);
        (void)disk.load(edited.content_hash(), r.id);
      }
      spans.finish(root);
    }
  }
  fs::remove_all(replay_dir);
  out.spans = spans.take();
  out.traced_ops = st.ops.size();

  served_layer_metrics(out, self_time_us(out.spans, false),
                       total_time_us(out.spans, false), n, out.stat_deltas);
  const double m = static_cast<double>(idx.size());
  const auto self = self_time_us(out.spans, true);
  const auto sum_us = [&](std::initializer_list<const char*> names) {
    return sum_of(self, names);
  };
  double req_bytes = 0, resp_bytes = 0, cuts = 0, replacements = 0;
  for (const op_record& r : st.ops) {
    req_bytes += static_cast<double>(r.request_bytes);
    resp_bytes += static_cast<double>(r.response_bytes);
    cuts += r.cuts;
    replacements += r.replacements;
  }
  auto& L = out.layer;
  L["aig.edit_apply_us"] = sum_us({"aig.apply_edit_text"}) / m;
  L["aig.content_hash_us"] = sum_us({"aig.content_hash"}) / m;
  L["serve.codec_us"] =
      sum_us({"serve.decode_synth_delta_request",
              "serve.encode_synth_delta_request",
              "serve.encode_synth_response", "serve.decode_synth_response"}) /
      m;
  L["flow.result_bytes"] = result_bytes / m;
  L["serve.request_bytes"] = req_bytes / n;
  L["serve.response_bytes"] = resp_bytes / n;
  L["opt.cuts_enumerated"] = cuts / n;
  L["opt.replacements"] = replacements / n;
  L["opt.nodes_out_total"] = totals.nodes;
  L["core.la_fa_total"] = totals.la_fa;
  L["core.splitters_total"] = totals.splitters;
  L["baseline.rsfq_jj_total"] = totals.rsfq_jj;
  return out;
}

}  // namespace perfbench
