#include "opt/partition.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <vector>

#include "aig/simulate.hpp"
#include "opt/opt_engine.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace xsfq {
namespace {

/// Below this many gates per region, extra regions cost more (boundary
/// freezing, merge overhead) than they parallelize; the clamp keeps tiny
/// circuits on the sequential path deterministically.
constexpr std::size_t min_gates_per_region = 64;

struct region {
  aig sub;                               ///< extracted subnetwork
  std::vector<aig::node_index> inputs;   ///< parent nodes feeding sub-PIs
  std::vector<aig::node_index> outputs;  ///< exported parent gates (= sub-POs)
  aig optimized;
  optimize_stats stats;
  std::shared_ptr<const region_cache::entry> cached;  ///< hit, when non-null
  std::uint64_t cache_key = 0;
  std::exception_ptr error;
};

/// Digest of the parameters a region is optimized under — the second half of
/// the region-cache key.  Deliberately excludes anything that cannot change
/// the optimized region's bytes (grain, flow_jobs, executor): identical
/// extracted subnetworks share entries across partition shapes.
std::uint64_t sub_params_digest(const optimize_params& params) {
  std::uint64_t h = 0x5E617C0DE5ull;
  h = hash_mix(h, params.max_rounds);
  h = hash_mix(h, params.zero_gain_final);
  h = hash_mix(h, params.refactor_cut_size);
  h = hash_mix(h, params.validate_passes);
  h = hash_mix(h, params.validate_passes ? params.validate_rounds : 0);
  return h;
}

}  // namespace

std::shared_ptr<const region_cache::entry> region_cache::lookup(
    std::uint64_t key) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void region_cache::store(std::uint64_t key, aig optimized,
                         const optimize_stats& stats) {
  auto e = std::make_shared<entry>();
  e->optimized = std::move(optimized);
  e->stats = stats;
  std::lock_guard lock(mutex_);
  if (entries_.size() >= max_entries_ && !entries_.contains(key)) {
    entries_.erase(entries_.begin());  // arbitrary victim: time, never bytes
  }
  entries_[key] = std::move(e);
}

region_cache::counters region_cache::counts() const {
  std::lock_guard lock(mutex_);
  return {hits_, misses_};
}

std::size_t region_cache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void region_cache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
}

unsigned effective_partition_count(std::size_t num_gates, unsigned flow_jobs) {
  const unsigned regions_wanted = std::max(1u, flow_jobs);
  const auto by_size = static_cast<unsigned>(
      std::max<std::size_t>(1, num_gates / min_gates_per_region));
  return std::min(regions_wanted, by_size);
}

aig optimize_partitioned(const aig& network, const optimize_params& params,
                         optimize_stats* stats, partition_info* info) {
  validate_optimize_params(params);
  const std::size_t num_gates = network.num_gates();
  const std::size_t grain = params.partition_grain;
  const unsigned P =
      grain > 0 ? static_cast<unsigned>(std::max<std::size_t>(
                      1, num_gates / std::max<std::size_t>(1, grain)))
                : effective_partition_count(num_gates, params.flow_jobs);
  if (P <= 1) {
    if (info) *info = {1, 0, 0, 0};
    const opt_engine::lease engine;
    return engine->optimize(network, params, stats);
  }

  // ----- plan: contiguous topological regions over the gate array ----------
  // chunk[n] = region of gate n (-1 for CIs/constant).  Contiguity over the
  // topologically sorted node array guarantees a region's fanins resolve to
  // combinational inputs or strictly earlier regions.  Grain mode assigns
  // fixed-size regions by gate ordinal — a pure function of the network, so
  // edited and freshly submitted copies of the same circuit partition
  // identically — while the legacy mode deals P proportional shares.
  // Each region's gates occupy one contiguous node-index window
  // [begin_k, end_k); the extraction loops below walk windows, not the whole
  // array, so planning + extraction stay O(n) regardless of P.
  std::vector<std::int32_t> chunk(network.size(), -1);
  std::vector<aig::node_index> window_begin(P, 0);
  std::vector<aig::node_index> window_end(P, 0);
  std::vector<std::size_t> region_gates(P, 0);
  {
    std::size_t ordinal = 0;
    network.foreach_gate([&](aig::node_index n) {
      const auto k = static_cast<unsigned>(
          grain > 0 ? std::min<std::size_t>(P - 1, ordinal / grain)
                    : std::min<std::size_t>(P - 1, ordinal * P / num_gates));
      chunk[n] = static_cast<std::int32_t>(k);
      if (region_gates[k]++ == 0) window_begin[k] = n;
      window_end[k] = n + 1;
      ++ordinal;
    });
  }

  // A gate is exported when a different region or a combinational output
  // consumes it; exported gates become sub-POs their region must preserve.
  std::vector<std::uint8_t> exported(network.size(), 0);
  network.foreach_gate([&](aig::node_index n) {
    for (const signal f : {network.fanin0(n), network.fanin1(n)}) {
      const aig::node_index m = f.index();
      if (chunk[m] >= 0 && chunk[m] != chunk[n]) exported[m] = 1;
    }
  });
  network.foreach_co([&](signal s, std::size_t) {
    if (network.is_gate(s.index())) exported[s.index()] = 1;
  });

  // ----- extract one subnetwork per region ----------------------------------
  // The expensive part of extraction is building the sub-AIG (structural
  // hashing per gate).  Its construction is a pure function of the region's
  // normalized window encoding — inputs numbered in first-encounter order,
  // gates by window ordinal — so the region-cache key is computed by hashing
  // that encoding directly, and the sub-AIG itself is only materialized on a
  // cache miss.  On the ECO hot path every clean region skips construction
  // entirely; identical windows produce identical keys by construction.
  optimize_params sub_params = params;
  sub_params.flow_jobs = 1;
  sub_params.partition_grain = 0;
  sub_params.regions = nullptr;
  sub_params.executor = nullptr;
  const std::uint64_t digest = sub_params_digest(sub_params);
  std::size_t cache_hits = 0;

  std::vector<region> regions(P);
  std::vector<signal> sub_map(network.size());
  std::vector<std::uint32_t> local(network.size(), 0);
  std::vector<std::int32_t> seen(network.size(), -1);
  for (unsigned k = 0; k < P; ++k) {
    region& r = regions[k];
    const auto self = static_cast<std::int32_t>(k);
    for (aig::node_index n = window_begin[k]; n < window_end[k]; ++n) {
      if (!network.is_gate(n)) continue;
      for (const signal f : {network.fanin0(n), network.fanin1(n)}) {
        const aig::node_index m = f.index();
        if (m != 0 && chunk[m] != self && seen[m] != self) {
          seen[m] = self;
          r.inputs.push_back(m);
        }
      }
    }
    // Normalized window encoding: const0 = 0, inputs 1..I in discovery
    // order, window gates I+1.. by ordinal.  The fanin id/complement
    // sequence plus the exported-gate list fully determine the sub-AIG the
    // builder below would construct.
    for (std::size_t i = 0; i < r.inputs.size(); ++i) {
      local[r.inputs[i]] = static_cast<std::uint32_t>(i + 1);
    }
    const auto encode = [&](signal f) {
      const std::uint32_t id = f.index() == 0 ? 0 : local[f.index()];
      return (static_cast<std::uint64_t>(id) << 1) |
             (f.is_complemented() ? 1u : 0u);
    };
    std::uint64_t key = hash_mix(digest, r.inputs.size());
    std::uint32_t next_local = static_cast<std::uint32_t>(r.inputs.size());
    for (aig::node_index n = window_begin[k]; n < window_end[k]; ++n) {
      if (!network.is_gate(n)) continue;
      local[n] = ++next_local;
      key = hash_mix(key, encode(network.fanin0(n)));
      key = hash_mix(key, encode(network.fanin1(n)));
    }
    key = hash_mix(key, 0xEC0Full);  // gates | exports separator
    for (aig::node_index n = window_begin[k]; n < window_end[k]; ++n) {
      if (!network.is_gate(n) || !exported[n]) continue;
      r.outputs.push_back(n);
      key = hash_mix(key, local[n]);
    }
    r.cache_key = key;
    if (params.regions) {
      r.cached = params.regions->lookup(r.cache_key);
      if (r.cached) {
        ++cache_hits;
        continue;  // merge replays the cached result; no sub-AIG needed
      }
    }
    r.sub.reserve(r.inputs.size() + region_gates[k]);
    for (const aig::node_index m : r.inputs) {
      sub_map[m] = r.sub.create_pi();
    }
    for (aig::node_index n = window_begin[k]; n < window_end[k]; ++n) {
      if (!network.is_gate(n)) continue;
      const auto resolve = [&](signal f) {
        return (f.index() == 0 ? r.sub.get_constant(false)
                               : sub_map[f.index()]) ^
               f.is_complemented();
      };
      sub_map[n] =
          r.sub.create_and(resolve(network.fanin0(n)), resolve(network.fanin1(n)));
    }
    for (const aig::node_index n : r.outputs) {
      r.sub.create_po(sub_map[n]);
    }
  }

  // ----- optimize every region (inline or on the caller's executor) --------
  // Region optimization is a pure function of (extracted sub, sub_params),
  // so cached regions replay the stored result — identical bytes, identical
  // work counters — and only cache misses spend optimizer time.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(P);
  // Region re-opt spans attribute to the requesting trace even when the
  // executor scatters the tasks across pool threads: capture the context
  // here (this code runs on the request's thread) and reinstall per task.
  const trace::trace_id trace_ctx = trace::current();
  for (unsigned k = 0; k < P; ++k) {
    region* r = &regions[k];
    if (r->cached) continue;
    region_cache* cache = params.regions;
    tasks.push_back([r, cache, sub_params, trace_ctx] {
      trace::context_scope tscope(trace_ctx);
      const std::uint64_t start_us = trace::now_us();
      try {
        r->optimized = optimize(r->sub, sub_params, &r->stats);
        if (cache) cache->store(r->cache_key, r->optimized, r->stats);
      } catch (...) {
        r->error = std::current_exception();
      }
      trace::record("region_reopt", start_us, trace::now_us() - start_us);
    });
  }
  if (params.executor && !tasks.empty()) {
    params.executor(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }
  for (const region& r : regions) {
    if (r.error) std::rethrow_exception(r.error);
  }

  // ----- deterministic merge, region order, global strash -------------------
  aig merged;
  merged.reserve(network.size());
  std::vector<signal> merged_map(network.size(), merged.get_constant(false));
  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    merged_map[network.pi(i).index()] = merged.create_pi(network.pi_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    merged_map[network.register_at(i).output_node] =
        merged.create_register_output(network.register_at(i).init,
                                      network.register_name(i));
  }
  std::vector<signal> replay;
  for (unsigned k = 0; k < P; ++k) {
    const region& r = regions[k];
    const aig& opt = r.cached ? r.cached->optimized : r.optimized;
    replay.assign(opt.size(), merged.get_constant(false));
    for (std::size_t i = 0; i < opt.num_pis(); ++i) {
      replay[opt.pi(i).index()] = merged_map[r.inputs[i]];
    }
    opt.foreach_gate([&](aig::node_index n) {
      const signal f0 = opt.fanin0(n);
      const signal f1 = opt.fanin1(n);
      replay[n] = merged.create_and(replay[f0.index()] ^ f0.is_complemented(),
                                    replay[f1.index()] ^ f1.is_complemented());
    });
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
      const signal po = opt.po_signal(i);
      merged_map[r.outputs[i]] = replay[po.index()] ^ po.is_complemented();
    }
  }
  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    const signal po = network.po_signal(i);
    merged.create_po(merged_map[po.index()] ^ po.is_complemented(),
                     network.po_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    if (reg.input_set) {
      merged.set_register_input(i, merged_map[reg.input.index()] ^
                                       reg.input.is_complemented());
    }
  }
  // mark_reachable's zero return certifies that compaction would reproduce
  // `merged` verbatim, so the fully-live case (the common one on the ECO hot
  // path) skips the rebuild copy entirely.
  static thread_local aig::compaction_scratch compaction;
  aig result;
  if (merged.mark_reachable(compaction) == 0) {
    result = std::move(merged);
  } else {
    merged.compact_into(result, compaction);
  }

  if (params.validate_passes &&
      !random_equivalent(network, result, params.validate_rounds,
                         /*seed=*/0xA11Cu + P)) {
    throw std::runtime_error(
        "optimize: partition merge broke simulation equivalence");
  }

  if (stats) {
    optimize_stats total;
    total.initial_gates = network.num_gates();
    total.initial_depth = network.depth();
    total.final_gates = result.num_gates();
    total.final_depth = result.depth();
    for (const region& r : regions) {
      const optimize_stats& rs = r.cached ? r.cached->stats : r.stats;
      total.rounds = std::max(total.rounds, rs.rounds);
      opt_counters& w = total.work;
      const opt_counters& rw = rs.work;
      w.passes += rw.passes;
      w.cuts_enumerated += rw.cuts_enumerated;
      w.cut_candidates += rw.cut_candidates;
      w.mffc_queries += rw.mffc_queries;
      w.replacements += rw.replacements;
      w.resynth_cache_hits += rw.resynth_cache_hits;
      w.equiv_checks += rw.equiv_checks;
      w.sim_words += rw.sim_words;
      w.sim_node_evals += rw.sim_node_evals;
      w.rebuilds_avoided += rw.rebuilds_avoided;
      w.cut_arena_bytes = std::max(w.cut_arena_bytes, rw.cut_arena_bytes);
      w.net_arena_bytes = std::max(w.net_arena_bytes, rw.net_arena_bytes);
    }
    *stats = total;
  }
  if (info) {
    std::size_t boundary = 0;
    for (const region& r : regions) boundary += r.outputs.size();
    *info = {P, boundary, cache_hits, P - cache_hits};
  }
  return result;
}

}  // namespace xsfq
