#include "opt/opt_engine.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>

#include "opt/rewrite_library.hpp"
#include "util/factor.hpp"
#include "util/hash.hpp"
#include "util/isop.hpp"

namespace xsfq {
namespace {

/// Replicates a table over k <= 4 variables to the full 16-row domain.
std::uint16_t to_uint16(const truth_table& t) {
  const std::uint64_t word = t.word0();
  switch (t.num_vars()) {
    case 0: return (word & 1u) ? 0xFFFF : 0x0000;
    case 1: {
      const auto b = static_cast<std::uint16_t>(word & 0x3u);
      return static_cast<std::uint16_t>(b * 0x5555u);
    }
    case 2: {
      const auto b = static_cast<std::uint16_t>(word & 0xFu);
      return static_cast<std::uint16_t>(b * 0x1111u);
    }
    case 3: {
      const auto b = static_cast<std::uint16_t>(word & 0xFFu);
      return static_cast<std::uint16_t>(b * 0x0101u);
    }
    default: return static_cast<std::uint16_t>(word & 0xFFFFu);
  }
}

// ----- tree-free factoring emission ----------------------------------------
// The refactor provider used to build a factor_expr tree (one heap node per
// literal/operator) and feed it to emit_factor; allocation dominated the cold
// cost of first-seen cut functions.  The emitters below walk the same
// quick-factor recursion but append structure steps directly, reproducing
// emit_factor(*factor_cover(cover)) byte for byte (pinned by
// tests/test_isop_factor.cpp and the golden optimize fingerprints).

/// Balanced binary reduction over emitted literals — the exact reduction of
/// emit_factor's and_op/or_op case (for OR, callers pass pre-complemented
/// literals and complement the result).
std::uint32_t reduce_emitted(std::vector<std::uint32_t>& lits, bool is_or,
                             aig_structure& s) {
  while (lits.size() > 1) {
    std::size_t out = 0;
    std::size_t i = 0;
    for (; i + 1 < lits.size(); i += 2) {
      s.steps.push_back({lits[i], lits[i + 1]});
      lits[out++] =
          static_cast<std::uint32_t>(s.num_leaves + s.steps.size() - 1) << 1;
    }
    if (i < lits.size()) lits[out++] = lits[i];
    lits.resize(out);
  }
  return is_or ? (lits.front() ^ 1u) : lits.front();
}

/// Tree-free factoring with all recursion scratch recycled: one frame of
/// vectors per recursion depth (stable addresses, reused across calls), so a
/// first-seen cut function costs arithmetic, not allocator traffic.
class factor_emitter {
public:
  /// Structure steps + output literal for factor_function(function); exactly
  /// what emit_factor(*factor_function(function), s) used to produce.
  std::uint32_t emit(const truth_table& function, aig_structure& s) {
    if (function.is_const0()) return aig_structure::const0_lit;
    if (function.is_const1()) return aig_structure::const1_lit;
    if (function.is_small()) {
      isop_word_into(function.word0(), function.num_vars(), cover_);
    } else {
      isop_into(function, truth_table::zeros(function.num_vars()), cover_);
    }
    return emit_cover(cover_, s, 0);
  }

private:
  struct frame {
    std::vector<cube> quotient;
    std::vector<cube> remainder;
    std::vector<std::uint32_t> lits;     ///< per-cube AND reduction
    std::vector<std::uint32_t> or_lits;  ///< OR reduction of this level
  };

  frame& at(std::size_t depth) {
    while (frames_.size() <= depth) {
      frames_.push_back(std::make_unique<frame>());
    }
    return *frames_[depth];
  }

  /// emit_factor(make_cube_expr(c)): AND of the cube's literals in ascending
  /// variable order, positive before negative.
  std::uint32_t emit_cube(const cube& c, aig_structure& s,
                          std::vector<std::uint32_t>& lits) {
    lits.clear();
    for (std::uint32_t bits = c.pos | c.neg; bits != 0; bits &= bits - 1) {
      const auto v = static_cast<unsigned>(std::countr_zero(bits));
      if (c.pos & (1u << v)) lits.push_back(v << 1);
      if (c.neg & (1u << v)) lits.push_back((v << 1) | 1u);
    }
    if (lits.empty()) return aig_structure::const1_lit;
    if (lits.size() == 1) return lits.front();
    return reduce_emitted(lits, /*is_or=*/false, s);
  }

  /// emit_factor(*factor_cover(cover)) without the tree.  Deeper recursion
  /// levels use deeper frames, so `cover` (living in the caller's frame or
  /// cover_) is never invalidated.
  std::uint32_t emit_cover(std::vector<cube>& cover, aig_structure& s,
                           std::size_t depth) {
    frame& f = at(depth);
    if (cover.empty()) return aig_structure::const0_lit;
    if (cover.size() == 1) return emit_cube(cover.front(), s, f.lits);

    unsigned var = 0;
    bool complemented = false;
    const unsigned occurrences = most_common_literal(cover, var, complemented);
    if (occurrences < 2) {
      // Cube-free: OR of the cube expressions (De Morgan over complemented
      // literals, exactly emit_factor's or_op case).
      f.or_lits.clear();
      for (const cube& c : cover) {
        f.or_lits.push_back(emit_cube(c, s, f.lits) ^ 1u);
      }
      return reduce_emitted(f.or_lits, /*is_or=*/true, s);
    }

    const std::uint32_t mask = 1u << var;
    f.quotient.clear();
    f.remainder.clear();
    for (const cube& c : cover) {
      const bool has = complemented ? (c.neg & mask) : (c.pos & mask);
      if (has) {
        cube q = c;
        if (complemented) {
          q.neg &= ~mask;
        } else {
          q.pos &= ~mask;
        }
        f.quotient.push_back(q);
      } else {
        f.remainder.push_back(c);
      }
    }

    // literal & factor(quotient); a constant quotient emitted no steps, so
    // the collapsed forms match the tree version's special cases.
    const std::uint32_t literal = (var << 1) | (complemented ? 1u : 0u);
    const std::uint32_t q_lit = emit_cover(f.quotient, s, depth + 1);
    std::uint32_t product;
    if (q_lit == aig_structure::const1_lit) {
      product = literal;
    } else if (q_lit == aig_structure::const0_lit) {
      product = aig_structure::const0_lit;
    } else {
      s.steps.push_back({literal, q_lit});
      product =
          static_cast<std::uint32_t>(s.num_leaves + s.steps.size() - 1) << 1;
    }

    if (f.remainder.empty()) return product;
    const std::uint32_t r_lit = emit_cover(f.remainder, s, depth + 1);
    f.or_lits.clear();
    f.or_lits.push_back(product ^ 1u);
    f.or_lits.push_back(r_lit ^ 1u);
    return reduce_emitted(f.or_lits, /*is_or=*/true, s);
  }

  std::vector<std::unique_ptr<frame>> frames_;
  std::vector<cube> cover_;
};

/// Collects the leaves of the maximal AND tree rooted at `n`: traversal
/// descends through non-complemented fanins that are ANDs with a single
/// fanout (descending through shared nodes would duplicate logic).
void collect_conjuncts(const aig& network, aig::node_index n,
                       const std::vector<std::uint32_t>& fanout,
                       std::vector<signal>& leaves) {
  for (const signal f : {network.fanin0(n), network.fanin1(n)}) {
    if (!f.is_complemented() && network.is_gate(f.index()) &&
        fanout[f.index()] == 1) {
      collect_conjuncts(network, f.index(), fanout, leaves);
    } else {
      leaves.push_back(f);
    }
  }
}

/// Engines no lease holds right now, kept warm for the next one.  Never
/// destroyed: a thread-held lease may end during static destruction.
struct idle_engines {
  std::mutex mutex;
  std::vector<std::unique_ptr<opt_engine>> engines;
};

idle_engines& idle() {
  static idle_engines* pool = new idle_engines;
  return *pool;
}

}  // namespace

opt_engine::lease::lease() {
  idle_engines& pool = idle();
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    if (!pool.engines.empty()) {
      engine_ = std::move(pool.engines.back());
      pool.engines.pop_back();
    }
  }
  if (!engine_) engine_ = std::make_unique<opt_engine>();
}

opt_engine::lease::~lease() {
  idle_engines& pool = idle();
  std::lock_guard<std::mutex> lock(pool.mutex);
  pool.engines.push_back(std::move(engine_));
}

opt_engine& opt_engine::thread_local_engine() {
  static thread_local lease held;
  return *held;
}

const aig_structure* opt_engine::library_candidate(
    const truth_table& function) {
  const std::uint16_t key = to_uint16(function);
  if (library_state_.empty()) {
    library_state_.assign(65536, 0);
    library_slots_.resize(65536);
  }
  if (library_state_[key] == 0) {
    if (auto s = rewrite_library::instance().structure(key)) {
      library_slots_[key] = std::make_unique<aig_structure>(std::move(*s));
      library_state_[key] = 2;
    } else {
      library_state_[key] = 1;
    }
  } else {
    ++counters_.resynth_cache_hits;
  }
  return library_state_[key] == 2 ? library_slots_[key].get() : nullptr;
}

namespace {
aig_structure factor_structure_of(const truth_table& function) {
  static thread_local factor_emitter emitter;
  aig_structure s;
  s.num_leaves = function.num_vars();
  s.out_lit = emitter.emit(function, s);
  return s;
}
}  // namespace

const aig_structure* opt_engine::factoring_small(const truth_table& function) {
  // Linear-probed lookup on the packed (word, vars) key; grown at 70% load.
  if (factoring_table_.empty()) factoring_table_.resize(1024);
  const std::uint64_t word = function.word0();
  const auto vars = static_cast<std::uint8_t>(function.num_vars());
  const std::uint64_t hashed = hash_mix(0x9E3779B97F4A7C15ull ^ vars, word);
  std::size_t slot = hashed & (factoring_table_.size() - 1);
  while (factoring_table_[slot].occupied) {
    const factoring_entry& e = factoring_table_[slot];
    if (e.word == word && e.vars == vars) {
      ++counters_.resynth_cache_hits;
      return &e.structure;
    }
    slot = (slot + 1) & (factoring_table_.size() - 1);
  }
  if ((factoring_used_ + 1) * 10 > factoring_table_.size() * 7) {
    std::vector<factoring_entry> old = std::move(factoring_table_);
    factoring_table_.clear();
    factoring_table_.resize(old.size() * 2);
    for (factoring_entry& e : old) {
      if (!e.occupied) continue;
      std::size_t to = hash_mix(0x9E3779B97F4A7C15ull ^ e.vars, e.word) &
                       (factoring_table_.size() - 1);
      while (factoring_table_[to].occupied) {
        to = (to + 1) & (factoring_table_.size() - 1);
      }
      factoring_table_[to] = std::move(e);
    }
    slot = hashed & (factoring_table_.size() - 1);
    while (factoring_table_[slot].occupied) {
      slot = (slot + 1) & (factoring_table_.size() - 1);
    }
  }
  factoring_entry& e = factoring_table_[slot];
  e.word = word;
  e.vars = vars;
  e.occupied = true;
  e.structure = factor_structure_of(function);
  ++factoring_used_;
  return &e.structure;
}

const aig_structure* opt_engine::factoring_candidate(
    const truth_table& function) {
  if (function.is_small()) return factoring_small(function);
  auto it = factoring_cache_.find(function);
  if (it == factoring_cache_.end()) {
    it = factoring_cache_.emplace(function, factor_structure_of(function))
             .first;
  } else {
    ++counters_.resynth_cache_hits;
  }
  return it->second ? &*it->second : nullptr;
}

void opt_engine::note_net_arena() {
  const std::size_t bytes = net_buf_[0].memory_bytes() +
                            net_buf_[1].memory_bytes() +
                            net_buf_[2].memory_bytes();
  counters_.net_arena_bytes =
      std::max<std::uint64_t>(counters_.net_arena_bytes, bytes);
}

aig* opt_engine::finish_pass(aig* raw, aig* compacted) {
  note_net_arena();
  if (raw->mark_reachable(compact_) == 0) {
    // Nothing is dead: the raw destination already equals what a rebuild
    // would produce (same construction sequence), so it *is* the output.
    ++counters_.rebuilds_avoided;
    return raw;
  }
  raw->compact_into(*compacted, compact_);
  return compacted;
}

aig opt_engine::finalize_copy(aig& raw) {
  note_net_arena();
  if (raw.mark_reachable(compact_) == 0) {
    ++counters_.rebuilds_avoided;
    return raw;  // one copy leaves the arena
  }
  aig out;
  raw.compact_into(out, compact_);
  return out;
}

void opt_engine::rewrite_core_into(const aig& network, aig& dest,
                                   const provider_fn& provider,
                                   const cut_rewriting_params& params,
                                   cut_rewriting_stats* stats) {
  const cut_set& cuts = cuts_.enumerate(network, params.cuts);
  mffc_.attach(network);
  ++counters_.passes;
  counters_.cuts_enumerated += cuts.num_cuts();
  counters_.cut_candidates += cuts_.last_counters().candidates;
  counters_.cut_arena_bytes = std::max<std::uint64_t>(
      counters_.cut_arena_bytes, cuts.arena_bytes());

  dest.reset();
  dest.reserve(network.size());
  map_.assign(network.size(), dest.get_constant(false));
  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    map_[network.pi(i).index()] = dest.create_pi(network.pi_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    map_[network.register_at(i).output_node] = dest.create_register_output(
        network.register_at(i).init, network.register_name(i));
  }

  cut_rewriting_stats local_stats;
  network.foreach_gate([&](aig::node_index n) {
    // Default: copy the AND gate.
    const signal f0 = network.fanin0(n);
    const signal f1 = network.fanin1(n);
    const signal d0 = map_[f0.index()] ^ f0.is_complemented();
    const signal d1 = map_[f1.index()] ^ f1.is_complemented();

    int best_gain = 0;
    bool have_best = false;

    for (const cut_view c : cuts[n]) {
      const auto cut_leaves = c.leaves();
      if (cut_leaves.size() == 1 && cut_leaves[0] == n) continue;  // trivial
      const unsigned mffc = mffc_.size(n, cut_leaves);
      if (mffc == 0) continue;
      const aig_structure* candidate = provider(c.function());
      if (!candidate) continue;

      leaves_.clear();
      for (const auto leaf : cut_leaves) leaves_.push_back(map_[leaf]);
      // Pad unused leaf slots (library structures always use 4 slots).
      while (leaves_.size() < candidate->num_leaves) {
        leaves_.push_back(dest.get_constant(false));
      }

      const auto added =
          count_new_nodes(dest, *candidate, leaves_, mffc, probe_);
      if (!added) continue;
      const int gain = static_cast<int>(mffc) - static_cast<int>(*added);
      const bool accept =
          gain > best_gain ||
          (params.allow_zero_gain && gain == 0 && !have_best);
      if (accept) {
        best_gain = gain;
        have_best = true;
        best_structure_ = *candidate;
        best_leaves_.assign(leaves_.begin(), leaves_.end());
      }
    }

    if (have_best) {
      map_[n] =
          build_structure(dest, best_structure_, best_leaves_, build_scratch_);
      ++local_stats.replacements;
      local_stats.gain_estimate += static_cast<unsigned>(best_gain);
    } else {
      map_[n] = dest.create_and(d0, d1);
    }
  });

  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    const signal po = network.po_signal(i);
    dest.create_po(map_[po.index()] ^ po.is_complemented(),
                   network.po_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    if (reg.input_set) {
      dest.set_register_input(i,
                              map_[reg.input.index()] ^
                                  reg.input.is_complemented());
    }
  }
  counters_.replacements += local_stats.replacements;
  counters_.mffc_queries = mffc_.num_queries();
  if (stats) *stats = local_stats;
}

aig opt_engine::cut_rewriting(const aig& network,
                              const resynthesis_fn& resynthesize,
                              const cut_rewriting_params& params,
                              cut_rewriting_stats* stats) {
  rewrite_core_into(
      network, net_buf_[0],
      [this, &resynthesize](const truth_table& f) -> const aig_structure* {
        adapted_ = resynthesize(f);
        return adapted_ ? &*adapted_ : nullptr;
      },
      params, stats);
  return finalize_copy(net_buf_[0]);
}

aig opt_engine::rewrite(const aig& network, bool allow_zero_gain) {
  cut_rewriting_params params;
  params.cuts.cut_size = 4;
  params.allow_zero_gain = allow_zero_gain;
  rewrite_core_into(
      network, net_buf_[0],
      [this](const truth_table& f) { return library_candidate(f); }, params,
      nullptr);
  return finalize_copy(net_buf_[0]);
}

aig opt_engine::refactor(const aig& network, unsigned cut_size,
                         bool allow_zero_gain) {
  cut_rewriting_params params;
  params.cuts.cut_size = cut_size;
  params.cuts.cut_limit = 8;
  params.allow_zero_gain = allow_zero_gain;
  rewrite_core_into(
      network, net_buf_[0],
      [this](const truth_table& f) { return factoring_candidate(f); }, params,
      nullptr);
  return finalize_copy(net_buf_[0]);
}

void opt_engine::balance_into(const aig& network, aig& dest) {
  network.compute_fanout_counts_into(fanout_);
  ++counters_.passes;

  dest.reset();
  dest.reserve(network.size());
  balance_map_.assign(network.size(), dest.get_constant(false));
  dest_level_.assign(1, 0);  // level of the constant node

  auto level_of = [&](signal s) { return dest_level_[s.index()]; };
  auto create_and_leveled = [&](signal a, signal b) {
    const signal r = dest.create_and(a, b);
    if (r.index() >= dest_level_.size()) {
      dest_level_.resize(r.index() + 1,
                         1 + std::max(level_of(a), level_of(b)));
    }
    return r;
  };

  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    const signal s = dest.create_pi(network.pi_name(i));
    balance_map_[network.pi(i).index()] = s;
    dest_level_.resize(s.index() + 1, 0);
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const signal s = dest.create_register_output(
        network.register_at(i).init, network.register_name(i));
    balance_map_[network.register_at(i).output_node] = s;
    dest_level_.resize(s.index() + 1, 0);
  }

  // Only rebuild tree roots: gates that are not absorbed into a parent tree.
  // A gate is absorbed when referenced exactly once via a non-complemented
  // edge from another gate; roots are everything else that is referenced.
  is_root_.assign(network.size(), false);
  network.foreach_gate([&](aig::node_index n) {
    for (const signal f : {network.fanin0(n), network.fanin1(n)}) {
      if (network.is_gate(f.index()) &&
          (f.is_complemented() || fanout_[f.index()] != 1)) {
        is_root_[f.index()] = true;
      }
    }
  });
  network.foreach_co([&](signal s, std::size_t) {
    if (network.is_gate(s.index())) is_root_[s.index()] = true;
  });

  // Min-heap on arrival levels (pair the two shallowest operands first);
  // push_heap/pop_heap on a reused vector replicate std::priority_queue.
  using item = std::pair<std::uint32_t, signal>;  // (level, signal)
  auto cmp = [](const item& a, const item& b) { return a.first > b.first; };

  network.foreach_gate([&](aig::node_index n) {
    if (!is_root_[n]) return;
    conjuncts_.clear();
    collect_conjuncts(network, n, fanout_, conjuncts_);

    heap_.clear();
    for (const signal c : conjuncts_) {
      const signal m = balance_map_[c.index()] ^ c.is_complemented();
      heap_.emplace_back(level_of(m), m);
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    }
    while (heap_.size() > 1) {
      const item a = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      heap_.pop_back();
      const item b = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      heap_.pop_back();
      const signal r = create_and_leveled(a.second, b.second);
      heap_.emplace_back(level_of(r), r);
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    }
    balance_map_[n] = heap_.front().second;
  });

  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    const signal po = network.po_signal(i);
    dest.create_po(balance_map_[po.index()] ^ po.is_complemented(),
                   network.po_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    if (reg.input_set) {
      dest.set_register_input(
          i, balance_map_[reg.input.index()] ^ reg.input.is_complemented());
    }
  }
}

aig opt_engine::balance(const aig& network) {
  balance_into(network, net_buf_[0]);
  return finalize_copy(net_buf_[0]);
}

void opt_engine::verify_pass_seeded(const aig& before, const aig& after,
                                    const std::string& pass_name,
                                    unsigned rounds, std::uint64_t seed) {
  ++counters_.equiv_checks;
  const bool ok = equiv_.check(before, after, rounds, seed);
  const sim_counters sim = equiv_.counters();
  counters_.sim_words = sim.pattern_words;
  counters_.sim_node_evals = sim.node_evals;
  if (!ok) {
    throw std::runtime_error("optimize: pass '" + pass_name +
                             "' broke simulation equivalence");
  }
}

void opt_engine::verify_pass(const aig& before, const aig& after,
                             const std::string& pass_name, unsigned rounds) {
  // Seed varies per check so successive passes see fresh patterns but the
  // whole script stays deterministic.
  verify_pass_seeded(before, after, pass_name, rounds,
                     /*seed=*/0x51D0 + counters_.equiv_checks + 1);
}

aig opt_engine::run_pass(const aig& network, const std::string& pass) {
  if (pass == "b") return balance(network);
  if (pass == "rw") return rewrite(network, false);
  if (pass == "rwz") return rewrite(network, true);
  if (pass == "rf") return refactor(network, 6, false);
  if (pass == "rfz") return refactor(network, 6, true);
  if (pass == "clean") return network.cleanup();
  throw std::invalid_argument("run_pass: unknown pass '" + pass + "'");
}

aig opt_engine::optimize(const aig& network, const optimize_params& params,
                         optimize_stats* stats) {
  optimize_stats local;
  local.initial_gates = network.num_gates();
  local.initial_depth = network.depth();
  const opt_counters before = counters_;

  // Arena slot bookkeeping: `src` is the current pass input (initially the
  // caller's network, afterwards always one of the three recycled buffers);
  // each step picks a free slot for the raw destination and another for the
  // compaction target, then rotates — no pass allocates a network.
  const aig* src = &network;
  int src_slot = -1;
  const auto free_slot = [&](int exclude) {
    for (int i = 0; i < 3; ++i) {
      if (i != src_slot && i != exclude) return i;
    }
    return 0;  // unreachable: three slots, at most two excluded
  };

  // The historical `network.cleanup()` head of the script: skipped (and
  // counted) when the input has no dead nodes, because compaction would
  // reproduce it verbatim.
  if (network.mark_reachable(compact_) == 0) {
    ++counters_.rebuilds_avoided;
  } else {
    const int slot = free_slot(-1);
    network.compact_into(net_buf_[slot], compact_);
    src = &net_buf_[slot];
    src_slot = slot;
  }

  // Runs one pass into recycled buffers and, when requested, pins its output
  // to its input with a randomized wide-sim equivalence check.  The seed is
  // derived from this call's check ordinal, so a recycled engine uses the
  // exact pattern sequence a fresh one would.
  const auto step = [&](const char* pass_name, auto&& pass_into) {
    const int raw_slot = free_slot(-1);
    const int comp_slot = free_slot(raw_slot);
    aig* raw = &net_buf_[raw_slot];
    pass_into(*src, *raw);
    aig* out = finish_pass(raw, &net_buf_[comp_slot]);
    if (params.validate_passes) {
      const std::uint64_t ordinal =
          counters_.equiv_checks - before.equiv_checks + 1;
      verify_pass_seeded(*src, *out, pass_name, params.validate_rounds,
                         /*seed=*/0x51D0 + ordinal);
    }
    src = out;
    src_slot = (out == raw) ? raw_slot : comp_slot;
  };

  const auto rewrite_step = [&](const aig& g, aig& d, bool zero_gain) {
    cut_rewriting_params rw_params;
    rw_params.cuts.cut_size = 4;
    rw_params.allow_zero_gain = zero_gain;
    rewrite_core_into(
        g, d, [this](const truth_table& f) { return library_candidate(f); },
        rw_params, nullptr);
  };
  const auto refactor_step = [&](const aig& g, aig& d) {
    cut_rewriting_params rf_params;
    rf_params.cuts.cut_size = params.refactor_cut_size;
    rf_params.cuts.cut_limit = 8;
    rf_params.allow_zero_gain = false;
    rewrite_core_into(
        g, d, [this](const truth_table& f) { return factoring_candidate(f); },
        rf_params, nullptr);
  };

  for (unsigned round = 0; round < params.max_rounds; ++round) {
    const std::size_t gates_before = src->num_gates();
    step("b", [&](const aig& g, aig& d) { balance_into(g, d); });
    step("rw", [&](const aig& g, aig& d) { rewrite_step(g, d, false); });
    step("rf", [&](const aig& g, aig& d) { refactor_step(g, d); });
    step("b", [&](const aig& g, aig& d) { balance_into(g, d); });
    step("rw", [&](const aig& g, aig& d) {
      rewrite_step(g, d, params.zero_gain_final);
    });
    ++local.rounds;
    if (src->num_gates() >= gates_before) break;
  }

  local.final_gates = src->num_gates();
  local.final_depth = src->depth();
  local.work = counters_.delta_since(before);
  if (stats) *stats = local;
  return *src;  // the single copy that leaves the arena
}

}  // namespace xsfq
