#include "opt/opt_engine.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "opt/rewrite_library.hpp"
#include "util/factor.hpp"
#include "util/hash.hpp"
#include "util/isop.hpp"

namespace xsfq {
namespace {

/// Replicates a table over k <= 4 variables to the full 16-row domain.
std::uint16_t to_uint16(std::uint64_t word, unsigned vars) {
  switch (vars) {
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
// quick-factor recursion but append structure steps directly to the engine's
// step pool, reproducing emit_factor(*factor_cover(cover)) byte for byte
// (pinned by tests/test_isop_factor.cpp and the golden optimize
// fingerprints).

/// Where an emission appends its steps: the pool tail from `base` on, whose
/// step i is literal (num_leaves + i) << 1.
struct emit_target {
  std::vector<aig_structure::step>& steps;
  std::size_t base;
  unsigned num_leaves;

  std::uint32_t push(std::uint32_t lit0, std::uint32_t lit1) {
    steps.push_back({lit0, lit1});
    return static_cast<std::uint32_t>(num_leaves + steps.size() - 1 - base)
           << 1;
  }
};

/// Balanced binary reduction over emitted literals — the exact reduction of
/// emit_factor's and_op/or_op case (for OR, callers pass pre-complemented
/// literals and complement the result).
std::uint32_t reduce_emitted(std::vector<std::uint32_t>& lits, bool is_or,
                             emit_target& s) {
  while (lits.size() > 1) {
    std::size_t out = 0;
    std::size_t i = 0;
    for (; i + 1 < lits.size(); i += 2) {
      lits[out++] = s.push(lits[i], lits[i + 1]);
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
  /// Appends the steps of factor_function(f) for the single-word function
  /// `word` over `vars` variables and returns its output literal; exactly
  /// what emit_factor(*factor_function(f), s) used to produce.
  std::uint32_t emit(std::uint64_t word, unsigned vars, emit_target& s) {
    if (word == 0) return aig_structure::const0_lit;
    if (word == truth_table::ones(vars).word0()) {
      return aig_structure::const1_lit;
    }
    isop_word_into(word, vars, cover_);
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
  std::uint32_t emit_cube(const cube& c, emit_target& s,
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
  std::uint32_t emit_cover(std::vector<cube>& cover, emit_target& s,
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
      product = s.push(literal, q_lit);
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

opt_engine::candidate opt_engine::pool_structure(const aig_structure& s) {
  candidate c;
  c.begin = static_cast<std::uint32_t>(steps_.size());
  c.count = s.num_steps();
  c.out_lit = s.out_lit;
  c.num_leaves = s.num_leaves;
  steps_.insert(steps_.end(), s.steps.begin(), s.steps.end());
  return c;
}

const opt_engine::candidate* opt_engine::library_candidate(std::uint64_t word,
                                                           unsigned vars) {
  const std::uint16_t key = to_uint16(word, vars);
  if (library_index_.empty()) library_index_.assign(65536, 0);
  std::uint32_t& index = library_index_[key];
  if (index == 0) {
    index = 1;
    if (const auto s = rewrite_library::instance().structure(key)) {
      library_.push_back(pool_structure(*s));
      index = static_cast<std::uint32_t>(library_.size()) + 1;
    }
  } else {
    ++counters_.resynth_cache_hits;
  }
  return index >= 2 ? &library_[index - 2] : nullptr;
}

const opt_engine::candidate* opt_engine::factoring_candidate(
    std::uint64_t word, unsigned vars) {
  // Linear-probed lookup on the packed (word, vars) key; grown at 70% load.
  if (factoring_table_.empty()) factoring_table_.resize(1024);
  const auto key_of = [](std::uint64_t w, std::uint8_t v) {
    return hash_mix(0x9E3779B97F4A7C15ull ^ v, w);
  };
  const std::size_t hashed = key_of(word, static_cast<std::uint8_t>(vars));
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
    factoring_table_.assign(old.size() * 2, factoring_entry{});
    for (const factoring_entry& e : old) {
      if (!e.occupied) continue;
      std::size_t to = key_of(e.word, e.vars) & (factoring_table_.size() - 1);
      while (factoring_table_[to].occupied) {
        to = (to + 1) & (factoring_table_.size() - 1);
      }
      factoring_table_[to] = e;
    }
    slot = hashed & (factoring_table_.size() - 1);
    while (factoring_table_[slot].occupied) {
      slot = (slot + 1) & (factoring_table_.size() - 1);
    }
  }
  static thread_local factor_emitter emitter;
  factoring_entry& e = factoring_table_[slot];
  e.word = word;
  e.vars = static_cast<std::uint8_t>(vars);
  e.occupied = true;
  e.structure.begin = static_cast<std::uint32_t>(steps_.size());
  e.structure.num_leaves = vars;
  emit_target target{steps_, steps_.size(), vars};
  e.structure.out_lit = emitter.emit(word, vars, target);
  e.structure.count =
      static_cast<std::uint32_t>(steps_.size()) - e.structure.begin;
  ++factoring_used_;
  return &e.structure;
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

int opt_engine::probe(const aig& dest, const candidate& c, int budget) {
  // A slot holds the raw signal a leaf or step already has in `dest`, or
  // fresh_node when the step would create a new node.
  constexpr std::uint32_t fresh_node = 0xFFFFFFFFu;
  const std::uint32_t num_slots = c.num_leaves + c.count;
  if (probe_.size() < num_slots) probe_.resize(num_slots);
  std::uint32_t* value = probe_.data();
  for (std::uint32_t v = 0; v < c.num_leaves; ++v) value[v] = leaves_[v].raw();
  const aig_structure::step* steps = steps_.data() + c.begin;
  int added = 0;
  for (std::uint32_t i = 0; i < c.count; ++i) {
    // Constants cannot appear as step fanins (providers fold them away).
    const std::uint32_t lit0 = steps[i].lit0;
    const std::uint32_t lit1 = steps[i].lit1;
    const std::uint32_t a = value[lit0 >> 1];
    const std::uint32_t b = value[lit1 >> 1];
    std::uint32_t& out = value[c.num_leaves + i];
    if (a != fresh_node && b != fresh_node) {
      if (const auto found = dest.find_and(signal::from_raw(a ^ (lit0 & 1u)),
                                           signal::from_raw(b ^ (lit1 & 1u)))) {
        out = found->raw();
        continue;
      }
    }
    out = fresh_node;
    if (++added > budget) return -1;
  }
  return added;
}

template <typename Provider>
void opt_engine::rewrite_core_into(const aig& network, aig& dest,
                                   Provider&& provider,
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
    int best_gain = 0;
    bool have_best = false;

    for (const cut& c : cuts[n]) {
      if (c.num_leaves == 1 && c.leaf[0] == n) continue;  // trivial
      const unsigned mffc = mffc_.size(n, c.leaves());
      if (mffc == 0) continue;
      const candidate* cand = provider(c.truth, c.num_leaves);
      if (!cand) continue;
      if (cand->num_leaves < c.num_leaves) {
        throw std::invalid_argument(
            "cut_rewriting: candidate has fewer leaves than its cut");
      }
      // A candidate is accepted iff its gain (mffc - added) beats the best
      // so far, or, on a zero-gain pass before any candidate, is zero: so
      // the probe may stop once `added` exceeds this budget.
      const int budget = (params.allow_zero_gain && !have_best)
                             ? static_cast<int>(mffc)
                             : static_cast<int>(mffc) - best_gain - 1;
      if (budget < 0) continue;

      leaves_.clear();
      for (const aig::node_index leaf : c.leaves()) {
        leaves_.push_back(map_[leaf]);
      }
      // Pad unused leaf slots (library structures always use 4 slots).
      leaves_.resize(cand->num_leaves, dest.get_constant(false));

      const int added = probe(dest, *cand, budget);
      if (added < 0) continue;
      best_gain = static_cast<int>(mffc) - added;
      have_best = true;
      best_steps_.assign(steps_.begin() + cand->begin,
                         steps_.begin() + cand->begin + cand->count);
      best_out_lit_ = cand->out_lit;
      best_leaves_.assign(leaves_.begin(), leaves_.end());
    }

    if (!have_best) {
      const signal f0 = network.fanin0(n);
      const signal f1 = network.fanin1(n);
      map_[n] = dest.create_and(map_[f0.index()] ^ f0.is_complemented(),
                                map_[f1.index()] ^ f1.is_complemented());
      return;
    }
    build_.assign(best_leaves_.begin(), best_leaves_.end());
    const auto resolve = [&](std::uint32_t lit) -> signal {
      if (lit == aig_structure::const0_lit) return dest.get_constant(false);
      if (lit == aig_structure::const1_lit) return dest.get_constant(true);
      return build_[lit >> 1] ^ ((lit & 1u) != 0);
    };
    for (const aig_structure::step& st : best_steps_) {
      build_.push_back(dest.create_and(resolve(st.lit0), resolve(st.lit1)));
    }
    map_[n] = resolve(best_out_lit_);
    ++local_stats.replacements;
    local_stats.gain_estimate += static_cast<unsigned>(best_gain);
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

void opt_engine::rewrite_into(const aig& network, aig& dest,
                              bool allow_zero_gain) {
  cut_rewriting_params params;
  params.cuts.cut_size = 4;
  params.allow_zero_gain = allow_zero_gain;
  rewrite_core_into(
      network, dest,
      [this](std::uint64_t word, unsigned vars) {
        return library_candidate(word, vars);
      },
      params, nullptr);
}

void opt_engine::refactor_into(const aig& network, aig& dest,
                               unsigned cut_size, bool allow_zero_gain) {
  cut_rewriting_params params;
  params.cuts.cut_size = cut_size;
  params.cuts.cut_limit = 8;
  params.allow_zero_gain = allow_zero_gain;
  rewrite_core_into(
      network, dest,
      [this](std::uint64_t word, unsigned vars) {
        return factoring_candidate(word, vars);
      },
      params, nullptr);
}

aig opt_engine::cut_rewriting(const aig& network,
                              const resynthesis_fn& resynthesize,
                              const cut_rewriting_params& params,
                              cut_rewriting_stats* stats) {
  // Each candidate is pooled past `mark` and overwritten by the next one;
  // the loop copies its winner out, so only the tail is ever reused.
  const std::size_t mark = steps_.size();
  candidate adapted;
  rewrite_core_into(
      network, net_buf_[0],
      [&](std::uint64_t word, unsigned vars) -> const candidate* {
        steps_.resize(mark);
        const std::optional<aig_structure> s =
            resynthesize(truth_table::from_word(vars, word));
        if (!s) return nullptr;
        adapted = pool_structure(*s);
        return &adapted;
      },
      params, stats);
  steps_.resize(mark);
  return finalize_copy(net_buf_[0]);
}

aig opt_engine::rewrite(const aig& network, bool allow_zero_gain) {
  rewrite_into(network, net_buf_[0], allow_zero_gain);
  return finalize_copy(net_buf_[0]);
}

aig opt_engine::refactor(const aig& network, unsigned cut_size,
                         bool allow_zero_gain) {
  refactor_into(network, net_buf_[0], cut_size, allow_zero_gain);
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
  validate_optimize_params(params);
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

  for (unsigned round = 0; round < params.max_rounds; ++round) {
    const std::size_t gates_before = src->num_gates();
    step("b", [&](const aig& g, aig& d) { balance_into(g, d); });
    step("rw", [&](const aig& g, aig& d) { rewrite_into(g, d, false); });
    step("rf", [&](const aig& g, aig& d) {
      refactor_into(g, d, params.refactor_cut_size, false);
    });
    step("b", [&](const aig& g, aig& d) { balance_into(g, d); });
    step("rw", [&](const aig& g, aig& d) {
      rewrite_into(g, d, params.zero_gain_final);
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
