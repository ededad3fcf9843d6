#pragma once
/// \file opt_engine.hpp
/// \brief Reusable optimization engine: one cut arena, one candidate step
/// pool, one set of scratch buffers, and one double-buffered *network* arena
/// shared by every balance/rewrite/refactor pass.
///
/// The free functions in balance.hpp / cut_rewriting.hpp / script.hpp all run
/// on a pooled engine (`opt_engine::lease`), and `optimize` keeps that
/// engine across all passes of all rounds.  That is the allocation-free
/// steady state: the cut arena, the per-node MFFC records, destination-map
/// and leaf buffers, *and the pass destination networks themselves* reach
/// their high-water mark during the first pass and are recycled afterwards.
/// Passes write into a recycled shadow network (ABC-style in-place
/// restructuring: swap buffers, don't copy out), dead-node compaction reuses
/// a second recycled buffer and is skipped entirely when a pass produced no
/// dead nodes (`opt_counters::rebuilds_avoided`).
///
/// Resynthesis candidates (library structures for rewrite, ISOP factorings
/// for refactor) are memoized per cut function as 16-byte handles
/// `{begin, count, out_lit, num_leaves}` into one engine-owned step pool, so
/// repeated rounds do not re-factor the same functions.  The rewrite loop
/// takes its provider as a template parameter and probes the destination's
/// structural hash under a budget: the most nodes a candidate may add and
/// still beat the node's best candidate so far (`mffc - best_gain - 1`, or
/// `mffc` while a zero-gain pass has no candidate yet).  A probe stops as
/// soon as it exceeds that budget, which changes no accept/reject decision.
///
/// Every engine method produces results bit-identical to the historical
/// copy-out passes; tests/test_cut_engine.cpp and tests/test_opt_arena.cpp
/// pin that parity.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cuts.hpp"
#include "aig/simulate.hpp"
#include "opt/aig_structure.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/script.hpp"

namespace xsfq {

class opt_engine {
public:
  opt_engine() = default;

  /// Exclusive use of one engine for the lease's lifetime.  Engines come
  /// from a process-wide idle pool and go back to it warm — arenas,
  /// scratch, and resynthesis caches sized by the largest circuit they have
  /// seen — so the number of engines is the peak number of optimizations
  /// running at once, whichever threads run them.  A daemon that runs each
  /// request on its connection's thread therefore keeps as many warm
  /// engines as it runs flows concurrently, not one per connection.  The
  /// free functions (optimize, balance, rewrite, ...) each hold a lease for
  /// the call.  Engine state never changes results — only allocations.
  class lease {
   public:
    lease();
    ~lease();
    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;
    opt_engine& operator*() const { return *engine_; }
    opt_engine* operator->() const { return engine_.get(); }

   private:
    std::unique_ptr<opt_engine> engine_;
  };

  /// An engine the calling thread leases until it exits, for callers that
  /// drive one engine directly across many calls.
  static opt_engine& thread_local_engine();

  /// Depth balancing (see balance.hpp).
  aig balance(const aig& network);
  /// ABC-style `rewrite`: 4-cut resynthesis from the precomputed library.
  aig rewrite(const aig& network, bool allow_zero_gain = false);
  /// ABC-style `refactor`: larger cuts resynthesized via ISOP + factoring.
  /// Throws std::invalid_argument for a cut_size above cut::max_leaves.
  aig refactor(const aig& network, unsigned cut_size = 6,
               bool allow_zero_gain = false);
  /// Generic DAG-aware rewriting with a pluggable resynthesis provider.
  aig cut_rewriting(const aig& network, const resynthesis_fn& resynthesize,
                    const cut_rewriting_params& params = {},
                    cut_rewriting_stats* stats = nullptr);
  /// Named pass dispatch ("b", "rw", "rwz", "rf", "rfz", "clean").
  aig run_pass(const aig& network, const std::string& pass);
  /// The full resyn script on this engine's recycled arena.  Ignores
  /// params.flow_jobs (partitioned parallelism lives in opt/partition.hpp,
  /// reached through the free xsfq::optimize).  Rejects parameters the
  /// engine cannot run (validate_optimize_params) before any pass.
  aig optimize(const aig& network, const optimize_params& params = {},
               optimize_stats* stats = nullptr);

  /// Counters accumulated across every pass run on this engine.  With a
  /// long-lived (pooled) engine these are lifetime totals; per-call work
  /// is the delta (opt_counters::delta_since), which is what optimize() and
  /// the flow's optimize stage report.
  [[nodiscard]] const opt_counters& counters() const { return counters_; }

  /// Randomized sim-equivalence check between `before` and `after` on the
  /// engine's recycled wide simulator; throws std::runtime_error naming
  /// `pass_name` on a mismatch.  Used per pass when
  /// optimize_params::validate_passes is set; callers may also invoke it
  /// directly after run_pass().
  void verify_pass(const aig& before, const aig& after,
                   const std::string& pass_name, unsigned rounds = 32);

private:
  /// A resynthesis candidate: `count` AND steps starting at `begin` in
  /// steps_, in aig_structure's literal space over `num_leaves` leaves.
  struct candidate {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t out_lit = 0;
    std::uint32_t num_leaves = 0;
  };

  /// One pass into a recycled destination buffer (dest is reset; output is
  /// *not* compacted — callers run finish_pass or finalize_copy).
  void balance_into(const aig& src, aig& dest);
  void rewrite_into(const aig& src, aig& dest, bool allow_zero_gain);
  void refactor_into(const aig& src, aig& dest, unsigned cut_size,
                     bool allow_zero_gain);
  /// The rewrite/refactor loop.  `provider(truth_word, num_vars)` returns a
  /// candidate for a cut function (valid until its next call) or nullptr to
  /// skip the cut.
  template <typename Provider>
  void rewrite_core_into(const aig& src, aig& dest, Provider&& provider,
                         const cut_rewriting_params& params,
                         cut_rewriting_stats* stats);
  /// Nodes that building `c` over leaves_ would add to `dest` (existing
  /// nodes are free), or -1 as soon as that count exceeds `budget`.
  int probe(const aig& dest, const candidate& c, int budget);

  /// Compacts `raw` into `compacted` unless nothing is dead (then the raw
  /// buffer *is* the pass output and the rebuild is skipped).  Returns the
  /// buffer holding the final pass output.
  aig* finish_pass(aig* raw, aig* compacted);
  /// Boundary form for the public one-shot methods: same decision, but the
  /// result leaves the arena as a fresh copy.
  aig finalize_copy(aig& raw);
  /// Folds the network arena's current footprint into the peak counter.
  void note_net_arena();

  /// verify_pass body with an explicit seed; optimize() derives the seed
  /// from its own check ordinal so a recycled engine reproduces the exact
  /// pattern sequence a fresh engine would use.
  void verify_pass_seeded(const aig& before, const aig& after,
                          const std::string& pass_name, unsigned rounds,
                          std::uint64_t seed);

  /// Appends `s`'s steps to the pool and returns their handle.
  candidate pool_structure(const aig_structure& s);
  const candidate* library_candidate(std::uint64_t word, unsigned vars);
  const candidate* factoring_candidate(std::uint64_t word, unsigned vars);

  cut_engine cuts_;
  mffc_calculator mffc_;
  opt_counters counters_;
  equivalence_checker equiv_;  ///< recycled wide-sim validation scratch

  // The double-buffered network arena: pass destinations and compaction
  // targets rotate through these recycled networks (a third slot keeps the
  // pass input alive for validation while the next pass is prepared).
  aig net_buf_[3];
  aig::compaction_scratch compact_;

  // Rewriting scratch, recycled across passes.
  std::vector<signal> map_;
  std::vector<signal> leaves_;
  std::vector<std::uint32_t> probe_;  ///< raw signal per slot, or "new node"
  std::vector<signal> build_;
  // The node's best candidate so far, copied out of the pool: a
  // resynthesis_fn candidate's pool slot is reused by the next one.
  std::vector<aig_structure::step> best_steps_;
  std::vector<signal> best_leaves_;
  std::uint32_t best_out_lit_ = 0;

  // Balance scratch.
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint32_t> dest_level_;
  std::vector<signal> balance_map_;
  std::vector<bool> is_root_;
  std::vector<signal> conjuncts_;
  std::vector<std::pair<std::uint32_t, signal>> heap_;

  // Memoized resynthesis candidates, all stored in one step pool.  The
  // 16-bit rewrite key space is dense enough for a flat index (lazily sized;
  // 0 = unprobed, 1 = no candidate, i + 2 = library_[i]) — the provider sits
  // in the rewrite inner loop, where hashing a uint16 was measurable.
  // Factorings live in an open-addressed table keyed by (table word, var
  // count); cuts never exceed six leaves, so one word keys every function.
  std::vector<aig_structure::step> steps_;
  std::vector<std::uint32_t> library_index_;
  std::vector<candidate> library_;
  struct factoring_entry {
    std::uint64_t word = 0;
    std::uint8_t vars = 0;
    bool occupied = false;
    candidate structure;
  };
  std::vector<factoring_entry> factoring_table_;
  std::size_t factoring_used_ = 0;
};

}  // namespace xsfq
