#pragma once
/// \file opt_engine.hpp
/// \brief Reusable optimization engine: one cut arena, one set of scratch
/// buffers, and one double-buffered *network* arena shared by every
/// balance/rewrite/refactor pass.
///
/// The free functions in balance.hpp / cut_rewriting.hpp / script.hpp all run
/// on a pooled engine (`opt_engine::lease`), and `optimize` keeps that
/// engine across all passes of all rounds.  That is the allocation-free
/// steady state: the cut arena, MFFC scratch, destination-map and leaf
/// buffers, the probe scratch, *and the pass destination networks themselves*
/// reach their high-water mark during the first pass and are recycled
/// afterwards.  Passes write into a recycled shadow network (ABC-style
/// in-place restructuring: swap buffers, don't copy out), dead-node
/// compaction reuses a second recycled buffer and is skipped entirely when a
/// pass produced no dead nodes (`opt_counters::rebuilds_avoided`), and
/// resynthesis candidates (library structures for rewrite, ISOP factorings
/// for refactor) are memoized per cut function, so repeated rounds do not
/// re-factor the same functions.
///
/// Every engine method produces results bit-identical to the historical
/// copy-out passes; tests/test_cut_engine.cpp and tests/test_opt_arena.cpp
/// pin that parity.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// reached through the free xsfq::optimize).
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
  /// Internal provider contract: a borrowed candidate pointer (stable until
  /// the next provider call) or nullptr to skip the cut.
  using provider_fn = std::function<const aig_structure*(const truth_table&)>;

  /// One pass into a recycled destination buffer (dest is reset; output is
  /// *not* compacted — callers run finish_pass or finalize_copy).
  void balance_into(const aig& src, aig& dest);
  void rewrite_core_into(const aig& src, aig& dest, const provider_fn& provider,
                         const cut_rewriting_params& params,
                         cut_rewriting_stats* stats);

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

  const aig_structure* library_candidate(const truth_table& function);
  const aig_structure* factoring_candidate(const truth_table& function);

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
  std::vector<signal> best_leaves_;
  std::vector<signal> build_scratch_;
  aig_structure best_structure_;
  probe_scratch probe_;
  std::optional<aig_structure> adapted_;  ///< slot for resynthesis_fn adapters

  // Balance scratch.
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint32_t> dest_level_;
  std::vector<signal> balance_map_;
  std::vector<bool> is_root_;
  std::vector<signal> conjuncts_;
  std::vector<std::pair<std::uint32_t, signal>> heap_;

  // Memoized resynthesis candidates.  The 16-bit rewrite key space is dense
  // enough for a flat table (lazily sized; 0 = unprobed, 1 = no candidate,
  // 2 = materialized in library_slots_) — the provider sits in the rewrite
  // inner loop, where hashing a uint16 was measurable.  Factorings of
  // single-word functions (<= 6 vars, every standard refactor cut) live in
  // an open-addressed table keyed by (table word, var count); wider
  // functions spill to a conventional map.
  std::vector<std::uint8_t> library_state_;
  std::vector<std::unique_ptr<aig_structure>> library_slots_;
  struct factoring_entry {
    std::uint64_t word = 0;
    std::uint8_t vars = 0;
    bool occupied = false;
    aig_structure structure;
  };
  std::vector<factoring_entry> factoring_table_;
  std::size_t factoring_used_ = 0;
  const aig_structure* factoring_small(const truth_table& function);
  std::unordered_map<truth_table, std::optional<aig_structure>>
      factoring_cache_;  ///< spill tier for > 6-var cut functions
};

}  // namespace xsfq
