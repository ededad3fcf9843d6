#pragma once
/// \file script.hpp
/// \brief Canned optimization scripts (ABC `resyn2` analogue).
///
/// Sec. 4.1 of the paper runs Yosys + unmodified ABC; the equivalent here is
/// `optimize`, which iterates balance / rewrite / refactor until the AIG node
/// count converges.  Because LA-FA pairs are isomorphic to AIG nodes
/// (Sec. 3.1.3), this directly minimizes the xSFQ cell count.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace xsfq {

class region_cache;  // opt/partition.hpp

/// Runs every closure to completion before returning (closures must not
/// throw; callers wrap their work to capture errors).  The flow layer backs
/// this with the batch_runner's worker pool so one large circuit can
/// occupy several workers; when empty, partitions run inline on the calling
/// thread with identical results.
using subtask_runner =
    std::function<void(std::vector<std::function<void()>>&&)>;

struct optimize_params {
  unsigned max_rounds = 4;       ///< resyn rounds before giving up
  bool zero_gain_final = true;   ///< allow zero-gain rewrites in last round
  unsigned refactor_cut_size = 6;
  /// Checks randomized simulation equivalence after every pass (wide
  /// sim_engine, scratch recycled across checks); throws std::runtime_error
  /// on a mismatch.  Costs one pair of network sweeps per
  /// equivalence_checker-width (32 rounds) chunk per pass, so the default
  /// of 32 rounds uses exactly one full-width chunk.
  bool validate_passes = false;
  unsigned validate_rounds = 32;  ///< x64 patterns per per-pass check
  /// Intra-flow parallelism: > 1 partitions the network into that many
  /// disjoint topological regions optimized concurrently and merged
  /// deterministically (opt/partition.hpp).  The partition count changes the
  /// result (cuts cannot cross region boundaries), so it joins the flow
  /// fingerprint; 1 is the exact legacy single-region pipeline.
  unsigned flow_jobs = 1;
  /// Fixed-grain partitioning (ECO mode): > 0 cuts the gate array into
  /// regions of exactly this many gates (the last region absorbs the
  /// remainder) instead of flow_jobs equal shares.  Region boundaries are
  /// then a pure function of the network alone, so a position-stable edit
  /// (aig/edit.hpp) leaves every untouched region's extracted content
  /// identical — which is what makes the region result cache hit.  The grain
  /// changes the optimized network exactly like a partition count does, so
  /// it replaces flow_jobs in the fingerprint; flow_jobs degrades to a pure
  /// parallelism knob in grain mode.
  unsigned partition_grain = 0;
  /// Cross-run cache of optimized regions (opt/partition.hpp), consulted per
  /// extracted region keyed by its content hash.  Hits replay the stored
  /// region verbatim; because region optimization is a pure function of the
  /// extracted subnetwork, a hit can change wall-clock but never bytes.
  /// Not part of the fingerprint.  nullptr = no region caching.
  region_cache* regions = nullptr;
  /// Executes the partition subtasks; empty runs them inline.  Not part of
  /// the fingerprint: the executor affects wall-clock only, never results.
  subtask_runner executor;
};

/// Work/allocation counters accumulated by an opt_engine across every pass
/// it runs (see opt/opt_engine.hpp).  Surfaced per stage by src/flow.
struct opt_counters {
  std::uint64_t passes = 0;             ///< transform passes executed
  std::uint64_t cuts_enumerated = 0;    ///< cuts committed to the arena
  std::uint64_t cut_candidates = 0;     ///< leaf-set merge attempts
  std::uint64_t mffc_queries = 0;       ///< MFFC cone evaluations
  std::uint64_t replacements = 0;       ///< accepted resynthesis rewrites
  std::uint64_t resynth_cache_hits = 0; ///< candidate structures served from cache
  std::uint64_t cut_arena_bytes = 0;    ///< peak footprint of the cut arena
  std::uint64_t equiv_checks = 0;       ///< per-pass sim-equivalence checks
  std::uint64_t sim_words = 0;          ///< 64-pattern words swept by checks
  std::uint64_t sim_node_evals = 0;     ///< gate x word evaluations by checks
  std::uint64_t net_arena_bytes = 0;    ///< peak footprint of the network arenas
  std::uint64_t rebuilds_avoided = 0;   ///< pass outputs taken without a rebuild

  /// This record minus `before` for the monotonic work counters; the peak
  /// footprint fields (cut_arena_bytes, net_arena_bytes) keep their current
  /// high-water value.  The one delta rule shared by optimize() and the
  /// partition merge.
  [[nodiscard]] opt_counters delta_since(const opt_counters& before) const;
};

struct optimize_stats {
  std::size_t initial_gates = 0;
  std::size_t final_gates = 0;
  unsigned initial_depth = 0;
  unsigned final_depth = 0;
  unsigned rounds = 0;
  opt_counters work;  ///< engine counters summed over all passes/rounds
};

/// Throws std::invalid_argument for parameters the engine cannot run: a
/// refactor_cut_size above the six leaves a cut record holds.  optimize
/// checks this before any pass, on the single-region and the partitioned
/// path alike.
void validate_optimize_params(const optimize_params& params);

/// Runs rounds of (balance; rewrite; refactor; balance; rewrite) until the
/// gate count stops improving.  Functional equivalence is preserved by
/// construction; tests double-check with simulation.  The pooled engine
/// (its double-buffered network arena, cut arena, and resynthesis caches) is
/// recycled across every pass of every round *and* across calls, so the
/// steady state allocates nothing per node, cut, or candidate.  With
/// params.flow_jobs > 1 the network is partitioned and the regions are
/// optimized concurrently (opt/partition.hpp).
aig optimize(const aig& network, const optimize_params& params = {},
             optimize_stats* stats = nullptr);

/// Runs a single named pass: "b" (balance), "rw" (rewrite), "rwz",
/// "rf" (refactor), "rfz", "clean".  Throws on unknown names.
aig run_pass(const aig& network, const std::string& pass);

}  // namespace xsfq
