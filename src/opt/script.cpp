#include "opt/script.hpp"

#include <stdexcept>
#include <string>

#include "opt/opt_engine.hpp"
#include "opt/partition.hpp"

namespace xsfq {

opt_counters opt_counters::delta_since(const opt_counters& before) const {
  opt_counters d = *this;
  d.passes -= before.passes;
  d.cuts_enumerated -= before.cuts_enumerated;
  d.cut_candidates -= before.cut_candidates;
  d.mffc_queries -= before.mffc_queries;
  d.replacements -= before.replacements;
  d.resynth_cache_hits -= before.resynth_cache_hits;
  d.equiv_checks -= before.equiv_checks;
  d.sim_words -= before.sim_words;
  d.sim_node_evals -= before.sim_node_evals;
  d.rebuilds_avoided -= before.rebuilds_avoided;
  // cut_arena_bytes / net_arena_bytes stay the peak footprint, not a delta.
  return d;
}

void validate_optimize_params(const optimize_params& params) {
  if (params.refactor_cut_size > cut::max_leaves) {
    throw std::invalid_argument(
        "optimize: refactor_cut_size " +
        std::to_string(params.refactor_cut_size) + " exceeds " +
        std::to_string(cut::max_leaves) + " leaves");
  }
}

aig optimize(const aig& network, const optimize_params& params,
             optimize_stats* stats) {
  if (params.flow_jobs > 1 || params.partition_grain > 0) {
    return optimize_partitioned(network, params, stats);
  }
  // A warm pooled engine: every balance/rewrite/refactor round reuses the
  // same cut arena, network arena, MFFC scratch, and resynthesis caches.
  const opt_engine::lease engine;
  return engine->optimize(network, params, stats);
}

aig run_pass(const aig& network, const std::string& pass) {
  const opt_engine::lease engine;
  return engine->run_pass(network, pass);
}

}  // namespace xsfq
