#include "opt/cut_rewriting.hpp"

#include "opt/opt_engine.hpp"

namespace xsfq {

// The pass implementations live in opt_engine, which recycles the cut arena,
// the double-buffered network arena, and every scratch buffer between calls;
// these wrappers run on a pooled engine (engine state never changes
// results, only allocations — see opt_engine.hpp).

aig cut_rewriting(const aig& network, const resynthesis_fn& resynthesize,
                  const cut_rewriting_params& params,
                  cut_rewriting_stats* stats) {
  const opt_engine::lease engine;
  return engine->cut_rewriting(network, resynthesize, params, stats);
}

aig rewrite(const aig& network, bool allow_zero_gain) {
  const opt_engine::lease engine;
  return engine->rewrite(network, allow_zero_gain);
}

aig refactor(const aig& network, unsigned cut_size, bool allow_zero_gain) {
  const opt_engine::lease engine;
  return engine->refactor(network, cut_size, allow_zero_gain);
}

}  // namespace xsfq
