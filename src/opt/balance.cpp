#include "opt/balance.hpp"

#include "opt/opt_engine.hpp"

namespace xsfq {

aig balance(const aig& network) {
  const opt_engine::lease engine;
  return engine->balance(network);
}

}  // namespace xsfq
