#pragma once
/// \file sim_reference.hpp
/// \brief Frozen scalar reference simulator (the pre-sim_engine code).
///
/// These are the one-word-per-traversal implementations that shipped before
/// the wide engine, kept verbatim as (a) the parity oracle for
/// tests/test_simulate.cpp and (b) the "before" baseline whose sweep and
/// random_equivalent rows bench_perf times beside the engine's.  Deliberately naive: fresh
/// result vectors per call, no scratch reuse, no incremental mode.  Do not
/// optimize this file — its value is that it stays what the engine is
/// compared to.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "util/rng.hpp"
#include "util/truth_table.hpp"

namespace xsfq {

inline std::vector<std::uint64_t> reference_simulate64(
    const aig& network, std::span<const std::uint64_t> ci_patterns) {
  std::vector<std::uint64_t> value(network.size(), 0);
  network.foreach_ci([&](signal s, std::size_t i) {
    value[s.index()] = ci_patterns[i];
  });
  network.foreach_gate([&](aig::node_index n) {
    const signal a = network.fanin0(n);
    const signal b = network.fanin1(n);
    const std::uint64_t va =
        a.is_complemented() ? ~value[a.index()] : value[a.index()];
    const std::uint64_t vb =
        b.is_complemented() ? ~value[b.index()] : value[b.index()];
    value[n] = va & vb;
  });
  std::vector<std::uint64_t> result(network.num_cos());
  network.foreach_co([&](signal s, std::size_t i) {
    result[i] = s.is_complemented() ? ~value[s.index()] : value[s.index()];
  });
  return result;
}

inline std::vector<truth_table> reference_co_tables(const aig& network) {
  const auto num_vars = static_cast<unsigned>(network.num_cis());
  std::vector<truth_table> value(network.size(), truth_table(num_vars));
  network.foreach_ci([&](signal s, std::size_t i) {
    value[s.index()] = truth_table::nth_var(num_vars, static_cast<unsigned>(i));
  });
  network.foreach_gate([&](aig::node_index n) {
    const signal a = network.fanin0(n);
    const signal b = network.fanin1(n);
    const truth_table ta =
        a.is_complemented() ? ~value[a.index()] : value[a.index()];
    const truth_table tb =
        b.is_complemented() ? ~value[b.index()] : value[b.index()];
    value[n] = ta & tb;
  });
  std::vector<truth_table> result;
  result.reserve(network.num_cos());
  network.foreach_co([&](signal s, std::size_t) {
    result.push_back(s.is_complemented() ? ~value[s.index()]
                                         : value[s.index()]);
  });
  return result;
}

inline bool reference_random_equivalent(const aig& a, const aig& b,
                                        unsigned rounds, std::uint64_t seed) {
  if (a.num_cis() != b.num_cis() || a.num_cos() != b.num_cos()) return false;
  rng gen(seed);
  std::vector<std::uint64_t> patterns(a.num_cis());
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& p : patterns) p = gen();
    if (reference_simulate64(a, patterns) != reference_simulate64(b, patterns))
      return false;
  }
  return true;
}

}  // namespace xsfq
